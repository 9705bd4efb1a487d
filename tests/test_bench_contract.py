"""Every function the benchmark traces must still exist.

``bench/layers.py`` patches each ``module:attr`` target of its spans; a
target that no longer imports is reported as an absent metric, which changes
the benchmark's result line.  This test reads the span table and fails as
soon as a traced function is deleted or renamed in the package.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import layers  # noqa: E402

TARGETS = sorted({target for span in layers.SPANS for target in span.targets})


def test_spans_name_targets():
    assert TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_span_target_is_callable(target):
    mod_name, attr = target.split(":")
    module = importlib.import_module(mod_name)
    assert callable(getattr(module, attr, None)), target
