"""Outside-in span tracer for the benchmark's traced runs.

Spans are recorded by replacing a function attribute on the module that
*calls* it (the package binds names with ``from .x import y``, so patching
the defining module would miss those callers).  Spans nest: a span's self
time is its duration minus the time covered by spans opened inside it.
Nothing inside the package is edited; a target that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.broken: set[str] = set()
        # Child time accumulated by each open span; the bottom entry is the
        # (unused) parent of top-level spans.
        self._child_s: list[float] = [0.0]

    def _timed(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._child_s
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self.self_s[name] += dur - stack.pop()
            stack[-1] += dur

    def wrap(
        self,
        name: str,
        fn: Callable,
        generator: bool = False,
        on_return: tuple[str, Callable[[Any], int]] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so that every call is a span named ``name``.

        A generator function is timed over its iteration: each ``next`` is a
        span and only creating the generator counts as a call.  ``on_return``
        is ``(counter, count_of)``: the counter grows by ``count_of(result)``
        after each call, or is marked broken if the result lacks the fields."""
        if generator:

            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                self.calls[name] += 1
                it = self._timed(name, fn, args, kwargs)
                done = object()
                while True:
                    item = self._timed(name, next, (it, done), {})
                    if item is done:
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.calls[name] += 1
            result = self._timed(name, fn, args, kwargs)
            if on_return is not None:
                counter, count_of = on_return
                try:
                    self.counters[counter] += count_of(result)
                except AttributeError:
                    self.broken.add(counter)
            return result

        return wrapper

    def install(
        self,
        name: str,
        targets: Iterable[str],
        generator: bool = False,
        on_return: tuple[str, Callable[[Any], int]] | None = None,
    ) -> bool:
        """Patch every ``module:attr`` target that exists; False if none does."""
        found = False
        for target in targets:
            mod_name, attr = target.split(":")
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            setattr(module, attr, self.wrap(name, fn, generator, on_return))
            found = True
        return found
