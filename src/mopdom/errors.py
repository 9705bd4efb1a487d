"""Exception hierarchy for the mopdom package.

Every error raised by this package derives from :class:`MopError`, so callers
can catch one type at an API boundary.  The leaf classes are deliberately
fine-grained: validation code raises the most specific one that applies.
"""

from __future__ import annotations


class MopError(Exception):
    """Base class for all mopdom errors."""


# --- graph construction / validation -----------------------------------------

class WrongChordCount(MopError):
    """Number of chords differs from n - 3."""


class CrossingChords(MopError):
    """Two chords interleave around the outer cycle."""


class DuplicateOrDegenerateChord(MopError):
    """A chord is repeated, is a self-loop, or coincides with a cycle edge."""


class VertexOutOfRange(MopError):
    """A vertex label is outside 0..n-1, or is not an integer at all."""


class NotMaximalOuterplanar(MopError):
    """An edge list does not describe a maximal outerplanar graph."""


class EmptyOrDisconnected(MopError):
    """An edge list is empty or the graph it describes is disconnected."""


class UnreadableInput(MopError):
    """An input file is missing, cannot be read, or is not UTF-8 text."""


class ResultNotMaximalOuterplanar(MopError):
    """A reduction produced something other than a maximal outerplanar graph."""


# --- dual tree ----------------------------------------------------------------

class NotALeaf(MopError):
    """The dual-tree node given to a leaf-walk operation has degree != 1."""


class PreconditionTooSmall(MopError):
    """Branch-shape matching requires n >= 9."""


# --- domination ---------------------------------------------------------------

class TooSmall(MopError):
    """The operation is defined only for n >= 4."""


class TooLarge(MopError):
    """The graph exceeds the base case's cap of n <= BASE_MAX_N (8)."""


class Infeasible(MopError):
    """No admissible dominating set exists under the given restrictions."""


# --- generators ---------------------------------------------------------------

class BadParameter(MopError):
    """A generator parameter is out of its documented range."""


class UnknownFixture(MopError):
    """No fixture with the requested name exists."""


# --- constructive engine --------------------------------------------------------

class BoundViolated(MopError):
    """A certified size bound failed on an input that should satisfy it."""


class RuleMismatch(MopError):
    """A reduction rule was applied with labels that do not fit the graph."""


class NoRuleApplies(MopError):
    """No reduction rule matches the current graph."""


class CertificationFailed(MopError):
    """An assembled solution failed re-certification at some recursion level."""
