"""Exception hierarchy for the brauer package.

Every domain error derives from BrauerError and carries a stable
machine-readable name (its class name), which the CLI prints on exit
code 1 so scripts can dispatch on it.
"""

from __future__ import annotations


class BrauerError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


class ParseError(BrauerError):
    """A tangle or word text did not match its format."""


class DuplicateNode(BrauerError):
    """A node appears in more than one edge."""


class UncoveredNode(BrauerError):
    """A node appears in no edge."""


class IndexOutOfRange(BrauerError):
    """A node or generator index is outside 1..N (or 1..N-1)."""


class InvalidPairing(BrauerError):
    """A pairing array is not a fixed-point-free involution of range(2N)."""


class SelfLoop(BrauerError):
    """An edge connects a node to itself."""


class SizeMismatch(BrauerError):
    """Two tangles (or a tangle and a word) have different N."""


class EdgeNotInTangle(BrauerError):
    """An edge argument does not belong to the given tangle."""


class MergeUndefined(BrauerError):
    """The hook/edge pair fits none of the defined merge cases."""


class NotASizeOneUpperHook(BrauerError):
    """The hook argument of a merge is not an upper hook (i, i+1)."""


class NotAPermutationTangle(BrauerError):
    """The tangle contains a hook, so it has no permutation form."""


class NotPlanar(BrauerError):
    """The tangle has a crossing, so it is not Temperley-Lieb."""


class NoViableMerge(BrauerError):
    """No merge candidate reduced the length; impossible on valid input."""


class NoViableStep(BrauerError):
    """The reference factorizer found no length-reducing step."""


class InternalError(BrauerError):
    """An invariant that must hold for valid input was violated (a bug)."""


class ResourceLimit(BrauerError):
    """An enumeration exceeded its configured node cap."""


class IncompleteDatabase(BrauerError):
    """A minimal-word store does not hold every tangle of B_n."""


class NoMatch(BrauerError):
    """A rewrite rule does not match the word at the given position."""
