"""Minimal-word factorization of Brauer tangles.

factorize() is the fast path: it extracts the factor indices from the
bubble-sort factorization of the tangle's permutation image, then walks
them top-down, stripping a crossing (T_i) or merging the top hook (U_i)
at each step while a per-edge crossing table is maintained incrementally.
The table makes the length test linear per merge candidate, so the whole
run is quartic in N.  The inner loop lives in brauer._kernels.

factorize_naive() is the reference algorithm: at each step it tries every
merge of the leftmost size-one upper hook, or every T_i composition, and
keeps the first one that drops the supplied length function by one.  It is
a factor N slower times the cost of the length function, and exists to
cross-check the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ._kernels import factorize_core
from .errors import MergeUndefined, NoViableStep, SizeMismatch
from .symmetric import bubble_sort_indices, to_permutation
from .tangle import (
    Edge,
    NodeRef,
    Prime,
    Row,
    Tangle,
    Word,
    compose,
    compose_word,
    merge,
    prime,
    signed_to_word,
)
from .tau import length_p, tau


@dataclass(frozen=True)
class VerifyResult:
    composes: bool
    length_minimal: bool


def factor_indices(x: Tangle) -> list[int]:
    """The normative index sequence: bubble-sort indices of the image."""
    return bubble_sort_indices(to_permutation(tau(x)))


def factorize(x: Tangle, *, min_t: bool = False, debug_table: bool = False) -> Word:
    """A minimal word for x, topmost factor first.

    With min_t, merge candidates are chosen to minimize the total crossing
    count of the merged tangle, which makes the output use as few T-primes
    as possible (exactly the crossing number of x).  With debug_table, the
    incremental crossing table is recomputed from scratch after every step
    and any drift raises InternalError.
    """
    indices = factor_indices(x)
    return signed_to_word(
        x.n, factorize_core(x.n, list(x.pairing), indices, min_t, debug_table)
    )


def factorize_naive(x: Tangle, length_fn: Callable[[Tangle], int] = length_p) -> Word:
    """Reference factorizer: peel one prime per step, validating each step
    with the supplied length function (length_p, length_tau, or an oracle
    lookup)."""
    n = x.n
    remaining = length_fn(x)
    factors: list[Prime] = []
    while remaining:
        hook_index = next(
            (i for i in range(1, n) if x.pairing[i - 1] == i), None
        )
        if hook_index is not None:
            h = Edge(NodeRef(Row.TOP, hook_index), NodeRef(Row.TOP, hook_index + 1))
            for e in x.edges:
                if e == h:
                    continue
                try:
                    candidate = merge(x, h, e)
                except MergeUndefined:
                    continue
                if length_fn(candidate) == remaining - 1:
                    x = candidate
                    factors.append(Prime("U", hook_index))
                    break
            else:
                raise NoViableStep(f"no merge of {h} reduces the length of {x}")
        else:
            for i in range(1, n):
                candidate = compose(prime(n, Prime("T", i)), x)
                if length_fn(candidate) == remaining - 1:
                    x = candidate
                    factors.append(Prime("T", i))
                    break
            else:
                raise NoViableStep(f"no T-prime reduces the length of {x}")
        remaining -= 1
    return Word(n, tuple(factors))


def verify(x: Tangle, w: Word) -> VerifyResult:
    """Check that w composes to x and that its length is minimal for x."""
    if w.n != x.n:
        raise SizeMismatch(f"word is over B_{w.n}, tangle in B_{x.n}")
    return VerifyResult(
        composes=compose_word(w) == x,
        length_minimal=len(w) == length_p(x),
    )
