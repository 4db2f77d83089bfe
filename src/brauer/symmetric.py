"""The symmetric group S_N inside B_N: permutation form, inversion counting
and the bubble-sort factorization into adjacent transpositions.

The factor order produced by bubble_sort_factorize is normative for the
whole package: the main factorizer consumes exactly this index sequence
(computed on the crossing-minimal permutation image of its input), so the
double loop below must not be reordered.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import NotAPermutationTangle, ParseError
from .tangle import NodeRef, Row, Tangle, Word, make_tangle


@dataclass(frozen=True)
class Permutation:
    """A bijection on 1..n in one-line notation: image[i-1] = s_i, kept as
    a tuple of ints so that equal permutations compare and hash alike."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n, image = operator.index(self.n), tuple(map(operator.index, self.image))
        if len(image) != n or sorted(image) != list(range(1, n + 1)):
            raise ParseError(f"{self.image} is not a permutation of 1..{n}")
        object.__setattr__(self, "image", image)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.image)


def to_permutation(x: Tangle) -> Permutation:
    """Permutation form of a transversal-only tangle: image[i] = j for (i, j')."""
    image = [0] * x.n
    for e in x.edges:
        if e.a.row == e.b.row:
            raise NotAPermutationTangle(f"{x} contains the hook {e}")
        image[e.a.index - 1] = e.b.index
    return Permutation(x.n, tuple(image))


def permutation_tangle(p: Permutation) -> Tangle:
    """The tangle of a permutation: upper node i joined to lower node s_i'."""
    return make_tangle(
        p.n,
        [(NodeRef(Row.TOP, i + 1), NodeRef(Row.BOTTOM, s)) for i, s in enumerate(p.image)],
    )


def inversion_count(p: Permutation) -> int:
    """|{(i, j) : i < j, s_i > s_j}| by direct pair scan.

    >>> inversion_count(Permutation(4, (4, 3, 1, 2)))
    5
    """
    count = 0
    image = p.image
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if image[i] > image[j]:
                count += 1
    return count


def bubble_sort_indices(p: Permutation) -> list[int]:
    """Indices of the adjacent transpositions that sort p, in emission order.

    The passes run j = n..1 with i = 1..j-1 inside; the result has exactly
    inversion_count(p) entries.
    """
    s = list(p.image)
    out: list[int] = []
    for j in range(p.n, 0, -1):
        for i in range(1, j):
            if s[i - 1] > s[i]:
                s[i - 1], s[i] = s[i], s[i - 1]
                out.append(i)
    return out


def bubble_sort_factorize(x: Tangle) -> Word:
    """Minimal T-prime word for a permutation tangle."""
    indices = bubble_sort_indices(to_permutation(x))
    return Word(x.n, tuple(indices))


def is_permutation_tangle(x: Tangle) -> bool:
    return all(q >= x.n for q in x.pairing[: x.n])
