"""
Core model of the Brauer monoid B_N.

A tangle on N columns is a perfect matching of 2N boundary nodes: the top
row 1..N and the bottom row 1'..N'.  Internally a tangle is a *pairing
array* over boundary positions.  Walking the boundary clockwise, position
i-1 is the top node i (left to right) and position 2N-i is the bottom node
i' (so the bottom row is traversed right to left):

    top:     1   2   ...  N          positions 0 .. N-1
    bottom:  1'  2'  ...  N'         positions 2N-1 .. N

In this cyclic order two edges cross if and only if their endpoint
positions interleave, so crossing counts are purely combinatorial and the
drawing never has to exist.  pairing[p] == q means positions p and q are
joined; the array is a fixed-point-free involution of range(2N), which
every Tangle checks on construction (InvalidPairing otherwise).

Edges are exposed to callers in the canonical form of the matching model:
a hook lists its smaller index first, a transversal lists the top node
first, and the edge set of a tangle is sorted by first node (top row
before bottom row, then by index), which makes structural equality and
text emission deterministic.

Words are sequences of the prime generators T_i (adjacent crossing) and
U_i (adjacent cup/cap); the first factor of a word is the topmost factor
of the composition.  A Word is a tuple of signed ints, +i for T_i and -i
for U_i; only parse_word and format_word see the "T3 U1" text.  Every
product with a word is a fold of right_multiply (kept beside the kernels,
in brauer._kernels.pure), which turns the pairing list of X into that of
X . P in place in O(1).  All values here are immutable and all other
operations are pure functions, so everything is safe to share between
threads.
"""

from __future__ import annotations

import enum
import operator
import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from ._kernels import crossing_counts
from ._kernels.pure import _ranked_reps, merge_targets, right_multiply
from .errors import (
    DuplicateNode,
    EdgeNotInTangle,
    IndexOutOfRange,
    InvalidPairing,
    MergeUndefined,
    NotASizeOneUpperHook,
    ParseError,
    SelfLoop,
    SizeMismatch,
    UncoveredNode,
)


class Row(enum.IntEnum):
    TOP = 0
    BOTTOM = 1


class Axis(enum.Enum):
    HORIZONTAL = "horizontal"  # swap the two rows
    VERTICAL = "vertical"      # mirror column i to N+1-i


class EdgeKind(enum.Enum):
    UPPER_HOOK = "upper hook"
    LOWER_HOOK = "lower hook"
    POSITIVE_TRANSVERSAL = "positive transversal"
    ZERO_TRANSVERSAL = "zero transversal"
    NEGATIVE_TRANSVERSAL = "negative transversal"


_NODE_RE = re.compile(r"^(\d+)('?)$")


@dataclass(frozen=True, order=True)
class NodeRef:
    """One boundary node, e.g. top 3 (printed "3") or bottom 3 (printed "3'")."""

    row: Row
    index: int

    def __str__(self) -> str:
        return f"{self.index}'" if self.row is Row.BOTTOM else str(self.index)

    @staticmethod
    def parse(token: str) -> NodeRef:
        m = _NODE_RE.match(token.strip())
        if m is None:
            raise ParseError(f"bad node token {token!r}")
        return NodeRef(Row.BOTTOM if m.group(2) else Row.TOP, _parse_int(m.group(1)))


def _parse_int(digits: str) -> int:
    # int() refuses strings of more than sys.get_int_max_str_digits() digits.
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number of {len(digits)} digits is too long") from None


def _as_node(value: NodeRef | str | int) -> NodeRef:
    if isinstance(value, NodeRef):
        return value
    if isinstance(value, int):
        return NodeRef(Row.TOP, value)
    if not isinstance(value, str):
        raise TypeError(f"node {value!r} is not a NodeRef, an int or a str")
    return NodeRef.parse(value)


@dataclass(frozen=True)
class Edge:
    """A canonical node pair: same-row edges list the smaller index first,
    mixed edges list the top node first."""

    a: NodeRef
    b: NodeRef

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise SelfLoop(f"edge joins {self.a} to itself")
        if (self.a.row, self.a.index) > (self.b.row, self.b.index):
            first, second = self.b, self.a
            object.__setattr__(self, "a", first)
            object.__setattr__(self, "b", second)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"

    @property
    def kind(self) -> EdgeKind:
        if self.a.row == self.b.row:
            return EdgeKind.UPPER_HOOK if self.a.row is Row.TOP else EdgeKind.LOWER_HOOK
        if self.a.index > self.b.index:
            return EdgeKind.POSITIVE_TRANSVERSAL
        if self.a.index < self.b.index:
            return EdgeKind.NEGATIVE_TRANSVERSAL
        return EdgeKind.ZERO_TRANSVERSAL

    @property
    def size(self) -> int:
        return abs(self.a.index - self.b.index)


def edge(x: NodeRef | str | int, y: NodeRef | str | int) -> Edge:
    """Edge from two nodes given as NodeRef, bare int (top row) or token ("3'")."""
    return Edge(_as_node(x), _as_node(y))


def node_position(n: int, node: NodeRef) -> int:
    """Boundary position of a node in a tangle of width n."""
    return node.index - 1 if node.row is Row.TOP else 2 * n - node.index


def position_node(n: int, pos: int) -> NodeRef:
    return NodeRef(Row.TOP, pos + 1) if pos < n else NodeRef(Row.BOTTOM, 2 * n - pos)


@dataclass(frozen=True)
class Tangle:
    """An element of B_n: n and the pairing involution over 2n positions."""

    n: int
    pairing: tuple[int, ...]

    def __post_init__(self) -> None:
        # Getting range(m) back from all m values p[q] != q makes p a
        # permutation of range(m), an involution and free of fixed points.
        # A list would compare unequal to the same tuple and not hash.
        p, m = self.pairing, 2 * self.n
        try:
            ok = (
                isinstance(p, tuple)
                and len(p) == m
                and [p[q] for q in p if p[q] != q] == list(range(m))
            )
        except (IndexError, TypeError):
            ok = False
        if not ok:
            raise InvalidPairing(
                f"B_{self.n} pairing {p!r} is not a fixed-point-free involution of range({m})"
            )

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges in canonical sorted order."""
        found = []
        for p, q in enumerate(self.pairing):
            if q > p:
                found.append(Edge(position_node(self.n, p), position_node(self.n, q)))
        found.sort(key=lambda e: (e.a.row, e.a.index))
        return tuple(found)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def edge_at(self, node: NodeRef) -> Edge:
        """The unique edge containing the given node."""
        p = node_position(self.n, node)
        if not 0 <= p < 2 * self.n:
            raise IndexOutOfRange(f"node {node} outside B_{self.n}")
        q = self.pairing[p]
        return Edge(position_node(self.n, p), position_node(self.n, q))

    def __str__(self) -> str:
        return format_tangle(self)


class Factor(int):
    """One factor of a word: +i for T_i, -i for U_i.  It is a plain int
    to every computation; kind ("T" or "U") is read by perfbench's tests."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return "T" if self > 0 else "U"


@dataclass(frozen=True)
class Word:
    """A factorization of an element of B_n: signed-int factors, topmost
    first.  Every factor needs 1 <= |v| <= n-1 (IndexOutOfRange), since
    compose_word folds the unchecked right_multiply."""

    n: int
    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(map(Factor, map(operator.index, self.factors)))
        if factors and (0 in factors or max(map(abs, factors)) >= self.n):
            bad = next(v for v in factors if not 0 < abs(v) < self.n)
            raise IndexOutOfRange(f"factor {bad} needs 1 <= |v| <= {self.n - 1} in B_{self.n}")
        object.__setattr__(self, "factors", factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return format_word(self)

    def t_count(self) -> int:
        return sum(1 for v in self.factors if v > 0)


# ---------------------------------------------------------------------------
# Construction


def _pairing_from_edges(n: int, pairs: Iterable[tuple[NodeRef, NodeRef]]) -> tuple[int, ...]:
    # A dict, not a 2n list: n comes from outside ("B1000000000:") and must
    # not be allocated before the edges are known to cover it.
    mate: dict[int, int] = {}
    for a, b in pairs:
        for node in (a, b):
            if not 1 <= node.index <= n:
                raise IndexOutOfRange(f"node {node} outside 1..{n}")
        if a == b:
            raise SelfLoop(f"edge joins {a} to itself")
        pa, pb = node_position(n, a), node_position(n, b)
        if pa in mate:
            raise DuplicateNode(f"node {a} used twice")
        if pb in mate:
            raise DuplicateNode(f"node {b} used twice")
        mate[pa], mate[pb] = pb, pa
    if len(mate) < 2 * n:
        # The first gap lies within the first len(mate) + 1 positions.
        p = next(p for p in range(2 * n) if p not in mate)
        raise UncoveredNode(f"node {position_node(n, p)} is in no edge")
    return tuple(map(mate.__getitem__, range(2 * n)))


def make_tangle(
    n: int, edges: Iterable[tuple[NodeRef | str | int, NodeRef | str | int]]
) -> Tangle:
    """Build a tangle from node pairs.

    Nodes may be NodeRef values, bare ints (top row) or tokens such as "3'".

    >>> str(make_tangle(3, [(1, 3), (2, "1'"), ("2'", "3'")]))
    "B3: (1,3) (2,1') (2',3')"
    """
    if n < 0:
        raise IndexOutOfRange(f"n must be >= 0, got {n}")
    pairs = [(_as_node(a), _as_node(b)) for a, b in edges]
    return Tangle(n, _pairing_from_edges(n, pairs))


def identity(n: int) -> Tangle:
    """The identity tangle I_n: all zero transversals (i, i')."""
    if n < 0:
        raise IndexOutOfRange(f"n must be >= 0, got {n}")
    return Tangle(n, tuple(range(2 * n - 1, -1, -1)))


def prime(n: int, v: int) -> Tangle:
    """The prime tangle T_v (v > 0) or U_-v (v < 0) inside B_n: the
    identity times it (IndexOutOfRange unless 1 <= |v| <= n-1)."""
    return compose_word(Word(n, (v,)))


def t_prime(n: int, i: int) -> Tangle:
    if i < 1:
        raise IndexOutOfRange(f"prime index must be >= 1, got {i}")
    return prime(n, i)


def u_prime(n: int, i: int) -> Tangle:
    if i < 1:
        raise IndexOutOfRange(f"prime index must be >= 1, got {i}")
    return prime(n, -i)


def random_tangle(n: int, rng: random.Random) -> Tangle:
    """A uniformly random tangle of B_n (sequential uniform pairing)."""
    free = list(range(2 * n))
    pairing = [-1] * (2 * n)
    while free:
        p = free.pop(0)
        q = free.pop(rng.randrange(len(free)))
        pairing[p], pairing[q] = q, p
    return Tangle(n, tuple(pairing))


# ---------------------------------------------------------------------------
# Composition, tensor, components


def compose(x: Tangle, y: Tangle) -> Tangle:
    """The Brauer product: stack x on top of y and trace paths.

    Closed interface loops are discarded; no loop count is kept.
    """
    if x.n != y.n:
        raise SizeMismatch(f"cannot compose B_{x.n} with B_{y.n}")
    n = x.n
    xp, yp = x.pairing, y.pairing
    out = [-1] * (2 * n)
    for start in range(2 * n):
        if out[start] != -1:
            continue
        side, pos = (0, start) if start < n else (1, start)
        while True:
            q = xp[pos] if side == 0 else yp[pos]
            if side == 0:
                if q < n:
                    end = q
                    break
                side, pos = 1, (2 * n - q) - 1      # x-bottom i' -> y-top i
            else:
                if q >= n:
                    end = q
                    break
                side, pos = 0, 2 * n - (q + 1)      # y-top i -> x-bottom i'
        out[start], out[end] = end, start
    return Tangle(n, tuple(out))


def compose_word(w: Word) -> Tangle:
    """The product of the factors, topmost first, as a fold of
    right_multiply from the identity; the empty word is I_n."""
    pairing = list(identity(w.n).pairing)
    for v in w.factors:
        right_multiply(pairing, w.n, v)
    return Tangle(w.n, tuple(pairing))


def tensor(x: Tangle, y: Tangle) -> Tangle:
    """Place y to the right of x; y's indices are shifted by x.n.  In
    positions, x's top row stays, x's bottom row moves by 2 y.n and all of
    y moves by x.n."""
    out = [0] * (2 * (x.n + y.n))
    shift = [0 if p < x.n else 2 * y.n for p in range(2 * x.n)]
    for p, q in enumerate(x.pairing):
        out[p + shift[p]] = q + shift[q]
    for p, q in enumerate(y.pairing):
        out[p + x.n] = q + x.n
    return Tangle(x.n + y.n, tuple(out))


def components(x: Tangle) -> list[tuple[Tangle, int]]:
    """Split x at every clean cut into standalone tangles plus column offsets.

    Tensoring the parts back in offset order reproduces x.
    """
    n, mate = x.n, x.pairing
    out: list[tuple[Tangle, int]] = []
    start = spanning = 0  # offset of the current block; edges across the cut after column k
    for k in range(1, n + 1):
        for p in (k - 1, 2 * n - k):  # top node k, bottom node k'
            far = mate[p] + 1 if mate[p] < n else 2 * n - mate[p]
            spanning += (far > k) - (far < k)
        if spanning:
            continue
        # Top positions move down by start, bottom ones by 2(n - k) + start.
        width, low = k - start, 2 * (n - k) + start
        part = [0] * (2 * width)
        for p in (*range(start, k), *range(2 * n - k, 2 * n - start)):
            q = mate[p]
            part[p - (start if p < n else low)] = q - (start if q < n else low)
        out.append((Tangle(width, tuple(part)), start))
        start = k
    return out


# ---------------------------------------------------------------------------
# Crossings


def crossing_pairs(x: Tangle) -> set[tuple[Edge, Edge]]:
    """All unordered pairs of crossing edges (each pair in canonical order).

    The one pair enumerator; it shares no code with the kernel's per-edge
    counts, which the tests check against it.
    """
    out: set[tuple[Edge, Edge]] = set()
    edges = x.edges
    pos = [
        sorted((node_position(x.n, e.a), node_position(x.n, e.b))) for e in edges
    ]
    for i, (a, b) in enumerate(pos):
        for j in range(i + 1, len(edges)):
            c, d = pos[j]
            if (a < c < b) != (a < d < b):
                out.add((edges[i], edges[j]))
    return out


def edge_crossings(x: Tangle, e: Edge) -> int:
    """Number of edges of x crossing e (e must belong to x)."""
    if e not in x.edge_set:
        raise EdgeNotInTangle(f"{e} not in {x}")
    return crossing_counts(x.n, x.pairing)[node_position(x.n, e.a)]


def total_crossings(x: Tangle) -> int:
    """|crossing_pairs(x)| without materialising the pairs: the kernel's
    per-position counts see each crossing at the four endpoints of its two
    edges."""
    return sum(crossing_counts(x.n, x.pairing)) // 4


# ---------------------------------------------------------------------------
# Merge and reflections


def _merged(x: Tangle, targets: tuple[int, int, int, int]) -> Tangle:
    a1, b1, a2, b2 = targets
    pairing = list(x.pairing)
    pairing[a1], pairing[b1] = b1, a1
    pairing[a2], pairing[b2] = b2, a2
    return Tangle(x.n, tuple(pairing))


def merge(x: Tangle, h: Edge, e: Edge) -> Tangle:
    """Merge the size-one upper hook h = (i, i+1) with edge e.

    The pair (h, e) must fit one of the four defined cases of the kernel's
    merge_targets; the two new edges never cross, and
    compose(U_i, result) == x always holds.
    """
    if h not in x.edge_set:
        raise EdgeNotInTangle(f"{h} not in {x}")
    if h.kind is not EdgeKind.UPPER_HOOK or h.size != 1:
        raise NotASizeOneUpperHook(f"{h} is not an upper hook of size one")
    if e not in x.edge_set:
        raise EdgeNotInTangle(f"{e} not in {x}")
    if e == h:
        raise MergeUndefined("cannot merge a hook with itself")

    n, hi = x.n, h.a.index - 1
    p, q = sorted((node_position(n, e.a), node_position(n, e.b)))
    targets = merge_targets(n, hi, hi + 1, p, q)
    if targets is None:
        raise MergeUndefined(f"merge of {h} with {e} is undefined")
    return _merged(x, targets)


def hook_merges(x: Tangle, i: int) -> Iterator[Tangle]:
    """merge(x, (i, i+1), e) for each edge e of x, in canonical order, for
    which it is defined (never for the hook itself); (i, i+1) must be an
    upper hook of x."""
    n, hi = x.n, i - 1
    for p in _ranked_reps(n, x.pairing):
        targets = merge_targets(n, hi, i, p, x.pairing[p])
        if targets is not None:
            yield _merged(x, targets)


def reflect(x: Tangle, axis: Axis) -> Tangle:
    """Mirror a tangle; both reflections are involutions and preserve crossings.

    In positions the horizontal flip (swap the rows) is p -> 2n-1-p; the
    vertical mirror is p -> n-1-p on the top row and p -> 3n-1-p on the
    bottom row.
    """
    n = x.n
    if axis is Axis.HORIZONTAL:
        flip = [2 * n - 1 - p for p in range(2 * n)]
    else:
        flip = [n - 1 - p if p < n else 3 * n - 1 - p for p in range(2 * n)]
    out = [0] * (2 * n)
    for p, q in enumerate(x.pairing):
        out[flip[p]] = flip[q]
    return Tangle(n, tuple(out))


# ---------------------------------------------------------------------------
# Text formats


def format_tangle(x: Tangle) -> str:
    """Canonical one-line form, e.g. "B3: (1,3) (2,1') (2',3')"."""
    body = " ".join(str(e) for e in x.edges)
    return f"B{x.n}:" + (f" {body}" if body else "")


_TANGLE_HEAD_RE = re.compile(r"^\s*B(\d+)\s*:\s*(.*?)\s*$")
_EDGE_RE = re.compile(r"\(\s*(\d+'?)\s*,\s*(\d+'?)\s*\)")


def parse_tangle(line: str) -> Tangle:
    """Parse the tangle text format; inverse of format_tangle."""
    m = _TANGLE_HEAD_RE.match(line)
    if m is None:
        raise ParseError(f"bad tangle line {line!r}")
    n = _parse_int(m.group(1))
    body = m.group(2)
    if _EDGE_RE.sub("", body).strip():
        raise ParseError(f"unexpected text in tangle line {line!r}")
    pairs = [(a, b) for a, b in _EDGE_RE.findall(body)]
    return make_tangle(n, pairs)


def format_word(w: Word) -> str:
    return " ".join([f"T{v}" if v > 0 else f"U{-v}" for v in w.factors])


def parse_factors(text: str) -> tuple[int, ...]:
    """Signed-int factors of whitespace-separated prime tokens ("T3 U1")."""
    factors = []
    for token in text.split():
        # isdigit() also admits digits int() rejects ("²"), and int() refuses
        # strings of more than sys.get_int_max_str_digits() digits.
        try:
            if len(token) < 2 or token[0] not in "TU" or not token[1:].isdigit():
                raise ValueError
            index = int(token[1:])
        except ValueError:
            raise ParseError(f"bad prime token {token!r}") from None
        if index < 1:
            raise IndexOutOfRange(f"prime index must be >= 1, got {index}")
        factors.append(index if token[0] == "T" else -index)
    return tuple(factors)


def parse_word(text: str, n: int) -> Word:
    """Parse whitespace-separated prime tokens, topmost factor first."""
    return Word(n, parse_factors(text))
