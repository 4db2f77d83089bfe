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
of the composition.  Word and Prime are the parse/print form; internally a
word is a tuple of signed ints, +i for T_i and -i for U_i (word_to_signed,
signed_to_word), and every product with a word is a fold of
right_multiply, which turns the pairing list of X into that of X . P in
place in O(1).  All values here are immutable and all other operations are
pure functions, so everything is safe to share between threads.
"""

from __future__ import annotations

import enum
import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from ._kernels import crossing_counts
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
        return NodeRef(Row.BOTTOM if m.group(2) else Row.TOP, int(m.group(1)))


def _as_node(value: NodeRef | str | int) -> NodeRef:
    if isinstance(value, NodeRef):
        return value
    if isinstance(value, int):
        return NodeRef(Row.TOP, value)
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


def edge_kind(e: Edge) -> EdgeKind:
    return e.kind


def edge_size(e: Edge) -> int:
    return e.size


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


@dataclass(frozen=True)
class Prime:
    """A generator T_i or U_i."""

    kind: str  # "T" or "U"
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("T", "U"):
            raise ParseError(f"prime kind must be T or U, got {self.kind!r}")
        if self.index < 1:
            raise IndexOutOfRange(f"prime index must be >= 1, got {self.index}")

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"

    @staticmethod
    def parse(token: str) -> Prime:
        token = token.strip()
        if len(token) < 2 or token[0] not in "TU" or not token[1:].isdigit():
            raise ParseError(f"bad prime token {token!r}")
        return Prime(token[0], int(token[1:]))


@dataclass(frozen=True)
class Word:
    """A factorization: primes listed topmost factor first."""

    n: int
    factors: tuple[Prime, ...]

    def __post_init__(self) -> None:
        for p in self.factors:
            if p.index > self.n - 1:
                raise IndexOutOfRange(f"factor {p} needs index <= {self.n - 1} in B_{self.n}")

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return format_word(self)

    def t_count(self) -> int:
        return sum(1 for p in self.factors if p.kind == "T")


# ---------------------------------------------------------------------------
# Construction


def _pairing_from_edges(n: int, pairs: Iterable[tuple[NodeRef, NodeRef]]) -> tuple[int, ...]:
    pairing = [-1] * (2 * n)
    for a, b in pairs:
        for node in (a, b):
            if not 1 <= node.index <= n:
                raise IndexOutOfRange(f"node {node} outside 1..{n}")
        if a == b:
            raise SelfLoop(f"edge joins {a} to itself")
        pa, pb = node_position(n, a), node_position(n, b)
        if pairing[pa] != -1:
            raise DuplicateNode(f"node {a} used twice")
        if pairing[pb] != -1:
            raise DuplicateNode(f"node {b} used twice")
        pairing[pa], pairing[pb] = pb, pa
    for p, q in enumerate(pairing):
        if q == -1:
            raise UncoveredNode(f"node {position_node(n, p)} is in no edge")
    return tuple(pairing)


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
    return Tangle(n, tuple(2 * n - 1 - p for p in range(2 * n)))


def prime(n: int, p: Prime) -> Tangle:
    """The prime tangle T_i or U_i inside B_n: the identity times p
    (IndexOutOfRange unless i <= n-1)."""
    return compose_word(Word(n, (p,)))


def t_prime(n: int, i: int) -> Tangle:
    return prime(n, Prime("T", i))


def u_prime(n: int, i: int) -> Tangle:
    return prime(n, Prime("U", i))


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


def word_to_signed(w: Word) -> tuple[int, ...]:
    """The internal form of a word: +i for T_i, -i for U_i."""
    return tuple(p.index if p.kind == "T" else -p.index for p in w.factors)


def signed_to_word(n: int, factors: Iterable[int]) -> Word:
    """The Word of B_n spelled by signed-int factors."""
    return Word(n, tuple(Prime("T" if v > 0 else "U", abs(v)) for v in factors))


def right_multiply(pairing: list[int], n: int, v: int) -> bool:
    """Replace the pairing list of X in B_n by that of X . P in place, where
    P is T_v for v > 0 and U_-v for v < 0 (1 <= |v| <= n-1, unchecked).

    Returns False, leaving the list as it is, when X has the lower hook
    (i', i+1'), for then X . P == X.
    """
    bi = 2 * n - abs(v)  # bottom position of column i
    bj = bi - 1          # bottom position of column i+1
    a = pairing[bi]
    if a == bj:
        return False
    b = pairing[bj]
    if v > 0:
        pairing[bj], pairing[a] = a, bj
        pairing[bi], pairing[b] = b, bi
    else:
        pairing[a], pairing[b] = b, a
        pairing[bi], pairing[bj] = bj, bi
    return True


def compose_word(w: Word) -> Tangle:
    """The product of the factors, topmost first, as a fold of
    right_multiply from the identity; the empty word is I_n."""
    pairing = list(identity(w.n).pairing)
    for v in word_to_signed(w):
        right_multiply(pairing, w.n, v)
    return Tangle(w.n, tuple(pairing))


def tensor(x: Tangle, y: Tangle) -> Tangle:
    """Place y to the right of x; y's indices are shifted by x.n."""
    n = x.n + y.n
    pairs: list[tuple[NodeRef, NodeRef]] = []
    for e in x.edges:
        pairs.append((e.a, e.b))
    for e in y.edges:
        pairs.append(
            (
                NodeRef(e.a.row, e.a.index + x.n),
                NodeRef(e.b.row, e.b.index + x.n),
            )
        )
    return Tangle(n, _pairing_from_edges(n, pairs))


def _spans_cut(e: Edge, k: int) -> bool:
    # An edge leaves the column block 1..k iff its smaller column is <= k
    # and its larger column is > k; a zero transversal never does.
    lo, hi = sorted((e.a.index, e.b.index))
    return lo <= k < hi


def components(x: Tangle) -> list[tuple[Tangle, int]]:
    """Split x at every clean cut into standalone tangles plus column offsets.

    Tensoring the parts back in offset order reproduces x.
    """
    out: list[tuple[Tangle, int]] = []
    start = 0  # offset of the current block
    for k in range(1, x.n + 1):
        if k < x.n and any(_spans_cut(e, k) for e in x.edges):
            continue
        width = k - start
        pairs = [
            (
                NodeRef(e.a.row, e.a.index - start),
                NodeRef(e.b.row, e.b.index - start),
            )
            for e in x.edges
            if start < e.a.index <= k
        ]
        out.append((Tangle(width, _pairing_from_edges(width, pairs)), start))
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


def merge(x: Tangle, h: Edge, e: Edge) -> Tangle:
    """Merge the size-one upper hook h = (i, i+1) with edge e.

    The pair (h, e) must fit one of the four defined cases; the two new
    edges never cross, and compose(U_i, result) == x always holds.
    """
    if h not in x.edge_set:
        raise EdgeNotInTangle(f"{h} not in {x}")
    if h.kind is not EdgeKind.UPPER_HOOK or h.size != 1:
        raise NotASizeOneUpperHook(f"{h} is not an upper hook of size one")
    if e not in x.edge_set:
        raise EdgeNotInTangle(f"{e} not in {x}")
    if e == h:
        raise MergeUndefined("cannot merge a hook with itself")

    i = h.a.index
    ax, bx = e.a.index, e.b.index
    kind = e.kind
    top, bot = Row.TOP, Row.BOTTOM
    if kind is EdgeKind.UPPER_HOOK and ax < i and i + 1 < bx:
        e1 = Edge(NodeRef(top, ax), NodeRef(top, i))
        e2 = Edge(NodeRef(top, i + 1), NodeRef(top, bx))
    elif kind is EdgeKind.LOWER_HOOK and ax <= i and i + 1 <= bx:
        e1 = Edge(NodeRef(top, i), NodeRef(bot, ax))
        e2 = Edge(NodeRef(top, i + 1), NodeRef(bot, bx))
    elif kind is EdgeKind.NEGATIVE_TRANSVERSAL and ax < i and i + 1 <= bx:
        e1 = Edge(NodeRef(top, ax), NodeRef(top, i))
        e2 = Edge(NodeRef(top, i + 1), NodeRef(bot, bx))
    elif kind is EdgeKind.POSITIVE_TRANSVERSAL and ax > i + 1 and i >= bx:
        e1 = Edge(NodeRef(top, i), NodeRef(bot, bx))
        e2 = Edge(NodeRef(top, i + 1), NodeRef(top, ax))
    else:
        raise MergeUndefined(f"merge of {h} with {e} is undefined")

    pairs = [(d.a, d.b) for d in x.edges if d != h and d != e]
    pairs += [(e1.a, e1.b), (e2.a, e2.b)]
    return Tangle(x.n, _pairing_from_edges(x.n, pairs))


def reflect(x: Tangle, axis: Axis) -> Tangle:
    """Mirror a tangle; both reflections are involutions and preserve crossings."""
    def flip(node: NodeRef) -> NodeRef:
        if axis is Axis.HORIZONTAL:
            return NodeRef(Row.BOTTOM if node.row is Row.TOP else Row.TOP, node.index)
        return NodeRef(node.row, x.n + 1 - node.index)

    pairs = [(flip(e.a), flip(e.b)) for e in x.edges]
    return Tangle(x.n, _pairing_from_edges(x.n, pairs))


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
    n = int(m.group(1))
    body = m.group(2)
    if _EDGE_RE.sub("", body).strip():
        raise ParseError(f"unexpected text in tangle line {line!r}")
    pairs = [(a, b) for a, b in _EDGE_RE.findall(body)]
    return make_tangle(n, pairs)


def format_word(w: Word) -> str:
    return " ".join(str(p) for p in w.factors)


def parse_word(text: str, n: int) -> Word:
    """Parse whitespace-separated prime tokens, topmost factor first."""
    factors = tuple(Prime.parse(tok) for tok in text.split())
    return Word(n, factors)
