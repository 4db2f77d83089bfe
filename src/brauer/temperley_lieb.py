"""Factorization of crossing-free tangles through the column-region graph.

Cut at every column, a planar tangle falls apart into N-1 strips; strip k
lies between columns k and k+1.  The edges through a strip never cross, so
they stack top to bottom and slice it into regions; a region's depth is the
number of edges above it.  Everything is read off the pairing array:

- one left-to-right sweep gives every stack: at column c the edge ending at
  top node c leaves the top of the stack and the edge ending at bottom node
  c' leaves its bottom; an edge starting at column c joins at the same end;
- the t edges through both strips beside the line at column c cut it into
  gaps 0..t, top to bottom.  Top node c lies on an edge of exactly one of
  the two strips, and so does bottom node c', unless (c, c') is an edge and
  no region reaches across.  Otherwise the region at depth d of a strip
  meets the line in exactly one gap, g = d - [the strip holds the edge at
  top node c], or nowhere when g falls outside 0..t.

Regions of adjacent strips are horizontally adjacent iff they meet the
shared line in the same gap.  The word is read off the dag on odd-depth
regions, where an arc points at every region horizontally adjacent to the
region directly below its source: peel the roots left to right, one U per
root, until nothing is left.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .errors import NotPlanar
from .tangle import Edge, Tangle, Word, position_node, total_crossings

Vertex = tuple[int, int]  # (strip, depth)


@dataclass(frozen=True)
class Region:
    column: int
    depth: int
    bounds: tuple[Edge | None, Edge | None]  # edge above, edge below (None = frame)


@dataclass(frozen=True)
class RegionDag:
    """The odd-depth regions as (column, depth) vertices plus the arcs the
    factorization is read from."""

    vertices: tuple[Vertex, ...]
    arcs: tuple[tuple[Vertex, Vertex], ...]

    def roots(self) -> tuple[Vertex, ...]:
        targets = {dst for _, dst in self.arcs}
        return tuple(v for v in self.vertices if v not in targets)


def is_planar(x: Tangle) -> bool:
    """True iff no two edges cross."""
    return total_crossings(x) == 0


def _far_columns(x: Tangle) -> tuple[list[int], list[int]]:
    """Far-end columns of the edges at top node c and at bottom node c', for
    c in 1..n (index 0 unused); NotPlanar unless x is planar."""
    if not is_planar(x):
        raise NotPlanar(f"{x} has crossings")
    n = x.n
    col = [q + 1 if q < n else 2 * n - q for q in x.pairing]
    return [0, *col[:n]], [0, *(col[2 * n - c] for c in range(1, n + 1))]


def _strips(x: Tangle, top: list[int], bottom: list[int]) -> Iterator[deque[int]]:
    """The stack of strips 1..n-1 in turn, top to bottom, as the positions
    of the left ends of its edges (one deque, updated in place)."""
    stack: deque[int] = deque()
    for c in range(1, x.n):
        if top[c] < c:
            stack.popleft()
        if bottom[c] < c:
            stack.pop()
        if top[c] > c:
            stack.appendleft(c - 1)
        if bottom[c] > c:
            stack.append(2 * x.n - c)
        yield stack


def regions(x: Tangle) -> list[Region]:
    """All column regions of a planar tangle, ordered by (column, depth)."""
    n = x.n
    out: list[Region] = []
    for k, stack in enumerate(_strips(x, *_far_columns(x)), start=1):
        edges = [Edge(position_node(n, p), position_node(n, x.pairing[p])) for p in stack]
        bounds = [None, *edges, None]
        out.extend(Region(k, d, (bounds[d], bounds[d + 1])) for d in range(len(edges) + 1))
    return out


def _dag(x: Tangle) -> dict[Vertex, list[Vertex]]:
    """The arcs out of each odd-depth region, left neighbour first, with the
    regions in (strip, depth) order."""
    n = x.n
    top, bottom = _far_columns(x)
    size = [0, *map(len, _strips(x, top, bottom))]
    arcs: dict[Vertex, list[Vertex]] = {}
    for k in range(1, n):
        for d in range(1, size[k] + 1, 2):
            out = arcs[(k, d)] = []
            for c, k2 in ((k, k - 1), (k + 1, k + 1)):  # line column, neighbour strip
                if not 1 <= k2 < n or top[c] == c:
                    continue
                holder = c - 1 if top[c] < c else c  # strip holding the edge at top node c
                t = size[c - 1] - (top[c] < c) - (bottom[c] < c)  # gaps 0..t
                g = d + 1 - (k == holder)  # the gap of the region below (k, d)
                d2 = g + (k2 == holder)
                if 0 <= g <= t and d2 % 2:
                    out.append((k2, d2))
    return arcs


def region_dag(x: Tangle) -> RegionDag:
    """The dag on odd-depth regions of a planar tangle."""
    arcs = _dag(x)
    return RegionDag(tuple(arcs), tuple((src, dst) for src, out in arcs.items() for dst in out))


def factorize_tl(x: Tangle) -> Word:
    """Minimal U-prime word for a planar tangle, via the region dag: each
    round emits every current root left to right and deletes it, and the
    roots it frees make up the next round.  One U per odd-depth region."""
    arcs = _dag(x)
    indegree = dict.fromkeys(arcs, 0)
    for targets in arcs.values():
        for dst in targets:
            indegree[dst] += 1
    factors: list[int] = []
    frontier = [r for r in arcs if not indegree[r]]
    while frontier:
        freed = []
        for r in frontier:
            factors.append(-r[0])
            for dst in arcs[r]:
                indegree[dst] -= 1
                if not indegree[dst]:
                    freed.append(dst)
        frontier = sorted(freed)
    assert len(factors) == len(arcs), "region dag has a cycle"
    return Word(x.n, tuple(factors))
