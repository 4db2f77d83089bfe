"""Factorization of crossing-free tangles through the column-region graph.

A planar tangle cut by vertical lines at every column falls apart into
N-1 column strips.  The edges passing through a strip never cross, so they
stack top to bottom and slice the strip into regions; a region's depth is
the number of edges above it.  Everything here is done without geometry:

- an edge spans the strip between columns k and k+1 iff its smaller column
  is <= k and its larger one is > k;
- inside a strip, spanning edges anchored on the top row (ordered right to
  left) lie above those anchored on the bottom row (ordered left to right),
  which is the boundary order of their strip-side endpoints around the
  enclosing disk;
- a region touches the line between two strips along the gap between
  consecutive through-edges; an edge that terminates on the line pinches
  the region on its far side down to the corner node.

Two regions in adjacent strips are horizontally adjacent iff their gap
intervals on the shared line overlap (a straight segment between them then
crosses no edge).  The factorization word is read off the dag on odd-depth
regions, where an arc points at every region horizontally adjacent to the
region directly below its source: peel the roots left to right, one U per
root, until nothing is left.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPlanar
from .tangle import Edge, EdgeKind, Row, Tangle, Word, total_crossings


@dataclass(frozen=True)
class Region:
    column: int
    depth: int
    bounds: tuple[Edge | None, Edge | None]  # edge above, edge below (None = frame)


@dataclass(frozen=True)
class RegionDag:
    """The odd-depth regions as (column, depth) vertices plus the arcs the
    factorization is read from."""

    vertices: tuple[tuple[int, int], ...]
    arcs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def roots(self) -> tuple[tuple[int, int], ...]:
        targets = {dst for _, dst in self.arcs}
        return tuple(v for v in self.vertices if v not in targets)


def is_planar(x: Tangle) -> bool:
    """True iff no two edges cross."""
    return total_crossings(x) == 0


def _span(e: Edge) -> tuple[int, int]:
    lo, hi = sorted((e.a.index, e.b.index))
    return lo, hi


def _strip_edges(x: Tangle, k: int) -> list[Edge]:
    """Edges through the strip between columns k and k+1, top to bottom."""
    spanning = [e for e in x.edges if _span(e)[0] <= k < _span(e)[1]]

    def order(e: Edge) -> tuple[int, int]:
        # The strip-side endpoint is the one with the smaller column
        # (spanning edges have distinct columns, so this is unambiguous).
        lo_node = e.a if e.a.index < e.b.index else e.b
        if lo_node.row is Row.TOP:
            return (0, -lo_node.index)
        return (1, lo_node.index)

    spanning.sort(key=order)
    return spanning


def _line_column(k: int, neighbour: int) -> int:
    return k + 1 if neighbour > k else k


def _extent(
    strips: list[list[Edge]], k: int, depth: int, line_col: int
) -> tuple[int, int] | None:
    """Gap interval of a region of strip k along the line at line_col, or
    None when the region pinches out at a corner node."""
    spanning = strips[k - 1]
    m = len(spanning)
    # Through-edges span the strips on both sides of the line.
    through = [
        e
        for e in spanning
        if _span(e)[0] <= line_col - 1 and _span(e)[1] >= line_col + 1
    ]
    q_index = {e: i + 1 for i, e in enumerate(through)}
    t = len(through)

    def corner_row(e: Edge) -> Row:
        node = e.a if e.a.index == line_col else e.b
        assert node.index == line_col
        return node.row

    upper = spanning[depth - 1] if depth >= 1 else None
    lower = spanning[depth] if depth < m else None

    if upper is None:
        start = 0
    elif upper in q_index:
        start = q_index[upper]
    elif corner_row(upper) is Row.TOP:
        start = 0
    else:
        return None  # region below a bottom-corner edge
    if lower is None:
        end = t
    elif lower in q_index:
        end = q_index[lower] - 1
    elif corner_row(lower) is Row.BOTTOM:
        end = t
    else:
        return None  # region above a top-corner edge
    assert start <= end
    return start, end


def regions(x: Tangle) -> list[Region]:
    """All column regions of a planar tangle, ordered by (column, depth)."""
    if not is_planar(x):
        raise NotPlanar(f"{x} has crossings")
    out: list[Region] = []
    for k in range(1, x.n):
        spanning = _strip_edges(x, k)
        m = len(spanning)
        for depth in range(m + 1):
            upper = spanning[depth - 1] if depth >= 1 else None
            lower = spanning[depth] if depth < m else None
            out.append(Region(k, depth, (upper, lower)))
    return out


def _one_region_dag(
    x: Tangle,
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], set[tuple[int, int]]]]:
    strips = [_strip_edges(x, k) for k in range(1, x.n)]
    ones = [
        (k, d)
        for k in range(1, x.n)
        for d in range(1, len(strips[k - 1]) + 1, 2)
    ]
    zero_cols = {e.a.index for e in x.edges if e.kind is EdgeKind.ZERO_TRANSVERSAL}

    arcs: dict[tuple[int, int], set[tuple[int, int]]] = {r: set() for r in ones}
    for k, d in ones:
        below = d + 1
        for k2 in (k - 1, k + 1):
            if not 1 <= k2 <= x.n - 1:
                continue
            line_col = _line_column(k, k2)
            if line_col in zero_cols:
                continue
            ext1 = _extent(strips, k, below, line_col)
            if ext1 is None:
                continue
            for k2d in range(1, len(strips[k2 - 1]) + 1, 2):
                ext2 = _extent(strips, k2, k2d, line_col)
                if ext2 is None:
                    continue
                if max(ext1[0], ext2[0]) <= min(ext1[1], ext2[1]):
                    arcs[(k, d)].add((k2, k2d))
    return ones, arcs


def region_dag(x: Tangle) -> RegionDag:
    """The dag on odd-depth regions of a planar tangle."""
    if not is_planar(x):
        raise NotPlanar(f"{x} has crossings")
    ones, arcs = _one_region_dag(x)
    flat = tuple(
        (src, dst) for src in ones for dst in sorted(arcs[src])
    )
    return RegionDag(tuple(ones), flat)


def factorize_tl(x: Tangle) -> Word:
    """Minimal U-prime word for a planar tangle, via the region dag.

    Roots are emitted left to right, then deleted, until the dag is empty;
    the word length equals the number of odd-depth regions.
    """
    if not is_planar(x):
        raise NotPlanar(f"{x} has crossings")
    ones, arcs = _one_region_dag(x)
    indegree = {r: 0 for r in ones}
    for src, targets in arcs.items():
        for dst in targets:
            indegree[dst] += 1
    alive = set(ones)
    factors: list[int] = []
    while alive:
        roots = sorted(r for r in alive if indegree[r] == 0)
        assert roots, "region dag has a cycle"
        for r in roots:
            factors.append(-r[0])
            alive.discard(r)
            for dst in arcs[r]:
                if dst in alive:
                    indegree[dst] -= 1
    return Word(x.n, tuple(factors))
