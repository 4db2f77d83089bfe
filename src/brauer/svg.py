"""Deterministic SVG pictures of tangles and factorizations.

Nodes sit on an integer grid (column spacing COL, row gap GAP); hooks are
drawn as cubic arcs whose dip grows with their width, transversals as
S-curves, and a word is drawn as a stack of one-factor bands.  Identical
input yields byte-identical output, so pictures can be golden-tested.
"""

from __future__ import annotations

from .tangle import Edge, EdgeKind, Tangle, Word, format_word, prime

COL = 40
GAP = 120
MARGIN = 30
NODE_R = 3


def _fmt(v: float) -> str:
    out = f"{v:.1f}"
    return out[:-2] if out.endswith(".0") else out


def _x(index: int) -> float:
    return MARGIN + COL * (index - 1)


def _edge_path(e: Edge, y_top: float, y_bottom: float) -> str:
    x1, x2 = _x(e.a.index), _x(e.b.index)
    kind = e.kind
    if kind is EdgeKind.ZERO_TRANSVERSAL:
        return f"M {_fmt(x1)} {_fmt(y_top)} L {_fmt(x2)} {_fmt(y_bottom)}"
    if kind in (EdgeKind.POSITIVE_TRANSVERSAL, EdgeKind.NEGATIVE_TRANSVERSAL):
        bend = (y_bottom - y_top) * 0.4
        return (
            f"M {_fmt(x1)} {_fmt(y_top)} "
            f"C {_fmt(x1)} {_fmt(y_top + bend)} {_fmt(x2)} {_fmt(y_bottom - bend)} "
            f"{_fmt(x2)} {_fmt(y_bottom)}"
        )
    dip = 14 + 10 * e.size
    if kind is EdgeKind.UPPER_HOOK:
        y, yc = y_top, y_top + dip
    else:
        y, yc = y_bottom, y_bottom - dip
    return (
        f"M {_fmt(x1)} {_fmt(y)} "
        f"C {_fmt(x1)} {_fmt(yc)} {_fmt(x2)} {_fmt(yc)} {_fmt(x2)} {_fmt(y)}"
    )


def _band(x: Tangle, y_top: float, parts: list[str]) -> None:
    y_bottom = y_top + GAP
    for e in x.edges:
        parts.append(
            f'<path d="{_edge_path(e, y_top, y_bottom)}" fill="none" '
            f'stroke="black" stroke-width="1.5"/>'
        )
    for index in range(1, x.n + 1):
        for y in (y_top, y_bottom):
            parts.append(
                f'<circle cx="{_fmt(_x(index))}" cy="{_fmt(y)}" r="{NODE_R}" fill="black"/>'
            )


def _document(width: float, height: float, parts: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *parts, "</svg>"]) + "\n"


def render_tangle(x: Tangle) -> str:
    """One tangle as a two-row diagram with node labels."""
    parts: list[str] = []
    _band(x, MARGIN, parts)
    for index in range(1, x.n + 1):
        parts.append(
            f'<text x="{_fmt(_x(index))}" y="{_fmt(MARGIN - 10)}" font-size="11" '
            f'text-anchor="middle">{index}</text>'
        )
        parts.append(
            f'<text x="{_fmt(_x(index))}" y="{_fmt(MARGIN + GAP + 18)}" font-size="11" '
            f"text-anchor=\"middle\">{index}'</text>"
        )
    width = 2 * MARGIN + COL * max(x.n - 1, 0)
    return _document(width, 2 * MARGIN + GAP + 10, parts)


def render_word(w: Word) -> str:
    """A factorization as a stack of one-factor diagrams, topmost first."""
    parts: list[str] = []
    y = MARGIN
    for v, name in zip(w.factors, format_word(w).split()):
        parts.append(
            f'<text x="{_fmt(MARGIN - 22)}" y="{_fmt(y + GAP / 2)}" '
            f'font-size="12" text-anchor="start">{name}</text>'
        )
        _band(prime(w.n, v), y, parts)
        y += GAP + 16
    if not w.factors:
        _band(Tangle(w.n, tuple(2 * w.n - 1 - p for p in range(2 * w.n))), y, parts)
        y += GAP + 16
    width = 2 * MARGIN + COL * max(w.n - 1, 0)
    return _document(width, y + MARGIN - 16, parts)
