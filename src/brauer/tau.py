"""Node polarity, the projection of B_N onto S_N, and the two length
functions.

Every node gets a sign from its edge: transversal endpoints inherit the
transversal's sign, an upper hook is negative at its left node and positive
at its right node, and lower hooks are the reverse.  The projection keeps
every edge whose crossing count is at least its size (those pass through
T-primes only) and rewires the remaining nodes by matching equal polarity
labels between the rows; the result is the unique crossing-minimal
permutation tangle with the same node polarities, and its inversion count
is the minimal factorization length.

The second length function skips the projection entirely: each edge passes
through max(crossings, size) primes, and every prime is shared by two
edges, so half the sum over edges is again the minimal length.
"""

from __future__ import annotations

import enum

from ._kernels import crossing_counts
from .errors import InternalError
from .symmetric import inversion_count, to_permutation
from .tangle import (
    Edge,
    NodeRef,
    Row,
    Tangle,
    edge_crossings,
    make_tangle,
    node_position,
    position_node,
)


class Polarity(enum.Enum):
    PLUS = "+"
    MINUS = "-"
    ZERO = "0"

    def __str__(self) -> str:
        return self.value


def node_polarity(x: Tangle, node: NodeRef) -> Polarity:
    """Sign of a node, determined by its edge and which endpoint it is."""
    e = x.edge_at(node)
    if e.a.row != e.b.row:
        if e.a.index > e.b.index:
            return Polarity.PLUS
        if e.a.index < e.b.index:
            return Polarity.MINUS
        return Polarity.ZERO
    left = node == e.a
    if e.a.row is Row.TOP:
        return Polarity.MINUS if left else Polarity.PLUS
    return Polarity.PLUS if left else Polarity.MINUS


def polarity_labels(x: Tangle) -> dict[NodeRef, tuple[Polarity, int]]:
    """Labels for the rewired nodes: the j-th node of each sign per row,
    counted left to right.  Nodes on kept edges carry no label."""
    counts = crossing_counts(x.n, x.pairing)
    labels: dict[NodeRef, tuple[Polarity, int]] = {}
    for row in (Row.TOP, Row.BOTTOM):
        counters = {Polarity.PLUS: 0, Polarity.MINUS: 0}
        for index in range(1, x.n + 1):
            node = NodeRef(row, index)
            p = node_position(x.n, node)
            e = x.edge_at(node)
            if counts[p] >= e.size:
                continue
            pol = node_polarity(x, node)
            counters[pol] += 1
            labels[node] = (pol, counters[pol])
    return labels


def tau(x: Tangle) -> Tangle:
    """The crossing-minimal permutation image of x.

    Edges with crossings >= size are copied; all other nodes are joined
    top to bottom by equal polarity label.
    """
    counts = crossing_counts(x.n, x.pairing)
    pairs: list[tuple[NodeRef, NodeRef]] = []
    for e in x.edges:
        p = node_position(x.n, e.a)
        if counts[p] >= e.size:
            pairs.append((e.a, e.b))
    labels = polarity_labels(x)
    top: dict[tuple[Polarity, int], NodeRef] = {}
    bottom: dict[tuple[Polarity, int], NodeRef] = {}
    for node, label in labels.items():
        (top if node.row is Row.TOP else bottom)[label] = node
    if set(top) != set(bottom):
        raise InternalError(f"polarity labels of the two rows disagree for {x}")
    for label, node in top.items():
        pairs.append((node, bottom[label]))
    return make_tangle(x.n, pairs)


def pass_count(x: Tangle, e: Edge) -> int:
    """Number of primes the edge passes through: max(crossings, size)."""
    return max(edge_crossings(x, e), e.size)


def length_p(x: Tangle) -> int:
    """Minimal factorization length as half the sum of pass counts."""
    counts = crossing_counts(x.n, x.pairing)
    total = 0
    for p, q in enumerate(x.pairing):
        if q > p:
            size = abs(
                position_node(x.n, p).index - position_node(x.n, q).index
            )
            total += max(counts[p], size)
    if total % 2:
        raise InternalError(f"odd pass-count sum {total} for {x}")
    return total // 2


def length_tau(x: Tangle) -> int:
    """Minimal factorization length as the inversion count of the image."""
    return inversion_count(to_permutation(tau(x)))
