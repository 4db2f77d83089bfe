"""Minimal-word factorization for the Brauer monoid B_N.

The package factorizes any tangle into a shortest word over the adjacent
crossing and cup/cap generators in O(N^4) time, or O(N^3 log N) for the
word with the fewest crossing generators (factorize(min_t=True)).  It
carries the quadratic-time length functions and the permutation projection
this rests on, dedicated factorizers for the symmetric and planar
submonoids, an exhaustive Cayley-graph oracle for small N, and the
generator axioms as a rewriting system.  See the README for the CLI.
"""

from ._kernels import BACKEND
from .errors import BrauerError
from .factorize import VerifyResult, factorize, factorize_naive, verify
from .oracle import (
    MinimalDatabase,
    bfs_cayley,
    check_assumption2,
    length_table,
    max_merges,
)
from .rewrite import RULES, ReduceResult, RewriteRule, apply_rule, check_assumption1, reduce
from .svg import render_tangle, render_word
from .symmetric import (
    Permutation,
    bubble_sort_factorize,
    inversion_count,
    to_permutation,
)
from .tangle import (
    Axis,
    Edge,
    EdgeKind,
    NodeRef,
    Row,
    Tangle,
    Word,
    components,
    compose,
    compose_word,
    crossing_pairs,
    edge,
    edge_crossings,
    format_tangle,
    format_word,
    hook_merges,
    identity,
    make_tangle,
    merge,
    parse_tangle,
    parse_word,
    prime,
    random_tangle,
    reflect,
    t_prime,
    tensor,
    total_crossings,
    u_prime,
)
from .tau import Polarity, length_p, length_tau, node_polarity, pass_count, polarity_labels, tau
from .temperley_lieb import Region, RegionDag, factorize_tl, is_planar, region_dag, regions

__version__ = "0.1.0"


def backend() -> str:
    """Name of the active kernel backend: "c" (the compiled _speedups.c) or "pure"."""
    return BACKEND
