"""Seeded inputs for the benchmark workloads.

Tangles are written in the brauer text format ("B3: (1,3) (2,1') (2',3')")
by this module's own code, so generating an input never calls the package
under test.  A tangle is handled here as a pairing list over 2n nodes: node
p < n is the top node p+1 and node p >= n is the bottom node (p-n+1)'.

A workload is a list of *cycles*; a cycle is a list of *batches*, and a
batch is one `brauer` command line plus the tangle lines fed to it on
stdin.  The workload process runs whole cycles in a closed loop, so every
run sees the same mix of sizes and flags whatever its length.
"""

from __future__ import annotations

import random

# Distinct cycles generated per run.  The random pools are larger than a
# run consumes with the pure kernel in 24 s; a much faster program wraps
# round and sees the same inputs again.
RANDOM_POOL = 96
VERIFY_POOL = 256
HOOK_POOL = 16

ORACLE_N = 7


def random_pairing(n: int, rng: random.Random) -> list[int]:
    """A uniformly random perfect matching of the 2n nodes (sequential
    uniform pairing: the lowest free node takes a uniform free partner)."""
    free = list(range(2 * n))
    mate = [-1] * (2 * n)
    while free:
        p = free.pop(0)
        q = free.pop(rng.randrange(len(free)))
        mate[p], mate[q] = q, p
    return mate


def _hook_pairing(n: int, pairs: list[tuple[int, int]]) -> list[int]:
    """Top hooks (a, b) and the same hooks (a', b') on the bottom row."""
    mate = [-1] * (2 * n)
    for a, b in pairs:
        for p, q in ((a - 1, b - 1), (n + a - 1, n + b - 1)):
            mate[p], mate[q] = q, p
    return mate


def nested_hooks(n: int) -> list[int]:
    """Top and bottom hooks (k, n+1-k): Theta(n^2) U-steps."""
    return _hook_pairing(n, [(k, n + 1 - k) for k in range(1, n // 2 + 1)])


def crossed_hooks(n: int) -> list[int]:
    """Top and bottom hooks (k, n/2+k): every pair of hooks in a row crosses."""
    half = n // 2
    return _hook_pairing(n, [(k, half + k) for k in range(1, half + 1)])


def node_label(n: int, p: int) -> str:
    return str(p + 1) if p < n else f"{p - n + 1}'"


def format_pairing(mate: list[int]) -> str:
    n = len(mate) // 2
    edges = " ".join(
        f"({node_label(n, p)},{node_label(n, q)})" for p, q in enumerate(mate) if q > p
    )
    return f"B{n}: {edges}" if edges else f"B{n}:"


def _batch(argv: list[str], check: str, pairings: list[list[int]]) -> dict:
    return {"argv": argv, "check": check, "items": [format_pairing(m) for m in pairings]}


# Sizes per cycle.  The latency of a tangle grows steeply with its size, so
# the counts put the latency median and p90 inside one size each, away from
# the edges between sizes: p50 among the N=128 and p90 among the N=256
# tangles (random), p50 among the N=64 tangles and p90 at the median of the
# N=128 ones (verify).  Pure Python spends 0.6-0.9 s on one random N=256
# tangle, so two per cycle keep enough of them in a run.
RANDOM_SIZES = (64, 128, 128, 128, 256, 256)
VERIFY_SIZES = (64, 64, 64, 64, 128)
# Two nested hooks at N=128, the slowest items, put p90 inside their group.
HOOK_DEFAULT = (
    ("nested", 64), ("nested", 128), ("nested", 128), ("crossed", 64), ("crossed", 128)
)
HOOK_MIN_T = (("nested", 32), ("nested", 48), ("crossed", 32), ("crossed", 48))
HOOK_FAMILIES = {"nested": nested_hooks, "crossed": crossed_hooks}


def _random_cycles(rng: random.Random, pool: int, sizes, argv, check) -> list[list[dict]]:
    return [
        [_batch(argv, check, [random_pairing(n, rng) for n in sizes])]
        for _ in range(pool)
    ]


def _hook_cycles(rng: random.Random) -> list[list[dict]]:
    cycles = []
    for _ in range(HOOK_POOL):
        default = [HOOK_FAMILIES[f](n) for f, n in HOOK_DEFAULT]
        min_t = [HOOK_FAMILIES[f](n) for f, n in HOOK_MIN_T]
        rng.shuffle(default)
        rng.shuffle(min_t)
        cycles.append(
            [
                _batch(["factorize"], "word", default),
                _batch(["factorize", "--min-t"], "min_t", min_t),
            ]
        )
    return cycles


def _oracle_cycles(rng: random.Random) -> list[list[dict]]:
    # The store is fixed by N; the seed has nothing to vary.
    argv = ["oracle", "build", str(ORACLE_N), "--huge", "-o", "{out}"]
    return [[{"argv": argv, "check": "oracle", "items": [], "n": ORACLE_N}]]


WORKLOADS = {
    "factorize-random": lambda rng: _random_cycles(
        rng, RANDOM_POOL, RANDOM_SIZES, ["factorize"], "word"
    ),
    "factorize-hooks": _hook_cycles,
    "verify-random": lambda rng: _random_cycles(
        rng, VERIFY_POOL, VERIFY_SIZES, ["factorize", "--verify"], "verify"
    ),
    "oracle-build": _oracle_cycles,
}


def make_spec(workload: str, seed: int) -> dict:
    """The full input of one run: the same (workload, seed) gives the same spec."""
    rng = random.Random(f"{workload}:{seed}")
    return {"workload": workload, "seed": seed, "cycles": WORKLOADS[workload](rng)}
