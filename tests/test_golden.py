"""Golden outputs: the sha256 of the CLI's stdout on fixed, seeded input
families, recomputed on the active kernel backend.

tests/golden/golden.json holds, per family, the hash, the line count and
the first lines of the output as a readable sample.  It was written once
from the output of the commit that added it; a change that alters an
output on purpose says so in CHANGES.md, and no hash is rewritten to make
a change pass.

The inputs are written as text by this module, without the package's own
formatter, so a change to the package cannot change its test inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import accumulate
from pathlib import Path
from typing import Iterator

import pytest

from conftest import all_pairings

from brauer import cli

GOLDEN = json.loads((Path(__file__).parent / "golden" / "golden.json").read_text())


def _node(n: int, p: int) -> str:
    return str(p + 1) if p < n else f"{2 * n - p}'"


def _line(mate: list[int] | tuple[int, ...]) -> str:
    """A pairing over boundary positions (top 1..n, then bottom n'..1')."""
    n = len(mate) // 2
    edges = " ".join(f"({_node(n, p)},{_node(n, q)})" for p, q in enumerate(mate) if q > p)
    return f"B{n}: {edges}" if edges else f"B{n}:"


def _random(sizes: tuple[int, ...], per_size: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for n in sizes:
        for _ in range(per_size):
            free = list(range(2 * n))
            mate = [-1] * (2 * n)
            while free:
                p = free.pop(0)
                q = free.pop(rng.randrange(len(free)))
                mate[p], mate[q] = q, p
            out.append(_line(mate))
    return out


def _hooks(n: int, pairs: list[tuple[int, int]]) -> str:
    """Upper hooks (a, b) and the same lower hooks (a', b')."""
    top = [f"({a},{b})" for a, b in pairs]
    bottom = [f"({a}',{b}')" for a, b in pairs]
    return f"B{n}: " + " ".join(top + bottom)


def _hook_families(sizes: tuple[int, ...]) -> list[str]:
    out = []
    for n in sizes:
        out.append(_hooks(n, [(k, n + 1 - k) for k in range(1, n // 2 + 1)]))  # nested
        out.append(_hooks(n, [(k, n // 2 + k) for k in range(1, n // 2 + 1)]))  # crossed
    return out


def _planar(max_n: int) -> list[str]:
    """Every crossing-free tangle of B_1..B_max_n, in enumeration order."""
    out = []
    for n in range(1, max_n + 1):
        for mate in all_pairings(2 * n):
            spans = [(p, q) for p, q in enumerate(mate) if q > p]
            if not any(a < c < b < d for a, b in spans for c, d in spans):
                out.append(_line(mate))
    return out


def _non_crossing(lo: int, hi: int) -> Iterator[list[tuple[int, int]]]:
    """Every non-crossing matching of positions lo..hi-1: lo is joined to
    some q, and the positions inside and outside (lo, q) match apart."""
    if lo == hi:
        yield []
        return
    for q in range(lo + 1, hi, 2):
        for inside in _non_crossing(lo + 1, q):
            for outside in _non_crossing(q + 1, hi):
                yield [(lo, q), *inside, *outside]


def _planar_of(n: int) -> list[str]:
    """Every crossing-free tangle of B_n (the boundary order is cyclic, so a
    non-crossing matching of the 2n positions is a planar tangle)."""
    out = []
    for pairs in _non_crossing(0, 2 * n):
        mate = [0] * (2 * n)
        for p, q in pairs:
            mate[p], mate[q] = q, p
        out.append(_line(mate))
    return out


def _dyck(sizes: tuple[int, ...], per_size: int, seed: int) -> list[str]:
    """Random planar tangles: a shuffled balanced bracket string, rotated to
    start at its lowest prefix sum (a Dyck word), matched, then rotated by a
    random offset around the boundary."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        for _ in range(per_size):
            steps = [1] * n + [-1] * n
            rng.shuffle(steps)
            sums = list(accumulate(steps))
            start = (sums.index(min(sums)) + 1) % (2 * n)
            shift = rng.randrange(2 * n)
            mate = [0] * (2 * n)
            opened = []
            for k in range(2 * n):
                p = (start + k) % (2 * n)
                if steps[p] > 0:
                    opened.append(p)
                else:
                    q = opened.pop()
                    a, b = (p + shift) % (2 * n), (q + shift) % (2 * n)
                    mate[a], mate[b] = b, a
            out.append(_line(mate))
    return out


RANDOM = _random((8, 16, 24, 32, 40, 48, 56, 64), 3, seed=20240)
HOOKS = _hook_families((4, 8, 16, 32))
HOOKS_64 = _hook_families((64,))
PLANAR = _planar(6)
RANDOM_128 = _random((96, 128), 3, seed=20241)
PLANAR_7_8 = _planar_of(7) + _planar_of(8)
DYCK = _dyck((16, 32, 64), 3, seed=20242)

# family name -> (argv, input lines or None for no input file).  The tier-1
# families take about 3.5 s on the pure backend; larger ones are slow tests.
FAMILIES = {
    "factorize-random": (["factorize"], RANDOM),
    "factorize-random-min-t": (["factorize", "--min-t"], RANDOM),
    "factorize-random-verify": (["factorize", "--verify"], RANDOM),
    "factorize-hooks": (["factorize"], HOOKS + HOOKS_64),
    "factorize-hooks-min-t": (["factorize", "--min-t"], HOOKS),
    "factorize-hooks-verify": (["factorize", "--verify"], HOOKS + HOOKS_64),
    "factorize-tl-planar": (["factorize", "--tl"], PLANAR),
    "factorize-tl-planar-7-8": (["factorize", "--tl"], PLANAR_7_8),
    "factorize-tl-dyck": (["factorize", "--tl"], DYCK),
    "length-both-random": (["length", "--both"], RANDOM + HOOKS),
    "tau-random": (["tau"], RANDOM + HOOKS),
    "oracle-build-5": (["oracle", "build", "5"], None),
    "oracle-build-6": (["oracle", "build", "6"], None),
}
SLOW_FAMILIES = {
    "factorize-hooks-64-min-t": (["factorize", "--min-t"], HOOKS_64),
    "factorize-random-128": (["factorize"], RANDOM_128),
    "factorize-random-128-min-t": (["factorize", "--min-t"], RANDOM_128),
    "oracle-build-7": (["oracle", "build", "7", "--huge"], None),
    "factorize-tl-planar-9": (["factorize", "--tl"], _planar_of(9)),
    "factorize-tl-dyck-256": (["factorize", "--tl"], _dyck((128, 256), 3, seed=20243)),
}


def run(argv: list[str], lines: list[str] | None, tmp_path: Path) -> str:
    """stdout of the CLI on argv, with the lines (if any) as its input file."""
    if lines is not None:
        path = tmp_path / "input.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        argv = argv + [str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def check(name: str, argv: list[str], lines: list[str] | None, tmp_path: Path) -> None:
    text = run(argv, lines, tmp_path)
    expected = GOLDEN[name]
    assert text.splitlines()[: len(expected["sample"])] == expected["sample"]
    assert text.count("\n") == expected["lines"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected["sha256"]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_golden(name, tmp_path):
    check(name, *FAMILIES[name], tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SLOW_FAMILIES))
def test_golden_slow(name, tmp_path):
    check(name, *SLOW_FAMILIES[name], tmp_path)
