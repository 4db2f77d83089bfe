"""The C kernel and the pure twin must agree exactly: the same lists, and on
bad input the same exception with the same message.  The C kernel is built
from source by the speedups fixture, so these tests run wherever a C
compiler exists."""

from __future__ import annotations

import math
import random
import shutil
import subprocess
import sysconfig
import time
from array import array
from pathlib import Path
from unittest import mock

import pytest

from conftest import all_pairings, all_tangles, outcome, store_bytes, twin_store

import brauer
from brauer._kernels import pure
from brauer.errors import (
    BrauerError,
    IncompleteDatabase,
    IndexOutOfRange,
    InternalError,
    InvalidPairing,
    ResourceLimit,
)
from brauer.factorize import factor_indices
from brauer.tangle import Tangle, identity, random_tangle


def nested_hooks(n: int) -> Tangle:
    """Top and bottom hooks (k, n+1-k) for even n: Theta(n^2) U-steps."""
    mate = [0] * (2 * n)
    for k in range(1, n // 2 + 1):
        for p, q in ((k - 1, n - k), (2 * n - k, n - 1 + k)):
            mate[p], mate[q] = q, p
    return Tangle(n, tuple(mate))


def crossed_hooks(n: int) -> Tangle:
    """Top and bottom hooks (k, n/2+k) for even n: each two in a row cross."""
    mate = [0] * (2 * n)
    for k in range(1, n // 2 + 1):
        for p, q in ((k - 1, n // 2 + k - 1), (2 * n - k, 2 * n - n // 2 - k)):
            mate[p], mate[q] = q, p
    return Tangle(n, tuple(mate))


@pytest.fixture(params=["pure", "c"])
def kernel(request):
    return pure if request.param == "pure" else request.getfixturevalue("speedups")


def test_kernel_source_has_no_warnings():
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("no gcc on PATH")
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").is_file():
        pytest.skip(f"no Python.h in {include}")
    source = Path(brauer.__file__).parent / "_kernels" / "_speedups.c"
    cmd = [gcc, "-fsyntax-only", "-Wall", "-Wextra", "-Werror", f"-I{include}", str(source)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_backend_reported():
    assert brauer.backend() in ("c", "pure")


def test_crossing_counts_agree(speedups):
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randrange(0, 30)
        x = random_tangle(n, rng)
        assert pure.crossing_counts(n, list(x.pairing)) == speedups.crossing_counts(n, x.pairing)


@pytest.mark.parametrize("min_t", [False, True])
def test_factorize_core_agrees_on_random_tangles(speedups, min_t):
    rng = random.Random(2 if min_t else 3)
    for _ in range(60):
        n = rng.randrange(1, 25)
        x = random_tangle(n, rng)
        indices = factor_indices(x)
        for debug in (False, True):
            a = pure.factorize_core(n, list(x.pairing), indices, min_t, debug)
            assert a == speedups.factorize_core(n, list(x.pairing), indices, min_t, debug)


@pytest.mark.parametrize("min_t", [False, True])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_factorize_core_agrees_on_nested_hooks(speedups, n, min_t):
    x = nested_hooks(n)
    indices = factor_indices(x)
    a = pure.factorize_core(n, list(x.pairing), indices, min_t, True)
    assert a == speedups.factorize_core(n, list(x.pairing), indices, min_t, True)
    assert sum(1 for v in a if v < 0) >= n * n // 8


def four_case_targets(n, hi, p, q):
    """The paper's merge table for the hook (i, i+1), i = hi + 1, by the
    kind of the edge (p, q), p < q: the reference for pure.merge_targets."""
    i = hi + 1
    if q < n:  # upper hook (p+1, q+1)
        if p < hi and q > hi + 1:
            return p, hi, hi + 1, q
    elif p >= n:  # lower hook with indices (2n-q, 2n-p)
        if q >= 2 * n - i and p <= 2 * n - i - 1:
            return hi, q, hi + 1, p
    else:  # transversal with top index p+1, bottom index 2n-q
        x, y = p + 1, 2 * n - q
        if x < y and x < i and y >= i + 1:  # negative
            return p, hi, hi + 1, q
        if x > y and x > i + 1 and y <= i:  # positive
            return hi, q, hi + 1, p
    return None


def test_merge_targets_equal_the_four_cases():
    # Every edge (p, q) of a tangle of B_2..B_10 with the upper hook
    # (hi, hi+1), the hook itself included.
    for n in range(2, 11):
        for hi in range(n - 1):
            others = [p for p in range(2 * n) if p not in (hi, hi + 1)]
            edges = [(hi, hi + 1)] + [(p, q) for q in others for p in others if p < q]
            for p, q in edges:
                assert pure.merge_targets(n, hi, p, q) == four_case_targets(n, hi, p, q)


def scan_every_candidate(n, mate, tc, sz, col, hi, cands, l2):
    """--min-t's scores as both twins took them before the sweep: one walk
    over the edges per candidate, (twice the length, the crossing total)
    after its merge."""
    return [pure.merge_scan(n, mate, tc, sz, col, hi, cand)[:2] for cand in cands]


def min_t_reference(n, pairing, indices):
    """factorize_core with min_t, every candidate scored by its own scan.
    At each U-step it also checks that pure._sweep gives every candidate,
    viable or not, the same scores."""
    sweep = pure._sweep

    def scores(*args):
        scanned = scan_every_candidate(*args)
        assert sweep(*args) == scanned
        return scanned

    with mock.patch.object(pure, "_sweep", scores):
        return pure.factorize_core(n, list(pairing), indices, True)


def assert_min_t_twins_equal_reference(speedups, tangles):
    for x in tangles:
        indices = factor_indices(x)
        expected = min_t_reference(x.n, x.pairing, indices)
        for twin in (pure, speedups):
            assert twin.factorize_core(x.n, list(x.pairing), indices, True) == expected, x


def _random_tangles(seed, count, sizes):
    rng = random.Random(seed)
    return [random_tangle(rng.choice(sizes), rng) for _ in range(count)]


MIN_T_FAMILIES = {
    "B_1..B_5": lambda: (x for n in range(1, 6) for x in all_tangles(n)),
    "hooks": lambda: (f(n) for n in (2, 4, 8, 16, 32) for f in (nested_hooks, crossed_hooks)),
    "random": lambda: _random_tangles(8, 50, range(1, 49)),
}


@pytest.mark.parametrize("family", sorted(MIN_T_FAMILIES))
def test_min_t_twins_equal_the_scan_reference(speedups, family):
    assert_min_t_twins_equal_reference(speedups, MIN_T_FAMILIES[family]())


def merged_reference(n, mate, cand):
    """(twice the length, the crossing total, the two new edges' counts) of
    the tangle after the merge cand, and its crossing table, counted afresh
    on a merged copy of the pairing."""
    _, _, a1, b1, a2, b2 = cand
    after = list(mate)
    after[a1], after[b1] = b1, a1
    after[a2], after[b2] = b2, a2
    counts = pure.crossing_counts(n, after)
    col = [p + 1 if p < n else 2 * n - p for p in range(2 * n)]
    reps = [r for r in range(2 * n) if after[r] > r]
    l2 = sum(max(counts[r], abs(col[r] - col[after[r]])) for r in reps)
    return (l2, sum(counts[r] for r in reps), counts[a1], counts[a2]), counts


@pytest.mark.parametrize("family", ["B_1..B_5", "hooks"])
def test_merge_scan_equals_a_fresh_count(family):
    # Every call pure.factorize_core makes in either mode, to test a
    # candidate or to commit the chosen merge, checked against
    # crossing_counts on the merged copy.
    merge_scan = pure.merge_scan
    applied = []

    def checked(n, mate, tc, sz, col, hi, cand, apply=False):
        scores, table = merged_reference(n, mate, cand)
        assert merge_scan(n, mate, tc, sz, col, hi, cand, apply) == scores
        if apply:
            assert tc == table
        applied.append(apply)
        return scores

    with mock.patch.object(pure, "merge_scan", checked):
        for x in MIN_T_FAMILIES[family]():
            indices = factor_indices(x)
            for min_t in (False, True):
                pure.factorize_core(x.n, list(x.pairing), indices, min_t)
    assert True in applied and False in applied


@pytest.mark.slow
def test_min_t_twins_equal_the_scan_reference_on_b6(speedups):
    assert_min_t_twins_equal_reference(speedups, all_tangles(6))


@pytest.mark.slow
@pytest.mark.parametrize("n", [128, 256])
def test_min_t_twins_equal_the_scan_reference_on_large_tangles(speedups, n):
    assert_min_t_twins_equal_reference(speedups, [random_tangle(n, random.Random(n))])


@pytest.mark.slow
def test_min_t_costs_at_most_five_default_runs(speedups):
    # Scoring each candidate by its own scan cost about 15x the default walk
    # on this tangle, and the sweep costs about 2.5x (2-vCPU x86-64 VM, gcc
    # -O2).
    x = random_tangle(256, random.Random(256))
    args = (256, list(x.pairing), factor_indices(x))
    best = {False: math.inf, True: math.inf}
    for _ in range(5):
        for min_t in best:
            start = time.perf_counter()
            speedups.factorize_core(*args, min_t)
            best[min_t] = min(best[min_t], time.perf_counter() - start)
    assert best[True] <= 5 * best[False], best


@pytest.mark.parametrize(
    "args",
    [
        (2, [100000000, 2, 1, 0]),
        (3, [3, 2, 1, 0]),
        (2, [3, 2, 1, 0, 0]),
        (2, [0, 1, 2, 3]),
        (2, [3, 2, 1, -1]),
        (-1, []),
        (10**30, [1, 0]),
    ],
)
def test_invalid_pairing_is_rejected(kernel, args):
    with pytest.raises(InvalidPairing, match=r"fixed-point-free involution of range\(2n\)"):
        kernel.crossing_counts(*args)
    with pytest.raises(InvalidPairing):
        kernel.factorize_core(*args, [])


@pytest.mark.parametrize("indices", [[5], [0], [-1], [1, 2], [10**40]])
def test_index_out_of_range_is_rejected(kernel, indices):
    with pytest.raises(IndexOutOfRange, match=r"outside 1\.\.1$"):
        kernel.factorize_core(2, [3, 2, 1, 0], indices)


def test_non_integers_raise_type_error(kernel):
    for args in ((2.0, [3, 2, 1, 0]), (2, [3, 2, 1, 0.0]), (2, None)):
        with pytest.raises(TypeError):
            kernel.crossing_counts(*args)
    with pytest.raises(TypeError):
        kernel.factorize_core(2, [3, 2, 1, 0], [1.0])


def test_error_messages_agree(speedups):
    # No checked pairing is known to reach NoViableMerge: an upper hook
    # always has a length-reducing merge, and searching every index
    # sequence of length <= 6 over B_2..B_4 found none.  The reachable
    # failures are a T-step on a pair that does not cross (the table
    # drifts) and indices that stop short of the identity.
    cases = [
        (2, [1, 0, 3, 2], [1, 1], False, True),
        (3, [1, 0, 5, 4, 3, 2], [1], False, True),
        (2, [3, 2, 1, 0], [7]),
        (2, [3, 2, 1], []),
    ]
    for args in cases:
        expected = outcome(pure.factorize_core, *args)
        assert isinstance(expected, tuple) and issubclass(expected[0], BrauerError)
        assert outcome(speedups.factorize_core, *args) == expected
    assert outcome(pure.factorize_core, *cases[0])[0] is InternalError


def test_random_index_sequences_agree(speedups):
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randrange(1, 7)
        x = random_tangle(n, rng) if rng.random() < 0.8 else identity(n)
        indices = [rng.randrange(1, n) for _ in range(rng.randrange(8))] if n > 1 else []
        for min_t in (False, True):
            for debug in (False, True):
                args = (n, x.pairing, indices, min_t, debug)
                assert outcome(pure.factorize_core, *args) == outcome(speedups.factorize_core, *args)


@pytest.mark.parametrize("n", range(7))
def test_unrank_is_a_bijection(kernel, n):
    total = math.prod(range(1, 2 * n, 2))
    pairings = [tuple(kernel.unrank(n, r)) for r in range(total)]
    assert sorted(pairings) == sorted(all_pairings(2 * n))
    assert [kernel.rank(n, p) for p in pairings] == list(range(total))


def test_rank_digits_are_random_tangle_draws(kernel):
    # random_tangle matches the first free position with the k-th free one
    # after it; its draws k, radix 2n-1 first, are the digits of the rank.
    rng = random.Random(7)
    for n in range(1, 10):
        radices = range(2 * n - 1, 0, -2)
        digits = [rng.randrange(radix) for radix in radices]
        draws = iter(digits)

        class Replay:
            def randrange(self, stop):
                return next(draws)

        r = 0
        for k, radix in zip(digits, radices):
            r = r * radix + k
        assert kernel.rank(n, random_tangle(n, Replay()).pairing) == r


def test_rank_twins_agree_on_random_tangles(speedups):
    rng = random.Random(5)
    for n in range(10):
        for _ in range(40):
            x = random_tangle(n, rng)
            r = pure.rank(n, x.pairing)
            assert speedups.rank(n, x.pairing) == r
            assert pure.unrank(n, r) == speedups.unrank(n, r) == list(x.pairing)
    top = math.prod(range(1, 34, 2)) - 1  # n = 17, the widest 63-bit rank
    assert pure.unrank(17, top) == speedups.unrank(17, top)
    assert speedups.rank(17, speedups.unrank(17, top)) == top


@pytest.mark.parametrize(
    "fn, args, error",
    [
        ("rank", (2, [1, 2, 3, 0]), InvalidPairing),  # not an involution
        ("rank", (2, [1, 0, 2, 3]), InvalidPairing),  # fixed points
        ("rank", (2, [3, 2, 1, -1]), InvalidPairing),
        ("rank", (2, [3, 2, 1, 10**30]), InvalidPairing),
        ("rank", (2, [1, 0]), InvalidPairing),  # wrong length
        ("rank", (2, [3, 2, 1, 0, 5]), InvalidPairing),
        ("rank", (18, list(range(36))[::-1]), ResourceLimit),  # (35)!! > 2**63
        ("rank", (-1, []), ResourceLimit),
        ("rank", (10**30, []), ResourceLimit),
        ("unrank", (2, 3), IndexOutOfRange),  # B_2 has ranks 0..2
        ("unrank", (2, -1), IndexOutOfRange),
        ("unrank", (17, 2**63), IndexOutOfRange),
        ("unrank", (0, 1), IndexOutOfRange),
        ("unrank", (18, 0), ResourceLimit),
        ("unrank", (-(10**30), 10**30), ResourceLimit),
    ],
)
def test_rank_errors_agree(speedups, fn, args, error):
    expected = outcome(getattr(pure, fn), *args)
    assert isinstance(expected, tuple) and expected[0] is error
    assert outcome(getattr(speedups, fn), *args) == expected


class Emptying:
    """An item whose __index__ empties the list that holds it."""

    def __init__(self, value, holder):
        self.value, self.holder = value, holder

    def __index__(self):
        self.holder.clear()
        return self.value


def test_rank_twins_read_a_snapshot_of_any_iterable(speedups):
    # Both twins read the pairing through one reader, from tuple(pairing):
    # every kind of iterable gives the same rank, and an __index__ that
    # empties the list cannot cut the read short.
    pairing = [5, 2, 1, 4, 3, 0]
    expected = 12  # digits 4, 0, 0 in radices 5, 3, 1

    def emptying(k):
        items = list(pairing)
        items[k] = Emptying(pairing[k], items)
        return items

    makers = [
        lambda: list(pairing),
        lambda: tuple(pairing),
        lambda: iter(pairing),
        lambda: emptying(0),
        lambda: emptying(5),
    ]
    for make in makers:
        for twin in (pure, speedups):
            assert outcome(twin.rank, 3, make()) == expected


def test_rank_non_integers_raise_type_error(kernel):
    cases = (("rank", (2.0, [3, 2, 1, 0])), ("rank", (2, [3, 2, 1, 0.0])), ("unrank", (2, 1.0)))
    for fn, args in cases:
        with pytest.raises(TypeError):
            getattr(kernel, fn)(*args)


def test_store_constants_agree(speedups):
    assert (speedups.MAX_N, speedups.ABSENT) == (pure.MAX_N, pure.ABSENT)


@pytest.mark.parametrize("n", range(1, 7))
def test_expand_twins_build_equal_stores(speedups, monkeypatch, db, n):
    # db was searched by the installed backend's twin; search with the other.
    other = speedups if brauer._kernels.expand is pure.expand else pure
    assert twin_store(monkeypatch, other.expand, n) == store_bytes(db[n])


def _store(n, lengths=None, t_counts=None, lasts=None, parents=None, ranks=(0,)):
    """expand's buffer arguments for B_n: an empty store and the given
    ranks, each replaced where an argument is given."""
    total = math.prod(range(1, 2 * n, 2))
    return (
        bytearray([pure.ABSENT]) * total if lengths is None else lengths,
        bytearray(total) if t_counts is None else t_counts,
        bytearray(total) if lasts is None else lasts,
        array("I", [0]) * total if parents is None else parents,
        array("I", ranks),
    )


@pytest.mark.parametrize(
    "n, buffers, sign, length, t, error",
    [
        (3, _store(3, lengths=bytearray(14)), 1, 1, 0, IncompleteDatabase),
        (3, _store(3, t_counts=bytearray(16)), 1, 1, 0, IncompleteDatabase),
        (3, _store(3, parents=array("I", [0]) * 14), 1, 1, 0, IncompleteDatabase),
        (3, _store(3, lasts=bytes(15)), 1, 1, 0, TypeError),  # read-only
        (3, _store(3, parents=bytearray(60)), 1, 1, 0, TypeError),  # itemsize 1
        (3, _store(3, parents=array("Q", [0]) * 15), 1, 1, 0, TypeError),  # itemsize 8
        (3, _store(3)[:4] + (bytearray(4),), 1, 1, 0, TypeError),  # ranks of itemsize 1
        (3, _store(3)[:4] + (memoryview(array("I", [0, 0, 0]))[::2],), 1, 1, 0, TypeError),
        (3, _store(3, ranks=[15]), 1, 1, 0, IndexOutOfRange),  # B_3 has ranks 0..14
        (3, _store(3, ranks=[0, 2**32 - 1]), -1, 1, 0, IndexOutOfRange),
        (0, _store(1), 1, 1, 0, ResourceLimit),
        (10, _store(1), 1, 1, 0, ResourceLimit),
        (-(10**30), _store(1), 1, 1, 0, ResourceLimit),
        (3, _store(3), 0, 1, 0, IndexOutOfRange),
        (3, _store(3), 2, 1, 0, IndexOutOfRange),
        (3, _store(3), 10**30, 1, 0, IndexOutOfRange),
        (3, _store(3), 1, 255, 0, IndexOutOfRange),
        (3, _store(3), 1, 1, 2, IndexOutOfRange),
        (3, _store(3), 1, 1, -1, IndexOutOfRange),
    ],
)
def test_expand_errors_agree(speedups, n, buffers, sign, length, t, error):
    def run(twin):
        args = [bytearray(b) if isinstance(b, bytearray) else b for b in buffers]
        args = [array(b.typecode, b) if isinstance(b, array) else b for b in args]
        try:
            twin.expand(n, *args, sign, length, t)
        except (BrauerError, TypeError) as exc:
            return type(exc), str(exc), [bytes(b) for b in args]
        return None

    expected = run(pure)
    assert expected is not None and expected[0] is error
    assert run(speedups) == expected


def test_expand_non_integers_raise_type_error(kernel):
    for k in range(4):
        numbers = [3, 1, 1, 0]
        numbers[k] = 1.0
        n, sign, length, t = numbers
        with pytest.raises(TypeError):
            kernel.expand(n, *_store(3), sign, length, t)
