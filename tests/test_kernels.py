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
from pathlib import Path

import pytest

from conftest import all_pairings, outcome

import brauer
from brauer._kernels import pure
from brauer.errors import (
    BrauerError,
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


def test_rank_non_integers_raise_type_error(kernel):
    cases = (("rank", (2.0, [3, 2, 1, 0])), ("rank", (2, [3, 2, 1, 0.0])), ("unrank", (2, 1.0)))
    for fn, args in cases:
        with pytest.raises(TypeError):
            getattr(kernel, fn)(*args)
