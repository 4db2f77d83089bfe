"""The quartic factorizer, the reference factorizer, and verify()."""

from __future__ import annotations

import random

import pytest

from brauer.errors import SizeMismatch
from brauer.factorize import VerifyResult, factorize, factorize_naive, verify
from brauer.tangle import (
    Axis,
    Word,
    compose_word,
    format_word,
    identity,
    parse_tangle,
    parse_word,
    random_tangle,
    reflect,
    total_crossings,
)
from brauer.tau import length_p, length_tau

EX_B3 = parse_tangle("B3: (1,3) (2,1') (2',3')")
EX_B4 = parse_tangle("B4: (1,3) (2,3') (4,1') (2',4')")


class TestFactorize:
    def test_two_factor_example(self):
        assert format_word(factorize(EX_B3)) == "T1 U2"

    def test_five_factor_end_to_end(self):
        x = compose_word(parse_word("T1 U2 U3 T1 T2", 4))
        w = factorize(x)
        assert len(w) == 5
        assert compose_word(w) == x
        assert format_word(w) == "T1 U2 U3 T1 T2"

    def test_identity(self):
        assert len(factorize(identity(6))) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_minimality(self, n, db):
        for x, entry in db[n].items():
            w = factorize(x)
            assert len(w) == entry.length
            assert compose_word(w) == x

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_min_t_matches_crossings(self, n, db):
        for x, entry in db[n].items():
            w = factorize(x, min_t=True)
            assert len(w) == entry.length
            assert compose_word(w) == x
            assert w.t_count() == total_crossings(x)

    def test_min_t_b5(self, db):
        for x in db[5].tangles():
            w = factorize(x, min_t=True)
            assert compose_word(w) == x
            assert w.t_count() == total_crossings(x)

    def test_each_step_drops_length_by_one(self):
        # Truncating the word from the top walks the length down one per factor.
        from brauer.tangle import Word

        rng = random.Random(9)
        for _ in range(30):
            x = random_tangle(rng.randrange(1, 7), rng)
            w = factorize(x)
            assert len(w) == length_p(x)
            for k in range(len(w) + 1):
                stripped = compose_word(Word(x.n, w.factors[k:]))
                assert length_p(stripped) == len(w) - k

    def test_debug_table_random(self):
        rng = random.Random(77)
        for _ in range(25):
            x = random_tangle(rng.randrange(1, 20), rng)
            w = factorize(x, debug_table=True)
            assert compose_word(w) == x


class TestFactorizeNaive:
    def test_example_b3_lp(self):
        w = factorize_naive(EX_B3, length_p)
        assert len(w) == 2
        assert compose_word(w) == EX_B3

    def test_identity_ltau(self):
        assert len(factorize_naive(identity(4), length_tau)) == 0

    def test_exhaustive_b4_oracle_handle(self, db):
        for x, entry in db[4].items():
            w = factorize_naive(x, db[4].length)
            assert len(w) == entry.length
            assert compose_word(w) == x

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agreement_both_length_functions(self, n, db):
        for x, entry in db[n].items():
            assert len(factorize_naive(x, length_p)) == entry.length
            assert len(factorize_naive(x, length_tau)) == entry.length

    @pytest.mark.slow
    def test_agreement_b5(self, db):
        for x, entry in db[5].items():
            assert len(factorize_naive(x, length_p)) == entry.length
            assert len(factorize_naive(x, length_tau)) == entry.length


class TestVerify:
    def test_good_word(self):
        result = verify(EX_B3, parse_word("T1 U2", 3))
        assert result.composes and result.length_minimal

    def test_composes_but_too_long(self):
        result = verify(EX_B3, parse_word("T1 U2 U2", 3))
        assert result.composes and not result.length_minimal

    def test_wrong_tangle(self):
        result = verify(identity(3), parse_word("T1", 3))
        assert not result.composes and not result.length_minimal

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            verify(identity(3), parse_word("T1", 4))


class TestReflections:
    """The horizontal flip reverses products and fixes every prime; the
    vertical mirror maps T_i and U_i to T_(n-i) and U_(n-i).  So a word for
    a reflected tangle, mapped back, must be a minimal word for x."""

    def test_reflected_words_verify(self):
        rng = random.Random(1736)
        for n in [rng.randrange(2, 65) for _ in range(20)]:
            x = random_tangle(n, rng)
            flipped, mirrored = reflect(x, Axis.HORIZONTAL), reflect(x, Axis.VERTICAL)
            assert length_p(flipped) == length_p(mirrored) == length_p(x)
            reversed_word = Word(n, factorize(flipped).factors[::-1])
            assert verify(x, reversed_word) == VerifyResult(True, True)
            mirror = tuple(n - v if v > 0 else -n - v for v in factorize(mirrored).factors)
            assert verify(x, Word(n, mirror)) == VerifyResult(True, True)


class TestBeyondOracleWidths:
    # No exhaustive database exists out here; the safety net is agreement
    # between independently computed quantities.

    def test_three_length_paths_agree_randomized(self):
        rng = random.Random(2718)
        for _ in range(60):
            n = rng.randrange(7, 21)
            x = random_tangle(n, rng)
            w = factorize(x)
            assert compose_word(w) == x
            assert len(w) == length_p(x) == length_tau(x)

    def test_min_t_equals_crossings_randomized(self):
        rng = random.Random(3141)
        for _ in range(25):
            n = rng.randrange(7, 16)
            x = random_tangle(n, rng)
            w = factorize(x, min_t=True)
            assert compose_word(w) == x
            assert w.t_count() == total_crossings(x)

    def test_naive_agreement_randomized(self):
        rng = random.Random(1618)
        for _ in range(10):
            n = rng.randrange(6, 10)
            x = random_tangle(n, rng)
            expected = length_p(x)
            assert len(factorize(x)) == expected
            assert len(factorize_naive(x, length_p)) == expected
            assert len(factorize_naive(x, length_tau)) == expected


@pytest.mark.slow
class TestSlowExhaustive:
    def test_factorize_b5(self, db):
        for x, entry in db[5].items():
            w = factorize(x)
            assert len(w) == entry.length
            assert compose_word(w) == x
