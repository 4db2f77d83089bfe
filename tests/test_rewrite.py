"""The axiom rewriting system, the reducer, and the randomized check."""

from __future__ import annotations

import itertools
import random

import pytest

from brauer.errors import NoMatch
from brauer.rewrite import (
    RULES,
    Direction,
    apply_rule,
    check_assumption1,
    reduce,
)
from brauer.tangle import Word, compose_word, format_word, parse_word


def rule(id: int):
    assert RULES[id - 1].id == id
    return RULES[id - 1]


class TestApplyRule:
    def test_delete_u_t_u(self):
        w = apply_rule(parse_word("U1 T2 U1", 3), 0, rule(6))
        assert format_word(w) == "U1"

    def test_swap_distant(self):
        w = apply_rule(parse_word("T1 T3", 4), 0, rule(13))
        assert format_word(w) == "T3 T1"

    def test_delete_tt(self):
        w = apply_rule(parse_word("T1 T1", 2), 0, rule(1))
        assert format_word(w) == ""

    def test_rl_direction(self):
        w = apply_rule(parse_word("T3 T1", 4), 0, rule(13), Direction.RL)
        assert format_word(w) == "T1 T3"

    def test_no_match_wrong_kind(self):
        with pytest.raises(NoMatch):
            apply_rule(parse_word("T1 U1", 2), 0, rule(1))

    def test_no_match_adjacency(self):
        with pytest.raises(NoMatch):
            apply_rule(parse_word("U1 T3 U1", 4), 0, rule(6))

    def test_rule1_reverse_is_never_applicable(self):
        # Inserting T_i T_i would need an index out of thin air.
        with pytest.raises(NoMatch):
            apply_rule(parse_word("U1", 2), 0, rule(1), Direction.RL)

    def test_soundness_everywhere(self):
        # Wherever any rule matches, the tangle is unchanged.
        rng = random.Random(13)
        checked = 0
        for _ in range(150):
            n = rng.randrange(2, 6)
            w = Word(
                n,
                tuple(
                    rng.choice((1, -1)) * rng.randrange(1, n)
                    for _ in range(rng.randrange(0, 9))
                ),
            )
            x = compose_word(w)
            for pos in range(len(w)):
                for r in RULES:
                    for direction in Direction:
                        try:
                            out = apply_rule(w, pos, r, direction)
                        except NoMatch:
                            continue
                        assert compose_word(out) == x
                        checked += 1
        assert checked > 200


class TestReduce:
    def test_delete_prefix(self):
        assert format_word(reduce(parse_word("T1 T1 U2", 3)).word) == "U2"

    def test_needs_uju(self):
        assert format_word(reduce(parse_word("U2 U3 U2", 4)).word) == "U2"

    def test_already_minimal(self):
        result = reduce(parse_word("T1 U2", 3))
        assert format_word(result.word) == "T1 U2"
        assert not result.exhausted

    def test_monotone_and_sound(self):
        rng = random.Random(41)
        for _ in range(120):
            n = rng.randrange(2, 6)
            w = Word(
                n,
                tuple(
                    rng.choice((1, -1)) * rng.randrange(1, n)
                    for _ in range(rng.randrange(0, 14))
                ),
            )
            result = reduce(w)
            assert len(result.word) <= len(w)
            assert compose_word(result.word) == compose_word(w)

    def test_budget_flag(self):
        # An orbit cap of one forbids any move, so the swap-locked word
        # comes back unshortened and flagged.
        w = parse_word("T1 T3 T1 T3 T1 T3", 5)
        result = reduce(w, max_orbit=1)
        assert result.exhausted
        assert result.word == w
        assert compose_word(result.word) == compose_word(w)

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4])
    def test_complete_on_short_b4_words(self, length, db):
        primes = [s * i for s in (1, -1) for i in (1, 2, 3)]
        for combo in itertools.product(primes, repeat=length):
            w = Word(4, tuple(combo))
            result = reduce(w)
            assert not result.exhausted
            assert len(result.word) == db[4].length(compose_word(w))

    @pytest.mark.slow
    @pytest.mark.parametrize("length", [5, 6])
    def test_complete_on_longer_b4_words(self, length, db):
        primes = [s * i for s in (1, -1) for i in (1, 2, 3)]
        for combo in itertools.product(primes, repeat=length):
            w = Word(4, tuple(combo))
            result = reduce(w)
            assert not result.exhausted
            assert len(result.word) == db[4].length(compose_word(w))


class TestAssumption1:
    def test_n2_full_coverage(self, db):
        report = check_assumption1(db[2], seed=5, patience=10_000)
        assert report.tested == 3
        assert report.counterexamples == ()

    def test_n3_full_coverage(self, db):
        report = check_assumption1(db[3], seed=5, patience=20_000)
        assert report.tested == 15
        assert report.counterexamples == ()
        assert report.exhausted_samples == 0

    def test_n4_coverage(self, db):
        report = check_assumption1(db[4], seed=5, patience=50_000)
        assert report.tested == 105
        assert report.counterexamples == ()

    def test_deterministic_given_seed(self, db):
        a = check_assumption1(db[3], seed=99, patience=5_000)
        b = check_assumption1(db[3], seed=99, patience=5_000)
        assert a == b

    def test_reduce_reaches_length_function_randomized(self):
        # Without a database: the reducer must land on the closed-form
        # minimal length for random words at widths 5 and 6.
        from brauer.tau import length_p

        rng = random.Random(271)
        for _ in range(40):
            n = rng.randrange(5, 7)
            w = Word(
                n,
                tuple(
                    rng.choice((1, -1)) * rng.randrange(1, n)
                    for _ in range(rng.randrange(0, 9))
                ),
            )
            result = reduce(w)
            assert not result.exhausted
            assert len(result.word) == length_p(compose_word(w))
