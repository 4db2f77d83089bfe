"""Planarity, column regions, and the region-dag factorizer."""

from __future__ import annotations

from collections import Counter

import pytest

from brauer.errors import NotPlanar
from brauer.factorize import factorize
from brauer.tangle import (
    compose_word,
    format_word,
    identity,
    parse_word,
    t_prime,
    u_prime,
)
from brauer.temperley_lieb import factorize_tl, is_planar, region_dag, regions

EX_B32_WORD = "U2 U5 U1 U3 U2 U4 U3"


class TestIsPlanar:
    def test_u_prime(self):
        assert is_planar(u_prime(3, 2))

    def test_t_prime(self):
        assert not is_planar(t_prime(2, 1))

    def test_cups_b6(self):
        assert is_planar(compose_word(parse_word(EX_B32_WORD, 6)))


class TestRegions:
    def test_identity_single_region(self):
        rs = regions(identity(2))
        assert len(rs) == 1
        assert (rs[0].column, rs[0].depth, rs[0].bounds) == (1, 0, (None, None))

    def test_u1_three_regions(self):
        rs = regions(u_prime(2, 1))
        assert [(r.column, r.depth) for r in rs] == [(1, 0), (1, 1), (1, 2)]
        middle = rs[1]
        assert str(middle.bounds[0]) == "(1,2)"
        assert str(middle.bounds[1]) == "(1',2')"
        ones = [r for r in rs if r.depth % 2 == 1]
        assert len(ones) == 1

    def test_cups_b6_one_region_columns(self):
        x = compose_word(parse_word(EX_B32_WORD, 6))
        ones = [r.column for r in regions(x) if r.depth % 2 == 1]
        assert Counter(ones) == Counter([2, 5, 1, 3, 2, 4, 3])

    def test_not_planar(self):
        with pytest.raises(NotPlanar):
            regions(t_prime(2, 1))


class TestRegionDag:
    def test_cups_b6_structure(self):
        x = compose_word(parse_word(EX_B32_WORD, 6))
        dag = region_dag(x)
        assert len(dag.vertices) == 7
        assert dag.roots() == ((2, 1), (5, 1))
        # Acyclic: peeling roots exhausts the vertex set.
        alive = set(dag.vertices)
        while alive:
            incoming = {dst for src, dst in dag.arcs if src in alive and dst in alive}
            roots = alive - incoming
            assert roots
            alive -= roots

    def test_nested_hooks_chain(self):
        x = compose_word(parse_word("U2 U1 U3 U2", 4))
        dag = region_dag(x)
        assert len(dag.vertices) == 4
        assert dag.roots() == ((2, 1),)


class TestFactorizeTl:
    def test_cups_b6_verbatim(self):
        x = compose_word(parse_word(EX_B32_WORD, 6))
        assert format_word(factorize_tl(x)) == EX_B32_WORD

    def test_identity(self):
        assert len(factorize_tl(identity(5))) == 0

    def test_u1(self):
        assert format_word(factorize_tl(u_prime(2, 1))) == "U1"

    def test_not_planar(self):
        with pytest.raises(NotPlanar):
            factorize_tl(t_prime(2, 1))

    def test_random_planar_words_beyond_oracle(self):
        # Any composition of cup/cap generators is planar; the region-dag
        # word must agree with the general factorizer out there too.
        import random

        from brauer.tangle import Word

        rng = random.Random(60221)
        for _ in range(40):
            n = rng.randrange(6, 15)
            factors = tuple(-rng.randrange(1, n) for _ in range(rng.randrange(0, 3 * n)))
            x = compose_word(Word(n, factors))
            assert is_planar(x)
            w = factorize_tl(x)
            assert compose_word(w) == x
            assert len(w) == len(factorize(x))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exhaustive_vs_oracle(self, n, db):
        planar_count = 0
        for x, entry in db[n].items():
            if not is_planar(x):
                continue
            planar_count += 1
            w = factorize_tl(x)
            assert compose_word(w) == x
            assert len(w) == entry.length
            assert all(v < 0 for v in w.factors)
            one_regions = sum(1 for r in regions(x) if r.depth % 2 == 1)
            assert len(w) == one_regions
            # Agreement with the general factorizer.
            assert len(factorize(x)) == len(w)
        # Planar tangles of B_n are counted by the Catalan numbers.
        assert planar_count == [1, 1, 2, 5, 14, 42][n]
