"""Node polarity, the permutation image, and both length functions."""

from __future__ import annotations

import itertools

import pytest

from conftest import all_tangles

from brauer.symmetric import Permutation, is_permutation_tangle, permutation_tangle
from brauer.tangle import (
    NodeRef,
    Row,
    crossing_pairs,
    edge,
    format_tangle,
    identity,
    parse_tangle,
    u_prime,
)
from brauer.tau import (
    Polarity,
    length_p,
    length_tau,
    node_polarity,
    pass_count,
    polarity_labels,
    tau,
)

EX_B3 = parse_tangle("B3: (1,3) (2,1') (2',3')")
EX_B4 = parse_tangle("B4: (1,3) (2,3') (4,1') (2',4')")


class TestPolarity:
    def test_upper_hook_left_is_minus(self):
        assert node_polarity(EX_B4, NodeRef(Row.TOP, 1)) is Polarity.MINUS

    def test_lower_hook_left_is_plus(self):
        assert node_polarity(EX_B4, NodeRef(Row.BOTTOM, 2)) is Polarity.PLUS

    def test_zero_transversal(self):
        assert node_polarity(identity(3), NodeRef(Row.TOP, 2)) is Polarity.ZERO

    def test_transversal_signs(self):
        assert node_polarity(EX_B4, NodeRef(Row.TOP, 4)) is Polarity.PLUS
        assert node_polarity(EX_B4, NodeRef(Row.TOP, 2)) is Polarity.MINUS

    def test_example_b4_labels(self):
        labels = polarity_labels(EX_B4)
        as_text = {str(node): (str(p), j) for node, (p, j) in labels.items()}
        assert as_text == {
            "1": ("-", 1),
            "3": ("+", 1),
            "4": ("+", 2),
            "1'": ("+", 1),
            "2'": ("+", 2),
            "4'": ("-", 1),
        }


class TestTau:
    def test_example_b4(self):
        assert format_tangle(tau(EX_B4)) == "B4: (1,4') (2,3') (3,1') (4,2')"

    def test_fixes_permutations(self):
        for image in itertools.permutations(range(1, 5)):
            x = permutation_tangle(Permutation(4, image))
            assert tau(x) == x

    def test_u1(self):
        from brauer.tangle import t_prime

        assert tau(u_prime(2, 1)) == t_prime(2, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_image_in_sn_and_idempotent(self, n):
        for x in all_tangles(n):
            y = tau(x)
            assert is_permutation_tangle(y)
            assert tau(y) == y

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_preserves_polarity(self, n):
        for x in all_tangles(n):
            y = tau(x)
            for row in (Row.TOP, Row.BOTTOM):
                for index in range(1, n + 1):
                    node = NodeRef(row, index)
                    assert node_polarity(x, node) == node_polarity(y, node)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_same_polarity_edges_do_not_cross(self, n):
        for x in all_tangles(n):
            y = tau(x)
            added = [e for e in y.edges if e not in x.edges]
            crossing = crossing_pairs(y)
            for e1 in added:
                for e2 in added:
                    if e1 == e2:
                        continue
                    same = node_polarity(y, e1.a) == node_polarity(y, e2.a)
                    if same:
                        assert (e1, e2) not in crossing and (e2, e1) not in crossing


class TestLengths:
    def test_pass_count_examples(self):
        assert pass_count(EX_B4, edge(2, "3'")) == 3
        assert pass_count(EX_B4, edge(4, "1'")) == 3
        assert pass_count(identity(3), edge(2, "2'")) == 0

    def test_length_p_examples(self):
        assert length_p(EX_B4) == 5
        assert length_p(identity(6)) == 0
        assert length_p(EX_B3) == 2

    def test_length_tau_examples(self):
        assert length_tau(EX_B3) == 2
        assert length_tau(u_prime(3, 2)) == 1
        assert length_tau(EX_B4) == 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_agreement_and_even_sum(self, n):
        for x in all_tangles(n):
            total = sum(pass_count(x, e) for e in x.edges)
            assert total % 2 == 0
            assert length_p(x) == length_tau(x) == total // 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_oracle_agreement(self, n, db):
        for x, entry in db[n].items():
            assert length_p(x) == entry.length

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_upper_bound_and_extremes(self, n, db):
        bound = n * (n - 1) // 2
        extremal = [x for x in db[n].tangles() if length_p(x) == bound]
        assert all(length_p(x) <= bound for x in db[n].tangles())
        assert len(extremal) == 2

    @pytest.mark.slow
    def test_oracle_agreement_n6(self, db):
        for x, entry in db[6].items():
            assert length_p(x) == length_tau(x) == entry.length

    @pytest.mark.slow
    def test_polarity_preservation_n6(self, db):
        for x in db[6].tangles():
            y = tau(x)
            for row in (Row.TOP, Row.BOTTOM):
                for index in range(1, 7):
                    node = NodeRef(row, index)
                    assert node_polarity(x, node) == node_polarity(y, node)

    @pytest.mark.slow
    def test_same_polarity_non_crossing_n6(self, db):
        for x in db[6].tangles():
            y = tau(x)
            added = [e for e in y.edges if e not in x.edges]
            crossing = crossing_pairs(y)
            for i, e1 in enumerate(added):
                for e2 in added[i + 1 :]:
                    if node_polarity(y, e1.a) == node_polarity(y, e2.a):
                        assert (e1, e2) not in crossing and (e2, e1) not in crossing
