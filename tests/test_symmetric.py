"""Permutation view of S_N and the bubble-sort factorizer."""

from __future__ import annotations

import itertools

import pytest

from brauer.errors import NotAPermutationTangle
from brauer.symmetric import (
    Permutation,
    bubble_sort_factorize,
    bubble_sort_indices,
    inversion_count,
    permutation_tangle,
    to_permutation,
)
from brauer.tangle import (
    compose_word,
    crossing_pairs,
    format_word,
    identity,
    parse_tangle,
    t_prime,
)


class TestToPermutation:
    def test_identity(self):
        assert to_permutation(identity(3)).image == (1, 2, 3)

    def test_t1(self):
        assert to_permutation(t_prime(3, 1)).image == (2, 1, 3)

    def test_hook_rejected(self):
        with pytest.raises(NotAPermutationTangle):
            to_permutation(parse_tangle("B3: (1,3) (2,1') (2',3')"))

    def test_roundtrip(self):
        for image in itertools.permutations(range(1, 5)):
            p = Permutation(4, image)
            assert to_permutation(permutation_tangle(p)) == p


class TestInversionCount:
    def test_sorted(self):
        assert inversion_count(Permutation(3, (1, 2, 3))) == 0

    def test_frozen_example(self):
        assert inversion_count(Permutation(4, (4, 3, 1, 2))) == 5

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_reverse_is_maximal(self, n):
        rev = Permutation(n, tuple(range(n, 0, -1)))
        assert inversion_count(rev) == n * (n - 1) // 2


class TestBubbleSort:
    def test_identity_empty(self):
        assert len(bubble_sort_factorize(identity(4))) == 0

    def test_single_inversion(self):
        assert format_word(bubble_sort_factorize(t_prime(3, 2))) == "T2"

    def test_frozen_example(self):
        x = permutation_tangle(Permutation(4, (4, 3, 1, 2)))
        w = bubble_sort_factorize(x)
        assert format_word(w) == "T1 T2 T3 T1 T2"
        assert compose_word(w) == x

    def test_index_order_is_pass_by_pass(self):
        # The double loop runs j = n..1 outside and i = 1..j-1 inside.
        assert bubble_sort_indices(Permutation(3, (3, 2, 1))) == [1, 2, 1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exhaustive(self, n):
        for image in itertools.permutations(range(1, n + 1)):
            p = Permutation(n, image)
            x = permutation_tangle(p)
            w = bubble_sort_factorize(x)
            inv = inversion_count(p)
            assert len(w) == inv
            assert compose_word(w) == x
            assert all(v > 0 for v in w.factors)
            # The chord criterion coincides with inversions on S_N.
            assert len(crossing_pairs(x)) == inv
