"""Core model: construction, composition, crossings, merge, reflections,
components and the text formats."""

from __future__ import annotations

import random

import pytest

from brauer.errors import (
    DuplicateNode,
    EdgeNotInTangle,
    IndexOutOfRange,
    InvalidPairing,
    MergeUndefined,
    NotASizeOneUpperHook,
    ParseError,
    SelfLoop,
    SizeMismatch,
    UncoveredNode,
)
from brauer.tangle import (
    Axis,
    EdgeKind,
    Prime,
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
    identity,
    make_tangle,
    merge,
    parse_tangle,
    parse_word,
    prime,
    random_tangle,
    reflect,
    right_multiply,
    signed_to_word,
    t_prime,
    tensor,
    total_crossings,
    u_prime,
    word_to_signed,
)

EX_B3 = "B3: (1,3) (2,1') (2',3')"
EX_B4 = "B4: (1,3) (2,3') (4,1') (2',4')"


def random_word(n: int, length: int, rng: random.Random) -> Word:
    factors = tuple(
        Prime(rng.choice("TU"), rng.randrange(1, n)) for _ in range(length)
    )
    return Word(n, factors)


def reference_product(w: Word):
    """The product of a word by full-tangle compose, bottom factor first."""
    out = identity(w.n)
    for p in reversed(w.factors):
        out = compose(prime(w.n, p), out)
    return out


class TestConstruction:
    def test_two_factor_example(self):
        x = make_tangle(3, [(1, 3), (2, "1'"), ("2'", "3'")])
        assert format_tangle(x) == EX_B3

    def test_identity_2(self):
        assert make_tangle(2, [(1, "1'"), (2, "2'")]) == identity(2)

    def test_duplicate_node(self):
        with pytest.raises(DuplicateNode):
            make_tangle(2, [(1, "1'"), (1, "2'")])

    def test_uncovered_node(self):
        with pytest.raises(UncoveredNode):
            make_tangle(2, [(1, "1'")])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            make_tangle(2, [(1, 3), ("1'", "2'")])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            make_tangle(1, [(1, 1)])

    def test_identity_edges(self):
        assert format_tangle(identity(1)) == "B1: (1,1')"
        assert format_tangle(identity(3)) == "B3: (1,1') (2,2') (3,3')"
        assert all(e.kind is EdgeKind.ZERO_TRANSVERSAL for e in identity(4).edges)
        assert all(e.size == 0 for e in identity(4).edges)

    def test_empty_tangle(self):
        assert format_tangle(identity(0)) == "B0:"
        assert parse_tangle("B0:") == identity(0)

    def test_primes(self):
        assert format_tangle(t_prime(3, 1)) == "B3: (1,2') (2,1') (3,3')"
        assert format_tangle(u_prime(3, 2)) == "B3: (1,1') (2,3) (2',3')"
        with pytest.raises(IndexOutOfRange):
            prime(2, Prime("T", 2))

    def test_primes_by_edges(self):
        for n in range(2, 7):
            for i in range(1, n):
                rest = [(j, f"{j}'") for j in range(1, n + 1) if j not in (i, i + 1)]
                t = make_tangle(n, rest + [(i, f"{i + 1}'"), (i + 1, f"{i}'")])
                u = make_tangle(n, rest + [(i, i + 1), (f"{i}'", f"{i + 1}'")])
                assert t_prime(n, i) == t
                assert u_prime(n, i) == u

    @pytest.mark.parametrize(
        "n,pairing",
        [
            (2, (100000000, 2, 1, 0)),  # index out of range
            (2, (3, 2, 1, 0, 0)),  # wrong length
            (2, (-1, 2, 1, 0)),  # negative index
            (2, (0, 2, 1, 3)),  # fixed points
            (2, (1, 2, 3, 0)),  # a permutation, not an involution
            (1, (1.0, 0)),  # not an int
            (2, [1, 0, 3, 2]),  # not a tuple
            (1, (1, 0, 2)),  # too long, the extra entry a fixed point
            (-1, ()),
        ],
    )
    def test_invalid_pairing(self, n, pairing):
        with pytest.raises(InvalidPairing):
            Tangle(n, pairing)

    def test_invalid_pairing_never_reaches_the_kernels(self):
        from brauer import factorize, length_p

        with pytest.raises(InvalidPairing):
            length_p(Tangle(2, (100000000, 2, 1, 0)))
        with pytest.raises(InvalidPairing):
            factorize(Tangle(2, (3, 2, 1, 0, 0)))


class TestEdges:
    @pytest.mark.parametrize(
        "a,b,kind,size",
        [
            (2, "3'", EdgeKind.NEGATIVE_TRANSVERSAL, 1),
            (4, "1'", EdgeKind.POSITIVE_TRANSVERSAL, 3),
            (1, "1'", EdgeKind.ZERO_TRANSVERSAL, 0),
            (1, 3, EdgeKind.UPPER_HOOK, 2),
            ("2'", "4'", EdgeKind.LOWER_HOOK, 2),
        ],
    )
    def test_kind_and_size(self, a, b, kind, size):
        e = edge(a, b)
        assert e.kind is kind
        assert e.size == size

    def test_canonical_order(self):
        assert str(edge("3'", "2'")) == "(2',3')"
        assert str(edge("1'", 4)) == "(4,1')"
        assert str(edge(3, 1)) == "(1,3)"

    def test_named_operations(self):
        from brauer import edge_kind, edge_size

        e = edge(4, "1'")
        assert edge_kind(e) is EdgeKind.POSITIVE_TRANSVERSAL
        assert edge_size(e) == 3


class TestCompose:
    def test_two_factor_product(self):
        assert compose(t_prime(3, 1), u_prime(3, 2)) == parse_tangle(EX_B3)

    def test_u_idempotent(self):
        u = u_prime(2, 1)
        assert compose(u, u) == u

    def test_t_involution(self):
        assert compose_word(parse_word("T1 T1", 3)) == identity(3)

    def test_identity_laws(self):
        x = parse_tangle(EX_B3)
        assert compose(x, identity(3)) == x
        assert compose(identity(3), x) == x

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            compose(identity(2), identity(3))

    def test_five_factor_word(self):
        x = compose_word(parse_word("T1 U2 U3 T1 T2", 4))
        assert x == parse_tangle(EX_B4)

    def test_empty_word(self):
        assert compose_word(Word(3, ())) == identity(3)

    def test_associativity_and_identity_laws_fuzz(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(1, 7)
            a, b, c = (random_tangle(n, rng) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))
            assert compose(identity(n), a) == a
            assert compose(a, identity(n)) == a

    def test_fold_matches_reference(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randrange(2, 9)
            w = random_word(n, rng.randrange(0, 20), rng)
            assert compose_word(w) == reference_product(w)

    @pytest.mark.parametrize("kind", ["T", "U"])
    def test_prime_after_lower_hook_is_no_op(self, kind):
        # U_i leaves the lower hook (i', i+1'), which absorbs T_i and U_i.
        for n in range(2, 7):
            for i in range(1, n):
                pairing = list(u_prime(n, i).pairing)
                v = i if kind == "T" else -i
                assert not right_multiply(pairing, n, v)
                assert tuple(pairing) == u_prime(n, i).pairing
                w = parse_word(f"T1 U{i} {kind}{i}", n)
                assert compose_word(w) == reference_product(w)
                assert compose_word(w) == compose_word(parse_word(f"T1 U{i}", n))

    def test_signed_codec_roundtrip(self):
        w = parse_word("T1 U2 U3 T1 T2", 4)
        assert word_to_signed(w) == (1, -2, -3, 1, 2)
        assert signed_to_word(4, (1, -2, -3, 1, 2)) == w
        assert word_to_signed(Word(3, ())) == ()

    def test_words_compose_to_valid_tangles(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randrange(2, 9)
            x = compose_word(random_word(n, rng.randrange(0, 20), rng))
            pairing = x.pairing
            assert len(pairing) == 2 * n
            assert all(pairing[pairing[p]] == p and pairing[p] != p for p in range(2 * n))


class TestTensor:
    def test_shift(self):
        assert tensor(identity(1), u_prime(2, 1)) == u_prime(3, 2)

    def test_pad_right(self):
        x = tensor(parse_tangle(EX_B3), identity(1))
        assert format_tangle(x) == "B4: (1,3) (2,1') (4,4') (2',3')"

    def test_disjoint(self):
        x = tensor(t_prime(2, 1), t_prime(2, 1))
        assert format_tangle(x) == "B4: (1,2') (2,1') (3,4') (4,3')"


class TestCrossings:
    def test_example_b4_per_edge(self):
        x = parse_tangle(EX_B4)
        expected = {"(1,3)": 1, "(2,3')": 3, "(4,1')": 1, "(2',4')": 1}
        for e in x.edges:
            assert edge_crossings(x, e) == expected[str(e)]
        assert len(crossing_pairs(x)) == 3

    def test_identity_no_crossings(self):
        x = identity(5)
        assert all(edge_crossings(x, e) == 0 for e in x.edges)

    def test_edge_not_in_tangle(self):
        with pytest.raises(EdgeNotInTangle):
            edge_crossings(identity(3), edge(1, 2))

    def test_total_is_half_sum(self):
        rng = random.Random(11)
        for _ in range(100):
            x = random_tangle(rng.randrange(1, 8), rng)
            total = sum(edge_crossings(x, e) for e in x.edges)
            assert total == 2 * len(crossing_pairs(x))
            assert total_crossings(x) == len(crossing_pairs(x))


class TestComponents:
    def test_tensor_inverse(self):
        x = tensor(t_prime(2, 1), identity(1))
        assert components(x) == [(t_prime(2, 1), 0), (identity(1), 2)]

    def test_example_b3_single_component(self):
        x = parse_tangle(EX_B3)
        # Brute scan: every cut between columns is spanned by some edge.
        for k in range(1, 3):
            spanned = any(
                min(e.a.index, e.b.index) <= k < max(e.a.index, e.b.index)
                for e in x.edges
            )
            assert spanned
        assert components(x) == [(x, 0)]

    def test_identity_splits_fully(self):
        assert components(identity(3)) == [
            (identity(1), 0),
            (identity(1), 1),
            (identity(1), 2),
        ]

    def test_fold_back(self):
        rng = random.Random(23)
        for _ in range(100):
            x = random_tangle(rng.randrange(1, 8), rng)
            rebuilt = identity(0)
            for part, offset in components(x):
                assert rebuilt.n == offset
                rebuilt = tensor(rebuilt, part)
            assert rebuilt == x


class TestMerge:
    def test_positive_transversal_case(self):
        x1 = parse_tangle("B4: (1,3') (2,3) (4,1') (2',4')")
        result = merge(x1, edge(2, 3), edge(4, "1'"))
        assert format_tangle(result) == "B4: (1,3') (2,1') (3,4) (2',4')"
        assert compose(u_prime(4, 2), result) == x1

    def test_upper_hook_case(self):
        x = make_tangle(4, [(2, 3), (1, 4), ("1'", "2'"), ("3'", "4'")])
        result = merge(x, edge(2, 3), edge(1, 4))
        assert edge(1, 2) in result.edge_set
        assert edge(3, 4) in result.edge_set

    def test_undefined(self):
        x = make_tangle(4, [(2, 3), (1, "1'"), (4, "4'"), ("2'", "3'")])
        with pytest.raises(MergeUndefined):
            merge(x, edge(2, 3), edge(1, "1'"))

    def test_not_a_hook(self):
        x = identity(3)
        with pytest.raises(NotASizeOneUpperHook):
            merge(x, edge(1, "1'"), edge(2, "2'"))

    def test_edge_not_in_tangle(self):
        x = make_tangle(2, [(1, 2), ("1'", "2'")])
        with pytest.raises(EdgeNotInTangle):
            merge(x, edge(1, 2), edge(1, "1'"))

    def test_inversion_exhaustive_b4(self):
        # Whenever defined, stacking U_i back on the merge reproduces x.
        from conftest import all_tangles

        checked = 0
        for x in all_tangles(4):
            for h in x.edges:
                if h.kind is not EdgeKind.UPPER_HOOK or h.size != 1:
                    continue
                for e in x.edges:
                    if e == h:
                        continue
                    try:
                        result = merge(x, h, e)
                    except MergeUndefined:
                        continue
                    assert compose(u_prime(4, h.a.index), result) == x
                    checked += 1
        assert checked == 57


class TestReflect:
    def test_u_symmetric(self):
        assert reflect(u_prime(3, 1), Axis.HORIZONTAL) == u_prime(3, 1)

    def test_t_vertical(self):
        assert reflect(t_prime(3, 1), Axis.VERTICAL) == t_prime(3, 2)

    def test_involution(self):
        x = parse_tangle(EX_B4)
        for axis in Axis:
            assert reflect(reflect(x, axis), axis) == x

    def test_crossing_invariance(self):
        rng = random.Random(31)
        for _ in range(100):
            x = random_tangle(rng.randrange(1, 8), rng)
            for axis in Axis:
                assert len(crossing_pairs(reflect(x, axis))) == len(crossing_pairs(x))


class TestAxioms:
    def test_all_sixteen_identities(self):
        # Each generator identity holds as a tangle equality for every
        # valid index pair under its side condition, up to B_8.
        from brauer.rewrite import RULES, Constraint

        def instantiate(tokens, n, i, j):
            bind = {"i": i, "j": j}
            return Word(n, tuple(Prime(t[0], bind[t[1]]) for t in tokens))

        checked = 0
        for n in range(2, 9):
            for rule in RULES:
                for i in range(1, n):
                    for j in range(1, n):
                        gap = abs(i - j)
                        if rule.constraint is Constraint.ADJACENT and gap != 1:
                            continue
                        if rule.constraint is Constraint.DISTANT and gap <= 1:
                            continue
                        if rule.constraint is Constraint.NONE and j != i:
                            continue
                        lhs = compose_word(instantiate(rule.lhs, n, i, j))
                        rhs = compose_word(instantiate(rule.rhs, n, i, j))
                        assert lhs == rhs, f"axiom {rule.id} fails at n={n}, i={i}, j={j}"
                        checked += 1
        assert checked == 728


class TestTextFormats:
    def test_roundtrip_examples(self):
        for text in (EX_B3, EX_B4, "B1: (1,1')"):
            assert format_tangle(parse_tangle(text)) == text

    def test_whitespace_tolerance(self):
        assert parse_tangle("B3:(1,3)  ( 2 , 1' )(2',3')") == parse_tangle(EX_B3)

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            parse_tangle("B3: (1,3) nonsense (2,1') (2',3')")
        with pytest.raises(ParseError):
            parse_tangle("3: (1,3)")

    def test_word_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(2, 8)
            w = random_word(n, rng.randrange(0, 12), rng)
            assert parse_word(format_word(w), n) == w

    def test_word_index_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_word("T3", 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_roundtrip_exhaustive(self, n, db):
        for x in db[n].tangles():
            assert parse_tangle(format_tangle(x)) == x
