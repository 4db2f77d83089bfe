"""The Cayley-graph database and its enumeration reports."""

from __future__ import annotations

import io
import itertools
import tracemalloc
from array import array

import pytest

from conftest import all_tangles, twin_store

from brauer import oracle
from brauer._kernels import pure
from brauer.errors import IncompleteDatabase, ParseError, ResourceLimit
from brauer.oracle import (
    ABSENT,
    MinimalDatabase,
    _text_order,
    bfs_cayley,
    check_assumption2,
    double_factorial_odd,
    dump_database,
    length_table,
    load_database,
    max_merges,
)
from brauer.tangle import (
    Tangle,
    compose_word,
    format_tangle,
    format_word,
    identity,
    parse_tangle,
    t_prime,
    total_crossings,
    u_prime,
)

TABLE_LENGTHS = {
    1: {0: 1},
    2: {0: 1, 1: 2},
    3: {0: 1, 1: 4, 2: 8, 3: 2},
    4: {0: 1, 1: 6, 2: 20, 3: 36, 4: 30, 5: 10, 6: 2},
    5: {0: 1, 1: 8, 2: 36, 3: 102, 4: 196, 5: 228, 6: 212, 7: 106, 8: 42, 9: 12, 10: 2},
    6: {
        0: 1, 1: 10, 2: 56, 3: 208, 4: 562, 5: 1110, 6: 1650, 7: 1966,
        8: 1914, 9: 1440, 10: 830, 11: 414, 12: 162, 13: 56, 14: 14, 15: 2,
    },
}

TABLE_MAX_MERGES = {2: (1, 1), 3: (1, 6), 4: (2, 2), 5: (2, 46), 6: (3, 18)}

# Not published: this repository's own computation (the search with the C
# twin; ROADMAP, Baseline).  The paper's tables stop at n = 6.
COMPUTED_LENGTHS_8 = {
    0: 1, 1: 14, 2: 108, 3: 572, 4: 2294, 5: 7266, 6: 18746, 7: 40166, 8: 73278,
    9: 116996, 10: 166400, 11: 212250, 12: 244730, 13: 255188, 14: 240828,
    15: 207968, 16: 161844, 17: 113490, 18: 73978, 19: 44336, 20: 24354,
    21: 12462, 22: 5848, 23: 2502, 24: 972, 25: 324, 26: 90, 27: 18, 28: 2,
}


class TestBfs:
    def test_b2_entries(self, db):
        d = db[2]
        assert len(d) == 3
        assert d.length(identity(2)) == 0
        assert d.length(t_prime(2, 1)) == 1
        assert d.length(u_prime(2, 1)) == 1
        assert format_word(d.word(u_prime(2, 1))) == "U1"
        assert format_word(d.word(t_prime(2, 1))) == "T1"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_complete_and_correct(self, n, db):
        d = db[n]
        assert len(d) == double_factorial_odd(n)
        # Same tangle set as the independent matching enumerator.
        assert {x.pairing for x in all_tangles(n)} == {x.pairing for x in d.tangles()}
        for x, entry in d.items():
            w = d.word(x)
            assert len(w) == entry.length
            assert compose_word(w) == x
            assert w.t_count() == entry.t_count

    def test_b5_count(self, db):
        assert len(db[5]) == 945

    def test_example_b3_lookup(self, db):
        assert db[3].length(parse_tangle("B3: (1,3) (2,1') (2',3')")) == 2

    def test_resource_limit(self):
        # Refused up front: B_4 has 105 tangles.
        with pytest.raises(ResourceLimit, match="B_4 has 105 tangles, more than the cap of 50"):
            bfs_cayley(4, max_entries=50)
        assert len(bfs_cayley(4, max_entries=105)) == 105
        with pytest.raises(ResourceLimit, match="1 <= n <= 9"):
            bfs_cayley(10)

    def test_store_is_compact(self):
        # Seven bytes per tangle plus the level being expanded: B_8 fits
        # in 14 MB, B_9 in 241 MB.
        tracemalloc.start()
        try:
            db = bfs_cayley(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(db) <= 40

    def test_max_length_attained_twice(self, db):
        for n in (3, 4, 5, 6):
            table = length_table(db[n])
            assert max(table) == n * (n - 1) // 2
            assert table[max(table)] == 2

    @pytest.mark.slow
    def test_stored_words_n6(self, db):
        for x, entry in db[6].items():
            w = db[6].word(x)
            assert len(w) == entry.length
            assert compose_word(w) == x
            assert w.t_count() == entry.t_count


class TestSearchTwins:
    @pytest.mark.slow
    def test_b7_twins_build_equal_stores(self, speedups, monkeypatch):
        assert twin_store(monkeypatch, pure.expand, 7) == twin_store(
            monkeypatch, speedups.expand, 7
        )

    @pytest.mark.slow
    def test_b8_computed_values(self, speedups, monkeypatch):
        for name in ("expand", "unrank", "crossing_counts"):
            monkeypatch.setattr(oracle, name, getattr(speedups, name))
        db = bfs_cayley(8)
        assert length_table(db) == COMPUTED_LENGTHS_8
        report = check_assumption2(db)
        assert report.tested == 2_027_025
        assert report.counterexamples == ()


class TestLengthTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_published_values(self, n, db):
        assert length_table(db[n]) == TABLE_LENGTHS[n]


class TestMaxMerges:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_published_values(self, n, db):
        assert max_merges(db[n]) == TABLE_MAX_MERGES[n]

    @pytest.mark.slow
    def test_published_value_n7(self):
        from brauer.oracle import cached_database

        assert max_merges(cached_database(7)) == (3, 900)


class TestAssumption2:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_no_counterexamples(self, n, db):
        report = check_assumption2(db[n])
        assert report.tested == double_factorial_odd(n)
        assert report.counterexamples == ()

    @pytest.mark.slow
    def test_no_counterexamples_n7(self):
        from brauer.oracle import cached_database

        report = check_assumption2(cached_database(7))
        assert report.tested == 135135
        assert report.counterexamples == ()

    def test_t_count_equals_crossings_b4(self, db):
        for x, entry in db[4].items():
            assert entry.t_count == total_crossings(x)


class TestPersistence:
    def test_roundtrip(self, db):
        for n in range(1, 6):
            buf = io.StringIO()
            dump_database(db[n], buf)
            buf.seek(0)
            loaded = load_database(buf)
            assert loaded.n == n
            assert list(loaded.items()) == list(db[n].items())

    @pytest.mark.slow
    def test_roundtrip_n6(self, db):
        buf = io.StringIO()
        dump_database(db[6], buf)
        buf.seek(0)
        assert list(load_database(buf).items()) == list(db[6].items())

    def test_dump_is_sorted_and_stable(self, db):
        buf1, buf2 = io.StringIO(), io.StringIO()
        dump_database(db[3], buf1)
        dump_database(bfs_cayley(3), buf2)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().splitlines()
        assert lines == sorted(lines)
        assert len(lines) == 15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_walk_is_text_order(self, n, db):
        def text(pairing):
            return format_tangle(Tangle(n, pairing))

        assert list(_text_order(n)) == sorted((x.pairing for x in db[n].tangles()), key=text)

    @pytest.mark.parametrize("n", [10, 12])
    def test_walk_is_text_order_with_two_digit_labels(self, n):
        # "(1,1')" < "(1,10')" < "(1,10)" < "(1,2')": not the numeric order.
        for start in (0, 10_000):  # the second slice crosses a subtree of 11!! keys
            keys = itertools.islice(_text_order(n), start, start + 2_000)
            lines = [format_tangle(Tangle(n, tuple(key))) for key in keys]
            assert len(lines) == 2_000
            assert all(a < b for a, b in itertools.pairwise(lines))

    def test_dump_streams(self, db):
        # The first line goes out before the dump holds a line per tangle:
        # about 258 KB were traced at that point when all 945 lines were
        # built and sorted first, under 4 KB when each is written as walked.
        class FirstWrite(Exception):
            pass

        class Sink:
            def write(self, text):
                raise FirstWrite(tracemalloc.get_traced_memory()[0])

        tracemalloc.start()
        try:
            with pytest.raises(FirstWrite) as first:
                dump_database(db[5], Sink())
        finally:
            tracemalloc.stop()
        assert first.value.args[0] < 30_000

    def test_dump_refuses_incomplete_stores(self, db):
        # A store is made only whole, so no dump walks a partial one.
        d = db[4]
        arrays = (d.lengths, d.t_counts, d.lasts, d.parents)
        with pytest.raises(IncompleteDatabase, match="B_4 has 105 tangles, the store holds 60"):
            MinimalDatabase(4, *(a[:60] for a in arrays))
        with pytest.raises(IncompleteDatabase, match="the store holds 104, 105"):
            MinimalDatabase(4, *arrays[:3], d.parents[1:])
        lengths = bytearray(d.lengths)
        lengths[44] = ABSENT
        with pytest.raises(IncompleteDatabase, match="B_4 store lacks 1 of its 105 tangles"):
            MinimalDatabase(4, lengths, *arrays[1:])
        # Refused before (2n-1)!! is allocated or walked.
        with pytest.raises(ResourceLimit):
            MinimalDatabase(40, bytearray(1), bytearray(1), bytearray(1), array("I", [0]))

    @pytest.mark.parametrize("report", [max_merges, length_table, check_assumption2])
    def test_reports_cannot_see_partial_stores(self, db, report):
        # The first 60 of B_4's 105 tangles once read (1, 32), 60 tested
        # and a histogram that stops at length 3.
        d = db[4]
        arrays = (d.lengths, d.t_counts, d.lasts, d.parents)
        lengths = bytearray(d.lengths)
        lengths[60:] = bytes([ABSENT]) * 45
        for store in ([a[:60] for a in arrays], [lengths, *arrays[1:]]):
            with pytest.raises(IncompleteDatabase):
                report(MinimalDatabase(4, *store))

    def test_load_refuses_incomplete_files(self, db):
        buf = io.StringIO()
        dump_database(db[4], buf)
        lines = buf.getvalue().splitlines(keepends=True)
        with pytest.raises(ParseError, match="60 of the 105 tangles of B_4"):
            load_database(io.StringIO("".join(lines[:60])))
        with pytest.raises(ParseError, match="repeated"):
            load_database(io.StringIO("".join(lines[:60] + lines[59:])))

    def test_load_rejects_words_that_do_not_compose(self, db):
        # Swapping the words of two length-1 lines once loaded, and the
        # store then gave U2 for the tangle of T2.
        buf = io.StringIO()
        dump_database(db[3], buf)
        lines = buf.getvalue().splitlines(keepends=True)
        t2, u2 = lines[1], lines[2]
        assert t2.endswith("\tT2\n") and u2.endswith("\tU2\n")
        lines[1], lines[2] = t2.replace("T2", "U2"), u2.replace("U2", "T2")
        with pytest.raises(ParseError, match="does not compose to its tangle"):
            load_database(io.StringIO("".join(lines)))

    def test_load_rejects_words_not_prefix_closed(self, db):
        # T2 T1 T2 is the same tangle as T1 T2 T1, whose own line keeps
        # T1 T2 T1: each word is minimal and composes, but one prefix is
        # not the word of its tangle.
        buf = io.StringIO()
        dump_database(db[4], buf)
        lines = buf.getvalue().splitlines(keepends=True)
        k = next(k for k, line in enumerate(lines) if "\tT1 T2 T1 " in line)
        lines[k] = lines[k].replace("\tT1 T2 T1 ", "\tT2 T1 T2 ")
        with pytest.raises(ParseError, match="not prefix-closed"):
            load_database(io.StringIO("".join(lines)))
        # A word that passes its own tangle twice is not prefix-closed
        # with itself.
        text = buf.getvalue().replace("\t1\tT1\n", "\t3\tT1 T2 T2\n", 1)
        with pytest.raises(ParseError, match="not prefix-closed"):
            load_database(io.StringIO(text))

    def test_load_rejects_garbage(self):
        with pytest.raises(ParseError):
            load_database(io.StringIO("not a database\n"))
        with pytest.raises(ParseError):
            load_database(io.StringIO("B1: (1,1')\tzero\t\n"))

    def test_load_refuses_widths_beyond_the_byte_key(self):
        line = "B129: " + " ".join(f"({i},{i}')" for i in range(1, 130)) + "\t0\t\n"
        with pytest.raises(ResourceLimit):
            load_database(io.StringIO(line))

    def test_b3_golden_dump(self, db):
        # Frozen byte-for-byte: word choices are part of the contract.
        golden = (
            "B3: (1,1') (2,2') (3,3')\t0\t\n"
            "B3: (1,1') (2,3') (3,2')\t1\tT2\n"
            "B3: (1,1') (2,3) (2',3')\t1\tU2\n"
            "B3: (1,2') (2,1') (3,3')\t1\tT1\n"
            "B3: (1,2') (2,3') (3,1')\t2\tT2 T1\n"
            "B3: (1,2') (2,3) (1',3')\t2\tU2 T1\n"
            "B3: (1,2) (3,1') (2',3')\t2\tU1 U2\n"
            "B3: (1,2) (3,2') (1',3')\t2\tU1 T2\n"
            "B3: (1,2) (3,3') (1',2')\t1\tU1\n"
            "B3: (1,3') (2,1') (3,2')\t2\tT1 T2\n"
            "B3: (1,3') (2,2') (3,1')\t3\tT1 T2 T1\n"
            "B3: (1,3') (2,3) (1',2')\t2\tU2 U1\n"
            "B3: (1,3) (2,1') (2',3')\t2\tT1 U2\n"
            "B3: (1,3) (2,2') (1',3')\t3\tT1 U2 T1\n"
            "B3: (1,3) (2,3') (1',2')\t2\tT2 U1\n"
        )
        buf = io.StringIO()
        dump_database(db[3], buf)
        assert buf.getvalue() == golden
