"""Fuzz the public boundary: raw int lists and arbitrary text may only ever
raise a BrauerError (exit code 1 from the CLI), and the two kernels treat
every input alike.  Examples are derandomized and bounded so the suite
stays fast and repeatable."""

from __future__ import annotations

import contextlib
import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import outcome

from brauer import cli, factorize, length_p
from brauer._kernels import pure
from brauer.errors import BrauerError
from brauer.tangle import Tangle, compose_word, parse_tangle, parse_word

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

raw_ints = st.integers(min_value=-2, max_value=14) | st.integers()


@st.composite
def pairings(draw):
    """(n, values): a random involution of range(2n), sometimes with one
    entry replaced, or a raw int list."""
    n = draw(st.integers(min_value=-1, max_value=7))
    if n < 0 or draw(st.booleans()):
        return n, draw(st.lists(raw_ints, max_size=16))
    order = draw(st.permutations(range(2 * n)))
    values = [0] * (2 * n)
    for p, q in zip(order[::2], order[1::2]):
        values[p], values[q] = q, p
    if values and draw(st.booleans()):
        values[draw(st.integers(0, 2 * n - 1))] = draw(raw_ints)
    return n, values


@FUZZ
@given(pairings())
def test_raw_pairings_only_raise_brauer_errors(case):
    n, values = case
    try:
        x = Tangle(n, tuple(values))
        length_p(x)
        factorize(x)
        factorize(x, min_t=True)
    except BrauerError:
        pass


@FUZZ
@given(pairings(), st.lists(raw_ints, max_size=8), st.booleans(), st.booleans())
def test_kernels_agree_on_raw_input(speedups, case, indices, min_t, debug):
    n, values = case
    for fn in ("crossing_counts", "factorize_core"):
        args = (n, values) if fn == "crossing_counts" else (n, values, indices, min_t, debug)
        assert outcome(getattr(pure, fn), *args) == outcome(getattr(speedups, fn), *args)


@FUZZ
@given(pairings(), raw_ints)
def test_rank_twins_agree_on_raw_input(speedups, case, r):
    n, values = case
    for fn, args in (("rank", (n, values)), ("unrank", (n, r))):
        assert outcome(getattr(pure, fn), *args) == outcome(getattr(speedups, fn), *args)


words = st.text(max_size=24) | st.lists(
    st.sampled_from(["T1", "U1", "T2", "U3", "T0", "U-1", "t2", "T²", "U١", "T99999999999", "X"]),
    max_size=6,
).map(" ".join)


@FUZZ
@given(words, st.integers(min_value=-1, max_value=5))
def test_word_text_only_raises_brauer_errors(text, n):
    try:
        compose_word(parse_word(text, n))
    except BrauerError:
        pass
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["compose", "--n", str(n), "--", text])
    assert code in (0, 1)
    assert (code == 1) == err.getvalue().startswith("error: ")


nodes = st.sampled_from(["1", "2", "3", "1'", "2'", "3'", "0", "4'", "٣", "9" * 5000 + "'"])
headers = st.sampled_from(
    ["B0:", "B1:", "B2:", "B3:", "B 3 :", "B1000000000:", "B" + "1" * 5000 + ":", "B3", "3:"]
)
tangle_lines = st.text(max_size=24) | st.tuples(
    headers, st.lists(st.tuples(nodes, nodes).map("({0[0]},{0[1]})".format), max_size=6)
).map(lambda t: t[0] + " " + " ".join(t[1]))


@FUZZ
@given(tangle_lines, st.sampled_from(["factorize", "length", "tau"]))
def test_tangle_text_only_raises_brauer_errors(text, command):
    try:
        parse_tangle(text)
    except BrauerError:
        pass
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = cli.main([command])
    assert code in (0, 1)
    assert (code == 1) == err.getvalue().startswith("error: ")
