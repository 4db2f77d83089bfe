"""Fuzz the public boundary: raw int lists and arbitrary text may only ever
raise a BrauerError (exit code 1 from the CLI), and the two kernels treat
every input alike.  Examples are derandomized and bounded so the suite
stays fast and repeatable."""

from __future__ import annotations

import contextlib
import io
import math
from array import array
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import outcome

from brauer import cli, factorize, length_p
from brauer._kernels import pure
from brauer.errors import BrauerError
from brauer.factorize import factor_indices
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


@st.composite
def hooked_pairings(draw):
    """(n, pairing): a pairing of B_n, 2 <= n <= 10, often with the upper
    hook (1, 2) or (n-1, n), so that U-steps at both ends of the row run."""
    n = draw(st.integers(min_value=2, max_value=10))
    hooks = draw(st.sampled_from([(), ((0, 1),), ((n - 2, n - 1),), ((0, 1), (n - 2, n - 1))]))
    mate = [-1] * (2 * n)
    for p, q in hooks:
        if mate[p] < 0 and mate[q] < 0:
            mate[p], mate[q] = q, p
    order = draw(st.permutations([p for p in range(2 * n) if mate[p] < 0]))
    for p, q in zip(order[::2], order[1::2]):
        mate[p], mate[q] = q, p
    return n, mate


@FUZZ
@given(hooked_pairings(), st.booleans())
def test_min_t_twins_agree_on_whole_factorizations(speedups, case, debug):
    # The pairing's own index sequence: every U-step of a whole run is
    # scored by the sweep, not only the first few of a raw sequence.
    n, mate = case
    args = (n, mate, factor_indices(Tangle(n, tuple(mate))), True, debug)
    assert outcome(pure.factorize_core, *args) == outcome(speedups.factorize_core, *args)


@FUZZ
@given(pairings(), raw_ints)
def test_rank_twins_agree_on_raw_input(speedups, case, r):
    n, values = case
    for fn, args in (("rank", (n, values)), ("unrank", (n, r))):
        assert outcome(getattr(pure, fn), *args) == outcome(getattr(speedups, fn), *args)


def _buffer(kind, values):
    if kind == "list":
        return list(values)
    if kind == "I":
        return array("I", [v % 2**32 for v in values])
    return (bytes if kind == "bytes" else bytearray)(v % 256 for v in values)


@st.composite
def expand_args(draw):
    """(n, buffer specs, sign, length, t): an unreached store of B_n with a
    few entries set and parent ranks in 0..(2n-1)!!-1, with one argument
    wrong in about half the cases."""
    fault = draw(st.sampled_from([None] * 5 + ["n", "rank", "sign", "length", "buffer", "buffer"]))
    n = draw(st.sampled_from([-1, 0, 10, 10**30]) if fault == "n" else st.integers(1, 4))
    total = math.prod(range(1, 2 * n, 2)) if 0 < n < 10 else 1  # others are refused first
    specs = [["B", total, pure.ABSENT], ["B", total, 0], ["B", total, 0], ["I", total, 0]]
    if fault == "buffer":
        spoilt = specs[draw(st.integers(0, 3))]
        spoilt[0] = draw(st.sampled_from(["B", "I", "bytes", "list"]))
        spoilt[1] = draw(st.sampled_from([0, total - 1, total, total + 1]))
    specs = [(kind, [fill] * size) for kind, size, fill in specs]
    for _ in range(draw(st.integers(0, 3))):
        values = specs[draw(st.integers(0, 3))][1]
        if values:
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from([0, 1, 2**32 - 1]))
    ranks = draw(st.lists(st.integers(0, total - 1), max_size=6))
    if fault == "rank":  # after the others, so some children are committed first
        ranks.append(draw(st.sampled_from([total, 2**32 - 1, -1, 2**40])))
    kind = draw(st.sampled_from(["B", "bytes", "list"]) if fault == "buffer" else st.just("I"))
    specs.append((kind, ranks))
    sign = draw(st.sampled_from([0, 2, -2, 10**30] if fault == "sign" else [1, -1]))
    length = draw(st.integers(1, 3))
    t = draw(st.integers(0, length))
    if fault == "length":
        length, t = draw(st.sampled_from([(255, 0), (1, 2), (1, -1), (-1, -1), (10**30, 0)]))
    return n, specs, sign, length, t


@FUZZ
@given(expand_args())
def test_expand_twins_agree_on_raw_input(speedups, case):
    n, specs, sign, length, t = case

    def run(twin):
        buffers = [_buffer(kind, values) for kind, values in specs]
        try:
            result = twin.expand(n, *buffers, sign, length, t)
        except BrauerError as exc:
            result = type(exc), str(exc)
        except TypeError:  # Python's own messages differ between the twins
            result = TypeError
        return result, [b if isinstance(b, list) else bytes(b) for b in buffers]

    assert run(pure) == run(speedups)


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
