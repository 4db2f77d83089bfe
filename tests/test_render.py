"""SVG output: deterministic bytes and sane structure."""

from __future__ import annotations

import pytest

from brauer.errors import IndexOutOfRange
from brauer.svg import render_tangle, render_word
from brauer.tangle import identity, parse_tangle, parse_word, u_prime


def test_identity_is_straight_lines():
    doc = render_tangle(identity(3))
    # Three zero transversals, drawn as line segments.
    assert doc.count("L ") == 3
    assert doc.count("<circle") == 6


def test_u2_has_two_arcs_one_line():
    doc = render_tangle(u_prime(3, 2))
    assert doc.count("C ") == 2
    assert doc.count("L ") == 1


def test_word_stacks_one_band_per_factor():
    doc = render_word(parse_word("T1 U2", 3))
    assert doc.count("<text") == 2
    assert doc.count("<circle") == 2 * 2 * 3


def test_byte_identical():
    x = parse_tangle("B4: (1,3) (2,3') (4,1') (2',4')")
    assert render_tangle(x) == render_tangle(x)
    w = parse_word("T1 U2 U3 T1 T2", 4)
    assert render_word(w) == render_word(w)


def test_empty_word_draws_identity():
    doc = render_word(parse_word("", 3))
    assert doc.count("L ") == 3


def test_empty_word_of_a_negative_width():
    with pytest.raises(IndexOutOfRange, match="n must be >= 0, got -2"):
        render_word(parse_word("", -2))
