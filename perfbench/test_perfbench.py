"""Tests of the benchmark's own parts: input generators, checker, spans.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import random
import sys
from pathlib import Path

import pytest

import check
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import brauer  # noqa: E402
from brauer import oracle  # noqa: E402


def is_involution(mate: list[int]) -> bool:
    return all(mate[q] == p and q != p for p, q in enumerate(mate))


@pytest.mark.parametrize("n", [1, 2, 7, 64, 256])
def test_random_pairings_are_involutions(n):
    rng = random.Random(n)
    for _ in range(5):
        mate = inputs.random_pairing(n, rng)
        assert is_involution(mate)
        assert check.parse_tangle(inputs.format_pairing(mate)) == (n, mate)


@pytest.mark.parametrize("family", [inputs.nested_hooks, inputs.crossed_hooks])
@pytest.mark.parametrize("n", [2, 32, 48, 128])
def test_hook_families_are_involutions(family, n):
    mate = family(n)
    assert is_involution(mate)
    assert check.parse_tangle(inputs.format_pairing(mate)) == (n, mate)


def test_crossed_hooks_cross_pairwise_and_nested_do_not():
    n = 16
    assert check.crossing_number(n, inputs.nested_hooks(n)) == 0
    # n/2 hooks per row, every two in a row cross.
    assert check.crossing_number(n, inputs.crossed_hooks(n)) == 2 * (8 * 7 // 2)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_specs_are_seeded(workload):
    a = inputs.make_spec(workload, 5)
    assert a == inputs.make_spec(workload, 5)
    for cycle in a["cycles"]:
        for batch in cycle:
            for line in batch["items"]:
                assert is_involution(check.parse_tangle(line)[1])
    if workload.endswith("random"):
        assert a != inputs.make_spec(workload, 6)


def test_nested_hook_counts_at_128():
    line = inputs.format_pairing(inputs.nested_hooks(128))
    word = brauer.factorize(brauer.parse_tangle(line))
    assert len(word) == 4096
    assert sum(1 for p in word.factors if p.kind == "U") == 2112
    assert check.check_word(line, brauer.format_word(word)) == (4096 - 2112, 2112)


def test_checker_matches_readme_example():
    assert check.compose(3, check.parse_word("T1 U2", 3)) == check.parse_tangle(
        "B3: (1,3) (2,1') (2',3')"
    )[1]
    assert check.check_word("B3: (1,3) (2,1') (2',3')", "T1 U2") == (1, 1)
    assert check.check_word("B2: (1,1') (2,2')", "") == (0, 0)


@pytest.mark.parametrize("seed", range(5))
def test_checker_accepts_brauer_words_on_random_tangles(seed):
    rng = random.Random(seed)
    for n in (3, 8, 20):
        line = inputs.format_pairing(inputs.random_pairing(n, rng))
        x = brauer.parse_tangle(line)
        word = brauer.factorize(x)
        t, u = check.check_word(line, brauer.format_word(word))
        assert t + u == brauer.length_p(x)
        assert check.crossing_number(n, check.parse_tangle(line)[1]) == brauer.total_crossings(x)


def corruptions(word: str) -> list[str]:
    tokens = word.split()
    flipped = ("U" if tokens[0][0] == "T" else "T") + tokens[0][1:]
    return [
        " ".join(tokens[1:]),              # dropped factor
        " ".join([flipped] + tokens[1:]),  # T and U swapped
        " ".join(tokens + tokens[-1:]),    # repeated factor
        " ".join(tokens[1:] + tokens[:1]), # rotated
    ]


def test_checker_rejects_corrupted_words():
    rng = random.Random(1)
    line = inputs.format_pairing(inputs.random_pairing(12, rng))
    word = brauer.format_word(brauer.factorize(brauer.parse_tangle(line)))
    check.check_word(line, word)
    for bad in corruptions(word):
        with pytest.raises(check.CheckError):
            check.check_word(line, bad)
    with pytest.raises(check.CheckError):
        check.check_word(line, word + " T12")  # no T12 in B12


def test_check_batch_flags_each_bad_item():
    rng = random.Random(2)
    items = [inputs.format_pairing(inputs.random_pairing(10, rng)) for _ in range(3)]
    words = [brauer.format_word(brauer.factorize(brauer.parse_tangle(x))) for x in items]
    batch = {"check": "verify", "items": items}
    good = [line for w in words for line in (w, check.VERIFY_OK)]
    assert check.check_batch(batch, good) == [None, None, None]
    bad = list(good)
    bad[2] = corruptions(words[1])[0]
    bad[5] = "composes=true length_minimal=false"
    reasons = check.check_batch(batch, bad)
    assert reasons[0] is None and reasons[1] and reasons[2]
    assert check.check_batch(batch, good[:4]) == [None, None, "no output"]
    assert check.check_batch(batch, good[:3]) == [None, "no output", "no output"]


def test_min_t_check_needs_crossing_number_of_t_primes():
    line = inputs.format_pairing(inputs.nested_hooks(16))
    x = brauer.parse_tangle(line)
    default = brauer.format_word(brauer.factorize(x))
    min_t = brauer.format_word(brauer.factorize(x, min_t=True))
    batch = {"check": "min_t", "items": [line]}
    assert check.check_batch(batch, [min_t]) == [None]
    # Nested hooks are planar, so the default word's T-primes are too many.
    assert "T-primes" in check.check_batch(batch, [default])[0]


def test_oracle_dump_check(tmp_path):
    buf = io.StringIO()
    oracle.dump_database(oracle.bfs_cayley(3), buf)
    lines = buf.getvalue().splitlines()
    store = tmp_path / "b3.txt"
    store.write_text("\n".join(lines) + "\n")
    assert check.check_oracle_dump(str(store), 3, seed=0)["entries"] == 15
    tangle, length, word = lines[-1].split("\t")
    broken = {
        "missing line": lines[:-1],
        "wrong word": lines[:-1] + ["\t".join([tangle, length, corruptions(word)[1]])],
        "wrong length": lines[:-1] + ["\t".join([tangle, str(int(length) + 1), word])],
        "repeated tangle": lines[:-1] + [lines[0]],
    }
    for reason, body in broken.items():
        store.write_text("\n".join(body) + "\n")
        with pytest.raises(check.CheckError):
            check.check_oracle_dump(str(store), 3, seed=0)


def test_self_time_subtracts_children():
    span_list = [
        [0, -1, "cli.main", 0.0, 10.0, -1],
        [1, 0, "factorize.factorize", 1.0, 7.0, 0],
        [2, 1, "tau.tau", 1.0, 3.0, 0],
        [3, 1, "kernels.factorize_core", 3.0, 6.0, 0],
        [4, 0, "tangle.format_word", 7.0, 8.0, 0],
    ]
    total, own = spans.layer_totals(span_list)
    assert total["factorize.factorize"] == 6.0
    assert own["factorize.factorize"] == 1.0
    assert own["cli.main"] == 3.0


def test_tracer_records_nesting_and_items():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    start = tracer.wrap("parse", lambda: inner(), new_item=True)
    outer = tracer.wrap("outer", lambda: [start(), start()])
    outer()
    names = [(s[2], s[1], s[5]) for s in tracer.spans]
    assert names == [
        ("outer", -1, -1),
        ("parse", 0, 0),
        ("inner", 1, 0),
        ("parse", 0, 1),
        ("inner", 3, 1),
    ]


def test_run_smoke(capsys):
    import run

    assert run.main(["--workload", "factorize-hooks", "--seed", "3", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _, _ in run.LAYERS}
    assert result["metrics"]["factorize.u_steps"]["value"] > 0
