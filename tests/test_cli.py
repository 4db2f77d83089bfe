"""CLI behaviour: formats, flags, exit codes."""

from __future__ import annotations

import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import brauer
from brauer.cli import main

EX_B3 = "B3: (1,3) (2,1') (2',3')\n"


def run(argv, stdin="", capsys=None, monkeypatch=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    status = main(argv)
    out, err = capsys.readouterr()
    return status, out, err


def test_factorize_stdin(capsys, monkeypatch):
    status, out, _ = run(["factorize"], EX_B3, capsys, monkeypatch)
    assert status == 0
    assert out == "T1 U2\n"


def test_factorize_verify(capsys, monkeypatch):
    status, out, _ = run(["factorize", "--verify"], EX_B3, capsys, monkeypatch)
    assert status == 0
    assert out == "T1 U2\ncomposes=true length_minimal=true\n"


def test_factorize_naive_variants(capsys, monkeypatch):
    for flag in ("--naive", "--naive=lp", "--naive=ltau", "--naive=oracle"):
        status, out, _ = run(["factorize", flag], EX_B3, capsys, monkeypatch)
        assert status == 0
        assert out.strip().split() == ["T1", "U2"]


def test_factorize_tl_on_planar(capsys, monkeypatch):
    status, out, _ = run(["factorize", "--tl"], "B2: (1,2) (1',2')\n", capsys, monkeypatch)
    assert status == 0
    assert out == "U1\n"


def test_factorize_tl_rejects_crossing(capsys, monkeypatch):
    status, _, err = run(["factorize", "--tl"], "B2: (1,2') (2,1')\n", capsys, monkeypatch)
    assert status == 1
    assert "NotPlanar" in err


def test_length(capsys, monkeypatch):
    status, out, _ = run(["length"], EX_B3, capsys, monkeypatch)
    assert (status, out) == (0, "2\n")
    status, out, _ = run(["length", "--both"], EX_B3, capsys, monkeypatch)
    assert (status, out) == (0, "lp=2 ltau=2\n")


def test_tau_table(capsys, monkeypatch):
    ex_b4 = "B4: (1,3) (2,3') (4,1') (2',4')\n"
    status, out, _ = run(["tau"], ex_b4, capsys, monkeypatch)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "B4: (1,4') (2,3') (3,1') (4,2')"
    assert lines[1] == "1\t-\t1"
    assert lines[2] == "2\t-\t-"
    assert lines[8] == "4'\t-\t1"
    assert len(lines) == 9


def test_compose(capsys, monkeypatch):
    status, out, _ = run(["compose", "--n", "3", "T1 U2"], "", capsys, monkeypatch)
    assert (status, out) == (0, EX_B3)


def test_reduce(capsys, monkeypatch):
    status, out, _ = run(["reduce", "U2 U3 U2"], "", capsys, monkeypatch)
    assert (status, out) == (0, "U2\n")


def test_reduce_bad_token_is_a_parse_error(capsys, monkeypatch):
    status, out, err = run(["reduce", "Tx1"], "", capsys, monkeypatch)
    assert status == 1
    assert out == ""
    assert "ParseError" in err


def test_oracle_table_csv(capsys, monkeypatch):
    status, out, _ = run(["oracle", "table", "4"], "", capsys, monkeypatch)
    assert status == 0
    assert out.splitlines()[:3] == ["4,0,1", "4,1,6", "4,2,20"]
    assert out.splitlines()[-1] == "4,6,2"


def test_oracle_max_merges(capsys, monkeypatch):
    status, out, _ = run(["oracle", "max-merges", "4"], "", capsys, monkeypatch)
    assert (status, out) == (0, "4,2,2\n")


def test_oracle_build_roundtrip(capsys, monkeypatch):
    status, out, _ = run(["oracle", "build", "2"], "", capsys, monkeypatch)
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines == sorted(lines)
    assert "B2: (1,1') (2,2')\t0\t" in out


def test_oracle_build_needs_huge(capsys, monkeypatch):
    status, _, err = run(["oracle", "build", "7"], "", capsys, monkeypatch)
    assert status == 1
    assert "ResourceLimit" in err


def test_oracle_progress_is_json_lines(capsys, monkeypatch):
    status, out, err = run(["oracle", "build", "5", "--huge"], "", capsys, monkeypatch)
    assert status == 0
    assert out == run(["oracle", "build", "5"], "", capsys, monkeypatch)[1]
    levels = [json.loads(line) for line in err.splitlines()]
    assert [rec["level"] for rec in levels] == list(range(11))
    assert sum(rec["size"] for rec in levels) == 945
    totals = [rec["total"] for rec in levels]
    assert totals == sorted(totals) and totals[-1] == 945
    for rec in levels:
        assert set(rec) == {"level", "size", "total", "elapsed_s", "peak_rss_mb"}
        assert rec["peak_rss_mb"] > 0


def test_check_a2(capsys, monkeypatch):
    status, out, _ = run(["check-a2", "3"], "", capsys, monkeypatch)
    assert (status, out) == (0, "3,15,0\n")


def test_check_a2_needs_huge_for_big_n(capsys, monkeypatch):
    status, _, err = run(["check-a2", "7"], "", capsys, monkeypatch)
    assert status == 1
    assert "ResourceLimit" in err


def test_check_a1_trivial_width(capsys, monkeypatch):
    status, out, _ = run(["check-a1", "1", "--patience", "10"], "", capsys, monkeypatch)
    assert (status, out) == (0, "1,0,0\n")


def test_check_a1_seed_echo(capsys, monkeypatch):
    status, out, err = run(
        ["check-a1", "3", "--seed", "11", "--patience", "5000"], "", capsys, monkeypatch
    )
    assert status == 0
    assert out == "3,15,0\n"
    assert "seed=11" in err


def test_render_tangle_deterministic(capsys, monkeypatch):
    status1, out1, _ = run(["render"], EX_B3, capsys, monkeypatch)
    status2, out2, _ = run(["render"], EX_B3, capsys, monkeypatch)
    assert status1 == status2 == 0
    assert out1 == out2
    assert out1.startswith("<svg ") and out1.rstrip().endswith("</svg>")


def test_render_word(capsys, monkeypatch):
    status, out, _ = run(["render", "--word", "T1 U2", "--n", "3"], "", capsys, monkeypatch)
    assert status == 0
    assert out.count("<text") >= 2  # one label per factor


def test_parse_error_exit_code(capsys, monkeypatch):
    status, _, err = run(["length"], "B3: what\n", capsys, monkeypatch)
    assert status == 1
    assert "ParseError" in err


def test_usage_error_exit_code(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# Each case once ended in a traceback.  They run in a child process, the
# memory cases under an address-space cap that is set in the child only.
MEMORY_CAP = 2_000_000 * 1024


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@pytest.mark.parametrize(
    "argv,stdin,capped,status,expected,timeout",
    [
        pytest.param(
            ["factorize", "/nonexistent"], "", False, 1, "error: FileNotFoundError:", 60,
            id="no-file",
        ),
        pytest.param(
            ["check-a1", "3", "--scale", "1e20"], "", True, 1, "error: ResourceLimit: scale", 60,
            id="scale",
        ),
        # Refused before the B_8 store (about 300 MB) is built.
        pytest.param(
            ["check-a1", "8", "--huge", "--scale", "1e20"], "", True, 1,
            "error: ResourceLimit: scale", 5, id="scale-before-build",
        ),
        pytest.param(
            ["check-a1", "3", "--scale", "nan"], "", False, 2, "--scale: not a finite", 60,
            id="nan",
        ),
        pytest.param(
            ["check-a1", "3", "--scale", "inf"], "", False, 2, "--scale: not a finite", 60,
            id="inf",
        ),
        pytest.param(
            ["factorize"], "B" + "1" * 5000 + ":\n", False, 1, "error: ParseError:", 60,
            id="digits",
        ),
        pytest.param(
            ["factorize"], "B1000000000:\n", True, 1, "error: UncoveredNode:", 60, id="header"
        ),
        pytest.param(
            ["compose", "--n", "1000000000", "T1"], "", True, 1, "error: ResourceLimit:", 60,
            id="compose",
        ),
        pytest.param(
            ["render", "--word", "T1", "--n", "1000000000"], "", True, 1,
            "error: ResourceLimit:", 60, id="render",
        ),
        pytest.param(
            ["oracle", "build", "200", "--huge"], "", True, 1,
            "error: ResourceLimit:", 60, id="oracle-width",
        ),
    ],
)
def test_boundary_errors_are_named(argv, stdin, capped, status, expected, timeout):
    env = dict(os.environ, PYTHONPATH=str(Path(brauer.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "brauer.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_cap_memory if capped else None,
        timeout=timeout,
    )
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (status, "")
    assert expected in proc.stderr


def test_benchmark_layer_hooks_exist():
    # perfbench wraps these (module, attribute) pairs by name; a refactor
    # that drops one would silently empty a benchmark layer.  The patches
    # are only read here, never installed.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for module_name, attr, _, _ in spans.PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
