"""Layered benchmark of the brauer CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is built out of tree
with `setup.py build` into .bench_build/ (once per source digest), never in
place.  The inputs are generated from the seed; each run then drives the
workload through brauer.cli.main in a fresh single-threaded process, checks
every output with the independent checker in check.py, and prints one line
per metric followed by a JSON result as the last line of stdout.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
the workload for half the time untraced and half the time with spans around
the calls into each brauer module, and reports the per-layer metrics
derived from the spans plus the tracing overhead.

Times are reported at the reference speed of gauge.py: the workload process
times a fixed probe every quarter second, and each item's wall time (minus
the probes inside it) is scaled by the reference probe time over the probes
around it.  This removes most of the swings of a shared machine, whose
speed changes by up to 1.5x for tens of seconds at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.machinery
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import gauge
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 7
GAUGE_REACH = 0.5
SPAWN_TIMEOUT = 150

# Per-layer metrics: name, unit, and the end-to-end metric each should move.
# Times are ms per item: per tangle on the factorize workloads, per build on
# oracle-build.  A layer a workload never calls reads 0 on that workload.
LAYERS = (
    ("tangle.parse_ms", "ms", "tangles_per_s on factorize-random"),
    ("tangle.format_ms", "ms", "tangles_per_s on oracle-build"),
    ("tangle.compose_word_ms", "ms", "tangles_per_s on verify-random"),
    ("tau.tau_ms", "ms", "tangles_per_s on factorize-random"),
    ("tau.length_p_ms", "ms", "tangles_per_s on verify-random"),
    ("symmetric.bubble_sort_ms", "ms", "tangles_per_s on factorize-random"),
    ("kernels.factorize_core_ms", "ms", "tangles_per_s and latency_p90_ms on factorize-hooks"),
    ("kernels.pure.factorize_core_ms", "ms", "tangles_per_s and latency_p90_ms on factorize-hooks"),
    ("kernels.pure.crossing_counts_ms", "ms", "tangles_per_s on factorize-random"),
    ("kernels.compiled.built", "count", "every factorize workload, once it is 1"),
    ("kernels.crossing_counts_ms", "ms", "tangles_per_s on factorize-random"),
    ("factorize.factorize_ms", "ms", "tangles_per_s on the workload it runs in"),
    ("factorize.verify_ms", "ms", "tangles_per_s on verify-random"),
    ("factorize.self_ms", "ms", "latency_p50_ms on factorize-random"),
    ("factorize.t_steps", "count", "none: T-primes in the first cycle's words"),
    ("factorize.u_steps", "count", "none: U-primes in the first cycle's words"),
    ("oracle.bfs_ms", "ms", "tangles_per_s on oracle-build"),
    ("oracle.dump_ms", "ms", "tangles_per_s on oracle-build"),
    ("oracle.max_level_ms", "ms", "tangles_per_s on oracle-build"),
    ("oracle.entries", "count", "none: tangles in one store"),
    ("oracle.levels", "count", "none: BFS levels expanded per build"),
    ("cli.self_ms", "ms", "latency_p50_ms on every workload"),
    ("trace.overhead_frac", "frac", "none: traced against untraced throughput"),
)

END_TO_END = (
    ("tangles_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark could not measure: no source tree, a failed build, or
    a workload process that died without a result."""


# ---------------------------------------------------------------------------
# Build


def source_digest() -> str:
    digest = hashlib.sha256()
    files = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    files += sorted(
        p
        for p in (ROOT / "src").rglob("*")
        if p.is_file() and "__pycache__" not in p.parts and ".egg-info" not in str(p)
        and p.suffix not in (".pyc", ".so", ".pyd")
    )
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def build_package() -> tuple[Path, bool, str]:
    """Build the package out of tree; return (lib dir, whether an extension
    module was built, source digest)."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "brauer").is_dir():
        raise BenchError(f"no brauer source tree at {ROOT}")
    digest = source_digest()
    home = BUILD / f"pkg-{digest}"
    if not (home / "ok").is_file():
        tmp = BUILD / f"pkg-{digest}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tree = tmp / "tree"
        tree.mkdir(parents=True)
        shutil.copy2(ROOT / "setup.py", tree)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        shutil.copytree(
            ROOT / "src", tree / "src",
            ignore=shutil.ignore_patterns("__pycache__", "*.pyc", "*.so", "*.pyd", "*.egg-info"),
        )
        with open(tmp / "build.log", "w") as log:
            steps = (
                ["setup.py", "build", "--build-base", str(tmp / "build"), "--build-lib", str(tmp / "lib")],
                ["-m", "compileall", "-q", str(tmp / "lib")],
            )
            for step in steps:
                proc = subprocess.run(
                    [sys.executable, *step], cwd=tree, stdout=log, stderr=subprocess.STDOUT,
                    env=worker_env(), timeout=600,
                )
                if proc.returncode != 0:
                    raise BenchError(f"build step {step[0]} failed; see {tmp / 'build.log'}")
        shutil.rmtree(home, ignore_errors=True)
        tmp.rename(home)
        (home / "ok").write_text(digest + "\n")
    lib = home / "lib"
    suffixes = tuple(importlib.machinery.EXTENSION_SUFFIXES)
    compiled = any(p.name.endswith(suffixes) for p in (lib / "brauer").rglob("*"))
    return lib, compiled, digest


# ---------------------------------------------------------------------------
# Workload processes


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BRAUER_PURE", "PYTHONSTARTUP")}
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1")
    return env


def spawn(mode: str, lib: Path, spec: Path, run_dir: Path, seconds: float) -> float:
    """Run one workload process to completion; return its wall time."""
    cmd = [sys.executable, str(WORKER), mode, str(lib), str(spec), str(run_dir), str(seconds)]
    with open(run_dir / f"{mode}.log", "a") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=run_dir, stdout=log, stderr=log, env=worker_env())
        # A blocking wait returns as soon as the process ends; wait(timeout=)
        # polls with sleeps of up to 50 ms, which would quantize set-up times.
        timer = threading.Timer(SPAWN_TIMEOUT, proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    if wall >= SPAWN_TIMEOUT:
        raise BenchError(f"{mode} workload process timed out")
    if rc != 0:
        raise BenchError(f"{mode} workload process exited {rc}; see {run_dir / (mode + '.log')}")
    return wall


def timed_setup(lib: Path, spec: Path, run_dir: Path) -> list[float]:
    """Wall times of SETUP_REPEATS set-up processes, at reference speed."""
    before = gauge.timed_probe()
    walls = [spawn("setup", lib, spec, run_dir, 0) for _ in range(SETUP_REPEATS)]
    scale = 2 * gauge.REFERENCE_S / (before + gauge.timed_probe())
    return [wall * scale for wall in walls]


def run_window(mode: str, lib: Path, spec: Path, run_dir: Path, seconds: float) -> dict:
    spawn(mode, lib, spec, run_dir, seconds)
    with open(run_dir / "result.json") as fh:
        result = json.load(fh)
    (run_dir / "result.json").rename(run_dir / f"result-{mode}.json")
    (run_dir / "out.txt").rename(run_dir / f"out-{mode}.txt")
    result["out"] = str(run_dir / f"out-{mode}.txt")
    return result


# ---------------------------------------------------------------------------
# Checking and metrics


def check_outputs(spec: dict, result: dict, run_dir: Path, seed: int) -> dict:
    """Check every output of a window; annotate oracle batches with their
    entry count.  Returns attempted, failed, reasons and first-cycle counts."""
    cycles = spec["cycles"]
    with open(result["out"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    pos = 0
    attempted = failed = 0
    reasons: list[str] = []
    counts = [0, 0]
    for rec in result["batches"]:
        batch = cycles[rec["cycle"] % len(cycles)][rec["batch"]]
        mine = lines[pos : pos + len(rec["stamps"])]
        pos += len(rec["stamps"])
        crashed = rec["error"] or rec["rc"] != 0
        if batch["check"] == "oracle":
            store = run_dir / f"store-{rec['cycle']}.txt"
            attempted += 1
            rec["entries"] = 0
            try:
                stats = check.check_oracle_dump(str(store), batch["n"], seed)
                if crashed:
                    raise check.CheckError(f"exit {rec['rc']}, {rec['error']}")
            except (ValueError, OSError) as exc:
                failed += 1
                reasons.append(f"oracle build: {exc}")
            else:
                rec["entries"] = stats["entries"]
                if rec["cycle"] == 0:
                    counts = [stats["t_steps"], stats["u_steps"]]
            finally:
                store.unlink(missing_ok=True)
            continue
        found = check.check_batch(batch, mine, counts if rec["cycle"] == 0 else None)
        if crashed and found and not any(found):
            found[-1] = f"exit {rec['rc']}, {rec['error']}"
        attempted += len(found)
        for item, reason in zip(batch["items"], found):
            if reason is not None:
                failed += 1
                reasons.append(f"{item[:60]}...: {reason}")
    return {"attempted": attempted, "failed": failed, "reasons": reasons, "counts": counts}


def percentile(values: list[float], q: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def gauge_scale(samples: list, start: float, end: float) -> tuple[float, float]:
    """For the interval [start, end] of a window: the factor that turns its
    wall time into time at the gauge's reference speed (from the probes
    within GAUGE_REACH of it; the gauge runs every quarter second), and the
    time the probes themselves took inside the interval."""
    near = [d for t, d in samples if start - GAUGE_REACH <= t <= end + GAUGE_REACH]
    inside = sum(d for t, d in samples if start <= t <= end)
    if not near:  # a window shorter than the gauge interval
        near = [d for _, d in samples] or [gauge.REFERENCE_S]
    return gauge.REFERENCE_S * len(near) / sum(near), inside


def item_latencies(spec: dict, result: dict) -> list[tuple[int, float]]:
    """(tangles finished, seconds at reference speed) per item of a window.
    An item is a tangle, timed from the previous output line of its batch
    (or the batch start) to its last output line, or an oracle build, timed
    from the command's start to its return and finishing every entry."""
    cycles = spec["cycles"]
    items: list[tuple[int, float]] = []
    for rec in result["batches"]:
        batch = cycles[rec["cycle"] % len(cycles)][rec["batch"]]
        if batch["check"] == "oracle":
            intervals = [(rec.get("entries", 0), rec["start"], rec["end"])]
        else:
            per = check.lines_per_item(batch)
            done = rec["stamps"][per - 1 :: per]
            intervals = [(1, a, b) for a, b in zip([rec["start"]] + done, done)]
        for tangles, a, b in intervals:
            scale, probes = gauge_scale(result["gauge"], a, b)
            items.append((tangles, (b - a - probes) * scale))
    return items


def rate(items: list[tuple[int, float]]) -> float:
    return sum(t for t, _ in items) / sum(s for _, s in items) if items else 0.0


def end_to_end(spec: dict, result: dict, setup_s: float) -> tuple[dict, list[tuple[int, float]]]:
    items = item_latencies(spec, result)
    latencies = [s for _, s in items] or [0.0]
    return {
        "tangles_per_s": rate(items),
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "setup_s": setup_s,
    }, items


def per_layer(
    spec: dict, traced: dict, plain: dict, span_list: list, counts: list[int], compiled: bool
) -> tuple[dict, dict]:
    """The per-layer metrics, and the compiled kernel's timings (None when
    no extension module was built), which are printed but not listed."""
    traced_items = item_latencies(spec, traced)
    items = max(len(traced_items), 1)
    total, own = spans.layer_totals(span_list)
    # Span times at reference speed, like the end-to-end times.
    scale = gauge_scale(traced["gauge"], 0.0, traced["elapsed"])[0]

    def per_item(seconds: float, n: int = items) -> float:
        return seconds * 1e3 * scale / n

    def ms(*names: str) -> float:
        return per_item(sum(total.get(n, 0.0) for n in names))

    levels = [s[4] - s[3] for s in span_list if s[2] == "oracle.level"]
    builds = sum(1 for s in span_list if s[2] == "oracle.bfs")
    kernels = traced.get("kernels", {})
    pure = kernels.get("pure") or {}
    n_pure = max(pure.get("tangles", 0), 1)
    fast = kernels.get("compiled")
    compiled_ms = {
        f"kernels.compiled.{name}_ms": per_item(fast[name + "_s"], fast["tangles"]) if fast else None
        for name in ("factorize_core", "crossing_counts")
    }
    oracle_entries = [rec.get("entries", 0) for rec in traced["batches"] if "entries" in rec]
    plain_rate, traced_rate = rate(item_latencies(spec, plain)), rate(traced_items)
    values = {
        "tangle.parse_ms": ms("tangle.parse"),
        "tangle.format_ms": ms("tangle.format_tangle", "tangle.format_word"),
        "tangle.compose_word_ms": ms("tangle.compose_word"),
        "tau.tau_ms": ms("tau.tau"),
        "tau.length_p_ms": ms("tau.length_p"),
        "symmetric.bubble_sort_ms": ms("symmetric.to_permutation", "symmetric.bubble_sort_indices"),
        "kernels.factorize_core_ms": ms("kernels.factorize_core"),
        "kernels.pure.factorize_core_ms": per_item(pure.get("factorize_core_s", 0.0), n_pure),
        "kernels.pure.crossing_counts_ms": per_item(pure.get("crossing_counts_s", 0.0), n_pure),
        "kernels.compiled.built": int(compiled),
        "kernels.crossing_counts_ms": ms("kernels.crossing_counts"),
        "factorize.factorize_ms": ms("factorize.factorize"),
        "factorize.verify_ms": ms("factorize.verify"),
        "factorize.self_ms": per_item(own.get("factorize.factorize", 0.0)),
        "factorize.t_steps": counts[0],
        "factorize.u_steps": counts[1],
        "oracle.bfs_ms": ms("oracle.bfs"),
        "oracle.dump_ms": ms("oracle.dump"),
        "oracle.max_level_ms": per_item(max(levels, default=0.0), 1),
        "oracle.entries": oracle_entries[0] if oracle_entries else 0,
        "oracle.levels": len(levels) // builds if builds else 0,
        "cli.self_ms": per_item(own.get("cli.main", 0.0)),
        "trace.overhead_frac": plain_rate / traced_rate - 1 if traced_rate else 0.0,
    }
    return values, compiled_ms


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() or "unavailable"


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        lib, compiled, digest = build_package()
        run_dir = BUILD / "runs" / args.workload
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        spec = inputs.make_spec(args.workload, args.seed)
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))

        modes = ("plain", "traced") if args.trace else ("plain",)
        if not args.trace:
            setup = timed_setup(lib, spec_path, run_dir)
        windows, checks = [], []
        for mode in modes:
            windows.append(run_window(mode, lib, spec_path, run_dir, args.seconds / len(modes)))
            # Check each window before the next one reuses the store paths.
            checks.append(check_outputs(spec, windows[-1], run_dir, args.seed))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    for reason in [r for c in checks for r in c["reasons"]][:10]:
        print(f"check failed: {reason}", file=sys.stderr)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": windows[0]["backend"],
        "compiled_kernel_built": compiled,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_digest": digest,
        "missing_patches": windows[-1]["missing_patches"],
    }
    print("env " + json.dumps(env))

    if args.trace:
        span_list = spans.load(str(run_dir / "spans.jsonl"))
        values, compiled_ms = per_layer(spec, windows[1], windows[0], span_list, checks[1]["counts"], compiled)
        units = {name: unit for name, unit, _ in LAYERS}
        for name, unit, moves in LAYERS:
            print(f"{name} {values[name]} {unit}  (moves {moves})")
        for name, value in compiled_ms.items():
            print(f"{name} {'absent: no extension module was built' if value is None else f'{value} ms'}")
    else:
        values, items = end_to_end(spec, windows[0], statistics.median(setup))
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"{name} {values[name]} {unit}")
        tangles = sum(t for t, _ in items)
        print(f"latency samples {len(items)}; setup spawns {len(setup)}")
        print(f"tangles_per_s at wall-clock speed {tangles / windows[0]['elapsed']} 1/s")
    print(f"failed_frac {failed / max(attempted, 1)} frac  ({failed} of {attempted} outputs)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
