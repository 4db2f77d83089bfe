"""One workload process: import brauer from the benchmark's build, load the
generated inputs and run whole cycles of `brauer` commands through
brauer.cli.main in a closed loop until the time is up.

    python3 worker.py MODE LIB SPEC RUN_DIR SECONDS

MODE is "setup" (import and load only, for timing set-up), "plain" or
"traced".  stdout is replaced by a writer that timestamps every line the
CLI writes; each batch's tangle lines are fed to the CLI on stdin.  A
SIGALRM timer runs the speed gauge (gauge.py) every GAUGE_INTERVAL seconds
throughout the window.  The
result goes to RUN_DIR/result.json, the CLI's output to RUN_DIR/out.txt
and, when traced, the spans to RUN_DIR/spans.jsonl.
"""

import io
import json
import os
import signal
import sys
import time

import gauge

GAUGE_INTERVAL = 0.25


class StampedWriter:
    """A text sink that records perf_counter() at every newline written."""

    def __init__(self, fh):
        self.fh = fh
        self.stamps = []

    def write(self, text):
        self.fh.write(text)
        if "\n" in text:
            self.stamps.extend([time.perf_counter()] * text.count("\n"))
        return len(text)

    def flush(self):
        self.fh.flush()


def run_cycles(main, cycles, run_dir, seconds):
    """Run cycles until about `seconds` have passed, stopping at the cycle
    boundary nearest the deadline, after at least one cycle.  Returns the
    batch records, the elapsed time and the gauge samples [start, duration],
    all in seconds from the window's start."""
    real_stdin, real_stdout = sys.stdin, sys.stdout
    batches = []
    samples = []
    t0 = time.perf_counter()

    def sample(signum, frame):
        start = time.perf_counter()
        samples.append([start - t0, gauge.timed_probe()])

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL, GAUGE_INTERVAL)
    try:
        with open(os.path.join(run_dir, "out.txt"), "w", encoding="utf-8") as fh:
            out = StampedWriter(fh)
            k = 0
            while True:
                for b, batch in enumerate(cycles[k % len(cycles)]):
                    store = os.path.join(run_dir, f"store-{k}.txt")
                    argv = [a.replace("{out}", store) for a in batch["argv"]]
                    first = len(out.stamps)
                    sys.stdin = io.StringIO("".join(line + "\n" for line in batch["items"]))
                    sys.stdout = out
                    start = time.perf_counter()
                    rc, error = None, None
                    try:
                        rc = main(argv)
                    except SystemExit as exc:
                        error = f"SystemExit({exc.code})"
                    except Exception as exc:  # a crash is a failed output, not a failed run
                        error = repr(exc)
                    end = time.perf_counter()
                    sys.stdin, sys.stdout = real_stdin, real_stdout
                    batches.append(
                        {
                            "cycle": k,
                            "batch": b,
                            "start": start - t0,
                            "end": end - t0,
                            "stamps": [s - t0 for s in out.stamps[first:]],
                            "rc": rc,
                            "error": error,
                        }
                    )
                k += 1
                elapsed = time.perf_counter() - t0
                if elapsed + elapsed / k / 2 >= seconds:
                    return batches, elapsed, samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        sys.stdin, sys.stdout = real_stdin, real_stdout


def kernel_sample(brauer, cycle):
    """Per-tangle seconds of each kernel backend on the first cycle's
    tangles, called directly (the pure-vs-compiled kernel table)."""
    import importlib

    from brauer._kernels import pure

    kernels = importlib.import_module("brauer._kernels")
    factorize_module = importlib.import_module("brauer.factorize")
    impl = getattr(kernels, "impl", pure)
    backends = {"pure": pure, "compiled": None if impl is pure else impl}
    jobs = []
    for batch in cycle:
        for line in batch["items"]:
            x = brauer.parse_tangle(line)
            indices = factorize_module.factor_indices(x)
            jobs.append((x.n, list(x.pairing), indices, "--min-t" in batch["argv"]))
    out = {}
    for name, mod in backends.items():
        if mod is None or not jobs:
            out[name] = None
            continue
        core = counts = 0.0
        for n, pairing, indices, min_t in jobs:
            t = time.perf_counter()
            mod.crossing_counts(n, list(pairing))
            t1 = time.perf_counter()
            mod.factorize_core(n, list(pairing), indices, min_t, False)
            core += time.perf_counter() - t1
            counts += t1 - t
        out[name] = {"factorize_core_s": core, "crossing_counts_s": counts, "tangles": len(jobs)}
    return out


def main():
    mode, lib, spec_path, run_dir, seconds = sys.argv[1:6]
    lib = os.path.abspath(lib)
    sys.path.insert(0, lib)
    import brauer
    import brauer.cli

    if not os.path.abspath(brauer.__file__).startswith(lib + os.sep):
        print(f"brauer imported from {brauer.__file__}, not {lib}", file=sys.stderr)
        return 3
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "setup":
        return 0

    main_fn = brauer.cli.main
    tracer = None
    missing = []
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        missing = tracer.install()
        main_fn = tracer.wrap("cli.main", main_fn)
    batches, elapsed, samples = run_cycles(main_fn, spec["cycles"], run_dir, float(seconds))
    import resource

    result = {
        "mode": mode,
        "backend": brauer.backend() if hasattr(brauer, "backend") else "unknown",
        "elapsed": elapsed,
        "batches": batches,
        "gauge": samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "missing_patches": missing,
    }
    if tracer is not None:
        tracer.write(os.path.join(run_dir, "spans.jsonl"))
        try:
            result["kernels"] = kernel_sample(brauer, spec["cycles"][0])
        except Exception as exc:  # an API change leaves the table empty, not the run
            result["kernels"] = {"pure": None, "compiled": None, "error": repr(exc)}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
