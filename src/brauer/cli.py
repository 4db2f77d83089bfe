"""Command-line entry point.

One subcommand per task: factorize, length, tau, compose, reduce, render,
the oracle family (build/table/max-merges), check-a2 and the randomized
check-a1.  Tangles are read one per line in the text format
"B3: (1,3) (2,1') (2',3')"; words are whitespace-separated prime tokens,
topmost factor first.  Domain errors exit with status 1 and print a
machine-readable error name, and so do a file that cannot be opened (the
OSError's class name) and running out of memory (ResourceLimit); usage
errors exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from functools import partial
from typing import Iterable, TextIO

from . import oracle as oc
from . import rewrite as rw
from . import svg
from .errors import BrauerError, ParseError, ResourceLimit
from .factorize import factorize, factorize_naive, verify
from .tangle import (
    NodeRef,
    Row,
    Tangle,
    Word,
    compose_word,
    format_tangle,
    format_word,
    parse_factors,
    parse_tangle,
    parse_word,
)
from .tau import length_p, length_tau, node_polarity, polarity_labels, tau
from .temperley_lieb import factorize_tl


def _read_tangles(path: str | None, stdin: TextIO) -> Iterable[Tangle]:
    fh = open(path, encoding="utf-8") if path else stdin
    try:
        for line in fh:
            if line.strip():
                yield parse_tangle(line)
    finally:
        if path:
            fh.close()


def _oracle_guard(n: int, huge: bool) -> None:
    if n >= 7 and not huge:
        raise ResourceLimit(
            f"building B_{n} stores {oc.double_factorial_odd(n)} tangles; pass --huge to confirm"
        )


def _cmd_factorize(args: argparse.Namespace, out: TextIO) -> None:
    length_fns = {"lp": length_p, "ltau": length_tau}
    for x in _read_tangles(args.file, sys.stdin):
        if args.tl:
            word = factorize_tl(x)
        elif args.naive is not None:
            if args.naive == "oracle":
                _oracle_guard(x.n, False)
                db = oc.cached_database(x.n)
                word = factorize_naive(x, db.length)
            else:
                word = factorize_naive(x, length_fns[args.naive])
        else:
            word = factorize(x, min_t=args.min_t, debug_table=args.debug_table)
        out.write(format_word(word) + "\n")
        if args.verify:
            result = verify(x, word)
            out.write(
                f"composes={str(result.composes).lower()} "
                f"length_minimal={str(result.length_minimal).lower()}\n"
            )


def _cmd_length(args: argparse.Namespace, out: TextIO) -> None:
    for x in _read_tangles(args.file, sys.stdin):
        if args.both:
            out.write(f"lp={length_p(x)} ltau={length_tau(x)}\n")
        else:
            out.write(f"{length_p(x)}\n")


def _cmd_tau(args: argparse.Namespace, out: TextIO) -> None:
    for x in _read_tangles(args.file, sys.stdin):
        out.write(format_tangle(tau(x)) + "\n")
        labels = polarity_labels(x)
        for row in (Row.TOP, Row.BOTTOM):
            for index in range(1, x.n + 1):
                node = NodeRef(row, index)
                polarity = node_polarity(x, node)
                label = labels.get(node)
                counter = str(label[1]) if label else "-"
                out.write(f"{node}\t{polarity}\t{counter}\n")


def _cmd_compose(args: argparse.Namespace, out: TextIO) -> None:
    word = parse_word(" ".join(args.word), args.n)
    out.write(format_tangle(compose_word(word)) + "\n")


def _cmd_reduce(args: argparse.Namespace, out: TextIO) -> None:
    text = " ".join(args.word) if args.word else sys.stdin.read()
    factors = parse_factors(text)
    n = args.n
    if n is None:
        n = max(map(abs, factors), default=0) + 1
    result = rw.reduce(Word(n, factors), max_orbit=args.max_orbit)
    if result.exhausted:
        print("warning: orbit cap hit; result may not be minimal", file=sys.stderr)
    out.write(format_word(result.word) + "\n")


def _print_progress(start: float, level: int, size: int, total: int) -> None:
    """One JSON line on stderr per completed level of an oracle build."""
    elapsed_s = round(time.perf_counter() - start, 3)
    peak_rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    line = dict(level=level, size=size, total=total, elapsed_s=elapsed_s, peak_rss_mb=peak_rss_mb)
    print(json.dumps(line), file=sys.stderr)


def _cmd_oracle(args: argparse.Namespace, out: TextIO) -> None:
    if args.oracle_cmd == "build":
        _oracle_guard(args.n, args.huge)
        progress = partial(_print_progress, time.perf_counter()) if args.huge else None
        db = oc.bfs_cayley(args.n, progress=progress)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                oc.dump_database(db, fh)
        else:
            oc.dump_database(db, out)
        return
    _oracle_guard(args.n, args.huge)
    db = oc.cached_database(args.n)
    if args.oracle_cmd == "table":
        for k, count in oc.length_table(db).items():
            out.write(f"{args.n},{k},{count}\n")
    else:
        best, attaining = oc.max_merges(db)
        out.write(f"{args.n},{best},{attaining}\n")


def _cmd_check_a2(args: argparse.Namespace, out: TextIO) -> None:
    _oracle_guard(args.n, args.huge)
    report = oc.check_assumption2(oc.cached_database(args.n))
    for x in report.counterexamples:
        print(f"counterexample: {format_tangle(x)}", file=sys.stderr)
    out.write(f"{args.n},{report.tested},{len(report.counterexamples)}\n")


def _cmd_check_a1(args: argparse.Namespace, out: TextIO) -> None:
    _oracle_guard(args.n, args.huge)
    rw.longest_sample(args.n, args.scale)  # refuse the scale before building the store
    print(f"seed={args.seed}", file=sys.stderr)
    report = rw.check_assumption1(
        oc.cached_database(args.n),
        scale=args.scale,
        patience=args.patience,
        seed=args.seed,
        max_orbit=args.max_orbit,
    )
    for word in report.counterexamples:
        print(f"counterexample: {format_word(word)}", file=sys.stderr)
    if report.exhausted_samples:
        print(
            f"{report.exhausted_samples} samples hit the orbit cap", file=sys.stderr
        )
    out.write(f"{args.n},{report.tested},{len(report.counterexamples)}\n")


def _cmd_render(args: argparse.Namespace, out: TextIO) -> None:
    if args.word is not None:
        if args.n is None:
            raise ParseError("--word needs --n")
        document = svg.render_word(parse_word(args.word, args.n))
    else:
        tangles = list(_read_tangles(args.file, sys.stdin))
        if len(tangles) != 1:
            raise ParseError("render expects exactly one tangle")
        document = svg.render_tangle(tangles[0])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(document)
    else:
        out.write(document)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauer", description="Minimal-word factorization for the Brauer monoid."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="factorize tangles read from a file or stdin")
    p.add_argument("file", nargs="?", help="file of tangle lines (default stdin)")
    p.add_argument(
        "--naive",
        nargs="?",
        const="lp",
        choices=["lp", "ltau", "oracle"],
        help="use the reference algorithm with the given length function",
    )
    p.add_argument("--min-t", action="store_true", help="minimize the number of T-primes")
    p.add_argument("--verify", action="store_true", help="verify each output word")
    p.add_argument(
        "--debug-table", action="store_true", help="recompute the crossing table each step"
    )
    p.add_argument("--tl", action="store_true", help="force the planar algorithm")
    p.set_defaults(fn=_cmd_factorize)

    p = sub.add_parser("length", help="print minimal lengths")
    p.add_argument("file", nargs="?")
    p.add_argument("--both", action="store_true", help="print both length functions")
    p.set_defaults(fn=_cmd_length)

    p = sub.add_parser("tau", help="print the permutation image and polarity labels")
    p.add_argument("file", nargs="?")
    p.set_defaults(fn=_cmd_tau)

    p = sub.add_parser("compose", help="compose a word into a tangle")
    p.add_argument("--n", type=int, required=True, help="number of columns")
    p.add_argument("word", nargs="+", help="prime tokens, topmost factor first")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("reduce", help="shorten a word with the axioms")
    p.add_argument("word", nargs="*", help="prime tokens (default: read stdin)")
    p.add_argument("--n", type=int, help="number of columns (default: inferred)")
    p.add_argument("--max-orbit", type=int, default=rw.DEFAULT_MAX_ORBIT)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("oracle", help="exhaustive database commands")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    b = osub.add_parser("build", help="build the B_N database and print/dump it")
    b.add_argument("n", type=int)
    b.add_argument("--huge", action="store_true", help="confirm N >= 7")
    b.add_argument("-o", "--output", help="write the database to a file")
    for name in ("table", "max-merges"):
        q = osub.add_parser(name)
        q.add_argument("n", type=int)
        q.add_argument("--huge", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("check-a2", help="crossings vs stored T-counts")
    p.add_argument("n", type=int)
    p.add_argument("--huge", action="store_true", help="confirm N >= 7")
    p.set_defaults(fn=_cmd_check_a2)

    p = sub.add_parser("check-a1", help="randomized reducibility check")
    p.add_argument("n", type=int)
    p.add_argument("--scale", type=_finite_float, default=2.0)
    p.add_argument("--patience", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-orbit", type=int, default=rw.DEFAULT_MAX_ORBIT)
    p.add_argument("--huge", action="store_true", help="confirm N >= 7")
    p.set_defaults(fn=_cmd_check_a1)

    p = sub.add_parser("render", help="emit an SVG diagram")
    p.add_argument("file", nargs="?", help="file with one tangle line")
    p.add_argument("--word", help="render a word instead of a tangle")
    p.add_argument("--n", type=int, help="columns (required with --word)")
    p.add_argument("-o", "--output", help="write the SVG to a file")
    p.set_defaults(fn=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args, sys.stdout)
    except MemoryError:
        print("error: ResourceLimit: out of memory", file=sys.stderr)
        return 1
    except (BrauerError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
