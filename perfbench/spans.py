"""Span recording for the traced run.

The benchmark wraps the public functions of each brauer module at the
names through which the CLI reaches them, so the traced run executes the
same code path as the untraced one plus one wrapper per call.  Spans stay
in memory and are written out as JSON lines when the run ends.  Each span
is [id, parent id, name, start, end, item id]; times are perf_counter
seconds and the item id is the index of the tangle (or oracle entry) the
call belongs to.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name, whether a call starts a new item).  The
# attribute is patched in the module that *calls* it, because brauer binds
# names with "from .x import y".
PATCHES = (
    ("brauer.cli", "parse_tangle", "tangle.parse", True),
    ("brauer.cli", "format_word", "tangle.format_word", False),
    ("brauer.cli", "factorize", "factorize.factorize", False),
    ("brauer.cli", "verify", "factorize.verify", False),
    ("brauer.factorize", "tau", "tau.tau", False),
    ("brauer.factorize", "to_permutation", "symmetric.to_permutation", False),
    ("brauer.factorize", "bubble_sort_indices", "symmetric.bubble_sort_indices", False),
    ("brauer.factorize", "factorize_core", "kernels.factorize_core", False),
    ("brauer.factorize", "compose_word", "tangle.compose_word", False),
    ("brauer.factorize", "length_p", "tau.length_p", False),
    ("brauer.tau", "crossing_counts", "kernels.crossing_counts", False),
    ("brauer.oracle", "bfs_cayley", "oracle.bfs", False),
    ("brauer.oracle", "dump_database", "oracle.dump", False),
    ("brauer.oracle", "format_tangle", "tangle.format_tangle", True),
    ("brauer.oracle", "format_word", "tangle.format_word", False),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1

    def wrap(self, name: str, fn, new_item: bool = False):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_item:
                self.item += 1
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, 0.0, 0.0, self.item]
            spans.append(span)
            stack.append(sid)
            if callable(kwargs.get("progress")):
                kwargs["progress"] = self._levels(kwargs["progress"], sid)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def _levels(self, progress, parent: int):
        """Record the gap between progress callbacks as oracle.level spans."""
        last = [time.perf_counter()]

        def report(*args):
            now = time.perf_counter()
            self.spans.append([len(self.spans), parent, "oracle.level", last[0], now, self.item])
            last[0] = now
            return progress(*args)

        return report

    def install(self) -> list[str]:
        """Patch every target that exists; return the ones that do not."""
        missing = []
        for module_name, attr, name, new_item in PATCHES:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, getattr(module, attr), new_item))
        return missing

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self seconds per span name.  Self time is a span's
    duration minus the time its child spans cover."""
    total: dict[str, float] = {}
    child: dict[int, float] = {}
    for sid, parent, name, start, end, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    own: dict[str, float] = {}
    for sid, parent, name, start, end, _ in spans:
        own[name] = own.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
    return total, own
