"""Ground truth by exhaustion: breadth-first search over the right Cayley
graph of B_N starting at the identity.

Each tangle is first reached along a shortest path, so the recorded word is
minimal.  Within a level, parents are processed in ascending order of the
T-prime count of their stored word, and all U-prime edges of a count class
are relaxed before the T-prime edges of the class below it; the first word
recorded for a tangle therefore also has the fewest T-primes among its
minimal words.  The expansion commits in a fixed order, so the database
(and its text dump) is reproducible bit for bit.

The store maps the pairing, one byte per position (so 2n <= 256), to one
minimal word with minimal T-count, one byte per factor (T_i is i, U_i is
i | 0x80).  The minimal length is the word's length and the T-count is the
number of bytes below 0x80, so neither is stored: two small bytes objects
per tangle keep B_8 (2,027,025 tangles) near 330 MB.  DbEntry bundles the
three for readers and is built on demand.  Enumeration reports (the length
histogram, the merge-fanout maximum, the crossings-vs-T-count check) all
read from the store.

The text dump is sorted, yet it holds no line list and sorts nothing: it
walks B_n in the order of its lines.  A line lists its edges anchored at
their first node (top 1..n, then bottom 1'..n'), so once some edges are
fixed, the next token of every line sharing them is anchored at the first
free node.  Each token ends in its only ")", so none is a prefix of
another and the first differing token decides the order of two lines.
Matching the first free node with each free partner in the string order
of the tokens therefore visits the pairings in sorted text order.  The
walk visits all of B_n, so only a complete store dumps; load_database
accepts only complete files, so every loaded store is all of B_n.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, TextIO

from .errors import IncompleteDatabase, ParseError, ResourceLimit
from .tangle import (
    Tangle,
    Word,
    format_tangle,
    format_word,
    hook_merges,
    identity,
    parse_tangle,
    parse_word,
    position_node,
    right_multiply,
    total_crossings,
)

MAX_N = 128  # the store keys a pairing by one byte per position


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = |B_n|."""
    return math.prod(range(1, 2 * n, 2))


@dataclass(frozen=True, slots=True)
class DbEntry:
    length: int
    word: bytes  # the signed-int word, one byte per factor: T_i is i, U_i is i | 0x80
    t_count: int


_FROM_BYTE = tuple(b if b < 0x80 else 0x80 - b for b in range(256))
_U_BYTES = bytes(range(0x80, 0x100))


def _to_byte(v: int) -> int:
    return v if v > 0 else -v | 0x80


def _decode_word(n: int, enc: bytes) -> Word:
    return Word(n, tuple(map(_FROM_BYTE.__getitem__, enc)))


def _entry(enc: bytes) -> DbEntry:
    return DbEntry(len(enc), enc, len(enc.translate(None, _U_BYTES)))


@dataclass
class MinimalDatabase:
    """Map from every tangle of B_n (its pairing bytes) to one minimal word
    with minimal T-count (its factor bytes)."""

    n: int
    entries: dict[bytes, bytes]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, x: Tangle) -> bool:
        return x.n == self.n and bytes(x.pairing) in self.entries

    def entry(self, x: Tangle) -> DbEntry:
        # A tangle of another width raises KeyError, as a missing one does.
        return _entry(self.entries[bytes(x.pairing) if x.n == self.n else x.pairing])

    def length(self, x: Tangle) -> int:
        return self.entry(x).length

    def word(self, x: Tangle) -> Word:
        return _decode_word(self.n, self.entry(x).word)

    def t_count(self, x: Tangle) -> int:
        return self.entry(x).t_count

    def tangles(self) -> Iterator[Tangle]:
        for key in self.entries:
            yield Tangle(self.n, tuple(key))

    def items(self) -> Iterator[tuple[Tangle, DbEntry]]:
        for key, enc in self.entries.items():
            yield Tangle(self.n, tuple(key)), _entry(enc)


# ---------------------------------------------------------------------------
# Expansion


def bfs_cayley(
    n: int,
    *,
    max_entries: int | None = None,
    progress: Callable[[int, int, int], None] | None = None,
) -> MinimalDatabase:
    """Explore B_n from the identity, U-prime edges first.

    max_entries caps the store (ResourceLimit beyond it); progress, if
    given, is called with (length, level_size, total_so_far) as each level
    is complete, from the identity's level 0 to the longest.
    """
    if n < 1:
        raise ResourceLimit(f"n must be >= 1, got {n}")
    if n > MAX_N:
        raise ResourceLimit(f"B_{n} is too wide for the store (a byte per position: n <= {MAX_N})")
    ident = bytes(identity(n).pairing)
    entries: dict[bytes, bytes] = {ident: b""}
    # The level being expanded, grouped by T-count in commit order.
    groups: dict[int, list[bytes]] = {0: [ident]}
    length = 0
    while groups:
        if progress is not None:
            progress(length, sum(map(len, groups.values())), len(entries))
        length += 1
        next_groups: dict[int, list[bytes]] = {}
        for t in sorted(set(groups) | {t + 1 for t in groups}):
            # Children of U-edges from class t and of T-edges from class
            # t - 1 both have T-count t.
            group = next_groups[t] = []
            for sign, parents in ((-1, groups.get(t, ())), (1, groups.get(t - 1, ()))):
                steps = [(sign * i, bytes([_to_byte(sign * i)])) for i in range(1, n)]
                for parent in parents:
                    word = entries[parent]
                    for v, step in steps:
                        child = list(parent)
                        if not right_multiply(child, n, v) or (key := bytes(child)) in entries:
                            continue
                        entries[key] = word + step
                        group.append(key)
                        if max_entries is not None and len(entries) > max_entries:
                            raise ResourceLimit(
                                f"store exceeded {max_entries} tangles at length {length}"
                            )
        groups = {t: group for t, group in next_groups.items() if group}
    return MinimalDatabase(n, entries)


@lru_cache(maxsize=None)
def cached_database(n: int) -> MinimalDatabase:
    """Process-wide cache of bfs_cayley(n); used by tests and the CLI."""
    return bfs_cayley(n)


# ---------------------------------------------------------------------------
# Reports


def length_table(db: MinimalDatabase) -> dict[int, int]:
    """Histogram: how many tangles have each minimal length."""
    return dict(sorted(Counter(map(len, db.entries.values())).items()))


def max_merges(db: MinimalDatabase) -> tuple[int, int]:
    """Largest number of edges the leftmost size-one upper hook can merge
    with while dropping the length by one, and how many tangles attain it.

    Taking the leftmost hook per tangle (rather than the best hook) is what
    reproduces the published enumeration: for n = 5 two tangles carry a
    second, more mergeable hook to the right of a poorer first one, and
    counting the best hook would report 48 attaining tangles instead of 46.
    """
    best = attaining = 0
    for key, enc in db.entries.items():
        hook = next((i for i in range(1, db.n) if key[i - 1] == i), None)
        if hook is None:
            continue
        count = sum(
            len(db.entries[bytes(merged.pairing)]) == len(enc) - 1
            for merged in hook_merges(Tangle(db.n, tuple(key)), hook)
        )
        if count > best:
            best, attaining = count, 1
        elif count == best and count > 0:
            attaining += 1
    return best, attaining


@dataclass(frozen=True)
class Assumption2Report:
    n: int
    tested: int
    counterexamples: tuple[Tangle, ...]


def check_assumption2(db: MinimalDatabase) -> Assumption2Report:
    """Compare every tangle's crossing number with its stored minimal
    T-count; any mismatch is a counterexample (none are known)."""
    bad = [x for x, entry in db.items() if total_crossings(x) != entry.t_count]
    return Assumption2Report(db.n, len(db), tuple(bad))


# ---------------------------------------------------------------------------
# Flat-file persistence (sorted text, diffable across implementations)


def _text_order(n: int) -> Iterator[bytes]:
    """Every pairing of B_n, in the text order of its format_tangle line."""
    if n < 2:
        yield bytes(identity(n).pairing)
        return
    order = [*range(n), *range(2 * n - 1, n - 1, -1)]  # the positions of 1..n, 1'..n'
    label = [str(position_node(n, p)) for p in range(2 * n)]
    # Not numeric from n = 10 on: "(1,1')" < "(1,10')" < "(1,10)" < "(1,2')".
    partners = {
        a: sorted(order[i + 1 :], key=lambda b: f"({label[a]},{label[b]})")
        for i, a in enumerate(order)
    }
    yield from _walk(bytearray(2 * n), order, partners)


def _walk(pairing: bytearray, free: list[int], partners: dict[int, list[int]]) -> Iterator[bytes]:
    # free holds the unmatched positions in node order, so free[0] anchors
    # the next edge.  Module level, not a closure: a closure that calls
    # itself is a cycle, which keeps the caller's store alive until a full
    # collection.
    a, *others = free
    for b in partners[a]:
        if b in others:
            pairing[a], pairing[b] = b, a
            rest = others.copy()
            rest.remove(b)
            if len(rest) == 2:
                c, d = rest
                pairing[c], pairing[d] = d, c
                yield bytes(pairing)
            else:
                yield from _walk(pairing, rest, partners)


def dump_database(db: MinimalDatabase, fh: TextIO) -> None:
    """Write one line per tangle (its text, length and word, tab-separated)
    in sorted text order (see the module docstring), each as it is walked.

    The store must hold all of B_n: IncompleteDatabase otherwise.
    """
    n, entries = db.n, db.entries
    if len(entries) != double_factorial_odd(n):
        raise IncompleteDatabase(
            f"B_{n} has {double_factorial_odd(n)} tangles, the store holds {len(entries)}"
        )
    for key in _text_order(n):
        enc = entries.get(key)
        if enc is None:
            raise IncompleteDatabase(f"B_{n} store lacks {format_tangle(Tangle(n, tuple(key)))}")
        fh.write(
            f"{format_tangle(Tangle(n, tuple(key)))}\t{len(enc)}\t"
            f"{format_word(_decode_word(n, enc))}\n"
        )


def load_database(fh: TextIO) -> MinimalDatabase:
    """Read a dump back; ParseError unless it holds every tangle of B_n once."""
    entries: dict[bytes, bytes] = {}
    n = None
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"bad database line {line!r}")
        x = parse_tangle(parts[0])
        if n is None:
            if x.n > MAX_N:
                raise ResourceLimit(f"B_{x.n} is too wide for the store (n <= {MAX_N})")
            n = x.n
        elif x.n != n:
            raise ParseError(f"mixed widths in database: B_{n} and B_{x.n}")
        word = parse_word(parts[2], x.n)
        if parts[1] != str(len(word)):
            raise ParseError(f"length field disagrees with word in {line!r}")
        key = bytes(x.pairing)
        if key in entries:
            raise ParseError(f"tangle repeated in database: {parts[0]!r}")
        entries[key] = bytes(map(_to_byte, word.factors))
    if n is None:
        raise ParseError("empty database file")
    if len(entries) != double_factorial_odd(n):
        raise ParseError(
            f"database holds {len(entries)} of the {double_factorial_odd(n)} tangles of B_{n}"
        )
    return MinimalDatabase(n, entries)
