"""Ground truth by exhaustion: breadth-first search over the right Cayley
graph of B_N starting at the identity.

Each tangle is first reached along a shortest path, so the recorded word is
minimal.  Within a level, parents are processed in ascending order of the
T-prime count of their stored word, and all U-prime edges of a count class
are relaxed before the T-prime edges of the class below it; the first word
recorded for a tangle therefore also has the fewest T-primes among its
minimal words.  The expansion commits in a fixed order, so the database
(and its text dump) is reproducible bit for bit.

The database holds, for every tangle, the minimal length, one minimal word
with minimal T-count, and that T-count.  Enumeration reports (the length
histogram, the merge-fanout maximum, the crossings-vs-T-count check) all
read from it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, TextIO

from .errors import ParseError, ResourceLimit
from .tangle import (
    Tangle,
    Word,
    format_tangle,
    format_word,
    hook_merges,
    identity,
    parse_tangle,
    parse_word,
    right_multiply,
    total_crossings,
)

Pairing = tuple[int, ...]


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = |B_n|."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


@dataclass(frozen=True, slots=True)
class DbEntry:
    length: int
    word: bytes  # the signed-int word, one byte per factor: T_i is i, U_i is i | 0x80
    t_count: int


# A byte per factor keeps the N=8 store (2M words) small; ints would not.
_FROM_BYTE = tuple(b if b < 0x80 else 0x80 - b for b in range(256))


def _to_byte(v: int) -> int:
    return v if v > 0 else -v | 0x80


def _decode_word(n: int, enc: bytes) -> Word:
    return Word(n, tuple(map(_FROM_BYTE.__getitem__, enc)))


@dataclass
class MinimalDatabase:
    """Map from every tangle of B_n to its minimal factorization data."""

    n: int
    entries: dict[Pairing, DbEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, x: Tangle) -> bool:
        return x.pairing in self.entries

    def entry(self, x: Tangle) -> DbEntry:
        return self.entries[x.pairing]

    def length(self, x: Tangle) -> int:
        return self.entries[x.pairing].length

    def word(self, x: Tangle) -> Word:
        return _decode_word(self.n, self.entries[x.pairing].word)

    def t_count(self, x: Tangle) -> int:
        return self.entries[x.pairing].t_count

    def tangles(self) -> Iterator[Tangle]:
        for pairing in self.entries:
            yield Tangle(self.n, pairing)

    def items(self) -> Iterator[tuple[Tangle, DbEntry]]:
        for pairing, entry in self.entries.items():
            yield Tangle(self.n, pairing), entry


# ---------------------------------------------------------------------------
# Expansion


def _children(parent: Pairing, n: int, sign: int) -> list[Pairing | None]:
    """Pairings of parent . T_i (sign 1) or parent . U_i (sign -1) for
    i = 1..n-1, with None where the product equals the parent."""
    row: list[Pairing | None] = []
    for i in range(1, n):
        child = list(parent)
        row.append(tuple(child) if right_multiply(child, n, sign * i) else None)
    return row


def bfs_cayley(
    n: int,
    *,
    max_entries: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> MinimalDatabase:
    """Explore B_n from the identity, U-prime edges first.

    max_entries caps the store (ResourceLimit beyond it); progress, if
    given, is called with (level_size, total_so_far) after each level.
    """
    if n < 1:
        raise ResourceLimit(f"n must be >= 1, got {n}")
    ident = identity(n).pairing
    entries: dict[Pairing, DbEntry] = {ident: DbEntry(0, b"", 0)}
    level: list[Pairing] = [ident]
    while level:
        groups: dict[int, list[Pairing]] = {}
        for pairing in level:
            groups.setdefault(entries[pairing].t_count, []).append(pairing)
        next_level: list[Pairing] = []
        t_values = sorted(set(groups) | {t + 1 for t in groups})
        for t in t_values:
            for sign, parents in ((-1, groups.get(t, [])), (1, groups.get(t - 1, []))):
                for parent in parents:
                    parent_entry = entries[parent]
                    for i, child in enumerate(_children(parent, n, sign), start=1):
                        if child is None or child in entries:
                            continue
                        entries[child] = DbEntry(
                            parent_entry.length + 1,
                            parent_entry.word + bytes([_to_byte(sign * i)]),
                            t,
                        )
                        next_level.append(child)
                        if max_entries is not None and len(entries) > max_entries:
                            raise ResourceLimit(
                                f"store exceeded {max_entries} tangles at length "
                                f"{parent_entry.length + 1}"
                            )
        if progress is not None:
            progress(len(next_level), len(entries))
        level = next_level
    return MinimalDatabase(n, entries)


@lru_cache(maxsize=None)
def cached_database(n: int) -> MinimalDatabase:
    """Process-wide cache of bfs_cayley(n); used by tests and the CLI."""
    return bfs_cayley(n)


# ---------------------------------------------------------------------------
# Reports


def length_table(db: MinimalDatabase) -> dict[int, int]:
    """Histogram: how many tangles have each minimal length."""
    return dict(sorted(Counter(e.length for e in db.entries.values()).items()))


def max_merges(db: MinimalDatabase) -> tuple[int, int]:
    """Largest number of edges the leftmost size-one upper hook can merge
    with while dropping the length by one, and how many tangles attain it.

    Taking the leftmost hook per tangle (rather than the best hook) is what
    reproduces the published enumeration: for n = 5 two tangles carry a
    second, more mergeable hook to the right of a poorer first one, and
    counting the best hook would report 48 attaining tangles instead of 46.
    """
    best = 0
    attaining: set[Pairing] = set()
    for x, entry in db.items():
        hook = next((i for i in range(1, db.n) if x.pairing[i - 1] == i), None)
        if hook is None:
            continue
        count = sum(
            db.entries[merged.pairing].length == entry.length - 1
            for merged in hook_merges(x, hook)
        )
        if count > best:
            best = count
            attaining = {x.pairing}
        elif count == best and count > 0:
            attaining.add(x.pairing)
    return best, len(attaining)


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


def dump_database(db: MinimalDatabase, fh: TextIO) -> None:
    lines = [
        f"{format_tangle(x)}\t{entry.length}\t{format_word(_decode_word(db.n, entry.word))}"
        for x, entry in db.items()
    ]
    for line in sorted(lines):
        fh.write(line + "\n")


def load_database(fh: TextIO) -> MinimalDatabase:
    entries: dict[Pairing, DbEntry] = {}
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
            n = x.n
        elif x.n != n:
            raise ParseError(f"mixed widths in database: B_{n} and B_{x.n}")
        word = parse_word(parts[2], x.n)
        if len(word) != int(parts[1]):
            raise ParseError(f"length field disagrees with word in {line!r}")
        enc = bytes(map(_to_byte, word.factors))
        entries[x.pairing] = DbEntry(len(word), enc, word.t_count())
    if n is None:
        raise ParseError("empty database file")
    return MinimalDatabase(n, entries)
