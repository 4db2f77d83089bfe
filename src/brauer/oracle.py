"""Ground truth by exhaustion: breadth-first search over the right Cayley
graph of B_N starting at the identity.

Each tangle is first reached along a shortest path, so the recorded word is
minimal.  Within a level, parents are processed in ascending order of the
T-prime count of their stored word, and all U-prime edges of a count class
are relaxed before the T-prime edges of the class below it; the first word
recorded for a tangle therefore also has the fewest T-primes among its
minimal words.  The expansion commits in a fixed order, so the database
(and its text dump) is reproducible bit for bit.  bfs_cayley holds that
order, the level loop over T-count classes with U-edges before T-edges;
the inner loop over one class and one sign is the kernel entry
brauer._kernels.expand, which unranks each parent, right-multiplies a copy
by each prime of the sign in index order and commits every child not
stored yet, in C when the extension is built and in pure.py otherwise.

The store is dense: four flat arrays indexed by the rank of a pairing
(brauer._kernels.rank, the mixed radix (2n-1)(2n-3)...1 in which the first
free position is matched with the k-th free one after it, as random_tangle
draws them).  Per tangle it keeps the minimal length and the T-count (a
byte each; a length of ABSENT marks a tangle not reached yet), the last
factor of its word (a byte: T_i is i, U_i is i | 0x80) and the rank of the
tangle that word reaches without its last factor (a uint32 parent).  That
is 7 bytes per tangle: 14 MB for B_8, 241 MB for B_9, and 4.6 GB for B_10,
which is why MAX_N is 9.  A word is rebuilt by walking the parents back to
the identity, whose parent is itself.  Every prefix of a stored word is
therefore the stored word of its own tangle, so a store is a tree; a dump
that is loaded must be prefix-closed in the same way.  DbEntry bundles a
tangle's length, word and T-count for readers and is built on demand.
Enumeration reports (the length histogram, the merge-fanout maximum, the
crossings-vs-T-count check) all read from the store, and a store is made
only when it holds all of B_n.

The text dump is sorted, yet it holds no line list and sorts nothing: it
walks B_n in the order of its lines.  A line lists its edges anchored at
their first node (top 1..n, then bottom 1'..n'), so once some edges are
fixed, the next token of every line sharing them is anchored at the first
free node.  Each token ends in its only ")", so none is a prefix of
another and the first differing token decides the order of two lines.
Matching the first free node with each free partner in the string order
of the tokens therefore visits the pairings in sorted text order.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, TextIO

from ._kernels import crossing_counts, expand, rank, unrank
from ._kernels.pure import ABSENT, MAX_N, checked_width  # noqa: F401 (oracle.MAX_N)
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
)


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = |B_n|."""
    return math.prod(range(1, 2 * n, 2))


@dataclass(frozen=True, slots=True)
class DbEntry:
    length: int
    word: bytes  # the signed-int word, one byte per factor: T_i is i, U_i is i | 0x80
    t_count: int


_FROM_BYTE = tuple(b if b < 0x80 else 0x80 - b for b in range(256))


def _to_byte(v: int) -> int:
    return v if v > 0 else -v | 0x80


def _decode_word(n: int, enc: bytes) -> Word:
    return Word(n, tuple(map(_FROM_BYTE.__getitem__, enc)))


def _empty_store(total: int) -> tuple[bytearray, bytearray, bytearray, array]:
    """(lengths, t_counts, lasts, parents) for total tangles, none held."""
    return bytearray([ABSENT]) * total, bytearray(total), bytearray(total), array("I", [0]) * total


@dataclass
class MinimalDatabase:
    """Every tangle of B_n, by rank, with one minimal word of minimal
    T-count; IncompleteDatabase unless the arrays hold all of B_n."""

    n: int
    lengths: bytearray = field(repr=False)
    t_counts: bytearray = field(repr=False)
    lasts: bytearray = field(repr=False)
    parents: array = field(repr=False)

    def __post_init__(self) -> None:
        checked_width(self.n)
        total = double_factorial_odd(self.n)
        held = sorted({len(a) for a in (self.lengths, self.t_counts, self.lasts, self.parents)})
        if held != [total]:
            raise IncompleteDatabase(
                f"B_{self.n} has {total} tangles, the store holds {', '.join(map(str, held))}"
            )
        missing = self.lengths.count(ABSENT)
        if missing:
            raise IncompleteDatabase(f"B_{self.n} store lacks {missing} of its {total} tangles")

    def __len__(self) -> int:
        return len(self.lengths)

    def __contains__(self, x: Tangle) -> bool:
        return x.n == self.n

    def _rank(self, x: Tangle) -> int:
        # A tangle of another width raises KeyError, as a dict lookup would.
        if x.n != self.n:
            raise KeyError(x)
        return rank(self.n, x.pairing)

    def _word(self, r: int) -> bytes:
        """The factor bytes of the stored word of rank r, from its parents."""
        out = bytearray(self.lengths[r])
        for k in range(len(out) - 1, -1, -1):
            out[k] = self.lasts[r]
            r = self.parents[r]
        return bytes(out)

    def length(self, x: Tangle) -> int:
        return self.lengths[self._rank(x)]

    def word(self, x: Tangle) -> Word:
        return _decode_word(self.n, self._word(self._rank(x)))

    def t_count(self, x: Tangle) -> int:
        return self.t_counts[self._rank(x)]

    def tangles(self) -> Iterator[Tangle]:
        """All of B_n, in rank order."""
        for r in range(len(self)):
            yield Tangle(self.n, tuple(unrank(self.n, r)))

    def items(self) -> Iterator[tuple[Tangle, DbEntry]]:
        for r, x in enumerate(self.tangles()):
            yield x, DbEntry(self.lengths[r], self._word(r), self.t_counts[r])


# ---------------------------------------------------------------------------
# Expansion


def bfs_cayley(
    n: int,
    *,
    max_entries: int | None = None,
    progress: Callable[[int, int, int], None] | None = None,
) -> MinimalDatabase:
    """Explore B_n from the identity, U-prime edges first.

    max_entries caps the store: ResourceLimit, before any search, when B_n
    has more tangles.  progress, if given, is called with (length,
    level_size, total_so_far) as each level is complete, from the
    identity's level 0 to the longest.
    """
    checked_width(n)
    total = double_factorial_odd(n)
    if max_entries is not None and total > max_entries:
        raise ResourceLimit(f"B_{n} has {total} tangles, more than the cap of {max_entries}")
    lengths, t_counts, lasts, parents = _empty_store(total)
    ident = rank(n, identity(n).pairing)
    lengths[ident], parents[ident] = 0, ident
    # The level being expanded, grouped by T-count in commit order.
    groups: dict[int, array] = {0: array("I", [ident])}
    none = array("I")
    length, reached = 0, 1
    while groups:
        if progress is not None:
            progress(length, sum(map(len, groups.values())), reached)
        length += 1
        next_groups: dict[int, array] = {}
        for t in sorted(set(groups) | {t + 1 for t in groups}):
            # Children of U-edges from class t and of T-edges from class
            # t - 1 both have T-count t.
            group = next_groups[t] = array("I")
            for sign, ranks in ((-1, groups.get(t, none)), (1, groups.get(t - 1, none))):
                group.frombytes(expand(n, lengths, t_counts, lasts, parents, ranks, sign, length, t))
            reached += len(group)
        groups = {t: group for t, group in next_groups.items() if group}
    return MinimalDatabase(n, lengths, t_counts, lasts, parents)


@lru_cache(maxsize=None)
def cached_database(n: int) -> MinimalDatabase:
    """Process-wide cache of bfs_cayley(n); used by tests and the CLI."""
    return bfs_cayley(n)


# ---------------------------------------------------------------------------
# Reports


def length_table(db: MinimalDatabase) -> dict[int, int]:
    """Histogram: how many tangles have each minimal length."""
    return dict(sorted(Counter(db.lengths).items()))


def max_merges(db: MinimalDatabase) -> tuple[int, int]:
    """Largest number of edges the leftmost size-one upper hook can merge
    with while dropping the length by one, and how many tangles attain it.

    Taking the leftmost hook per tangle (rather than the best hook) is what
    reproduces the published enumeration: for n = 5 two tangles carry a
    second, more mergeable hook to the right of a poorer first one, and
    counting the best hook would report 48 attaining tangles instead of 46.
    """
    n, lengths = db.n, db.lengths
    best = attaining = 0
    for r, x in enumerate(db.tangles()):
        hook = next((i for i in range(1, n) if x.pairing[i - 1] == i), None)
        if hook is None:
            continue
        count = sum(
            lengths[rank(n, merged.pairing)] == lengths[r] - 1 for merged in hook_merges(x, hook)
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
    n, bad = db.n, []
    for r, t_count in enumerate(db.t_counts):
        pairing = unrank(n, r)
        # The kernel's per-position counts see each crossing four times.
        if sum(crossing_counts(n, pairing)) != 4 * t_count:
            bad.append(Tangle(n, tuple(pairing)))
    return Assumption2Report(n, len(db), tuple(bad))


# ---------------------------------------------------------------------------
# Flat-file persistence (sorted text, diffable across implementations)


def _text_order(n: int) -> Iterator[tuple[int, ...]]:
    """Every pairing of B_n, in the text order of its format_tangle line."""
    if n < 2:
        yield identity(n).pairing
        return
    order = [*range(n), *range(2 * n - 1, n - 1, -1)]  # the positions of 1..n, 1'..n'
    label = [str(position_node(n, p)) for p in range(2 * n)]
    # Not numeric from n = 10 on: "(1,1')" < "(1,10')" < "(1,10)" < "(1,2')".
    partners = {
        a: sorted(order[i + 1 :], key=lambda b: f"({label[a]},{label[b]})")
        for i, a in enumerate(order)
    }
    yield from _walk([0] * (2 * n), order, partners)


def _walk(
    pairing: list[int], free: list[int], partners: dict[int, list[int]]
) -> Iterator[tuple[int, ...]]:
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
                yield tuple(pairing)
            else:
                yield from _walk(pairing, rest, partners)


def dump_database(db: MinimalDatabase, fh: TextIO) -> None:
    """Write one line per tangle (its text, length and word, tab-separated)
    in sorted text order (see the module docstring), each as it is walked."""
    n = db.n
    for pairing in _text_order(n):
        enc = db._word(rank(n, pairing))
        fh.write(
            f"{format_tangle(Tangle(n, pairing))}\t{len(enc)}\t"
            f"{format_word(_decode_word(n, enc))}\n"
        )


def load_database(fh: TextIO) -> MinimalDatabase:
    """Read a dump back.  ParseError unless it holds every tangle of B_n
    once, each word composes to its tangle, and the words are prefix-closed:
    every prefix of a word is the word given for the tangle it reaches."""
    n = held = None
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"bad database line {line!r}")
        x = parse_tangle(parts[0])
        if n is None:
            checked_width(x.n)
            n = x.n
            lengths, t_counts, lasts, parents = _empty_store(double_factorial_odd(n))
            held = bytearray(len(lengths))  # 1 where a line named the tangle
            start = identity(n).pairing
            ident = rank(n, start)
            lengths[ident], parents[ident] = 0, ident
        elif x.n != n:
            raise ParseError(f"mixed widths in database: B_{n} and B_{x.n}")
        word = parse_word(parts[2], x.n)
        if parts[1] != str(len(word)):
            raise ParseError(f"length field disagrees with word in {line!r}")
        target = rank(n, x.pairing)
        if held[target]:
            raise ParseError(f"tangle repeated in database: {parts[0]!r}")
        held[target] = 1
        pairing, path = list(start), [ident]  # the ranks of the word's prefixes
        for v in word.factors:
            right_multiply(pairing, n, v)
            path.append(rank(n, pairing))
        if path[-1] != target:
            raise ParseError(f"word does not compose to its tangle in {line!r}")
        # Each prefix's tangle is unset or has this prefix as its word.
        t_count = 0
        for length, v in enumerate(word.factors, 1):
            r, parent, last = path[length], path[length - 1], _to_byte(v)
            t_count += v > 0
            if lengths[r] == ABSENT:
                lengths[r], t_counts[r], lasts[r], parents[r] = length, t_count, last, parent
            elif (lengths[r], lasts[r], parents[r]) != (length, last, parent):
                raise ParseError(
                    f"words are not prefix-closed: a prefix of the word in {line!r} "
                    "is not the word of the tangle it reaches"
                )
    if n is None:
        raise ParseError("empty database file")
    count = held.count(1)
    if count != len(held):
        raise ParseError(f"database holds {count} of the {len(held)} tangles of B_{n}")
    return MinimalDatabase(n, lengths, t_counts, lasts, parents)
