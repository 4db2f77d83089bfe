"""Independent output checker.

Nothing here calls the package under test: tangles and words are parsed by
this module's own code, a word is composed on a pairing list one prime at a
time, and the minimal length of a tangle is half the sum, over its edges, of
max(crossings, size).  A tangle is a pairing list over 2n nodes: node p < n
is the top node p+1 and node p >= n is the bottom node (p-n+1)'.
"""

from __future__ import annotations

import random
import re

VERIFY_OK = "composes=true length_minimal=true"

# (maximum length, number of tangles attaining it) for the oracle stores
# the benchmark builds.
ORACLE_MAX = {7: (21, 2)}
ORACLE_SAMPLE = 1000

_HEAD_RE = re.compile(r"^\s*B(\d+)\s*:\s*(.*?)\s*$")
_EDGE_RE = re.compile(r"\(\s*(\d+)('?)\s*,\s*(\d+)('?)\s*\)")
_TOKEN_RE = re.compile(r"([TU])(\d+)$")


class CheckError(ValueError):
    """An output that does not match its input."""


def double_factorial_odd(n: int) -> int:
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def parse_tangle(line: str) -> tuple[int, list[int]]:
    m = _HEAD_RE.match(line)
    if m is None:
        raise CheckError(f"bad tangle line {line!r}")
    n = int(m.group(1))
    body = m.group(2)
    if _EDGE_RE.sub("", body).strip():
        raise CheckError(f"stray text in tangle line {line!r}")
    mate = [-1] * (2 * n)
    for a, a_low, b, b_low in _EDGE_RE.findall(body):
        p = int(a) - 1 + (n if a_low else 0)
        q = int(b) - 1 + (n if b_low else 0)
        if not (1 <= int(a) <= n and 1 <= int(b) <= n) or p == q:
            raise CheckError(f"bad edge in {line!r}")
        if mate[p] != -1 or mate[q] != -1:
            raise CheckError(f"node used twice in {line!r}")
        mate[p], mate[q] = q, p
    if -1 in mate:
        raise CheckError(f"uncovered node in {line!r}")
    return n, mate


def parse_word(text: str, n: int) -> list[int]:
    """Signed factors, topmost first: +i is T_i and -i is U_i."""
    word = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if m is None or not 1 <= int(m.group(2)) <= n - 1:
            raise CheckError(f"bad prime {token!r} for B{n}")
        i = int(m.group(2))
        word.append(i if m.group(1) == "T" else -i)
    return word


def compose(n: int, word: list[int]) -> list[int]:
    """The tangle of a word: start from the identity and stack each prime
    below the product so far."""
    mate = [n + p for p in range(n)] + list(range(n))
    for f in word:
        bi = n + abs(f) - 1  # bottom node of column i
        bj = bi + 1          # bottom node of column i+1
        a = mate[bi]
        if a == bj:
            continue  # T_i twists and U_i closes a cap that is already there
        b = mate[bj]
        if f > 0:
            mate[bi], mate[b] = b, bi
            mate[bj], mate[a] = a, bj
        else:
            mate[a], mate[b] = b, a
            mate[bi], mate[bj] = bj, bi
    return mate


def _boundary(n: int, p: int) -> int:
    # Clockwise boundary order: top row left to right, bottom row right to
    # left.  Two edges cross iff their endpoints interleave in this order.
    return p if p < n else 3 * n - 1 - p


def _column(n: int, p: int) -> int:
    return p + 1 if p < n else p - n + 1


def edge_crossings(n: int, mate: list[int]) -> list[tuple[int, int]]:
    """(crossings, size) of every edge."""
    chords = []
    for p, q in enumerate(mate):
        if q > p:
            a, b = sorted((_boundary(n, p), _boundary(n, q)))
            chords.append((a, b, abs(_column(n, p) - _column(n, q))))
    counts = [0] * len(chords)
    for i, (a, b, _) in enumerate(chords):
        for j in range(i + 1, len(chords)):
            c, d, _ = chords[j]
            if (a < c < b) != (a < d < b):
                counts[i] += 1
                counts[j] += 1
    return [(counts[i], chords[i][2]) for i in range(len(chords))]


def crossing_number(n: int, mate: list[int]) -> int:
    return sum(c for c, _ in edge_crossings(n, mate)) // 2


def check_word(tangle_line: str, word_line: str, min_t: bool = False) -> tuple[int, int]:
    """Raise CheckError unless the word composes to the tangle with minimal
    length (and, with min_t, with as many T-primes as the tangle has
    crossings).  Returns the word's (T-count, U-count)."""
    n, mate = parse_tangle(tangle_line)
    word = parse_word(word_line, n)
    if compose(n, word) != mate:
        raise CheckError("word does not compose to its tangle")
    edges = edge_crossings(n, mate)
    length = sum(max(c, s) for c, s in edges) // 2
    if len(word) != length:
        raise CheckError(f"word length {len(word)}, minimal length {length}")
    t_count = sum(1 for f in word if f > 0)
    crossings = sum(c for c, _ in edges) // 2
    if min_t and t_count != crossings:
        raise CheckError(f"{t_count} T-primes, crossing number {crossings}")
    return t_count, len(word) - t_count


def lines_per_item(batch: dict) -> int:
    """Output lines per tangle: the word, and with --verify the verdict."""
    return 2 if batch["check"] == "verify" else 1


def check_batch(batch: dict, lines: list[str], counts: list[int] | None = None) -> list[str | None]:
    """One failure reason (or None) per item of a factorize batch.

    counts, when given, receives the T- and U-counts of the correct words.
    """
    kind = batch["check"]
    per = lines_per_item(batch)
    reasons: list[str | None] = []
    for k, item in enumerate(batch["items"]):
        out = lines[k * per : (k + 1) * per]
        if len(out) < per:
            reasons.append("no output")
            continue
        try:
            t, u = check_word(item, out[0], min_t=kind == "min_t")
            if kind == "verify" and out[1] != VERIFY_OK:
                raise CheckError(f"verify line {out[1]!r}")
        except CheckError as exc:
            reasons.append(str(exc))
            continue
        if counts is not None:
            counts[0] += t
            counts[1] += u
        reasons.append(None)
    if len(lines) > len(batch["items"]) * per and reasons:
        reasons[-1] = reasons[-1] or f"{len(lines)} output lines for {len(batch['items'])} tangles"
    return reasons


def check_oracle_dump(path: str, n: int, seed: int) -> dict:
    """Raise CheckError unless the file is the full minimal-word store of
    B_n: one line per tangle, length fields that match the words, the known
    maximum length and its multiplicity, and a seeded sample of words that
    compose to their tangles with minimal length.  Returns counts."""
    seen = set()
    lengths: dict[int, int] = {}
    rows = []
    t_total = u_total = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise CheckError(f"bad store line {line!r}")
            width, mate = parse_tangle(fields[0])
            key = tuple(mate)
            if width != n or key in seen:
                raise CheckError(f"wrong or repeated tangle {fields[0]!r}")
            seen.add(key)
            tokens = fields[2].split()
            if int(fields[1]) != len(tokens):
                raise CheckError(f"length field disagrees with word in {line!r}")
            lengths[len(tokens)] = lengths.get(len(tokens), 0) + 1
            u = fields[2].count("U")
            u_total += u
            t_total += len(tokens) - u
            rows.append(fields)
    if len(rows) != double_factorial_odd(n):
        raise CheckError(f"{len(rows)} tangles stored, |B_{n}| = {double_factorial_odd(n)}")
    top = max(lengths)
    if n in ORACLE_MAX and (top, lengths[top]) != ORACLE_MAX[n]:
        raise CheckError(f"maximum length {top} attained {lengths[top]} times")
    for i in random.Random(seed).sample(range(len(rows)), min(ORACLE_SAMPLE, len(rows))):
        check_word(rows[i][0], rows[i][2])
    return {"entries": len(rows), "t_steps": t_total, "u_steps": u_total}
