"""The sixteen generator identities as a term rewriting system over words.

Rules 1-10 delete factors, 11-12 are the braid moves, 13-16 commute distant
factors.  reduce() exhausts the delete rules, then searches the equal-length
orbit spanned by braid and swap moves breadth-first until some orbit word
admits a delete again; it never lengthens a word, and on every input it
returns a word composing to the same tangle.  The orbit search is capped,
so on pathological inputs the result may be non-minimal and is flagged.

check_assumption1 is the randomized harness that pits this reducer against
the exhaustive database: any sampled word the rules fail to shrink to the
database length would be a counterexample to the reducibility assumption.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass

from .errors import NoMatch, ResourceLimit
from .oracle import MinimalDatabase, double_factorial_odd
from .tangle import Word, identity, right_multiply

# A word's factors: T_i is +i, U_i is -i.
_Factors = tuple[int, ...]


class RuleKind(enum.Enum):
    DELETE = "delete"
    BRAID = "braid"
    SWAP = "swap"


class Direction(enum.Enum):
    LR = "lr"
    RL = "rl"


class Constraint(enum.Enum):
    NONE = "none"          # single index
    ADJACENT = "adjacent"  # |i - j| == 1
    DISTANT = "distant"    # |i - j| > 1


@dataclass(frozen=True)
class RewriteRule:
    id: int
    kind: RuleKind
    lhs: tuple[str, ...]  # tokens like "Ti", "Uj"
    rhs: tuple[str, ...]
    constraint: Constraint

    def __str__(self) -> str:
        arrow = " = ".join(
            " ".join(side) if side else "I" for side in (self.lhs, self.rhs)
        )
        return f"rule {self.id} ({self.kind.value}): {arrow}"


def _rule(id: int, kind: RuleKind, lhs: str, rhs: str, constraint: Constraint) -> RewriteRule:
    return RewriteRule(id, kind, tuple(lhs.split()), tuple(rhs.split()), constraint)


RULES: tuple[RewriteRule, ...] = (
    _rule(1, RuleKind.DELETE, "Ti Ti", "", Constraint.NONE),
    _rule(2, RuleKind.DELETE, "Ui Ui", "Ui", Constraint.NONE),
    _rule(3, RuleKind.DELETE, "Ti Ui", "Ui", Constraint.NONE),
    _rule(4, RuleKind.DELETE, "Ui Ti", "Ui", Constraint.NONE),
    _rule(5, RuleKind.DELETE, "Ui Uj Ui", "Ui", Constraint.ADJACENT),
    _rule(6, RuleKind.DELETE, "Ui Tj Ui", "Ui", Constraint.ADJACENT),
    _rule(7, RuleKind.DELETE, "Ti Uj Ui", "Tj Ui", Constraint.ADJACENT),
    _rule(8, RuleKind.DELETE, "Ui Uj Ti", "Ui Tj", Constraint.ADJACENT),
    _rule(9, RuleKind.DELETE, "Ui Tj Ti", "Ui Uj", Constraint.ADJACENT),
    _rule(10, RuleKind.DELETE, "Ti Tj Ui", "Uj Ui", Constraint.ADJACENT),
    _rule(11, RuleKind.BRAID, "Ti Tj Ti", "Tj Ti Tj", Constraint.ADJACENT),
    _rule(12, RuleKind.BRAID, "Ti Uj Ti", "Tj Ui Tj", Constraint.ADJACENT),
    _rule(13, RuleKind.SWAP, "Ti Tj", "Tj Ti", Constraint.DISTANT),
    _rule(14, RuleKind.SWAP, "Ti Uj", "Uj Ti", Constraint.DISTANT),
    _rule(15, RuleKind.SWAP, "Ui Tj", "Tj Ui", Constraint.DISTANT),
    _rule(16, RuleKind.SWAP, "Ui Uj", "Uj Ui", Constraint.DISTANT),
)

_DELETES = tuple(r for r in RULES if r.kind is RuleKind.DELETE)
_MOVES = tuple(
    (r, d)
    for r in RULES
    if r.kind in (RuleKind.BRAID, RuleKind.SWAP)
    for d in (Direction.LR, Direction.RL)
)


def _match(
    pattern: tuple[str, ...], factors: _Factors, pos: int, constraint: Constraint
) -> dict[str, int] | None:
    if pos + len(pattern) > len(factors):
        return None
    bound: dict[str, int] = {}
    for token, value in zip(pattern, factors[pos : pos + len(pattern)]):
        kind, var = token[0], token[1]
        if (kind == "T") != (value > 0):
            return None
        index = abs(value)
        if bound.setdefault(var, index) != index:
            return None
    if "j" in bound:
        gap = abs(bound["i"] - bound["j"])
        if constraint is Constraint.ADJACENT and gap != 1:
            return None
        if constraint is Constraint.DISTANT and gap <= 1:
            return None
    return bound


def _instantiate(pattern: tuple[str, ...], bound: dict[str, int]) -> _Factors:
    return tuple(
        bound[t[1]] if t[0] == "T" else -bound[t[1]] for t in pattern
    )


def _apply_at(
    factors: _Factors, pos: int, rule: RewriteRule, direction: Direction
) -> _Factors | None:
    src = rule.lhs if direction is Direction.LR else rule.rhs
    dst = rule.rhs if direction is Direction.LR else rule.lhs
    bound = _match(src, factors, pos, rule.constraint)
    if bound is None:
        return None
    if any(t[1] not in bound for t in dst):
        return None  # reversed rule 1 would need a free index choice
    return factors[:pos] + _instantiate(dst, bound) + factors[pos + len(src) :]


def apply_rule(
    word: Word, pos: int, rule: RewriteRule, direction: Direction = Direction.LR
) -> Word:
    """Apply one axiom at a position; the result composes to the same tangle."""
    result = _apply_at(word.factors, pos, rule, direction)
    if result is None:
        raise NoMatch(f"{rule} does not match {word} at {pos} ({direction.value})")
    return Word(word.n, result)


def _first_delete(factors: _Factors) -> _Factors | None:
    for pos in range(len(factors)):
        for rule in _DELETES:
            result = _apply_at(factors, pos, rule, Direction.LR)
            if result is not None:
                return result
    return None


@dataclass(frozen=True)
class ReduceResult:
    word: Word
    exhausted: bool  # orbit cap hit; the word may not be minimal

    def __len__(self) -> int:
        return len(self.word)


DEFAULT_MAX_ORBIT = 200_000


def reduce(word: Word, *, max_orbit: int = DEFAULT_MAX_ORBIT) -> ReduceResult:
    """Shorten a word as far as the axioms allow without ever lengthening it.

    Delete rules are exhausted greedily; between deletions the braid/swap
    orbit is searched breadth-first (bounded by max_orbit visited words)
    for any member that re-enables a delete.
    """
    factors = word.factors
    exhausted = False
    while True:
        while (shorter := _first_delete(factors)) is not None:
            factors = shorter
        found = None
        seen = {factors}
        queue: deque[_Factors] = deque([factors])
        while queue and found is None:
            current = queue.popleft()
            for pos in range(len(current)):
                for rule, direction in _MOVES:
                    moved = _apply_at(current, pos, rule, direction)
                    if moved is None or moved in seen:
                        continue
                    if len(seen) >= max_orbit:
                        exhausted = True
                        break
                    seen.add(moved)
                    if _first_delete(moved) is not None:
                        found = moved
                        break
                    queue.append(moved)
                if exhausted or found is not None:
                    break
            if exhausted:
                break
        if found is None:
            return ReduceResult(Word(word.n, factors), exhausted)
        factors = found


# The longest word check_assumption1 samples: each sample is one tuple of
# factors, so the length bounds its memory (the default scale 2 gives
# n(n-1) factors, 56 at n = 8).
MAX_SAMPLE_LENGTH = 10_000


def longest_sample(n: int, scale: float) -> int:
    """scale*n(n-1)/2, widened to at least 3 so that every tangle (T_i in
    particular, which no even-length word reaches at n=2) can be sampled
    non-minimally; ResourceLimit beyond MAX_SAMPLE_LENGTH."""
    longest = max(3, int(scale * n * (n - 1) / 2))
    if longest > MAX_SAMPLE_LENGTH:
        raise ResourceLimit(
            f"scale {scale} samples words of up to {longest} factors; the cap is {MAX_SAMPLE_LENGTH}"
        )
    return longest


@dataclass(frozen=True)
class Assumption1Report:
    n: int
    tested: int
    total: int
    counterexamples: tuple[Word, ...]
    exhausted_samples: int
    seed: int


def check_assumption1(
    db: MinimalDatabase,
    *,
    scale: float = 2.0,
    patience: int = 2_000_000,
    seed: int = 0,
    max_orbit: int = DEFAULT_MAX_ORBIT,
) -> Assumption1Report:
    """Sample random words, reduce them, and compare against the database.

    Words already minimal for their tangle are skipped; each tangle is
    tested once; patience drops on every repeat and the run stops at zero
    patience or full coverage.  Samples whose orbit search hit the cap are
    counted separately instead of being called counterexamples.  A scale
    that allows words longer than MAX_SAMPLE_LENGTH raises ResourceLimit
    before any sampling.
    """
    n = db.n
    rng = random.Random(seed)
    total = double_factorial_odd(n)
    if n < 2:
        return Assumption1Report(n, 0, total, (), 0, seed)
    longest = longest_sample(n, scale)
    primes = [i for i in range(1, n)] + [-i for i in range(1, n)]
    ident = identity(n).pairing
    tested: set[bytes] = set()
    bad: list[Word] = []
    exhausted_samples = 0
    while len(tested) < total and patience > 0:
        length = rng.randint(2, longest)
        factors = tuple(rng.choice(primes) for _ in range(length))
        product = list(ident)
        for v in factors:
            right_multiply(product, n, v)
        key = bytes(product)
        minimal = len(db.entries[key])
        if minimal == length:
            continue  # only non-minimal factorizations are informative
        if key in tested:
            patience -= 1
            continue
        tested.add(key)
        word = Word(n, factors)
        result = reduce(word, max_orbit=max_orbit)
        if result.exhausted:
            exhausted_samples += 1
        elif len(result.word) != minimal:
            bad.append(word)
    return Assumption1Report(
        n, len(tested), total, tuple(bad), exhausted_samples, seed
    )

