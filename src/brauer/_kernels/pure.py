"""Pure-Python kernels, the reference for their C twin in _speedups.c.

Both modules implement exactly the same contract on the position encoding
of a tangle (see brauer.tangle): positions 0..n-1 are the top row left to
right, positions n..2n-1 the bottom row right to left.  Each entry that
takes a pairing reads it through one reader, _checked_pairing here and
read_pairing in C, from a tuple snapshot of it.  Both check their
arguments the same way: a pairing that is not a fixed-point-free
involution of range(2n) raises InvalidPairing, a factor index outside
1..n-1 raises IndexOutOfRange, and a value without __index__ raises
TypeError.  Keep the two implementations in sync, messages included.

rank and unrank number the pairings of B_n in mixed radix
(2n-1)(2n-3)...1: the first free position is matched with the k-th of the
2j+1 free positions after it (j pairs still to place), and k is the digit
of radix 2j+1, most significant first.  Ranks are 63-bit in C, so both
twins refuse an n outside 0..17 with ResourceLimit, and a rank outside
0..(2n-1)!!-1 with IndexOutOfRange.

expand is the inner loop of the oracle's breadth-first search
(brauer.oracle.bfs_cayley): it right-multiplies each parent of a level by
the primes of one sign and commits the children not stored yet into the
caller's flat store.  Since the C twin writes into buffers the caller
supplies, both twins check, before any write, that each buffer is a
writable block of (2n-1)!! items of the right size, and check each parent
rank as they reach it.

factorize_core consumes the index sequence extracted from the bubble-sort
factorization of the crossing-minimal permutation image.  For each index i
it either strips a top crossing (compose T_i on top, the two touched edges
each lose one crossing) or, when (i, i+1) is an upper hook, merges the hook
with the first candidate edge (p, q) whose merge drops the half-sum length
by exactly one.  One walk over the other edges, merge_scan, both tests a
candidate and commits the chosen merge to the per-edge crossing table: no
walked edge separates hi from hi+1, so it crosses a new edge iff it
separates that edge's end, p or q, from the hook, and its own count grows
by 2 iff it separates both, and otherwise does not change.

With min_t the merge is the first such candidate with the least crossing
total, and _sweep scores every candidate of the U-step at once.  An edge
that grows gains w = max(tc+2, sz) - max(tc, sz) in doubled length.  It
grows iff A = B != H for A, B, H its containment of p, q and the hook, and
since [A = B != H] = ([A != H] + [B != H] - [A != B]) / 2 the weight grown is
(W_p + W_q - X) / 2.  W_x, the weight of the edges separating x from the
hook, comes from prefix sums anchored at the hook; X, the weight of the
edges crossing (p, q), from one Fenwick sweep over the right ends.  A
U-step then costs O(N log N) rather than O(N) per candidate.
"""

from __future__ import annotations

import math
import operator
from array import array
from itertools import accumulate

from brauer.errors import (
    IncompleteDatabase,
    IndexOutOfRange,
    InternalError,
    InvalidPairing,
    NoViableMerge,
    ResourceLimit,
)

MAX_RANK_N = 17  # the largest n with (2n-1)!! < 2**63
MAX_N = 9  # the widest oracle store: 7 bytes per tangle, 241 MB at n = 9, 4.6 GB at n = 10
ABSENT = 0xFF  # the length byte of a tangle the store does not hold


def _checked_pairing(n, pairing):
    """(n, tuple(pairing) as a list of ints), or InvalidPairing unless it
    is a fixed-point-free involution of range(2n)."""
    n = operator.index(n)
    mate = [operator.index(v) for v in tuple(pairing)]
    m = 2 * n
    if len(mate) != m or not all(0 <= q < m and q != p and mate[q] == p for p, q in enumerate(mate)):
        raise InvalidPairing(
            f"pairing is not a fixed-point-free involution of range(2n) for n = {n}"
        )
    return n, mate


def double_factorial_odd(n):
    """(2n-1)!! = |B_n|."""
    return math.prod(range(1, 2 * n, 2))


def _checked_rank_n(n):
    n = operator.index(n)
    if not 0 <= n <= MAX_RANK_N:
        raise ResourceLimit(f"ranks need (2n-1)!! < 2**63, so 0 <= n <= {MAX_RANK_N}; got n = {n}")
    return n


def rank(n, pairing):
    """The rank of the pairing in 0..(2n-1)!!-1."""
    return _rank_of(_checked_pairing(_checked_rank_n(n), pairing)[1])


def _rank_of(mate):
    """The rank of a checked pairing list, as the C twin's rank_of."""
    free = list(range(len(mate)))
    r = 0
    while free:
        p = free.pop(0)
        k = free.index(mate[p])
        r = r * len(free) + k
        del free[k]
    return r


def unrank(n, r):
    """The pairing of rank r, as a list."""
    n = _checked_rank_n(n)
    r = operator.index(r)
    total = double_factorial_odd(n)
    if not 0 <= r < total:
        raise IndexOutOfRange(f"rank {r} outside 0..{total - 1} for n = {n}")
    digits = []
    for radix in range(1, 2 * n, 2):  # least significant first
        r, k = divmod(r, radix)
        digits.append(k)
    free = list(range(2 * n))
    mate = [0] * (2 * n)
    for k in reversed(digits):
        p = free.pop(0)
        q = free.pop(k)
        mate[p], mate[q] = q, p
    return mate


def right_multiply(pairing, n, v):
    """Replace the pairing list of X in B_n by that of X . P in place, where
    P is T_v for v > 0 and U_-v for v < 0 (1 <= |v| <= n-1, unchecked).

    Returns False, leaving the list as it is, when X has the lower hook
    (i', i+1'), for then X . P == X.
    """
    bi = 2 * n - abs(v)  # bottom position of column i
    bj = bi - 1          # bottom position of column i+1
    a = pairing[bi]
    if a == bj:
        return False
    b = pairing[bj]
    if v > 0:
        pairing[bj], pairing[a] = a, bj
        pairing[bi], pairing[b] = b, bi
    else:
        pairing[a], pairing[b] = b, a
        pairing[bi], pairing[bj] = bj, bi
    return True


def checked_width(n):
    """n, or ResourceLimit unless B_n fits the oracle's store."""
    n = operator.index(n)
    if not 1 <= n <= MAX_N:
        raise ResourceLimit(
            f"B_{n} does not fit the store (7 bytes per tangle: 1 <= n <= {MAX_N})"
        )
    return n


def _store_view(name, buf, itemsize, n, total=None):
    """buf as a flat memoryview of unsigned bytes or uint32s.  TypeError
    unless it is one contiguous block of itemsize-byte items, writable
    unless total is None; IncompleteDatabase unless it holds total items."""
    view = memoryview(buf)
    if total is not None and view.readonly:
        raise TypeError(f"{name} is read-only")
    if view.itemsize != itemsize or not view.c_contiguous:
        raise TypeError(f"{name} must be one contiguous block of {itemsize}-byte items")
    if total is not None and view.nbytes // itemsize != total:
        raise IncompleteDatabase(
            f"{name} holds {view.nbytes // itemsize} items, B_{n} has {total} tangles"
        )
    return view.cast("B") if itemsize == 1 else view.cast("B").cast("I")


def expand(n, lengths, t_counts, lasts, parents, ranks, sign, length, t):
    """Expand the parents in ranks, in order, by the primes of one sign
    (+1: T_1..T_n-1, -1: U_1..U_n-1), in index order, and commit each child
    whose length byte is ABSENT with (length, t, its last factor, its
    parent); returns the committed ranks in commit order, as the bytes of
    uint32s.  A last factor is T_i = i, U_i = i | 0x80.

    lengths, t_counts and lasts are writable buffers of (2n-1)!! bytes,
    parents one of (2n-1)!! 4-byte items, ranks a buffer of 4-byte items.
    """
    n = checked_width(n)
    sign, length, t = operator.index(sign), operator.index(length), operator.index(t)
    if sign not in (1, -1):
        raise IndexOutOfRange(f"sign {sign} is neither 1 nor -1")
    if not 0 <= t <= length < ABSENT:
        raise IndexOutOfRange(f"length {length} and T-count {t} need 0 <= t <= length < {ABSENT}")
    total = double_factorial_odd(n)
    lengths, t_counts, lasts = (
        _store_view(name, buf, 1, n, total)
        for name, buf in (("lengths", lengths), ("t_counts", t_counts), ("lasts", lasts))
    )
    parents = _store_view("parents", parents, 4, n, total)
    ranks = _store_view("ranks", ranks, 4, n)
    steps = [(sign * i, i if sign > 0 else i | 0x80) for i in range(1, n)]
    group = array("I")
    for parent in ranks:
        pairing = unrank(n, parent)
        for v, last in steps:
            child = pairing.copy()
            if not right_multiply(child, n, v):
                continue
            r = _rank_of(child)
            if lengths[r] != ABSENT:
                continue
            lengths[r], t_counts[r], lasts[r], parents[r] = length, t, last, parent
            group.append(r)
    return group.tobytes()


def crossing_counts(n, pairing):
    """Per-position crossing counts: out[p] = crossings of the edge at p."""
    n, pairing = _checked_pairing(n, pairing)
    m = 2 * n
    out = [0] * m
    reps = [p for p in range(m) if pairing[p] > p]
    k = len(reps)
    for ia in range(k):
        a = reps[ia]
        b = pairing[a]
        for ic in range(ia + 1, k):
            c = reps[ic]
            if c >= b:
                break
            if pairing[c] > b:
                out[a] += 1
                out[c] += 1
    for p in reps:
        out[pairing[p]] = out[p]
    return out


def merge_targets(n, hi, p, q):
    """Positions (a1, b1, a2, b2) of the two replacement edges for merging
    the upper hook (hi, hi+1) with the edge (p, q), p < q, or None when
    the merge is undefined.  The cut between columns hi+1 and hi+2 splits
    the boundary into a left arc, positions 0..hi and 2n-1-hi..2n-1, and
    a right arc; the merge is defined exactly for the edges other than the
    hook that cross the cut, and joins the left end to hi and the right
    end to hi+1.  The one merge rule in Python; tangle.merge applies it
    too."""
    left_p = p <= hi or p >= 2 * n - 1 - hi
    if p == hi or left_p == (q <= hi or q >= 2 * n - 1 - hi):
        return None
    return (p, hi, hi + 1, q) if left_p else (hi, q, hi + 1, p)


def _ranked_reps(n, mate):
    """Edge representatives in canonical order: top-anchored edges by left
    index, then lower hooks by smaller index."""
    top = [p for p in range(n) if mate[p] > p]
    return top + [mate[q] for q in range(2 * n - 1, n - 1, -1) if n <= mate[q] < q]


def _candidates(n, mate, tc, sz, hi):
    """The merges of the hook (hi, hi+1) to test, in canonical order, as
    (p, q, a1, b1, a2, b2): the edge (p, q) and its replacement edges."""
    for p in _ranked_reps(n, mate):
        q = mate[p]
        if tc[p] >= sz[p]:
            continue
        tgt = merge_targets(n, hi, p, q)
        if tgt is not None:
            yield (p, q, *tgt)


def merge_scan(n, mate, tc, sz, col, hi, cand, apply=False):
    """(twice the length, the crossing total, the two new edges' counts)
    of the tangle after the merge cand, by one walk over the other edges;
    with apply, tc becomes that tangle's table (mate is left as it is)."""
    p, q, a1, b1, a2, b2 = cand
    sep_p = sep_q = 0
    l2p = tot = 0
    for r in range(2 * n):
        s = mate[r]
        if s < r or r == hi or r == p:
            continue
        in_h = r < hi < s
        sp = (r < p < s) != in_h  # the edge separates p from the hook
        sq = (r < q < s) != in_h
        sep_p += sp
        sep_q += sq
        t = tc[r] + 2 if sp and sq else tc[r]
        if apply:
            tc[r] = tc[s] = t
        szr = sz[r]
        l2p += t if t > szr else szr
        tot += t
    c1, c2 = (sep_p, sep_q) if a1 == p else (sep_q, sep_p)
    if apply:
        tc[a1] = tc[b1] = c1
        tc[a2] = tc[b2] = c2
    s1 = abs(col[a1] - col[b1])
    s2 = abs(col[a2] - col[b2])
    l2p += (c1 if c1 > s1 else s1) + (c2 if c2 > s2 else s2)
    return l2p, tot + c1 + c2, c1, c2


def _sweep(n, mate, tc, sz, col, hi, cands, l2):
    """merge_scan's first two values for every candidate in cands, the
    total as long as the table is exact, from arrays built once (see the
    module docstring); l2 is twice the current length."""
    m = 2 * n
    w = [max(t + 2, s) - max(t, s) for t, s in zip(tc, sz)]
    pre = [0, *accumulate(w)]
    total = sum(tc[p] for p in range(m) if mate[p] > p)
    # The weight and number of the edges nested between x and the hook.
    nest = [(0, 0)] * m
    nw = nc = 0
    for x in range(hi - 1, -1, -1):
        nest[x] = nw, nc
        if x < mate[x] < hi:
            nw += w[x]
            nc += 1
    nw = nc = 0
    for x in range(hi + 2, m):
        nest[x] = nw, nc
        if hi + 1 < mate[x] < x:
            nw += w[x]
            nc += 1

    def separating(x, y):
        # The edges other than the hook and (x, y) with one end strictly
        # between x and the hook, where y may lie: weight and number.
        lo, up = (x + 1, hi) if x < hi else (hi + 2, x)
        y_in = lo <= y < up
        return (
            pre[up] - pre[lo] - 2 * nest[x][0] - (w[y] if y_in else 0),
            up - lo - 2 * nest[x][1] - y_in,
        )

    # At each right end s, the edges closed so far with a left end inside
    # (r, s) are those nested in it; the hook's two terms cancel.
    lefts = {cand[0] for cand in cands}
    cross = {}
    fen = [0] * (m + 1)
    for s in range(m):
        r = mate[s]
        if r > s:
            continue
        if r in lefts:
            inner = 0
            k = s
            while k:
                inner += fen[k]
                k &= k - 1
            k = r + 1
            while k:
                inner -= fen[k]
                k &= k - 1
            cross[r] = pre[s] - pre[r + 1] - 2 * inner
        k = r + 1
        while w[r] and k <= m:
            fen[k] += w[r]
            k += k & -k

    out = []
    for p, q, a1, b1, a2, b2 in cands:
        wp, cp = separating(p, q)
        wq, cq = separating(q, p)
        c1, c2 = (cp, cq) if a1 == p else (cq, cp)
        # The hook and (p, q) go; the weight grown and the two new edges
        # come.  The total counts tc[p] edges crossing (p, q), which holds
        # while the table is exact.
        l2p = l2 - max(tc[hi], sz[hi]) - max(tc[p], sz[p]) + (wp + wq - cross[p]) // 2
        l2p += max(c1, abs(col[a1] - col[b1])) + max(c2, abs(col[a2] - col[b2]))
        out.append((l2p, total - 2 * tc[p] + 2 * (cp + cq)))
    return out


def factorize_core(n, pairing, indices, min_t=False, debug=False):
    """Run the incremental factorization loop; returns signed factor codes
    (+i for T_i, -i for U_i)."""
    n, mate = _checked_pairing(n, pairing)
    indices = [operator.index(i) for i in indices]
    for i in indices:
        if not 1 <= i <= n - 1:
            raise IndexOutOfRange(f"factor index {i} outside 1..{n - 1}")
    m = 2 * n
    col = [p + 1 if p < n else 2 * n - p for p in range(m)]
    tc = crossing_counts(n, mate)
    sz = [abs(col[p] - col[mate[p]]) for p in range(m)]
    out = []

    for step, i in enumerate(indices):
        hi = i - 1
        hj = i
        if mate[hi] == hj:
            # Twice the current length; kept doubled to stay integral.
            l2 = 0
            for p in range(m):
                if mate[p] > p:
                    l2 += tc[p] if tc[p] > sz[p] else sz[p]

            chosen = None
            if min_t:
                # The first viable candidate with a strictly smaller total.
                cands = list(_candidates(n, mate, tc, sz, hi))
                best_tot = -1
                for cand, (l2p, tot) in zip(cands, _sweep(n, mate, tc, sz, col, hi, cands, l2)):
                    if l2p == l2 - 2 and (chosen is None or tot < best_tot):
                        chosen = cand
                        best_tot = tot
            else:
                for cand in _candidates(n, mate, tc, sz, hi):
                    if merge_scan(n, mate, tc, sz, col, hi, cand)[0] == l2 - 2:
                        chosen = cand
                        break
            if chosen is None:
                raise NoViableMerge(
                    f"no merge candidate reduces the length at index {i} "
                    f"(step {step}, pairing {tuple(mate)}, counts {tuple(tc)})"
                )

            merge_scan(n, mate, tc, sz, col, hi, chosen, apply=True)
            a1, b1, a2, b2 = chosen[2:]
            mate[a1], mate[b1] = b1, a1
            mate[a2], mate[b2] = b2, a2
            sz[a1] = sz[b1] = abs(col[a1] - col[b1])
            sz[a2] = sz[b2] = abs(col[a2] - col[b2])
            out.append(-i)
        else:
            a = mate[hi]
            b = mate[hj]
            ca = tc[hi]
            cb = tc[hj]
            mate[hj], mate[a] = a, hj
            mate[hi], mate[b] = b, hi
            tc[hj] = tc[a] = ca - 1
            tc[hi] = tc[b] = cb - 1
            sz[hj] = sz[a] = abs(col[hj] - col[a])
            sz[hi] = sz[b] = abs(col[hi] - col[b])
            out.append(i)

        if debug:
            fresh = crossing_counts(n, mate)
            if fresh != tc:
                raise InternalError(
                    f"crossing table drifted after step {step} (index {i}): "
                    f"incremental {tuple(tc)} vs recomputed {tuple(fresh)}"
                )
            for p in range(m):
                if sz[p] != abs(col[p] - col[mate[p]]):
                    raise InternalError(f"size table drifted at position {p}")

    if debug:
        for p in range(m):
            if mate[p] != m - 1 - p:
                raise InternalError("factor indices exhausted before reaching the identity")
    return out
