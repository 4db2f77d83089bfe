"""Pure-Python kernels, the reference for their C twin in _speedups.c.

Both modules implement exactly the same contract on the position encoding
of a tangle (see brauer.tangle): positions 0..n-1 are the top row left to
right, positions n..2n-1 the bottom row right to left.  Both check their
arguments the same way: a pairing that is not a fixed-point-free
involution of range(2n) raises InvalidPairing, a factor index outside
1..n-1 raises IndexOutOfRange, and a value without __index__ raises
TypeError.  Keep the two implementations in sync, messages included.

factorize_core consumes the index sequence extracted from the bubble-sort
factorization of the crossing-minimal permutation image.  For each index i
it either strips a top crossing (compose T_i on top, the two touched edges
each lose one crossing) or, when (i, i+1) is an upper hook, merges the hook
with the first candidate edge whose merge drops the half-sum length by
exactly one, maintaining the per-edge crossing table incrementally so the
length test is linear per candidate.
"""

from __future__ import annotations

import operator

from brauer.errors import IndexOutOfRange, InternalError, InvalidPairing, NoViableMerge


def _checked_pairing(n, pairing):
    """(n, pairing as a list of ints), or InvalidPairing unless the pairing
    is a fixed-point-free involution of range(2n)."""
    n = operator.index(n)
    mate = [operator.index(v) for v in pairing]
    m = 2 * n
    if len(mate) != m or not all(0 <= q < m and q != p and mate[q] == p for p, q in enumerate(mate)):
        raise InvalidPairing(
            f"pairing is not a fixed-point-free involution of range(2n) for n = {n}"
        )
    return n, mate


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


def _cross(a, b, c, d):
    # Both pairs ordered, all four positions distinct.
    return (a < c < b) != (a < d < b)


def merge_targets(n, hi, hj, p, q):
    """Positions (a1, b1, a2, b2) of the two replacement edges for merging
    the upper hook (hi, hj = hi+1) with the edge (p, q), p < q, or None
    when the pair fits none of the four cases.  The one merge table in
    Python; tangle.merge applies it too."""
    i = hi + 1
    if q < n:  # upper hook (p+1, q+1)
        if p < hi and q > hj:
            return p, hi, hj, q
    elif p >= n:  # lower hook with indices (2n-q, 2n-p)
        if q >= 2 * n - i and p <= 2 * n - i - 1:
            return hi, q, hj, p
    else:  # transversal with top index p+1, bottom index 2n-q
        x = p + 1
        y = 2 * n - q
        if x < y:
            if x < i and y >= i + 1:
                return p, hi, hj, q
        elif x > y:
            if x > i + 1 and y <= i:
                return hi, q, hj, p
    return None


def _ranked_reps(n, mate):
    """Edge representatives in canonical order: top-anchored edges by left
    index, then lower hooks by smaller index."""
    out = []
    for p in range(n):
        if mate[p] > p:
            out.append(p)
    for x in range(1, n + 1):
        q = 2 * n - x
        p = mate[q]
        if n <= p < q:
            out.append(p)
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
            best_tot = -1
            for p in _ranked_reps(n, mate):
                q = mate[p]
                if p == hi or tc[p] >= sz[p]:
                    continue
                tgt = merge_targets(n, hi, hj, p, q)
                if tgt is None:
                    continue
                a1, b1, a2, b2 = tgt
                s1 = abs(col[a1] - col[b1])
                s2 = abs(col[a2] - col[b2])
                c1 = c2 = 0
                l2p = 0
                tot = 0
                for r in range(m):
                    s = mate[r]
                    if s < r or r == hi or r == p:
                        continue
                    t_new = tc[r]
                    if _cross(r, s, p, q):
                        t_new -= 1
                    if _cross(r, s, a1, b1):
                        t_new += 1
                        c1 += 1
                    if _cross(r, s, a2, b2):
                        t_new += 1
                        c2 += 1
                    szr = sz[r]
                    l2p += t_new if t_new > szr else szr
                    tot += t_new
                l2p += (c1 if c1 > s1 else s1) + (c2 if c2 > s2 else s2)
                if l2p != l2 - 2:
                    continue
                tot += c1 + c2
                if not min_t:
                    chosen = (p, q, a1, b1, a2, b2)
                    break
                if chosen is None or tot < best_tot:
                    chosen = (p, q, a1, b1, a2, b2)
                    best_tot = tot
            if chosen is None:
                raise NoViableMerge(
                    f"no merge candidate reduces the length at index {i} "
                    f"(step {step}, pairing {tuple(mate)}, counts {tuple(tc)})"
                )

            p, q, a1, b1, a2, b2 = chosen
            c1 = c2 = 0
            for r in range(m):
                s = mate[r]
                if s < r or r == hi or r == p:
                    continue
                delta = 0
                if _cross(r, s, p, q):
                    delta -= 1
                if _cross(r, s, a1, b1):
                    delta += 1
                    c1 += 1
                if _cross(r, s, a2, b2):
                    delta += 1
                    c2 += 1
                tc[r] += delta
                tc[s] += delta
            mate[a1], mate[b1] = b1, a1
            mate[a2], mate[b2] = b2, a2
            tc[a1] = tc[b1] = c1
            tc[a2] = tc[b2] = c2
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
