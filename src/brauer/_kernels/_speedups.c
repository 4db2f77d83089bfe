/* Compiled kernels: the crossing-count table, the incremental
 * factorization loop, the mixed-radix rank of a pairing and the oracle
 * search's expansion of one level class, on the position encoding of
 * brauer.tangle.
 *
 * This is the C twin of pure.py, which stays the reference: both check
 * their arguments the same way, return the same lists and raise the same
 * exceptions with the same messages.  The core works on int arrays and
 * returns a status code; only the entry points at the bottom touch Python
 * objects, and each one that takes a pairing reads it through one reader,
 * read_pairing, which snapshots it as a tuple first.  merge_scan walks a
 * merge the same way as pure.merge_scan.
 *
 * Under min_t every merge candidate of a U-step is scored from arrays
 * built once per step (min_t_choice), not by one merge_scan each.  An edge
 * that grows gains w = max(tc+2, sz) - max(tc, sz) in doubled length, and
 * it grows iff A = B != H for A, B, H its containment of p, q and the hook.
 * Since [A = B != H] = ([A != H] + [B != H] - [A != B]) / 2, the weight
 * grown is (W_p + W_q - X) / 2: W_x, the weight of the edges separating x
 * from the hook, comes from prefix sums anchored at the hook, and X, the
 * weight of the edges crossing (p,q), from one Fenwick sweep.  That makes
 * a U-step O(N log N) and --min-t O(N^3 log N).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

static PyObject *InvalidPairing, *IndexOutOfRange, *NoViableMerge, *InternalError, *ResourceLimit,
    *IncompleteDatabase;

#define MAX_RANK_N 17 /* the largest n with (2n-1)!! < 2**63 */
#define MAX_N 9       /* the widest oracle store, as pure.MAX_N */
#define ABSENT 0xFF   /* the length byte of a tangle the store does not hold */

enum status { DONE, NO_MERGE, TABLE_DRIFT, SIZE_DRIFT, NOT_IDENTITY };

static inline int col(int n, int p) { return p < n ? p + 1 : 2 * n - p; }

static inline int size_of(int n, int p, int q)
{
    int d = col(n, p) - col(n, q);
    return d < 0 ? -d : d;
}

static inline int max_int(int a, int b) { return a > b ? a : b; }

/* out[p] = crossings of the edge at p. */
static void counts_into(int n, const int *mate, int *out)
{
    int m = 2 * n;
    memset(out, 0, (size_t)m * sizeof(int));
    for (int p = 0; p < m; p++) {
        int b = mate[p];
        for (int q = p + 1; q < b; q++)
            if (mate[q] > b) {
                out[p]++;
                out[q]++;
            }
    }
    for (int p = 0; p < m; p++)
        if (mate[p] > p)
            out[mate[p]] = out[p];
}

/* The rank of a checked pairing of 2n <= 34 positions: avail holds one bit
 * per unmatched position, so its lowest bit p anchors the next edge and
 * the avail bits below mate[p] count the digit. */
static uint64_t rank_of(int m, const int *mate)
{
    uint64_t r = 0, avail = m ? ~0ULL >> (64 - m) : 0;
    for (int p = 0; p < m; p++) {
        if (!(avail >> p & 1))
            continue;
        int q = mate[p];
        avail &= ~(1ULL << p);
        r = r * (uint64_t)__builtin_popcountll(avail)
            + (uint64_t)__builtin_popcountll(avail & ((1ULL << q) - 1));
        avail &= ~(1ULL << q);
    }
    return r;
}

/* The pairing of rank r < (2n-1)!!, n <= MAX_RANK_N, into mate[0..2n-1]. */
static void unrank_into(int n, uint64_t r, int *mate)
{
    int digit[MAX_RANK_N], avail[2 * MAX_RANK_N], navail = 2 * n;
    for (int j = n - 1; j >= 0; j--) {     /* digit j has radix 2(n-j)-1 */
        uint64_t radix = (uint64_t)(2 * (n - j) - 1);
        digit[j] = (int)(r % radix);
        r /= radix;
    }
    for (int p = 0; p < navail; p++)
        avail[p] = p;
    for (int j = 0; j < n; j++) {
        int k = digit[j] + 1, p = avail[0], q = avail[k];
        mate[p] = q;
        mate[q] = p;
        memmove(avail + k, avail + k + 1, (size_t)(navail - k - 1) * sizeof(int));
        memmove(avail, avail + 1, (size_t)(navail - 2) * sizeof(int));
        navail -= 2;
    }
}

/* (2n-1)!!, the number of tangles of B_n, for 0 <= n <= MAX_RANK_N. */
static long long double_factorial_odd(int n)
{
    long long total = 1;
    for (int k = 3; k < 2 * n; k += 2)
        total *= k;
    return total;
}

/* pure.right_multiply: mate becomes X . T_v (v > 0) or X . U_-v;
 * 0, leaving mate as it is, when X has the lower hook at that column. */
static inline int right_multiply(int *mate, int n, int v)
{
    int bi = 2 * n - abs(v), bj = bi - 1, a = mate[bi], b = mate[bj];
    if (a == bj)
        return 0;
    if (v > 0) {
        mate[bj] = a;
        mate[a] = bj;
        mate[bi] = b;
        mate[b] = bi;
    } else {
        mate[a] = b;
        mate[b] = a;
        mate[bi] = bj;
        mate[bj] = bi;
    }
    return 1;
}

/* The replacement edges (t[0],t[1]) and (t[2],t[3]) for merging the hook
 * (hi,hi+1) with the edge (p,q), p < q; 0 when the merge is undefined.
 * As pure.merge_targets: the cut between columns hi+1 and hi+2 splits the
 * boundary into a left arc, 0..hi and 2n-1-hi..2n-1, and a right arc; the
 * merge is defined exactly for the edges other than the hook that cross
 * the cut, and joins the left end to hi and the right end to hi+1.
 * Always inlined: the default walk calls it for each edge it passes, and
 * a call there made nested hooks 5% slower. */
static inline __attribute__((always_inline)) int merge_targets(int n, int hi, int p, int q, int *t)
{
    int left_p = p <= hi || p >= 2 * n - 1 - hi;
    if (p == hi || left_p == (q <= hi || q >= 2 * n - 1 - hi))
        return 0;
    t[0] = left_p ? p : hi;
    t[1] = left_p ? hi : q;
    t[2] = hi + 1;
    t[3] = left_p ? q : p;
    return 1;
}

/* Walk the edges (r,s), r < s, other than the hook (hi,hi+1) and the edge
 * (p,q), for the merge that replaces the two by (t[0],t[1]) and
 * (t[2],t[3]).  No walked edge separates hi from hi+1, so it crosses a new
 * edge iff it separates that edge's end p or q from the hook, and its own
 * count grows by 2 or not at all.  c[0], c[1] get the new edges' counts.
 * With apply, tc is updated; otherwise the return value is twice the
 * walked edges' new length. */
static inline long merge_scan(int m, const int *mate, int *tc, const int *sz, int hi,
                              int p, int q, const int *t, int apply, int *c)
{
    int sep_p = 0, sep_q = 0;
    long l2 = 0;
    for (int r = 0; r < m; r++) {
        int s = mate[r];
        if (s < r || r == hi || r == p)
            continue;
        int in_p = (r < p) & (p < s), in_q = (r < q) & (q < s), in_h = (r < hi) & (hi < s);
        int grow = 2 * ((in_p == in_q) & (in_p != in_h));
        sep_p += in_p != in_h;
        sep_q += in_q != in_h;
        if (apply) {
            tc[r] += grow;
            tc[s] += grow;
        } else {
            l2 += max_int(tc[r] + grow, sz[r]);
        }
    }
    c[0] = t[0] == p ? sep_p : sep_q;
    c[1] = t[0] == p ? sep_q : sep_p;
    return l2;
}

/* The sum of f[1..pos], the Fenwick tree's total over positions 0..pos-1. */
static inline long fenwick_sum(const long *f, int pos)
{
    long s = 0;
    for (; pos > 0; pos &= pos - 1)
        s += f[pos];
    return s;
}

/* The doubled length that the edge at y gains if its count grows by 2. */
static inline long weight(const int *tc, const int *sz, int y)
{
    return max_int(tc[y] + 2, sz[y]) - max_int(tc[y], sz[y]);
}

/* The weight and the number of the edges, other than the hook and (x,y),
 * that separate x from the hook: those with one end in the open interval
 * [lo, up) between x and the hook, where y may lie.  nest_w[x], nest_c[x]
 * hold the weight and number of the edges with both ends there. */
static inline void separating(int x, int y, int hi, const int *tc, const int *sz,
                              const long *pre, const long *nest_w, const long *nest_c,
                              long *wsep, long *csep)
{
    int lo = x < hi ? x + 1 : hi + 2, up = x < hi ? hi : x, y_in = lo <= y && y < up;
    *wsep = pre[up] - pre[lo] - 2 * nest_w[x] - (y_in ? weight(tc, sz, y) : 0);
    *csep = up - lo - 2 * nest_c[x] - y_in;
}

/* min_t's merge at the hook (hi,hi+1), scored for every candidate in
 * ranked[0..nrank-1] at once (see the header): the first candidate in that
 * order whose merge drops the doubled length l2 by 2 and leaves a crossing
 * total below every earlier one's.  Returns 0 when there is none, else 1
 * with its p in *p_out and its targets in ch.  ranked keeps the candidates
 * only; scratch holds 6m+2 longs. */
static int min_t_choice(int n, const int *mate, const int *tc, const int *sz, int hi,
                        int *ranked, int nrank, long l2, long *scratch, int *p_out, int *ch)
{
    int m = 2 * n, t[4], found = 0, ncand = 0, nright = 0, lo = m, up = 0;
    long *pre = scratch, *nest_w = pre + m + 1, *nest_c = nest_w + m, *fen = nest_c + m;
    long *cross = fen + m + 1, *rights = cross + m, total = 0, best = 0, nw = 0, nc = 0, sum = 0;
    for (int k = 0; k < nrank; k++) {
        int p = ranked[k];
        if (tc[p] < sz[p] && merge_targets(n, hi, p, mate[p], t)) {
            ranked[ncand++] = p;
            lo = p < lo ? p : lo;
            up = mate[p] > up ? mate[p] : up;
        }
    }
    if (ncand == 0)
        return 0;
    /* The prefix sums of the weights; the edges nested between x > hi+1 and
     * the hook, as x moves away from it (none before), then those for
     * x < hi; the right ends of the edges inside [lo, up], the only edges
     * that can lie inside a candidate. */
    pre[0] = 0;
    for (int y = 0; y < m; y++) {
        int z = mate[y], nested = z < y && z > hi + 1;
        long wy = weight(tc, sz, y);
        pre[y + 1] = sum += wy;
        total += z > y ? tc[y] : 0;
        nest_w[y] = nw;
        nest_c[y] = nc;
        nw += nested ? wy : 0;
        nc += nested;
        cross[y] = -1;          /* not a candidate */
        rights[nright] = y;
        nright += z < y && z >= lo && y <= up;
    }
    nw = nc = 0;
    for (int x = hi - 1; x >= 0; x--) {
        nest_w[x] = nw;
        nest_c[x] = nc;
        if (mate[x] > x && mate[x] < hi) {
            nw += weight(tc, sz, x);
            nc++;
        }
    }
    for (int k = 0; k < ncand; k++)
        cross[ranked[k]] = 0;
    /* At each right end s, the edges closed so far with a left end inside
     * (r,s) are the edges nested in it; cross[r] becomes the weight of the
     * edges crossing (r,s), with the hook's two terms cancelling.  fen is
     * never read past up. */
    memset(fen, 0, (size_t)(up + 1) * sizeof(long));
    for (int k = 0; k < nright; k++) {
        int s = (int)rights[k], r = mate[s];
        if (cross[r] == 0)
            cross[r] = pre[s] - pre[r + 1] - 2 * (fenwick_sum(fen, s) - fenwick_sum(fen, r + 1));
        long wr = weight(tc, sz, r);
        for (int j = r + 1; wr && j <= up; j += j & -j)
            fen[j] += wr;
    }
    for (int k = 0; k < ncand; k++) {
        int p = ranked[k], q = mate[p];
        merge_targets(n, hi, p, q, t);
        long wp, cp, wq, cq;
        separating(p, q, hi, tc, sz, pre, nest_w, nest_c, &wp, &cp);
        separating(q, p, hi, tc, sz, pre, nest_w, nest_c, &wq, &cq);
        long c1 = t[0] == p ? cp : cq, c2 = t[0] == p ? cq : cp;
        long s1 = size_of(n, t[0], t[1]), s2 = size_of(n, t[2], t[3]);
        /* The hook and (p,q) go; the weight grown and the two new edges
         * come.  The total counts tc[p] edges crossing (p,q), which holds
         * while the table is exact. */
        long l2p = l2 - max_int(tc[hi], sz[hi]) - max_int(tc[p], sz[p])
                   + (wp + wq - cross[p]) / 2 + (c1 > s1 ? c1 : s1) + (c2 > s2 ? c2 : s2);
        long tot = total - 2 * tc[p] + 2 * (cp + cq);
        if (l2p == l2 - 2 && (!found || tot < best)) {
            found = 1;
            best = tot;
            *p_out = p;
            memcpy(ch, t, sizeof t);
        }
    }
    return found;
}

/* Run the loop over idx[0..steps-1] from the tangle in mate, writing +i
 * (T_i) or -i (U_i) to out[step].  tc, sz, ranked and fresh are scratch
 * arrays of 2n ints; sweep is min_t_choice's scratch under min_t and NULL
 * otherwise.  On failure at[0] is the step, at[1] the position. */
static enum status factorize_loop(int n, int *mate, const int *idx, int steps,
                                  long *sweep, int debug, int *tc, int *sz,
                                  int *ranked, int *fresh, int *out, int *at)
{
    int m = 2 * n;
    counts_into(n, mate, tc);
    for (int p = 0; p < m; p++)
        sz[p] = size_of(n, p, mate[p]);

    for (int step = 0; step < steps; step++) {
        int i = idx[step], hi = i - 1, hj = i;
        at[0] = step;
        if (mate[hi] == hj) {
            long l2 = 0;        /* twice the current length */
            for (int p = 0; p < m; p++)
                if (mate[p] > p)
                    l2 += max_int(tc[p], sz[p]);

            /* Candidates in canonical order: top-anchored edges by left
             * index, then lower hooks by smaller index. */
            int nrank = 0;
            for (int p = 0; p < n; p++)
                if (mate[p] > p)
                    ranked[nrank++] = p;
            for (int x = 1; x <= n; x++) {
                int q = 2 * n - x;
                if (mate[q] >= n && mate[q] < q)
                    ranked[nrank++] = mate[q];
            }

            int found = 0, p = 0, ch[4], c[2];
            if (sweep != NULL) {
                found = min_t_choice(n, mate, tc, sz, hi, ranked, nrank, l2, sweep, &p, ch);
            } else {
                /* The first candidate whose merge drops the length by one. */
                for (int k = 0; k < nrank && !found; k++) {
                    p = ranked[k];
                    if (tc[p] >= sz[p] || !merge_targets(n, hi, p, mate[p], ch))
                        continue;
                    long l2p = merge_scan(m, mate, tc, sz, hi, p, mate[p], ch, 0, c)
                               + max_int(c[0], size_of(n, ch[0], ch[1]))
                               + max_int(c[1], size_of(n, ch[2], ch[3]));
                    found = l2p == l2 - 2;
                }
            }
            if (!found)
                return NO_MERGE;

            merge_scan(m, mate, tc, sz, hi, p, mate[p], ch, 1, c);
            mate[ch[0]] = ch[1];
            mate[ch[1]] = ch[0];
            mate[ch[2]] = ch[3];
            mate[ch[3]] = ch[2];
            tc[ch[0]] = tc[ch[1]] = c[0];
            tc[ch[2]] = tc[ch[3]] = c[1];
            sz[ch[0]] = sz[ch[1]] = size_of(n, ch[0], ch[1]);
            sz[ch[2]] = sz[ch[3]] = size_of(n, ch[2], ch[3]);
            out[step] = -i;
        } else {
            int a = mate[hi], b = mate[hj], ca = tc[hi], cb = tc[hj];
            mate[hj] = a;
            mate[a] = hj;
            mate[hi] = b;
            mate[b] = hi;
            tc[hj] = tc[a] = ca - 1;
            tc[hi] = tc[b] = cb - 1;
            sz[hj] = sz[a] = size_of(n, hj, a);
            sz[hi] = sz[b] = size_of(n, hi, b);
            out[step] = i;
        }

        if (debug) {
            counts_into(n, mate, fresh);
            if (memcmp(fresh, tc, (size_t)m * sizeof(int)) != 0)
                return TABLE_DRIFT;
            for (int p = 0; p < m; p++)
                if (sz[p] != size_of(n, p, mate[p])) {
                    at[1] = p;
                    return SIZE_DRIFT;
                }
        }
    }
    if (debug)
        for (int p = 0; p < m; p++)
            if (mate[p] != m - 1 - p)
                return NOT_IDENTITY;
    return DONE;
}

/* ------------------------------------------------------------------------
 * Python entry points */

/* A list (or, with tuple set, a tuple) of the len ints in a. */
static PyObject *int_seq(const int *a, int len, int tuple)
{
    PyObject *seq = tuple ? PyTuple_New(len) : PyList_New(len);
    if (seq == NULL)
        return NULL;
    for (int k = 0; k < len; k++) {
        PyObject *v = PyLong_FromLong(a[k]);
        if (v == NULL) {
            Py_DECREF(seq);
            return NULL;
        }
        if (tuple)
            PyTuple_SET_ITEM(seq, k, v);
        else
            PyList_SET_ITEM(seq, k, v);
    }
    return seq;
}

/* The items of obj converted by __index__ into a new PyMem array of *len
 * ints; *items keeps them, as a tuple, for error messages.  An item outside
 * the int range reads as -1, which no caller accepts.  The tuple is a
 * snapshot, so an item's __index__ cannot change what is read. */
static int *read_ints(PyObject *obj, PyObject **items, Py_ssize_t *len)
{
    *items = PySequence_Tuple(obj);
    if (*items == NULL)
        return NULL;
    *len = PyTuple_GET_SIZE(*items);
    int *a = PyMem_Malloc((size_t)(*len + 1) * sizeof(int));
    if (a == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t k = 0; k < *len; k++) {
        Py_ssize_t v = PyNumber_AsSsize_t(PyTuple_GET_ITEM(*items, k), NULL);
        if (v == -1 && PyErr_Occurred()) {
            PyMem_Free(a);
            return NULL;
        }
        a[k] = v < 0 || v > INT_MAX ? -1 : (int)v;
    }
    return a;
}

/* Whether mate[0..len-1] is a fixed-point-free involution of range(2n). */
static int is_pairing(const int *mate, Py_ssize_t len, Py_ssize_t n)
{
    if (n < 0 || n > INT_MAX / 2 || len != 2 * n)
        return 0;
    for (Py_ssize_t p = 0; p < len; p++)
        if (mate[p] < 0 || mate[p] >= len || mate[p] == p || mate[mate[p]] != p)
            return 0;
    return 1;
}

/* n as a C int and the checked pairing as a PyMem array of 2n ints, or
 * NULL with the exception pure.py raises on the same arguments. */
static int *read_pairing(PyObject *n_obj, PyObject *pairing, int *n_out)
{
    PyObject *n_int = PyNumber_Index(n_obj), *items = NULL;
    if (n_int == NULL)
        return NULL;
    Py_ssize_t n = PyNumber_AsSsize_t(n_int, NULL), len = 0;
    int *mate = read_ints(pairing, &items, &len);
    Py_XDECREF(items);
    if (mate != NULL && !is_pairing(mate, len, n)) {
        PyErr_Format(InvalidPairing,
                     "pairing is not a fixed-point-free involution of range(2n) for n = %S", n_int);
        PyMem_Free(mate);
        mate = NULL;
    }
    Py_DECREF(n_int);
    *n_out = (int)n;
    return mate;
}

static PyObject *crossing_counts(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "pairing", NULL};
    PyObject *n_obj, *pairing, *result = NULL;
    int n;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO", kwlist, &n_obj, &pairing))
        return NULL;
    int *mate = read_pairing(n_obj, pairing, &n);
    if (mate == NULL)
        return NULL;
    int *cnt = PyMem_Malloc((size_t)(2 * n + 1) * sizeof(int));
    if (cnt == NULL) {
        PyErr_NoMemory();
    } else {
        counts_into(n, mate, cnt);
        result = int_seq(cnt, 2 * n, 0);
    }
    PyMem_Free(mate);
    PyMem_Free(cnt);
    return result;
}

/* A new reference to obj.__index__() in *as_int and its value, saturated
 * to the range of long, in *v; -1 on failure. */
static int read_index(PyObject *obj, PyObject **as_int, long *v)
{
    int overflow;
    if ((*as_int = PyNumber_Index(obj)) == NULL)
        return -1;
    *v = PyLong_AsLongAndOverflow(*as_int, &overflow);
    if (overflow)
        *v = overflow > 0 ? LONG_MAX : LONG_MIN;
    return 0;
}

/* n as a C int, or -1 with pure.py's exception unless 0 <= n <= MAX_RANK_N. */
static int read_rank_n(PyObject *n_obj)
{
    PyObject *n_int;
    long n;
    if (read_index(n_obj, &n_int, &n) < 0)
        return -1;
    if (n < 0 || n > MAX_RANK_N) {
        PyErr_Format(ResourceLimit, "ranks need (2n-1)!! < 2**63, so 0 <= n <= %d; got n = %S",
                     MAX_RANK_N, n_int);
        n = -1;
    }
    Py_DECREF(n_int);
    return (int)n;
}

static PyObject *rank(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "pairing", NULL};
    PyObject *n_obj, *pairing, *n_int;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO", kwlist, &n_obj, &pairing))
        return NULL;
    int n = read_rank_n(n_obj);
    /* Pass on n as read, so that an __index__ is called once. */
    if (n < 0 || (n_int = PyLong_FromLong(n)) == NULL)
        return NULL;
    int *mate = read_pairing(n_int, pairing, &n);
    Py_DECREF(n_int);
    if (mate == NULL)
        return NULL;
    uint64_t r = rank_of(2 * n, mate);
    PyMem_Free(mate);
    return PyLong_FromUnsignedLongLong(r);
}

static PyObject *unrank(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "r", NULL};
    PyObject *n_obj, *r_obj, *r_int;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO", kwlist, &n_obj, &r_obj))
        return NULL;
    int n = read_rank_n(n_obj), mate[2 * MAX_RANK_N];
    if (n < 0 || (r_int = PyNumber_Index(r_obj)) == NULL)
        return NULL;
    long long total = double_factorial_odd(n), r;
    int overflow;
    r = PyLong_AsLongLongAndOverflow(r_int, &overflow);
    if (overflow || r < 0 || r >= total) {
        PyErr_Format(IndexOutOfRange, "rank %S outside 0..%lld for n = %d", r_int, total - 1, n);
        Py_DECREF(r_int);
        return NULL;
    }
    Py_DECREF(r_int);
    unrank_into(n, (uint64_t)r, mate);
    return int_seq(mate, 2 * n, 0);
}

/* The buffer obj of expand's argument name, in *view: one contiguous
 * block of itemsize-byte items and, unless total < 0, writable and of
 * total items.  Otherwise -1 with pure.py's exception and nothing held. */
static int store_buffer(PyObject *obj, const char *name, Py_ssize_t itemsize, int n,
                        long long total, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_STRIDES) < 0)
        return -1;
    if (total >= 0 && view->readonly)
        PyErr_Format(PyExc_TypeError, "%s is read-only", name);
    else if (view->itemsize != itemsize || !PyBuffer_IsContiguous(view, 'C'))
        PyErr_Format(PyExc_TypeError, "%s must be one contiguous block of %zd-byte items", name,
                     itemsize);
    else if (total >= 0 && view->len / itemsize != total)
        PyErr_Format(IncompleteDatabase, "%s holds %zd items, B_%d has %lld tangles", name,
                     view->len / itemsize, n, total);
    else
        return 0;
    PyBuffer_Release(view);
    return -1;
}

/* pure.expand: every check that bounds a write comes before the first
 * one, except each parent rank's, which comes as the parent is reached.
 * uint32 items go through memcpy, since a buffer need not be aligned. */
static PyObject *expand(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "lengths", "t_counts", "lasts", "parents", "ranks",
                             "sign", "length", "t", NULL};
    static const char *names[] = {"lengths", "t_counts", "lasts", "parents", "ranks"};
    PyObject *n_obj, *n_int = NULL, *buf[5], *arg[3], *num[3] = {NULL, NULL, NULL};
    PyObject *result = NULL;
    Py_buffer view[5];
    Py_ssize_t held = 0, used = 0, room = 0;
    uint32_t *out = NULL;
    long n, v[3];
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOOOOO", kwlist, &n_obj, &buf[0], &buf[1],
                                     &buf[2], &buf[3], &buf[4], &arg[0], &arg[1], &arg[2]))
        return NULL;
    if (read_index(n_obj, &n_int, &n) < 0)
        return NULL;
    if (n < 1 || n > MAX_N) {
        PyErr_Format(ResourceLimit, "B_%S does not fit the store (7 bytes per tangle: 1 <= n <= %d)",
                     n_int, MAX_N);
        goto done;
    }
    for (int k = 0; k < 3; k++)
        if (read_index(arg[k], &num[k], &v[k]) < 0)
            goto done;
    long sign = v[0], length = v[1], t = v[2];
    if (sign != 1 && sign != -1) {
        PyErr_Format(IndexOutOfRange, "sign %S is neither 1 nor -1", num[0]);
        goto done;
    }
    if (t < 0 || t > length || length >= ABSENT) {
        PyErr_Format(IndexOutOfRange, "length %S and T-count %S need 0 <= t <= length < %d",
                     num[1], num[2], ABSENT);
        goto done;
    }
    long long total = double_factorial_odd((int)n);
    for (; held < 5; held++)
        if (store_buffer(buf[held], names[held], held < 3 ? 1 : 4, (int)n, held < 4 ? total : -1,
                         &view[held]) < 0)
            goto done;

    unsigned char *lengths = view[0].buf, *t_counts = view[1].buf, *lasts = view[2].buf;
    char *parents = view[3].buf;
    const char *ranks = view[4].buf;
    int m = 2 * (int)n, mate[2 * MAX_N], child[2 * MAX_N];
    for (Py_ssize_t k = 0; k < view[4].len / 4; k++) {
        uint32_t parent;
        memcpy(&parent, ranks + 4 * k, 4);
        if (parent >= total) {
            PyErr_Format(IndexOutOfRange, "rank %lu outside 0..%lld for n = %ld",
                         (unsigned long)parent, total - 1, n);
            goto done;
        }
        unrank_into((int)n, parent, mate);
        for (int i = 1; i < n; i++) {
            memcpy(child, mate, (size_t)m * sizeof(int));
            if (!right_multiply(child, (int)n, (int)sign * i))
                continue;
            uint32_t r = (uint32_t)rank_of(m, child);
            if (lengths[r] != ABSENT)
                continue;
            lengths[r] = (unsigned char)length;
            t_counts[r] = (unsigned char)t;
            lasts[r] = (unsigned char)(sign > 0 ? i : i | 0x80);
            memcpy(parents + 4 * (size_t)r, &parent, 4);
            if (used == room) {
                uint32_t *grown = PyMem_Realloc(out, (size_t)(room = 2 * room + 256) * 4);
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto done;
                }
                out = grown;
            }
            out[used++] = r;
        }
    }
    result = PyBytes_FromStringAndSize((const char *)out, used * 4);
done:
    while (held > 0)
        PyBuffer_Release(&view[--held]);
    Py_XDECREF(n_int);
    for (int k = 0; k < 3; k++)
        Py_XDECREF(num[k]);
    PyMem_Free(out);
    return result;
}

/* Raise the exception for a failed loop, with pure.py's message. */
static void raise_status(enum status st, int m, const int *mate, const int *tc,
                         const int *fresh, const int *at, int i)
{
    PyObject *a = NULL, *b = NULL;
    if (st == NO_MERGE || st == TABLE_DRIFT) {
        a = int_seq(st == NO_MERGE ? mate : tc, m, 1);
        b = int_seq(st == NO_MERGE ? tc : fresh, m, 1);
        if (a == NULL || b == NULL)
            goto done;
    }
    if (st == NO_MERGE)
        PyErr_Format(NoViableMerge,
                     "no merge candidate reduces the length at index %d "
                     "(step %d, pairing %S, counts %S)", i, at[0], a, b);
    else if (st == TABLE_DRIFT)
        PyErr_Format(InternalError,
                     "crossing table drifted after step %d (index %d): "
                     "incremental %S vs recomputed %S", at[0], i, a, b);
    else if (st == SIZE_DRIFT)
        PyErr_Format(InternalError, "size table drifted at position %d", at[1]);
    else
        PyErr_SetString(InternalError, "factor indices exhausted before reaching the identity");
done:
    Py_XDECREF(a);
    Py_XDECREF(b);
}

static PyObject *factorize_core(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "pairing", "indices", "min_t", "debug", NULL};
    PyObject *n_obj, *pairing, *indices, *items = NULL, *result = NULL;
    int n, min_t = 0, debug = 0, *idx = NULL, *work = NULL, at[2] = {0, 0};
    long *sweep = NULL;
    Py_ssize_t steps = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO|pp", kwlist, &n_obj, &pairing,
                                     &indices, &min_t, &debug))
        return NULL;
    int *mate = read_pairing(n_obj, pairing, &n);
    if (mate == NULL)
        return NULL;
    int m = 2 * n;
    idx = read_ints(indices, &items, &steps);
    if (idx == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < steps; k++)
        if (idx[k] < 1 || idx[k] > n - 1) {
            PyObject *v = PyNumber_Index(PyTuple_GET_ITEM(items, k));
            if (v != NULL)
                PyErr_Format(IndexOutOfRange, "factor index %S outside 1..%d", v, n - 1);
            Py_XDECREF(v);
            goto done;
        }
    if (steps > INT_MAX || (work = PyMem_Malloc(((size_t)4 * m + (size_t)steps + 1) * sizeof(int))) == NULL
        || (min_t && (sweep = PyMem_Malloc(((size_t)6 * m + 2) * sizeof(long))) == NULL)) {
        PyErr_NoMemory();
        goto done;
    }
    int *tc = work, *sz = tc + m, *ranked = sz + m, *fresh = ranked + m, *out = fresh + m;
    enum status st = factorize_loop(n, mate, idx, (int)steps, sweep, debug, tc, sz, ranked,
                                    fresh, out, at);
    if (st == DONE)
        result = int_seq(out, (int)steps, 0);
    else
        raise_status(st, m, mate, tc, fresh, at, steps > 0 ? idx[at[0]] : 0);
done:
    Py_XDECREF(items);
    PyMem_Free(mate);
    PyMem_Free(idx);
    PyMem_Free(work);
    PyMem_Free(sweep);
    return result;
}

static PyMethodDef methods[] = {
    {"crossing_counts", (PyCFunction)(void (*)(void))crossing_counts, METH_VARARGS | METH_KEYWORDS,
     "Per-position crossing counts: out[p] = crossings of the edge at p."},
    {"expand", (PyCFunction)(void (*)(void))expand, METH_VARARGS | METH_KEYWORDS,
     "Commit the children of a level class under the primes of one sign;\n"
     "returns the committed ranks as the bytes of uint32s."},
    {"factorize_core", (PyCFunction)(void (*)(void))factorize_core, METH_VARARGS | METH_KEYWORDS,
     "Run the incremental factorization loop; returns signed factor codes\n"
     "(+i for T_i, -i for U_i)."},
    {"rank", (PyCFunction)(void (*)(void))rank, METH_VARARGS | METH_KEYWORDS,
     "The rank of the pairing in 0..(2n-1)!!-1."},
    {"unrank", (PyCFunction)(void (*)(void))unrank, METH_VARARGS | METH_KEYWORDS,
     "The pairing of rank r, as a list."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_speedups", "Compiled twin of brauer._kernels.pure.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__speedups(void)
{
    PyObject *errors = PyImport_ImportModule("brauer.errors");
    if (errors == NULL)
        return NULL;
    InvalidPairing = PyObject_GetAttrString(errors, "InvalidPairing");
    IndexOutOfRange = PyObject_GetAttrString(errors, "IndexOutOfRange");
    NoViableMerge = PyObject_GetAttrString(errors, "NoViableMerge");
    InternalError = PyObject_GetAttrString(errors, "InternalError");
    ResourceLimit = PyObject_GetAttrString(errors, "ResourceLimit");
    IncompleteDatabase = PyObject_GetAttrString(errors, "IncompleteDatabase");
    Py_DECREF(errors);
    if (!InvalidPairing || !IndexOutOfRange || !NoViableMerge || !InternalError || !ResourceLimit
        || !IncompleteDatabase)
        return NULL;
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && (PyModule_AddIntConstant(mod, "MAX_N", MAX_N) < 0
                        || PyModule_AddIntConstant(mod, "ABSENT", ABSENT) < 0)) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
