/* Compiled kernels: the crossing-count table, the incremental
 * factorization loop and the mixed-radix rank of a pairing, on the
 * position encoding of brauer.tangle.
 *
 * This is the C twin of pure.py, which stays the reference: both check
 * their arguments the same way, return the same lists and raise the same
 * exceptions with the same messages.  The core works on int arrays and
 * returns a status code; only the entry points at the bottom touch Python
 * objects.  merge_scan replaces pure.py's three crossing tests per edge by
 * three tests of which of p, q and the hook lie inside it; the counts are
 * the same.  Keep the two in sync.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

static PyObject *InvalidPairing, *IndexOutOfRange, *NoViableMerge, *InternalError, *ResourceLimit;

#define MAX_RANK_N 17 /* the largest n with (2n-1)!! < 2**63 */

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

/* The replacement edges (t[0],t[1]) and (t[2],t[3]) for merging the hook
 * (hi,hi+1) with the edge (p,q), p < q; 0 when the merge is undefined. */
static int merge_targets(int n, int hi, int p, int q, int *t)
{
    int hj = hi + 1, x = p + 1, y = 2 * n - q, before, ok;
    if (q < n) {                /* upper hook (p+1, q+1) */
        before = 1;
        ok = p < hi && q > hj;
    } else if (p >= n) {        /* lower hook with indices (2n-q, 2n-p) */
        before = 0;
        ok = q >= 2 * n - hj && p <= 2 * n - hj - 1;
    } else if (x < y) {         /* transversal, top index x, bottom index y */
        before = 1;
        ok = x < hj && y >= hj + 1;
    } else {
        before = 0;
        ok = x > hj + 1 && y <= hj;
    }
    if (!ok)
        return 0;
    t[0] = before ? p : hi;
    t[1] = before ? hi : q;
    t[2] = hj;
    t[3] = before ? q : p;
    return 1;
}

/* Walk the edges (r,s), r < s, other than the hook (hi,hi+1) and the edge
 * (p,q), for the merge that replaces the two by (t[0],t[1]) and
 * (t[2],t[3]).  No walked edge separates hi from hi+1, so it crosses a new
 * edge iff it separates that edge's end p or q from the hook, and its own
 * count grows by 2 or not at all.  c[0], c[1] get the new edges' counts.
 * With apply, tc is updated; otherwise the return value is twice the
 * walked edges' new length and *tot their new crossing total. */
static inline long merge_scan(int m, const int *mate, int *tc, const int *sz, int hi,
                              int p, int q, const int *t, int apply, int *c, long *tot)
{
    int cross_p = 0, cross_q = 0;
    long l2 = 0, sum = 0;
    for (int r = 0; r < m; r++) {
        int s = mate[r];
        if (s < r || r == hi || r == p)
            continue;
        int in_p = (r < p) & (p < s), in_q = (r < q) & (q < s), in_h = (r < hi) & (hi < s);
        int grow = 2 * ((in_p == in_q) & (in_p != in_h));
        cross_p += in_p != in_h;
        cross_q += in_q != in_h;
        if (apply) {
            tc[r] += grow;
            tc[s] += grow;
        } else {
            l2 += max_int(tc[r] + grow, sz[r]);
            sum += tc[r] + grow;
        }
    }
    c[0] = t[0] == p ? cross_p : cross_q;
    c[1] = t[0] == p ? cross_q : cross_p;
    *tot = sum;
    return l2;
}

/* Run the loop over idx[0..steps-1] from the tangle in mate, writing +i
 * (T_i) or -i (U_i) to out[step].  tc, sz, ranked and fresh are scratch
 * arrays of 2n ints.  On failure at[0] is the step, at[1] the position. */
static enum status factorize_loop(int n, int *mate, const int *idx, int steps,
                                  int min_t, int debug, int *tc, int *sz,
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

            int found = 0, p = 0, q = 0, t[4], ch[4], c[2];
            long best = 0, tot;
            for (int k = 0; k < nrank; k++) {
                int cp = ranked[k], cq = mate[cp];
                if (cp == hi || tc[cp] >= sz[cp] || !merge_targets(n, hi, cp, cq, t))
                    continue;
                long l2p = merge_scan(m, mate, tc, sz, hi, cp, cq, t, 0, c, &tot)
                           + max_int(c[0], size_of(n, t[0], t[1]))
                           + max_int(c[1], size_of(n, t[2], t[3]));
                if (l2p != l2 - 2)
                    continue;
                tot += c[0] + c[1];
                if (!found || tot < best) {
                    found = 1;
                    best = tot;
                    p = cp;
                    q = cq;
                    memcpy(ch, t, sizeof t);
                }
                if (!min_t)
                    break;
            }
            if (!found)
                return NO_MERGE;

            merge_scan(m, mate, tc, sz, hi, p, q, ch, 1, c, &tot);
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
 * ints; an item outside the int range reads as -1, which no caller
 * accepts.  *items keeps the items for error messages. */
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
    int ok = mate != NULL && n >= 0 && n <= INT_MAX / 2 && len == 2 * n;
    for (Py_ssize_t p = 0; ok && p < len; p++)
        ok = mate[p] >= 0 && mate[p] < len && mate[p] != p && mate[mate[p]] == p;
    if (mate != NULL && !ok) {
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

/* n as a C int, or -1 with pure.py's exception unless 0 <= n <= MAX_RANK_N. */
static int read_rank_n(PyObject *n_obj)
{
    PyObject *n_int = PyNumber_Index(n_obj);
    if (n_int == NULL)
        return -1;
    int overflow;
    long n = PyLong_AsLongAndOverflow(n_int, &overflow);
    if (overflow || n < 0 || n > MAX_RANK_N) {
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
    PyObject *n_obj, *pairing;
    int n;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO", kwlist, &n_obj, &pairing))
        return NULL;
    if (read_rank_n(n_obj) < 0)
        return NULL;
    int *mate = read_pairing(n_obj, pairing, &n);
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
    long long total = 1, r;
    for (int k = 3; k < 2 * n; k += 2)
        total *= k;
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
    if (steps > INT_MAX || (work = PyMem_Malloc(((size_t)4 * m + (size_t)steps + 1) * sizeof(int))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int *tc = work, *sz = tc + m, *ranked = sz + m, *fresh = ranked + m, *out = fresh + m;
    enum status st = factorize_loop(n, mate, idx, (int)steps, min_t, debug, tc, sz, ranked,
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
    return result;
}

static PyMethodDef methods[] = {
    {"crossing_counts", (PyCFunction)(void (*)(void))crossing_counts, METH_VARARGS | METH_KEYWORDS,
     "Per-position crossing counts: out[p] = crossings of the edge at p."},
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
    Py_DECREF(errors);
    if (!InvalidPairing || !IndexOutOfRange || !NoViableMerge || !InternalError || !ResourceLimit)
        return NULL;
    return PyModule_Create(&module);
}
