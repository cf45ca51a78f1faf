/*
 * Compiled conflict hot path of the arena core.
 *
 * Three functions mirror three Python methods of repro.solver.arena line
 * for line, and each takes the same ``self`` the method does:
 *
 *   propagate(propagator)           ArenaPropagator.propagate
 *   analyze(analyzer, conflict)     ArenaConflictAnalyzer.analyze (+ _minimize)
 *   backtrack(trail, level, decider)  ArenaTrail.backtrack
 *
 * They work in place on the Python lists the Python bodies use
 * (lit_values, levels, reasons, trail, data, the watch tables, frequency,
 * the VSIDS activity and heap), so every other reader of that state stays
 * unchanged.  The interpreter lock is held throughout.  Index reads are
 * bounds-checked and raise IndexError instead of wrapping like Python's
 * negative indices; the solver never produces a negative index.
 *
 * Floats: VSIDS and clause activities are updated with the same IEEE
 * double operations Python performs (build with -ffp-contract=off and no
 * fast-math), and heap entries are pushed with the exact sift of
 * heapq.heappush, so a compiled solve follows the reference search bit
 * for bit.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* Decider.bump / Decider.requeue, set by configure(): bound methods of
 * these functions are inlined, anything else is called through Python. */
static PyObject *vsids_bump = NULL;
static PyObject *vsids_requeue = NULL;

static PyObject *INT_M1, *INT_0, *INT_1;

enum {
    S_trail, S_trail_lim, S_qhead, S_lit_values, S_levels, S_reasons,
    S_watches, S_binary, S_ternary, S_n_binary, S_n_ternary, S_n_long,
    S_arena, S_data, S_offset, S_learned, S_activity, S_used, S_clause_inc,
    S_frequency, S_stats, S_batch_hist, S_observe, S_propagations,
    S_bcp_rounds, S_minimized_literals, S_seen, S_bump_variable,
    S_heap, S_var_inc, S_rescale, S_saved_phase, S_requeue, S_COUNT
};
static const char *const NAMES[S_COUNT] = {
    "trail", "trail_lim", "qhead", "lit_values", "levels", "reasons",
    "watches", "binary", "ternary", "n_binary", "n_ternary", "n_long",
    "arena", "data", "offset", "learned", "activity", "used", "clause_inc",
    "frequency", "stats", "_batch_hist", "observe", "propagations",
    "bcp_rounds", "minimized_literals", "_seen", "bump_variable",
    "_heap", "var_inc", "_rescale", "saved_phase", "requeue",
};
static PyObject *S[S_COUNT];

/* -- small helpers ------------------------------------------------------ */

static void
index_error(Py_ssize_t i)
{
    PyErr_Format(PyExc_IndexError, "arena kernel index %zd out of range", i);
}

#define IN_RANGE(list, i) ((size_t)(i) < (size_t)PyList_GET_SIZE(list))

static inline int
as_long(PyObject *o, long *out)
{
#if PY_VERSION_HEX >= 0x030C0000
    if (PyLong_CheckExact(o) && PyUnstable_Long_IsCompact((PyLongObject *)o)) {
        *out = (long)PyUnstable_Long_CompactValue((PyLongObject *)o);
        return 0;
    }
#else
    if (PyLong_CheckExact(o)) {
        Py_ssize_t size = Py_SIZE(o);
        if (size == 0) { *out = 0; return 0; }
        if (size == 1) { *out = (long)((PyLongObject *)o)->ob_digit[0]; return 0; }
        if (size == -1) { *out = -(long)((PyLongObject *)o)->ob_digit[0]; return 0; }
    }
#endif
    *out = PyLong_AsLong(o);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* dst = list[i] as a C long (bounds-checked). */
#define LOAD(dst, list, i) do {                                         \
        Py_ssize_t i_ = (i);                                            \
        if (!IN_RANGE(list, i_)) { index_error(i_); goto error; }       \
        if (as_long(PyList_GET_ITEM(list, i_), &(dst)) < 0) goto error; \
    } while (0)

#define LOADF(dst, list, i) do {                                        \
        Py_ssize_t i_ = (i);                                            \
        if (!IN_RANGE(list, i_)) { index_error(i_); goto error; }       \
        (dst) = PyFloat_AsDouble(PyList_GET_ITEM(list, i_));            \
        if ((dst) == -1.0 && PyErr_Occurred()) goto error;              \
    } while (0)

/* list[i] = v, stealing the reference to v (NULL v means failure). */
static inline int
store_new(PyObject *list, Py_ssize_t i, PyObject *v)
{
    PyObject *old;
    if (v == NULL)
        return -1;
    if (!IN_RANGE(list, i)) {
        Py_DECREF(v);
        index_error(i);
        return -1;
    }
    old = PyList_GET_ITEM(list, i);
    PyList_SET_ITEM(list, i, v);
    Py_DECREF(old);
    return 0;
}

static inline int
store(PyObject *list, Py_ssize_t i, PyObject *v)
{
    Py_INCREF(v);
    return store_new(list, i, v);
}

#define STORE(list, i, v) do { if (store(list, i, v) < 0) goto error; } while (0)
#define STORE_NEW(list, i, v) do { if (store_new(list, i, v) < 0) goto error; } while (0)

/* Swap two list slots; no reference counts change. */
#define SWAP(list, a, b) do {                                           \
        Py_ssize_t a_ = (a), b_ = (b);                                  \
        PyObject *t_;                                                   \
        if (!IN_RANGE(list, a_)) { index_error(a_); goto error; }       \
        if (!IN_RANGE(list, b_)) { index_error(b_); goto error; }       \
        t_ = PyList_GET_ITEM(list, a_);                                 \
        PyList_SET_ITEM(list, a_, PyList_GET_ITEM(list, b_));           \
        PyList_SET_ITEM(list, b_, t_);                                  \
    } while (0)

static PyObject *
get_list(PyObject *obj, int name)
{
    PyObject *v = PyObject_GetAttr(obj, S[name]);
    if (v != NULL && !PyList_Check(v)) {
        PyErr_Format(PyExc_TypeError, "%s must be a list, not %.100s",
                     NAMES[name], Py_TYPE(v)->tp_name);
        Py_CLEAR(v);
    }
    return v;
}

/* Borrowed sub-list table[i], type-checked. */
static PyObject *
sub_list(PyObject *table, Py_ssize_t i)
{
    PyObject *v;
    if (!IN_RANGE(table, i)) {
        index_error(i);
        return NULL;
    }
    v = PyList_GET_ITEM(table, i);
    if (!PyList_Check(v)) {
        PyErr_SetString(PyExc_TypeError, "watch table entries must be lists");
        return NULL;
    }
    return v;
}

static int
get_long(PyObject *obj, int name, long *out)
{
    PyObject *v = PyObject_GetAttr(obj, S[name]);
    int rc;
    if (v == NULL)
        return -1;
    rc = as_long(v, out);
    Py_DECREF(v);
    return rc;
}

static int
get_double(PyObject *obj, int name, double *out)
{
    PyObject *v = PyObject_GetAttr(obj, S[name]);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
set_long(PyObject *obj, int name, long value)
{
    PyObject *v = PyLong_FromLong(value);
    int rc;
    if (v == NULL)
        return -1;
    rc = PyObject_SetAttr(obj, S[name], v);
    Py_DECREF(v);
    return rc;
}

/* obj.name += delta (Python int arithmetic, so counters never wrap). */
static int
add_long(PyObject *obj, int name, long delta)
{
    PyObject *cur, *d, *sum;
    int rc;
    cur = PyObject_GetAttr(obj, S[name]);
    if (cur == NULL)
        return -1;
    d = PyLong_FromLong(delta);
    if (d == NULL) {
        Py_DECREF(cur);
        return -1;
    }
    sum = PyNumber_Add(cur, d);
    Py_DECREF(cur);
    Py_DECREF(d);
    if (sum == NULL)
        return -1;
    rc = PyObject_SetAttr(obj, S[name], sum);
    Py_DECREF(sum);
    return rc;
}

/* list[i] += 1 */
static int
increment(PyObject *list, Py_ssize_t i)
{
    long v;
    LOAD(v, list, i);
    return store_new(list, i, PyLong_FromLong(v + 1));
error:
    return -1;
}

/* True when list[i] is truthy (the _seen flags and arena.learned). */
static inline int
flag(PyObject *list, Py_ssize_t i)
{
    PyObject *v;
    if (!IN_RANGE(list, i)) {
        index_error(i);
        return -1;
    }
    v = PyList_GET_ITEM(list, i);
    if (v == Py_True)
        return 1;
    if (v == Py_False)
        return 0;
    return PyObject_IsTrue(v);
}

/* -- the VSIDS heap (heapq-compatible) ---------------------------------- */

/* a < b for (-activity, var) heap entries, as tuple comparison does it. */
static int
heap_lt(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)
        && PyTuple_GET_SIZE(a) == 2 && PyTuple_GET_SIZE(b) == 2) {
        PyObject *a0 = PyTuple_GET_ITEM(a, 0), *b0 = PyTuple_GET_ITEM(b, 0);
        PyObject *a1 = PyTuple_GET_ITEM(a, 1), *b1 = PyTuple_GET_ITEM(b, 1);
        if (PyFloat_CheckExact(a0) && PyFloat_CheckExact(b0)
            && PyLong_CheckExact(a1) && PyLong_CheckExact(b1)) {
            double x = PyFloat_AS_DOUBLE(a0), y = PyFloat_AS_DOUBLE(b0);
            long u, v;
            if (!isnan(x) && !isnan(y)) {
                if (x != y)
                    return x < y;
                if (as_long(a1, &u) == 0 && as_long(b1, &v) == 0)
                    return u < v;
                PyErr_Clear();
            }
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* heapq.heappush(heap, (key, var)) */
static int
heap_push(PyObject *heap, double key, long var)
{
    PyObject *k, *v, *item, *parent;
    Py_ssize_t pos, parentpos;
    int lt;

    k = PyFloat_FromDouble(key);
    if (k == NULL)
        return -1;
    v = PyLong_FromLong(var);
    if (v == NULL) {
        Py_DECREF(k);
        return -1;
    }
    item = PyTuple_Pack(2, k, v);
    Py_DECREF(k);
    Py_DECREF(v);
    if (item == NULL)
        return -1;
    if (PyList_Append(heap, item) < 0) {
        Py_DECREF(item);
        return -1;
    }
    Py_DECREF(item);
    pos = PyList_GET_SIZE(heap) - 1;
    while (pos > 0) {
        parentpos = (pos - 1) >> 1;
        parent = PyList_GET_ITEM(heap, parentpos);
        item = PyList_GET_ITEM(heap, pos);
        lt = heap_lt(item, parent);
        if (lt < 0)
            return -1;
        if (!lt)
            break;
        PyList_SET_ITEM(heap, parentpos, item);
        PyList_SET_ITEM(heap, pos, parent);
        pos = parentpos;
    }
    return 0;
}

/* Decider state for the inlined Decider.bump (activity, var_inc, _heap). */
typedef struct {
    PyObject *decider;   /* borrowed */
    PyObject *activity;  /* owned */
    PyObject *heap;      /* owned */
    double inc;
} Vsids;

static int
vsids_load(Vsids *vs)
{
    Py_CLEAR(vs->activity);
    Py_CLEAR(vs->heap);
    vs->activity = get_list(vs->decider, S_activity);
    if (vs->activity == NULL)
        return -1;
    vs->heap = get_list(vs->decider, S_heap);
    if (vs->heap == NULL)
        return -1;
    return get_double(vs->decider, S_var_inc, &vs->inc);
}

/* Decider.bump(var), exactly. */
static int
vsids_bump_var(Vsids *vs, long var)
{
    double a;
    PyObject *r;
    LOADF(a, vs->activity, var);
    a += vs->inc;
    if (store_new(vs->activity, var, PyFloat_FromDouble(a)) < 0)
        return -1;
    if (a > 1e100) {
        r = PyObject_CallMethodNoArgs(vs->decider, S[S_rescale]);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        if (vsids_load(vs) < 0)
            return -1;
        LOADF(a, vs->activity, var);
    }
    return heap_push(vs->heap, -a, var);
error:
    return -1;
}

/* -- propagate ---------------------------------------------------------- */

static int
flush(PyObject *self, long propagated)
{
    PyObject *stats, *hist, *r;
    stats = PyObject_GetAttr(self, S[S_stats]);
    if (stats == NULL)
        return -1;
    if (add_long(stats, S_propagations, propagated) < 0
        || add_long(stats, S_bcp_rounds, 1) < 0) {
        Py_DECREF(stats);
        return -1;
    }
    Py_DECREF(stats);
    hist = PyObject_GetAttr(self, S[S_batch_hist]);
    if (hist == NULL)
        return -1;
    if (hist != Py_None) {
        PyObject *n = PyLong_FromLong(propagated);
        r = n == NULL ? NULL : PyObject_CallMethodOneArg(hist, S[S_observe], n);
        Py_XDECREF(n);
        if (r == NULL) {
            Py_DECREF(hist);
            return -1;
        }
        Py_DECREF(r);
    }
    Py_DECREF(hist);
    return 0;
}

/* The long clause at ``off`` (slot 1 now false) needs a new watch: move
 * the first non-false literal of slots 2.. into slot 1 and append the
 * record [data[off], off] to its watch list.  Returns 1 when moved, 0 when
 * every other literal is false, -1 on error. */
static int
move_watch(PyObject *data, PyObject *lit_values, PyObject *watches,
           long off, PyObject *off_obj)
{
    long size, k, candidate, cv;
    PyObject *wl;
    LOAD(size, data, off - 1);
    for (k = off + 2; k < off + size; k++) {
        LOAD(candidate, data, k);
        LOAD(cv, lit_values, candidate);
        if (cv != 0) {
            SWAP(data, off + 1, k);
            wl = sub_list(watches, candidate);
            if (wl == NULL
                || PyList_Append(wl, PyList_GET_ITEM(data, off)) < 0
                || PyList_Append(wl, off_obj) < 0)
                goto error;
            return 1;
        }
    }
    return 0;
error:
    return -1;
}

/* Assign ``lit`` (object ``lit_obj``) true at ``level`` with ``reason``. */
#define IMPLY(lit, lit_obj, reason) do {                                \
        long var_ = (lit) >> 1;                                         \
        STORE(lit_values, (lit), INT_1);                                \
        STORE(lit_values, (lit) ^ 1, INT_0);                            \
        STORE(levels, var_, level_obj);                                 \
        STORE(reasons, var_, (reason));                                 \
        if (PyList_Append(trail_list, (lit_obj)) < 0) goto error;       \
        ntrail++;                                                       \
        if (increment(frequency, var_) < 0) goto error;                 \
    } while (0)

static PyObject *
propagate(PyObject *module, PyObject *self)
{
    PyObject *trail = NULL, *watch_obj = NULL, *arena = NULL;
    PyObject *lit_values = NULL, *levels = NULL, *reasons = NULL;
    PyObject *trail_list = NULL, *trail_lim = NULL, *data = NULL;
    PyObject *watches = NULL, *binary = NULL, *ternary = NULL;
    PyObject *frequency = NULL, *level_obj = NULL;
    PyObject *bin_reason = NULL, *conflict = NULL, *result = NULL;
    long qhead, ntrail, base, n_bin, n_ter, n_long;
    int has_binary, has_ternary, has_long;

    if ((trail = PyObject_GetAttr(self, S[S_trail])) == NULL
        || (watch_obj = PyObject_GetAttr(self, S[S_watches])) == NULL
        || (arena = PyObject_GetAttr(self, S[S_arena])) == NULL
        || (lit_values = get_list(trail, S_lit_values)) == NULL
        || (levels = get_list(trail, S_levels)) == NULL
        || (reasons = get_list(trail, S_reasons)) == NULL
        || (trail_list = get_list(trail, S_trail)) == NULL
        || (trail_lim = get_list(trail, S_trail_lim)) == NULL
        || (data = get_list(arena, S_data)) == NULL
        || (watches = get_list(watch_obj, S_watches)) == NULL
        || (binary = get_list(watch_obj, S_binary)) == NULL
        || (ternary = get_list(watch_obj, S_ternary)) == NULL
        || (frequency = get_list(self, S_frequency)) == NULL
        || get_long(trail, S_qhead, &qhead) < 0
        || get_long(watch_obj, S_n_binary, &n_bin) < 0
        || get_long(watch_obj, S_n_ternary, &n_ter) < 0
        || get_long(watch_obj, S_n_long, &n_long) < 0)
        goto error;
    level_obj = PyLong_FromSsize_t(PyList_GET_SIZE(trail_lim));
    if (level_obj == NULL)
        goto error;
    ntrail = (long)PyList_GET_SIZE(trail_list);
    base = ntrail;
    has_binary = n_bin > 0;
    has_ternary = n_ter > 0;
    has_long = n_long > 0;

    while (qhead < ntrail) {
        long lit, false_lit;
        LOAD(lit, trail_list, qhead);
        qhead++;
        false_lit = lit ^ 1;
        Py_CLEAR(bin_reason);

        /* -- binary: the other literal alone decides everything. */
        if (has_binary) {
            PyObject *blist = sub_list(binary, false_lit);
            Py_ssize_t b;
            if (blist == NULL)
                goto error;
            for (b = 0; b < PyList_GET_SIZE(blist); b++) {
                PyObject *other_obj = PyList_GET_ITEM(blist, b);
                long other, v;
                if (as_long(other_obj, &other) < 0)
                    goto error;
                LOAD(v, lit_values, other);
                if (v > 0)
                    continue;
                if (v == 0) {
                    conflict = Py_BuildValue("(Ol)", other_obj, false_lit);
                    goto conflict_found;
                }
                if (bin_reason == NULL
                    && (bin_reason = PyLong_FromLong(~false_lit)) == NULL)
                    goto error;
                IMPLY(other, other_obj, bin_reason);
            }
        }

        /* -- ternary: immutable [o1, o2, id] records. */
        if (has_ternary) {
            PyObject *tlist = sub_list(ternary, false_lit);
            Py_ssize_t t, tn;
            if (tlist == NULL)
                goto error;
            tn = PyList_GET_SIZE(tlist);
            for (t = 0; t < tn; t += 3) {
                long o1, o2, v1, v2;
                PyObject *cid_obj;
                if (t + 2 >= PyList_GET_SIZE(tlist)) {
                    index_error(t + 2);
                    goto error;
                }
                if (as_long(PyList_GET_ITEM(tlist, t), &o1) < 0)
                    goto error;
                LOAD(v1, lit_values, o1);
                if (v1 > 0)
                    continue;
                if (as_long(PyList_GET_ITEM(tlist, t + 1), &o2) < 0)
                    goto error;
                LOAD(v2, lit_values, o2);
                if (v2 > 0)
                    continue;
                cid_obj = PyList_GET_ITEM(tlist, t + 2);
                if (v1 == 0) {
                    if (v2 == 0) {
                        conflict = cid_obj;
                        Py_INCREF(conflict);
                        goto conflict_found;
                    }
                    IMPLY(o2, PyList_GET_ITEM(tlist, t + 1), cid_obj);
                }
                else if (v2 == 0) {
                    IMPLY(o1, PyList_GET_ITEM(tlist, t), cid_obj);
                }
                /* else: both unassigned, the clause cannot propagate. */
            }
        }

        /* -- long clauses (>= 4 lits): [blocker, offset] pairs, scanned
         * write-free until the first relocation leaves a hole (phase 1),
         * then compacted down over it (phase 2). */
        if (!has_long)
            continue;
        {
            PyObject *watchers = sub_list(watches, false_lit);
            Py_ssize_t i = 0, j, n, hole = -1;
            PyObject *conflict_cid = NULL;
            if (watchers == NULL)
                goto error;
            n = PyList_GET_SIZE(watchers);
            if (n == 0)
                continue;
            if (n & 1) {
                PyErr_SetString(PyExc_ValueError, "odd-length long watch list");
                goto error;
            }
            /* phase 1 */
            while (i < n) {
                long blocker, off, first, v0;
                int moved;
                LOAD(blocker, watchers, i);
                LOAD(v0, lit_values, blocker);
                if (v0 > 0) {
                    i += 2;
                    continue;
                }
                LOAD(off, watchers, i + 1);
                LOAD(first, data, off);
                if (first == false_lit) {
                    SWAP(data, off, off + 1);
                    LOAD(first, data, off);
                }
                LOAD(v0, lit_values, first);
                if (v0 > 0) {
                    STORE(watchers, i, PyList_GET_ITEM(data, off));
                    i += 2;
                    continue;
                }
                moved = move_watch(data, lit_values, watches, off,
                                   PyList_GET_ITEM(watchers, i + 1));
                if (moved < 0)
                    goto error;
                if (moved) {
                    hole = i;
                    i += 2;
                    break;
                }
                /* No replacement: unit or conflicting on ``first``. */
                STORE(watchers, i, PyList_GET_ITEM(data, off));
                i += 2;
                if (v0 < 0) {
                    if (off < 2) { index_error(off - 2); goto error; }
                    IMPLY(first, PyList_GET_ITEM(data, off),
                          PyList_GET_ITEM(data, off - 2));
                }
                else {
                    if (off < 2) { index_error(off - 2); goto error; }
                    conflict = PyList_GET_ITEM(data, off - 2);
                    Py_INCREF(conflict);
                    goto conflict_found;
                }
            }
            if (hole < 0)
                continue;
            /* phase 2 */
            j = hole;
            while (i < n) {
                long blocker, off, first, v0;
                int moved;
                PyObject *blocker_obj, *off_obj;
                if (i + 1 >= PyList_GET_SIZE(watchers)) {
                    index_error(i + 1);
                    goto error;
                }
                blocker_obj = PyList_GET_ITEM(watchers, i);
                off_obj = PyList_GET_ITEM(watchers, i + 1);
                Py_INCREF(blocker_obj);
                Py_INCREF(off_obj);
                i += 2;
                if (as_long(blocker_obj, &blocker) < 0
                    || as_long(off_obj, &off) < 0) {
                    Py_DECREF(blocker_obj);
                    Py_DECREF(off_obj);
                    goto error;
                }
                /* The two slots above j are read before either is written. */
                if (store_new(watchers, j + 1, off_obj) < 0) {
                    Py_DECREF(blocker_obj);
                    goto error;
                }
                if (store_new(watchers, j, blocker_obj) < 0)
                    goto error;
                LOAD(v0, lit_values, blocker);
                if (v0 > 0) {
                    j += 2;
                    continue;
                }
                LOAD(first, data, off);
                if (first == false_lit) {
                    SWAP(data, off, off + 1);
                    LOAD(first, data, off);
                }
                LOAD(v0, lit_values, first);
                if (v0 > 0) {
                    STORE(watchers, j, PyList_GET_ITEM(data, off));
                    j += 2;
                    continue;
                }
                moved = move_watch(data, lit_values, watches, off,
                                   PyList_GET_ITEM(watchers, j + 1));
                if (moved < 0)
                    goto error;
                if (moved)
                    continue;  /* record dropped: j stays */
                STORE(watchers, j, PyList_GET_ITEM(data, off));
                j += 2;
                if (off < 2) { index_error(off - 2); goto error; }
                if (v0 < 0) {
                    IMPLY(first, PyList_GET_ITEM(data, off),
                          PyList_GET_ITEM(data, off - 2));
                }
                else {
                    /* Conflict: keep the remaining records, then bail out. */
                    while (i < n) {
                        SWAP(watchers, j, i);
                        SWAP(watchers, j + 1, i + 1);
                        j += 2;
                        i += 2;
                    }
                    conflict_cid = PyList_GET_ITEM(data, off - 2);
                }
            }
            if (PyList_SetSlice(watchers, j, PyList_GET_SIZE(watchers), NULL) < 0)
                goto error;
            if (conflict_cid != NULL) {
                conflict = conflict_cid;
                Py_INCREF(conflict);
                goto conflict_found;
            }
        }
    }

    if (set_long(trail, S_qhead, qhead) < 0 || flush(self, ntrail - base) < 0)
        goto error;
    result = Py_None;
    Py_INCREF(result);
    goto done;

conflict_found:
    if (conflict == NULL)
        goto error;
    if (set_long(trail, S_qhead, ntrail) < 0 || flush(self, ntrail - base) < 0) {
        Py_DECREF(conflict);
        goto error;
    }
    result = conflict;
    goto done;

error:
    result = NULL;
done:
    Py_XDECREF(trail);
    Py_XDECREF(watch_obj);
    Py_XDECREF(arena);
    Py_XDECREF(lit_values);
    Py_XDECREF(levels);
    Py_XDECREF(reasons);
    Py_XDECREF(trail_list);
    Py_XDECREF(trail_lim);
    Py_XDECREF(data);
    Py_XDECREF(watches);
    Py_XDECREF(binary);
    Py_XDECREF(ternary);
    Py_XDECREF(frequency);
    Py_XDECREF(level_obj);
    Py_XDECREF(bin_reason);
    return result;
}

/* -- analyze ------------------------------------------------------------ */

typedef struct {
    PyObject *arena;     /* borrowed */
    PyObject *learned_flags, *activity, *used;  /* owned */
    PyObject *levels, *seen, *learned;          /* borrowed */
    PyObject *bump;      /* borrowed: the generic bump_variable */
    int inline_vsids;
    Vsids vs;
    double clause_inc;
    long current_level, counter;
    long *touched;
    Py_ssize_t ntouched, cap;
} Analysis;

/* ClauseArena.bump_clause(cid) for a learned clause, exactly. */
static int
bump_clause(Analysis *st, long cid)
{
    double a;
    Py_ssize_t other, n;
    LOADF(a, st->activity, cid);
    a += st->clause_inc;
    STORE_NEW(st->activity, cid, PyFloat_FromDouble(a));
    STORE(st->used, cid, INT_1);
    if (a > 1e20) {
        n = PyList_GET_SIZE(st->activity);
        for (other = 0; other < n; other++) {
            int learned = flag(st->learned_flags, other);
            double x;
            if (learned < 0)
                goto error;
            if (!learned)
                continue;
            LOADF(x, st->activity, other);
            STORE_NEW(st->activity, other, PyFloat_FromDouble(x * 1e-20));
        }
        st->clause_inc *= 1e-20;
        {
            PyObject *inc = PyFloat_FromDouble(st->clause_inc);
            int rc;
            if (inc == NULL)
                goto error;
            rc = PyObject_SetAttr(st->arena, S[S_clause_inc], inc);
            Py_DECREF(inc);
            if (rc < 0)
                goto error;
        }
    }
    return 0;
error:
    return -1;
}

static int
bump_learned_clause(Analysis *st, long cid)
{
    int learned = flag(st->learned_flags, cid);
    if (learned <= 0)
        return learned;
    return bump_clause(st, cid);
}

static int
bump_var(Analysis *st, long var)
{
    PyObject *v, *r;
    if (st->inline_vsids)
        return vsids_bump_var(&st->vs, var);
    v = PyLong_FromLong(var);
    if (v == NULL)
        return -1;
    r = PyObject_CallOneArg(st->bump, v);
    Py_DECREF(v);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* One literal of the clause being resolved (the loop body of analyze). */
static int
visit(Analysis *st, long lit)
{
    long var = lit >> 1, level;
    int seen;
    LOAD(level, st->levels, var);
    seen = flag(st->seen, var);
    if (seen < 0)
        goto error;
    if (seen || level == 0)
        return 0;
    STORE(st->seen, var, Py_True);
    if (st->ntouched == st->cap) {
        Py_ssize_t cap = st->cap ? 2 * st->cap : 64;
        long *grown = PyMem_Realloc(st->touched, cap * sizeof(long));
        if (grown == NULL) {
            PyErr_NoMemory();
            goto error;
        }
        st->touched = grown;
        st->cap = cap;
    }
    st->touched[st->ntouched++] = var;
    if (bump_var(st, var) < 0)
        goto error;
    if (level == st->current_level) {
        st->counter++;
    }
    else {
        PyObject *l = PyLong_FromLong(lit);
        int rc;
        if (l == NULL)
            goto error;
        rc = PyList_Append(st->learned, l);
        Py_DECREF(l);
        if (rc < 0)
            goto error;
    }
    return 0;
error:
    return -1;
}

/* Resolve over the literals of clause ``cid`` except variable ``skip``. */
static int
visit_clause(Analysis *st, PyObject *data, PyObject *offset, long cid, long skip)
{
    long off, size, k, lit;
    LOAD(off, offset, cid);
    LOAD(size, data, off - 1);
    for (k = off; k < off + size; k++) {
        LOAD(lit, data, k);
        if ((lit >> 1) == skip)
            continue;
        if (visit(st, lit) < 0)
            goto error;
    }
    return 0;
error:
    return -1;
}

/* ArenaConflictAnalyzer._minimize: keep literals whose reasons are not
 * subsumed by the clause itself.  Returns a new list. */
static PyObject *
minimize(Analysis *st, PyObject *reasons, PyObject *data, PyObject *offset)
{
    PyObject *kept, *learned = st->learned;
    Py_ssize_t i, n = PyList_GET_SIZE(learned);
    kept = PyList_New(0);
    if (kept == NULL)
        return NULL;
    if (PyList_Append(kept, PyList_GET_ITEM(learned, 0)) < 0)
        goto error;
    for (i = 1; i < n; i++) {
        PyObject *lit_obj = PyList_GET_ITEM(learned, i), *reason;
        long lit, var, ovar, r, off, size, k, olit, level;
        int removable = 1, s;
        if (as_long(lit_obj, &lit) < 0)
            goto error;
        var = lit >> 1;
        if (!IN_RANGE(reasons, var)) {
            index_error(var);
            goto error;
        }
        reason = PyList_GET_ITEM(reasons, var);
        if (reason == Py_None) {
            if (PyList_Append(kept, lit_obj) < 0)
                goto error;
            continue;
        }
        if (as_long(reason, &r) < 0)
            goto error;
        if (r < 0) {
            ovar = (~r) >> 1;
            s = flag(st->seen, ovar);
            if (s < 0)
                goto error;
            LOAD(level, st->levels, ovar);
            if (!s && level > 0)
                removable = 0;
        }
        else {
            LOAD(off, offset, r);
            LOAD(size, data, off - 1);
            for (k = off; k < off + size; k++) {
                LOAD(olit, data, k);
                ovar = olit >> 1;
                if (ovar == var)
                    continue;
                s = flag(st->seen, ovar);
                if (s < 0)
                    goto error;
                LOAD(level, st->levels, ovar);
                if (!s && level > 0) {
                    removable = 0;
                    break;
                }
            }
        }
        if (removable) {
            STORE(st->seen, var, Py_False);
        }
        else if (PyList_Append(kept, lit_obj) < 0) {
            goto error;
        }
    }
    return kept;
error:
    Py_DECREF(kept);
    return NULL;
}

static PyObject *
analyze(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *self, *conflict, *trail = NULL, *seen = NULL, *levels = NULL;
    PyObject *trail_list = NULL, *reasons = NULL, *trail_lim = NULL;
    PyObject *data = NULL, *offset = NULL, *bump = NULL, *stats = NULL;
    PyObject *learned = NULL, *kept = NULL, *result = NULL;
    unsigned char *level_seen = NULL;
    Analysis st;
    Py_ssize_t index, t;
    long asserting_lit = -1, var, before, glue, backjump;

    memset(&st, 0, sizeof(st));
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "analyze(analyzer, conflict)");
        return NULL;
    }
    self = args[0];
    conflict = args[1];
    if ((trail = PyObject_GetAttr(self, S[S_trail])) == NULL
        || (st.arena = PyObject_GetAttr(self, S[S_arena])) == NULL
        || (seen = get_list(self, S_seen)) == NULL
        || (levels = get_list(trail, S_levels)) == NULL
        || (trail_list = get_list(trail, S_trail)) == NULL
        || (reasons = get_list(trail, S_reasons)) == NULL
        || (trail_lim = get_list(trail, S_trail_lim)) == NULL
        || (data = get_list(st.arena, S_data)) == NULL
        || (offset = get_list(st.arena, S_offset)) == NULL
        || (st.learned_flags = get_list(st.arena, S_learned)) == NULL
        || (st.activity = get_list(st.arena, S_activity)) == NULL
        || (st.used = get_list(st.arena, S_used)) == NULL
        || get_double(st.arena, S_clause_inc, &st.clause_inc) < 0
        || (bump = PyObject_GetAttr(self, S[S_bump_variable])) == NULL)
        goto error;
    st.current_level = (long)PyList_GET_SIZE(trail_lim);
    if (st.current_level <= 0) {
        PyErr_SetString(PyExc_AssertionError,
                        "conflict at level 0 is final UNSAT");
        goto error;
    }
    st.levels = levels;
    st.seen = seen;
    st.bump = bump;
    if (vsids_bump != NULL && PyMethod_Check(bump)
        && PyMethod_GET_FUNCTION(bump) == vsids_bump) {
        st.inline_vsids = 1;
        st.vs.decider = PyMethod_GET_SELF(bump);
        if (vsids_load(&st.vs) < 0)
            goto error;
    }
    learned = PyList_New(1);
    if (learned == NULL)
        goto error;
    Py_INCREF(INT_0);
    PyList_SET_ITEM(learned, 0, INT_0);  /* placeholder: asserting literal */
    st.learned = learned;
    index = PyList_GET_SIZE(trail_list) - 1;

    if (PyTuple_Check(conflict)) {
        /* Binary conflict: the (other, false_lit) pair. */
        for (t = 0; t < PyTuple_GET_SIZE(conflict); t++) {
            long lit;
            if (as_long(PyTuple_GET_ITEM(conflict, t), &lit) < 0
                || visit(&st, lit) < 0)
                goto error;
        }
    }
    else {
        long cid;
        if (as_long(conflict, &cid) < 0
            || bump_learned_clause(&st, cid) < 0
            || visit_clause(&st, data, offset, cid, -1) < 0)
            goto error;
    }

    for (;;) {
        PyObject *reason;
        long r;
        int s;
        /* Find the next seen literal on the trail (current level). */
        for (;;) {
            LOAD(asserting_lit, trail_list, index);
            s = flag(seen, asserting_lit >> 1);
            if (s < 0)
                goto error;
            if (s)
                break;
            index--;
        }
        var = asserting_lit >> 1;
        STORE(seen, var, Py_False);
        st.counter--;
        index--;
        if (st.counter == 0)
            break;
        if (!IN_RANGE(reasons, var)) {
            index_error(var);
            goto error;
        }
        reason = PyList_GET_ITEM(reasons, var);
        if (reason == Py_None) {
            PyErr_SetString(PyExc_AssertionError,
                            "reached a decision while resolving");
            goto error;
        }
        if (as_long(reason, &r) < 0)
            goto error;
        if (r < 0) {
            /* Binary reason: resolving removes var, adds the other lit. */
            if (visit(&st, ~r) < 0)
                goto error;
        }
        else {
            if (bump_learned_clause(&st, r) < 0
                || visit_clause(&st, data, offset, r, var) < 0)
                goto error;
        }
    }
    if (store_new(learned, 0, PyLong_FromLong(asserting_lit ^ 1)) < 0)
        goto error;

    before = (long)PyList_GET_SIZE(learned);
    kept = minimize(&st, reasons, data, offset);
    if (kept == NULL)
        goto error;
    if ((stats = PyObject_GetAttr(self, S[S_stats])) == NULL
        || add_long(stats, S_minimized_literals,
                    before - (long)PyList_GET_SIZE(kept)) < 0)
        goto error;

    /* glue (LBD): distinct decision levels in the learned clause. */
    {
        Py_ssize_t n = PyList_GET_SIZE(kept), i;
        long lit, level, max_level = 0, max_i = 1, lvl;
        level_seen = PyMem_Calloc((size_t)st.current_level + 1, 1);
        if (level_seen == NULL) {
            PyErr_NoMemory();
            goto error;
        }
        glue = 0;
        for (i = 0; i < n; i++) {
            if (as_long(PyList_GET_ITEM(kept, i), &lit) < 0)
                goto error;
            LOAD(level, levels, lit >> 1);
            if (level < 0 || level > st.current_level) {
                PyErr_SetString(PyExc_ValueError, "decision level out of range");
                goto error;
            }
            if (!level_seen[level]) {
                level_seen[level] = 1;
                glue++;
            }
        }
        /* backjump level: second-highest level in the clause. */
        if (n == 1) {
            backjump = 0;
        }
        else {
            if (as_long(PyList_GET_ITEM(kept, 1), &lit) < 0)
                goto error;
            LOAD(max_level, levels, lit >> 1);
            for (i = 2; i < n; i++) {
                if (as_long(PyList_GET_ITEM(kept, i), &lit) < 0)
                    goto error;
                LOAD(lvl, levels, lit >> 1);
                if (lvl > max_level) {
                    max_level = lvl;
                    max_i = (long)i;
                }
            }
            SWAP(kept, 1, max_i);
            backjump = max_level;
        }
    }

    for (t = 0; t < st.ntouched; t++)
        STORE(seen, st.touched[t], Py_False);
    result = Py_BuildValue("(Oll)", kept, backjump, glue);

error:
    PyMem_Free(level_seen);
    PyMem_Free(st.touched);
    Py_XDECREF(st.vs.activity);
    Py_XDECREF(st.vs.heap);
    Py_XDECREF(st.arena);
    Py_XDECREF(st.learned_flags);
    Py_XDECREF(st.activity);
    Py_XDECREF(st.used);
    Py_XDECREF(trail);
    Py_XDECREF(seen);
    Py_XDECREF(levels);
    Py_XDECREF(trail_list);
    Py_XDECREF(reasons);
    Py_XDECREF(trail_lim);
    Py_XDECREF(data);
    Py_XDECREF(offset);
    Py_XDECREF(bump);
    Py_XDECREF(stats);
    Py_XDECREF(learned);
    Py_XDECREF(kept);
    return result;
}

/* -- backtrack ---------------------------------------------------------- */

static PyObject *
backtrack(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *self, *decider = Py_None, *trail_lim = NULL, *trail_list = NULL;
    PyObject *lit_values = NULL, *undone = NULL, *saved = NULL;
    PyObject *requeue = NULL, *result = NULL;
    Vsids vs;
    long level, boundary, qhead, lit;
    Py_ssize_t i, n;
    int inline_vsids = 0;

    memset(&vs, 0, sizeof(vs));
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError, "backtrack(trail, level, decider=None)");
        return NULL;
    }
    self = args[0];
    if (as_long(args[1], &level) < 0)
        return NULL;
    if (nargs == 3)
        decider = args[2];
    if ((trail_lim = get_list(self, S_trail_lim)) == NULL)
        goto error;
    if (level >= (long)PyList_GET_SIZE(trail_lim)) {
        result = PyList_New(0);
        goto error;
    }
    if ((trail_list = get_list(self, S_trail)) == NULL
        || (lit_values = get_list(self, S_lit_values)) == NULL)
        goto error;
    LOAD(boundary, trail_lim, level);
    undone = PyList_GetSlice(trail_list, boundary, PyList_GET_SIZE(trail_list));
    if (undone == NULL)
        goto error;
    n = PyList_GET_SIZE(undone);
    for (i = 0; i < n; i++) {
        if (as_long(PyList_GET_ITEM(undone, i), &lit) < 0)
            goto error;
        STORE(lit_values, lit, INT_M1);
        STORE(lit_values, lit ^ 1, INT_M1);
    }
    if (PyList_SetSlice(trail_list, boundary, PyList_GET_SIZE(trail_list), NULL) < 0
        || PyList_SetSlice(trail_lim, level, PyList_GET_SIZE(trail_lim), NULL) < 0
        || get_long(self, S_qhead, &qhead) < 0)
        goto error;
    if (qhead > boundary && set_long(self, S_qhead, boundary) < 0)
        goto error;

    /* Phase saving and decision-queue maintenance (Solver._backtrack). */
    if (decider != Py_None) {
        if ((saved = get_list(decider, S_saved_phase)) == NULL
            || (requeue = PyObject_GetAttr(decider, S[S_requeue])) == NULL)
            goto error;
        if (vsids_requeue != NULL && PyMethod_Check(requeue)
            && PyMethod_GET_FUNCTION(requeue) == vsids_requeue) {
            inline_vsids = 1;
            vs.decider = decider;
            if (vsids_load(&vs) < 0)
                goto error;
        }
        for (i = 0; i < n; i++) {
            long var;
            if (as_long(PyList_GET_ITEM(undone, i), &lit) < 0)
                goto error;
            var = lit >> 1;
            STORE(saved, var, (lit & 1) == 0 ? Py_True : Py_False);
            if (inline_vsids) {
                double a;
                LOADF(a, vs.activity, var);
                if (heap_push(vs.heap, -a, var) < 0)
                    goto error;
            }
            else {
                PyObject *v = PyLong_FromLong(var), *r;
                if (v == NULL)
                    goto error;
                r = PyObject_CallOneArg(requeue, v);
                Py_DECREF(v);
                if (r == NULL)
                    goto error;
                Py_DECREF(r);
            }
        }
    }
    result = undone;
    undone = NULL;

error:
    Py_XDECREF(vs.activity);
    Py_XDECREF(vs.heap);
    Py_XDECREF(trail_lim);
    Py_XDECREF(trail_list);
    Py_XDECREF(lit_values);
    Py_XDECREF(undone);
    Py_XDECREF(saved);
    Py_XDECREF(requeue);
    return result;
}

/* -- module ------------------------------------------------------------- */

static PyObject *
configure(PyObject *module, PyObject *args)
{
    PyObject *bump, *requeue;
    if (!PyArg_ParseTuple(args, "OO:configure", &bump, &requeue))
        return NULL;
    Py_INCREF(bump);
    Py_XSETREF(vsids_bump, bump);
    Py_INCREF(requeue);
    Py_XSETREF(vsids_requeue, requeue);
    Py_RETURN_NONE;
}

static PyMethodDef kernel_methods[] = {
    {"propagate", (PyCFunction)propagate, METH_O,
     "ArenaPropagator.propagate(self), compiled."},
    {"analyze", (PyCFunction)(void (*)(void))analyze, METH_FASTCALL,
     "ArenaConflictAnalyzer.analyze(self, conflict), compiled."},
    {"backtrack", (PyCFunction)(void (*)(void))backtrack, METH_FASTCALL,
     "ArenaTrail.backtrack(self, level, decider=None), compiled."},
    {"configure", configure, METH_VARARGS,
     "configure(bump, requeue): the Decider methods to inline."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled conflict hot path of the arena core.", -1, kernel_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    int k;
    for (k = 0; k < S_COUNT; k++) {
        if (S[k] == NULL && (S[k] = PyUnicode_InternFromString(NAMES[k])) == NULL)
            return NULL;
    }
    if ((INT_M1 = PyLong_FromLong(-1)) == NULL
        || (INT_0 = PyLong_FromLong(0)) == NULL
        || (INT_1 = PyLong_FromLong(1)) == NULL)
        return NULL;
    return PyModule_Create(&kernel_module);
}
