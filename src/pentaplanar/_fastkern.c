/* Compiled bit kernels for graphs with n <= 64.

   The input contract, the same for every backend, is stated in `kernels`;
   `_purekern` documents the shared conventions (edge order u < v, code
   layout).  The range checks in `load_rows` and `load_rot` keep this
   file's memory accesses in bounds and are not part of the contract.  Each
   kernel reads n off the length of its rows or rotation system; the
   dispatcher in `kernels` sends larger graphs to the pure backend.

   Exports `edge_profile`, `paths3_per_edge` and `embedding_min_code`.
   The per-edge counts enumerate, over 64-bit adjacency rows, the paths
   u-x-y-v and u-a-b-c-v of each edge: one loop over a in N(u) yields both;
   the edge's triangles are its endpoints' common neighbours.  The cycle
   totals are summed from `edge_profile` in `kernels.cycle_counts`.
   `embedding_min_code` runs the pure kernel's algorithm: only start edges
   whose tail and head have least degree, and each code abandoned block by
   block once it is not below the best so far.

   Build with `python setup.py build_ext --inplace`, or directly:
     gcc -O2 -Wall -Wextra -Werror -shared -fPIC $(python3-config --includes) \
         src/pentaplanar/_fastkern.c \
         -o src/pentaplanar/_fastkern$(python3-config --extension-suffix)
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAXN 64
#define MAXM (MAXN * (MAXN - 1) / 2) /* edges of a simple graph */
#define MAXFLAT (2 * MAXM)            /* its degree sum */

typedef uint64_t row_t;

#define BIT(i) ((row_t)1 << (i))
#define POPCNT(x) __builtin_popcountll(x)
#define CTZ(x) __builtin_ctzll(x)

/* Bits strictly above u, shift-safe at u = 63. */
static inline row_t above(int u) { return u >= 63 ? 0 : ~(row_t)0 << (u + 1); }

/* `obj` as a fast sequence of *n <= MAXN items; NULL with an error set. */
static PyObject *load_seq(PyObject *obj, const char *what, Py_ssize_t *n)
{
    PyObject *seq = PySequence_Fast(obj, what);
    if (seq == NULL)
        return NULL;
    *n = PySequence_Fast_GET_SIZE(seq);
    if (*n > MAXN) {
        PyErr_Format(PyExc_ValueError, "compiled kernel needs n <= %d, got %zd", MAXN, *n);
        Py_CLEAR(seq);
    }
    return seq;
}

/* Read the n adjacency rows of `rows`, n <= MAXN, each with bits below n
   only.  Returns n, or -1 with an exception set. */
static int load_rows(PyObject *rows, row_t *adj)
{
    Py_ssize_t n;
    PyObject *seq = load_seq(rows, "rows must be a sequence", &n);
    if (seq == NULL)
        return -1;
    for (int i = 0; i < n; i++) {
        unsigned long long r = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (r == (unsigned long long)-1 && PyErr_Occurred())
            goto fail;
        if (n < 64 && r >> n) {
            PyErr_Format(PyExc_ValueError, "row %d has a bit at or above n = %zd", i, n);
            goto fail;
        }
        adj[i] = r;
    }
    Py_DECREF(seq);
    return (int)n;
fail:
    Py_DECREF(seq);
    return -1;
}

/* Per edge u < v, in edge order: into p3 the paths u-x-y-v and, when t3
   and c5 are given, into t3 the common neighbours of u and v and into c5
   the paths u-a-b-c-v.  Returns the number of edges. */
static inline int edge_counts(const row_t *adj, int n, long *t3, long *p3, long *c5)
{
    int m = 0;
    for (int u = 0; u < n; u++) {
        row_t ru = adj[u], not_u = ~BIT(u);
        for (row_t vs = ru & above(u); vs; vs &= vs - 1, m++) {
            int v = CTZ(vs);
            row_t rv = adj[v], not_uv = not_u & ~BIT(v);
            long paths3 = 0, paths4 = 0;
            for (row_t as = ru & ~BIT(v); as; as &= as - 1) {
                int a = CTZ(as);
                row_t ra = adj[a];
                paths3 += POPCNT(ra & rv & not_u);
                if (c5 == NULL)
                    continue;
                row_t keep = not_uv & ~BIT(a);
                for (row_t cs = rv & not_u & ~BIT(a); cs; cs &= cs - 1)
                    paths4 += POPCNT(ra & adj[CTZ(cs)] & keep);
            }
            p3[m] = paths3;
            if (c5 != NULL) {
                t3[m] = POPCNT(ru & rv);
                c5[m] = paths4;
            }
        }
    }
    return m;
}

static PyObject *to_list(const long *values, int m)
{
    PyObject *out = PyList_New(m);
    for (int i = 0; out != NULL && i < m; i++) {
        PyObject *item = PyLong_FromLong(values[i]);
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, item);
    }
    return out;
}

static PyObject *edge_profile(PyObject *Py_UNUSED(self), PyObject *rows)
{
    row_t adj[MAXN];
    long t3[MAXM], p3[MAXM], c5[MAXM];
    int n = load_rows(rows, adj);
    if (n < 0)
        return NULL;
    int m = edge_counts(adj, n, t3, p3, c5);
    PyObject *t3s = to_list(t3, m), *p3s = t3s == NULL ? NULL : to_list(p3, m);
    PyObject *c5s = p3s == NULL ? NULL : to_list(c5, m);
    /* on a NULL list, frees the lists made before it */
    return Py_BuildValue("(NNN)", t3s, p3s, c5s);
}

static PyObject *paths3_per_edge(PyObject *Py_UNUSED(self), PyObject *rows)
{
    row_t adj[MAXN];
    long p3[MAXM];
    int n = load_rows(rows, adj);
    if (n < 0)
        return NULL;
    return to_list(p3, edge_counts(adj, n, NULL, p3, NULL));
}

/* A rotation system, flattened, and the work space of one code. */
typedef struct {
    int n, deg[MAXN], off[MAXN], flat[MAXFLAT];
    int lab[MAXN], order[MAXN], entry[MAXN];
    int buf[2][MAXN + MAXFLAT];
    int *cur, *best; /* best is NULL until the first complete code */
} rotsys;

/* Flatten the n rotations of `rot`, n <= MAXN, into r.  Returns n, or -1
   with an exception set. */
static int load_rot(PyObject *rot, rotsys *r)
{
    Py_ssize_t n;
    PyObject *seq = load_seq(rot, "rotation system must be a sequence", &n);
    if (seq == NULL)
        return -1;
    int total = 0;
    for (int x = 0; x < n; x++) {
        PyObject *rx = PySequence_Fast(PySequence_Fast_GET_ITEM(seq, x),
                                       "rotation must be a sequence");
        if (rx == NULL)
            goto fail;
        Py_ssize_t d = PySequence_Fast_GET_SIZE(rx);
        if (d > MAXFLAT - total) {
            PyErr_SetString(PyExc_ValueError, "rotation system is not simple");
            Py_DECREF(rx);
            goto fail;
        }
        r->deg[x] = (int)d;
        r->off[x] = total;
        for (Py_ssize_t k = 0; k < d; k++) {
            long w = PyLong_AsLong(PySequence_Fast_GET_ITEM(rx, k));
            if (w == -1 && PyErr_Occurred()) {
                Py_DECREF(rx);
                goto fail;
            }
            if (w < 0 || w >= n) {
                PyErr_Format(PyExc_ValueError, "neighbor %ld of %d out of range", w, x);
                Py_DECREF(rx);
                goto fail;
            }
            r->flat[total++] = (int)w;
        }
        Py_DECREF(rx);
    }
    r->n = (int)n;
    Py_DECREF(seq);
    return (int)n;
fail:
    Py_DECREF(seq);
    return -1;
}

/* Build into r->cur the code from start edge (su, sv), read clockwise or,
   when rev, counter-clockwise.  Return 1 if it is below r->best (or is the
   first code), 0 once it is certain not to be, and -1 with ValueError set
   when a rotation lacks its entry neighbor or the graph is disconnected,
   exactly where `_purekern._bfs_code` raises. */
static int bfs_code(rotsys *r, int su, int sv, int rev)
{
    int n = r->n, nxt = 2, len = 0, tie = r->best != NULL;
    int *lab = r->lab, *order = r->order, *entry = r->entry, *cur = r->cur;
    for (int i = 0; i < n; i++)
        lab[i] = -1;
    lab[su] = 0;
    lab[sv] = 1;
    order[0] = su;
    order[1] = sv;
    entry[su] = sv;
    entry[sv] = su;
    for (int i = 0; i < nxt; i++) {
        int x = order[i], d = r->deg[x], pos = 0, start = len;
        const int *rx = r->flat + r->off[x];
        while (pos < d && rx[pos] != entry[x])
            pos++;
        if (pos == d) {
            PyErr_Format(PyExc_ValueError,
                         "rotation of %d does not list %d, which lists %d", x, entry[x], x);
            return -1;
        }
        cur[len++] = d;
        for (int k = 0; k < d; k++) {
            int w = rx[rev ? (pos - k + d) % d : (pos + k) % d];
            if (lab[w] < 0) {
                lab[w] = nxt;
                order[nxt++] = w;
                entry[w] = x;
            }
            cur[len++] = lab[w];
        }
        for (int j = start; tie && j < len; j++) {
            if (cur[j] != r->best[j]) {
                if (cur[j] > r->best[j])
                    return 0;
                tie = 0;
            }
        }
    }
    if (nxt != n) {
        PyErr_SetString(PyExc_ValueError, "embedding code requires a connected graph");
        return -1;
    }
    return !tie;
}

/* Returns the code as bytes, one byte per degree or label, like the pure
   kernel; n <= MAXN keeps every entry below 256. */
static PyObject *embedding_min_code(PyObject *Py_UNUSED(self), PyObject *rot)
{
    PyObject *out;
    rotsys *r = PyMem_Malloc(sizeof(rotsys));
    if (r == NULL)
        return PyErr_NoMemory();
    int n = load_rot(rot, r);
    if (n < 0)
        goto fail;
    if (n <= 1) {
        PyMem_Free(r);
        return PyBytes_FromStringAndSize("", n); /* b"" or b"\x00" */
    }
    int dmin = r->deg[0], dsv = MAXFLAT + 1;
    for (int u = 1; u < n; u++)
        dmin = r->deg[u] < dmin ? r->deg[u] : dmin;
    if (dmin == 0) {
        PyErr_SetString(PyExc_ValueError, "embedding code requires a connected graph");
        goto fail;
    }
    /* every code from (su, sv) opens with dmin, 1..dmin, then deg sv */
    for (int u = 0; u < n; u++) {
        if (r->deg[u] != dmin)
            continue;
        for (int k = 0; k < dmin; k++) {
            int d = r->deg[r->flat[r->off[u] + k]];
            dsv = d < dsv ? d : dsv;
        }
    }
    r->cur = r->buf[0];
    r->best = NULL;
    for (int u = 0; u < n; u++) {
        if (r->deg[u] != dmin)
            continue;
        for (int k = 0; k < dmin; k++) {
            int v = r->flat[r->off[u] + k];
            if (r->deg[v] != dsv)
                continue;
            for (int rev = 0; rev < 2; rev++) {
                int res = bfs_code(r, u, v, rev);
                if (res < 0)
                    goto fail;
                if (res > 0) {
                    r->best = r->cur;
                    r->cur = r->buf[r->cur == r->buf[0]];
                }
            }
        }
    }
    Py_ssize_t len = n + r->off[n - 1] + r->deg[n - 1];
    if ((out = PyBytes_FromStringAndSize(NULL, len)) == NULL)
        goto fail;
    char *bytes = PyBytes_AS_STRING(out);
    for (Py_ssize_t i = 0; i < len; i++)
        bytes[i] = (char)r->best[i];
    PyMem_Free(r);
    return out;
fail:
    PyMem_Free(r);
    return NULL;
}

static PyMethodDef methods[] = {
    {"edge_profile", edge_profile, METH_O,
     "edge_profile(rows): three lists, per edge in edge order: the 3-, 4-\n"
     "and 5-cycles through it."},
    {"paths3_per_edge", paths3_per_edge, METH_O,
     "paths3_per_edge(rows): the paths u-x-y-v of every edge, in edge order."},
    {"embedding_min_code", embedding_min_code, METH_O,
     "embedding_min_code(rot): canonical flat code of a connected simple\n"
     "rotation system, as bytes (see _purekern.embedding_min_code)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "pentaplanar._fastkern",
    .m_doc = "Compiled bit kernels for graphs with n <= 64 (see _purekern).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__fastkern(void) { return PyModule_Create(&module); }
