/* Compiled search kernel. Mirrors rainbowpan._kernel_py function for
 * function (`State` is its `_Search`; path_extend, cycle_extend,
 * try_candidates, push_edge, kuhn and result are `_Search` methods, bfs is
 * `_bfs`) and operation for operation: identical candidate ordering,
 * augmenting order, node counting, witnesses. The parity tests compare
 * both on the same queries.
 *
 * Written by hand against the CPython C API. Every input is checked before
 * it reaches a table: all tables are fixed 64-slot arrays, so n, m, the
 * length of adj, the vertex arguments and every mask must fit them. The
 * pure kernel raises the same errors for the same inputs.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#if PY_VERSION_HEX < 0x030B0000
#include <longintrepr.h>  /* PyLongObject's digits, in Python.h from 3.11 */
#endif
#include <string.h>

typedef unsigned long long u64;

enum { FOUND = 0, NONE = 1, BUDGET = 2 };

#define MAXN 64
#define INF (1 << 20)
#define ABORT (-2)

typedef struct {
    int n;
    int m;
    u64 adj[MAXN * MAXN];  /* m*n rows, adj[c*n + v] */
    u64 rows[MAXN];        /* union adjacency */
    int dist[MAXN];
    long long node_limit;
    long long nodes;
    int color_edge[MAXN];  /* color -> edge index, -1 free */
    int edge_color[MAXN];  /* edge index -> color */
    u64 opts[MAXN];        /* edge index -> option mask at assignment time */
    int n_edges;
    int path[MAXN + 1];
    int depth;             /* vertices currently in path */
    int k;                 /* target vertex count / cycle length */
    int start;             /* cycle start vertex */
    u64 ybit;
    u64 higher;
} State;

static inline u64 lowbit(u64 x) { return x & (~x + 1); }

/* A non-negative int as a 64-bit word, or (u64)-1 with OverflowError when
 * it is negative or wider and TypeError when it is no int. Small ints are
 * read from their digits, as Cython's conversions do: an m*n input is
 * converted on every call, and the C API call costs more than the search
 * on small inputs. */
static inline u64 as_u64(PyObject *obj)
{
#if PY_VERSION_HEX < 0x030C0000
    if (PyLong_CheckExact(obj)) {
        const digit *dg = ((PyLongObject *)obj)->ob_digit;
        switch (Py_SIZE(obj)) {
        case 0: return 0;
        case 1: return dg[0];
        case 2: return ((u64)dg[1] << PyLong_SHIFT) | dg[0];
        }
    }
#else
    if (PyLong_CheckExact(obj) && PyUnstable_Long_IsCompact((PyLongObject *)obj)) {
        Py_ssize_t value = PyUnstable_Long_CompactValue((PyLongObject *)obj);
        if (value >= 0)
            return (u64)value;
    }
#endif
    return PyLong_AsUnsignedLongLong(obj);
}

static void build_rows(State *st)
{
    for (int v = 0; v < st->n; v++) {
        u64 row = 0;
        for (int c = 0; c < st->m; c++)
            row |= st->adj[c * st->n + v];
        st->rows[v] = row;
    }
}

static void bfs(State *st, int src, u64 scope)
{
    for (int i = 0; i < st->n; i++)
        st->dist[i] = INF;
    st->dist[src] = 0;
    u64 frontier = 1ULL << src;
    u64 seen = frontier;
    int d = 0;
    while (frontier) {
        d++;
        u64 nxt = 0;
        for (u64 rest = frontier; rest; rest ^= lowbit(rest))
            nxt |= st->rows[__builtin_ctzll(rest)];
        nxt &= scope & ~seen;
        for (u64 rest = nxt; rest; rest ^= lowbit(rest))
            st->dist[__builtin_ctzll(rest)] = d;
        seen |= nxt;
        frontier = nxt;
    }
}

static int kuhn(State *st, int e, u64 *visited)
{
    /* entry snapshot of untried options, as in the reference kernel */
    u64 options = st->opts[e] & ~*visited;
    while (options) {
        u64 low = lowbit(options);
        int c = __builtin_ctzll(low);
        options ^= low;
        *visited |= low;
        int holder = st->color_edge[c];
        if (holder < 0 || kuhn(st, holder, visited)) {
            st->color_edge[c] = e;
            st->edge_color[e] = c;
            return 1;
        }
    }
    return 0;
}

static int push_edge(State *st, u64 option_mask)
{
    int e = st->n_edges;
    u64 visited = 0;
    st->edge_color[e] = -1;
    st->opts[e] = option_mask;
    st->n_edges++;
    if (kuhn(st, e, &visited))
        return 1;
    st->n_edges--;
    return 0;
}

static u64 option_mask(const State *st, int last, int v)
{
    u64 om = 0;
    for (int c = 0; c < st->m; c++)
        if ((st->adj[c * st->n + last] >> v) & 1)
            om |= 1ULL << c;
    return om;
}

/* Fill (option count, vertex, option mask) sorted by (count, vertex). */
static int order_candidates(const State *st, int last, u64 cand,
                            int *cnt, int *vert, u64 *oms)
{
    int ncand = 0;
    for (u64 rest = cand; rest; rest ^= lowbit(rest)) {
        int v = __builtin_ctzll(rest);
        u64 om = option_mask(st, last, v);
        if (om) {
            cnt[ncand] = __builtin_popcountll(om);
            vert[ncand] = v;
            oms[ncand] = om;
            ncand++;
        }
    }
    /* insertion sort by (count, vertex); vertices are distinct */
    for (int i = 1; i < ncand; i++) {
        int ck = cnt[i], vk = vert[i];
        u64 ok = oms[i];
        int j = i - 1;
        while (j >= 0 && (cnt[j] > ck || (cnt[j] == ck && vert[j] > vk))) {
            cnt[j + 1] = cnt[j];
            vert[j + 1] = vert[j];
            oms[j + 1] = oms[j];
            j--;
        }
        cnt[j + 1] = ck;
        vert[j + 1] = vk;
        oms[j + 1] = ok;
    }
    return ncand;
}

/* Try each candidate after `last` in order: admit its edge, recurse, undo.
 * `rem` is the largest distance to the target a candidate may have. */
static inline int try_candidates(State *st, u64 used, int last, u64 cand, int rem,
                          int (*extend)(State *, u64))
{
    int cnt[MAXN], vert[MAXN];
    u64 oms[MAXN];
    int snap_ce[MAXN], snap_ec[MAXN];
    int ncand = order_candidates(st, last, cand, cnt, vert, oms);
    for (int i = 0; i < ncand; i++) {
        int v = vert[i];
        if (st->dist[v] > rem)
            continue;
        memcpy(snap_ce, st->color_edge, st->m * sizeof(int));
        int snap_ne = st->n_edges;
        memcpy(snap_ec, st->edge_color, snap_ne * sizeof(int));
        if (!push_edge(st, oms[i]))
            continue;
        st->path[st->depth++] = v;
        int r = extend(st, used | (1ULL << v));
        if (r != 0)
            return r;
        st->depth--;
        memcpy(st->color_edge, snap_ce, st->m * sizeof(int));
        memcpy(st->edge_color, snap_ec, snap_ne * sizeof(int));
        st->n_edges = snap_ne;
    }
    return 0;
}

static int path_extend(State *st, u64 used)
{
    if (++st->nodes > st->node_limit)
        return ABORT;
    int d = st->depth - 1;
    if (d == st->k - 1)
        return 1;
    int last = st->path[st->depth - 1];
    u64 cand;
    if (d == st->k - 2)
        cand = st->rows[last] & st->ybit;
    else
        cand = st->rows[last] & ~used & ~st->ybit;
    return try_candidates(st, used, last, cand, st->k - 2 - d, path_extend);
}

static int cycle_extend(State *st, u64 used)
{
    if (++st->nodes > st->node_limit)
        return ABORT;
    int d = st->depth - 1;
    int last = st->path[st->depth - 1];
    if (d == st->k - 1) {
        if (st->path[1] > last)
            return 0;
        if (!((st->rows[last] >> st->start) & 1))
            return 0;
        return push_edge(st, option_mask(st, last, st->start));
    }
    /* Reflection bound: the closing vertex is an unvisited neighbour of the
     * start above path[1]; with none left, every leaf below is rejected.
     * 2ULL << 63 is 0, so the mask is empty when path[1] is 63. */
    if (d >= 1 && !(st->rows[st->start] & st->higher & ~used
                    & ~((2ULL << st->path[1]) - 1)))
        return 0;
    return try_candidates(st, used, last, st->rows[last] & st->higher & ~used,
                          st->k - 1 - d, cycle_extend);
}

/* Check n and m, then copy adj into st and build the union rows. Returns 0,
 * or -1 with an exception set. */
static int init_state(State *st, int n, int m, PyObject *adj, long long node_limit)
{
    if (n < 0 || n > MAXN) {
        PyErr_Format(PyExc_ValueError, "n=%d outside [0, %d]", n, MAXN);
        return -1;
    }
    if (m < 0 || m > MAXN) {
        PyErr_Format(PyExc_ValueError, "m=%d outside [0, %d]", m, MAXN);
        return -1;
    }
    PyObject *seq = PySequence_Fast(adj, "adj must be a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq);
    if (len != (Py_ssize_t)m * n) {
        PyErr_Format(PyExc_ValueError, "adj has %zd rows, not m*n = %d",
                     len, m * n);
        Py_DECREF(seq);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < len; i++) {
        u64 row = as_u64(items[i]);
        if (row == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (n < MAXN && row >> n) {
            PyErr_Format(PyExc_OverflowError,
                         "adj[%zd] has a bit at or above n=%d", i, n);
            Py_DECREF(seq);
            return -1;
        }
        st->adj[i] = row;
    }
    Py_DECREF(seq);
    st->n = n;
    st->m = m;
    st->node_limit = node_limit;
    st->nodes = 0;
    st->n_edges = 0;
    for (int c = 0; c < m; c++)
        st->color_edge[c] = -1;
    build_rows(st);
    return 0;
}

/* The vertex mask as an n-bit word. Returns 0, or -1 with an exception set. */
static int vertex_mask(PyObject *vmask, int n, u64 *out)
{
    u64 vm = as_u64(vmask);
    if (vm == (u64)-1 && PyErr_Occurred())
        return -1;
    if (n < MAXN && vm >> n) {
        PyErr_Format(PyExc_OverflowError, "vmask has a bit at or above n=%d", n);
        return -1;
    }
    *out = vm;
    return 0;
}

static PyObject *int_list(const int *values, int count)
{
    PyObject *list = PyList_New(count);
    if (list == NULL)
        return NULL;
    for (int i = 0; i < count; i++) {
        PyObject *item = PyLong_FromLong(values[i]);
        if (item == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

/* (status, vertices, colors, nodes) for the search result r. */
static PyObject *result(const State *st, int r)
{
    if (r == ABORT)
        return Py_BuildValue("(iOOL)", BUDGET, Py_None, Py_None, st->nodes);
    if (r == 0)
        return Py_BuildValue("(iOOL)", NONE, Py_None, Py_None, st->nodes);
    PyObject *verts = int_list(st->path, st->depth);
    if (verts == NULL)
        return NULL;
    PyObject *cols = int_list(st->edge_color, st->n_edges);
    if (cols == NULL) {
        Py_DECREF(verts);
        return NULL;
    }
    return Py_BuildValue("(iNNL)", FOUND, verts, cols, st->nodes);
}

PyDoc_STRVAR(find_path_doc,
"find_path(n, m, adj, x, y, k, vmask, node_limit)\n\n"
"Exact k-vertex rainbow path from x to y. Returns (status, vertices,\n"
"colors, nodes); vertices/colors are None unless status == FOUND.");

static PyObject *find_path(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "m", "adj", "x", "y", "k", "vmask",
                             "node_limit", NULL};
    int n, m, x, y, k;
    PyObject *adj, *vmask;
    long long node_limit;
    State st;
    u64 vm;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOiiiOL:find_path", kwlist,
                                     &n, &m, &adj, &x, &y, &k, &vmask, &node_limit))
        return NULL;
    if (init_state(&st, n, m, adj, node_limit) < 0)
        return NULL;
    if (x < 0 || x >= n || y < 0 || y >= n)
        return PyErr_Format(PyExc_ValueError, "x=%d or y=%d outside [0, %d)", x, y, n);
    if (k > n)
        return PyErr_Format(PyExc_ValueError, "k=%d exceeds n=%d", k, n);
    if (vertex_mask(vmask, n, &vm) < 0)
        return NULL;
    bfs(&st, y, vm);
    if (st.dist[x] > k - 1)
        return result(&st, 0);
    st.k = k;
    st.ybit = 1ULL << y;
    st.path[0] = x;
    st.depth = 1;
    return result(&st, path_extend(&st, 1ULL << x));
}

PyDoc_STRVAR(find_cycle_doc,
"find_cycle(n, m, adj, length, vmask, node_limit)\n\n"
"Rainbow cycle on exactly `length` vertices. Start vertex is the cycle\n"
"minimum; reflections are broken by second < last vertex id, and a branch\n"
"stops once no unvisited neighbour of the start above the second vertex is\n"
"left to close the cycle.");

static PyObject *find_cycle(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "m", "adj", "length", "vmask", "node_limit",
                             NULL};
    int n, m, length;
    PyObject *adj, *vmask;
    long long node_limit;
    State st;
    u64 vm;
    int r = 0;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOiOL:find_cycle", kwlist,
                                     &n, &m, &adj, &length, &vmask, &node_limit))
        return NULL;
    if (init_state(&st, n, m, adj, node_limit) < 0)
        return NULL;
    if (length < 3 || length > n)
        return PyErr_Format(PyExc_ValueError, "length=%d outside [3, %d]", length, n);
    if (vertex_mask(vmask, n, &vm) < 0)
        return NULL;
    for (u64 rest = vm; rest; rest ^= lowbit(rest)) {
        int s = __builtin_ctzll(rest);
        st.higher = vm & ~((2ULL << s) - 1);
        if (__builtin_popcountll(st.higher) + 1 < length)
            break;
        bfs(&st, s, st.higher | (1ULL << s));
        st.k = length;
        st.start = s;
        st.path[0] = s;
        st.depth = 1;
        r = cycle_extend(&st, 1ULL << s);
        if (r != 0)
            break;
    }
    return result(&st, r);
}

static PyMethodDef methods[] = {
    {"find_path", (PyCFunction)(void (*)(void))find_path,
     METH_VARARGS | METH_KEYWORDS, find_path_doc},
    {"find_cycle", (PyCFunction)(void (*)(void))find_cycle,
     METH_VARARGS | METH_KEYWORDS, find_cycle_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "rainbowpan._kernel",
    .m_doc = "Compiled search kernel, the twin of rainbowpan._kernel_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddIntConstant(mod, "FOUND", FOUND) < 0
        || PyModule_AddIntConstant(mod, "NONE", NONE) < 0
        || PyModule_AddIntConstant(mod, "BUDGET", BUDGET) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
