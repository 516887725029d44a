/* Compiled search kernel. Mirrors rainbowpan._kernel_py function for
 * function (`State` is its `_Search`; path_extend, own_nodes, close_path,
 * cycle_extend, try_candidates, order_candidates, push_edge, kuhn and result
 * are `_Search` methods, order_candidates as `ordered_candidates`; build_rows
 * is `_union_rows`, bfs is `_bfs` and walk is `_walk`) and operation for
 * operation: identical candidate ordering, augmenting order, node counting,
 * witnesses. The parity tests compare both on the same queries.
 *
 * Path queries walk the tree of paths from x that avoid y once for a set of
 * pending lengths k (see walk); find_path is that walk with one length. The
 * step to y is one more candidate of try_candidates, which reaches
 * close_path, so every edge a walk admits is admitted and undone there. A
 * walk gives up once it has spent more nodes than `allowance`, what one
 * query per length would have spent (see path_extend and the pure kernel's
 * module docstring).
 *
 * The input adj is one bytes object of m*n native-endian 64-bit words, word
 * c*n + v holding v's row in the c-th color; init_state reads m from its
 * length and copies it with one memcpy. The vertices a search may visit are
 * `live`, those with an edge in some color. Written by hand against the
 * limited C API (PEP 384), so the module reads no interpreter internals.
 * Every input is checked before it reaches a table: all tables are fixed
 * 64-slot arrays, so n, m, the vertex arguments and every bit of adj must
 * fit them. The pure kernel raises the same errors for the same inputs.
 */
#define PY_SSIZE_T_CLEAN
#define Py_LIMITED_API 0x030A0000
#include <Python.h>
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
    u64 live;              /* vertices with an edge in some color */
    int dist[MAXN];
    long long node_limit;
    long long nodes;
    int color_edge[MAXN];  /* color -> edge index, -1 free */
    int edge_color[MAXN];  /* edge index -> color */
    u64 opts[MAXN];        /* edge index -> option mask at assignment time */
    int n_edges;
    int path[MAXN + 1];
    int depth;             /* vertices currently in path */
    int k;                 /* largest pending path length / cycle length */
    int start;             /* cycle start vertex */
    int y;                 /* path target */
    u64 pending;           /* bit k-2 for each path length still without a path */
    u64 found;             /* bit k-2 for each path length with a witness */
    int wverts[MAXN - 1][MAXN];     /* k-2 -> the witness's k vertices */
    int wcols[MAXN - 1][MAXN - 1];  /* k-2 -> its k-1 edge colors */
    int low;               /* smallest pending path length */
    long long own[MAXN + 1];  /* s -> walk nodes whose shortest own length is s */
    long long allowance;   /* nodes the queries for the found lengths and `low` alone spend */
    u64 higher;
} State;

static inline u64 lowbit(u64 x) { return x & (~x + 1); }

static void build_rows(State *st)
{
    st->live = 0;
    for (int v = 0; v < st->n; v++) {
        u64 row = 0;
        for (int c = 0; c < st->m; c++)
            row |= st->adj[c * st->n + v];
        st->rows[v] = row;
        if (row)
            st->live |= 1ULL << v;
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
 * `k - spent` is the largest distance to the target a candidate may have,
 * read for each candidate: a path walk lowers k when it records the
 * largest pending length. */
static inline int try_candidates(State *st, u64 used, int last, u64 cand, int spent,
                          int (*extend)(State *, u64))
{
    int cnt[MAXN], vert[MAXN];
    u64 oms[MAXN];
    int snap_ce[MAXN], snap_ec[MAXN];
    int ncand = order_candidates(st, last, cand, cnt, vert, oms);
    for (int i = 0; i < ncand; i++) {
        int v = vert[i];
        if (st->dist[v] > st->k - spent)
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

/* The walk nodes so far that a query for k alone visits too. */
static long long own_nodes(const State *st, int k)
{
    long long total = 0;
    for (int s = 0; s <= k; s++)
        total += st->own[s];
    return total;
}

/* The node that try_candidates reaches by the step to y: it counts one node,
 * records the path and the matching's colors as the witness of k = depth and
 * drops k. Returns ABORT, 1 when no length is left pending, else 0. */
static int close_path(State *st, u64 used)
{
    (void)used;
    if (++st->nodes > st->node_limit)
        return ABORT;
    int k = st->depth;
    memcpy(st->wverts[k - 2], st->path, k * sizeof(int));
    memcpy(st->wcols[k - 2], st->edge_color, (k - 1) * sizeof(int));
    st->found |= 1ULL << (k - 2);
    st->pending &= ~(1ULL << (k - 2));
    if (!st->pending)
        return 1;
    st->k = 65 - __builtin_clzll(st->pending);
    if (k == st->low) {
        st->low = __builtin_ctzll(st->pending) + 2;
        st->allowance += 1 + own_nodes(st, st->low);
    } else {
        st->allowance += own_nodes(st, k) + 1;
    }
    return 0;
}

/* A node with d edges placed: the step to y, as a candidate, when k = d + 2
 * is pending, then the children, kept while they can still reach y within
 * the largest pending length. The walk gives up, as a budget stop, at a
 * node that a query for the smallest pending length would not visit once it
 * has spent more than `allowance` nodes. */
static int path_extend(State *st, u64 used)
{
    if (++st->nodes > st->node_limit)
        return ABORT;
    int d = st->depth - 1;
    int last = st->path[d];
    int s = st->dist[last] + d + 1;  /* the shortest length whose query visits this node */
    st->own[s]++;
    if (s <= st->low)
        st->allowance++;
    else if (st->nodes > st->allowance)
        return ABORT;
    if ((st->pending >> d) & (st->rows[last] >> st->y) & 1) {
        int r = try_candidates(st, used, last, 1ULL << st->y, d + 2, close_path);
        if (r != 0)
            return r;
    }
    if (d + 2 >= st->k)
        return 0;
    return try_candidates(st, used, last, st->rows[last] & ~used & ~(1ULL << st->y),
                          d + 2, path_extend);
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
                          d + 1, cycle_extend);
}

/* Check n and the length of adj, which gives m, then copy adj into st and
 * build the union rows. Returns 0, or -1 with an exception set. */
static int init_state(State *st, int n, PyObject *adj, long long node_limit)
{
    if (n < 0 || n > MAXN) {
        PyErr_Format(PyExc_ValueError, "n=%d outside [0, %d]", n, MAXN);
        return -1;
    }
    char *bytes;
    Py_ssize_t len;
    if (PyBytes_AsStringAndSize(adj, &bytes, &len) < 0)
        return -1;
    Py_ssize_t m = n ? len / ((Py_ssize_t)sizeof(u64) * n) : 0;
    if (m > MAXN || len != (Py_ssize_t)sizeof(u64) * m * n) {
        PyErr_Format(PyExc_ValueError,
                     "adj has %zd bytes, not 8*m*n for n=%d and some m in [0, %d]",
                     len, n, MAXN);
        return -1;
    }
    memcpy(st->adj, bytes, len);
    u64 bits = 0;
    for (int i = 0; i < m * n; i++)
        bits |= st->adj[i];
    if (n < MAXN && bits >> n) {
        PyErr_Format(PyExc_OverflowError, "adj has a bit at or above n=%d", n);
        return -1;
    }
    st->n = n;
    st->m = (int)m;
    st->node_limit = node_limit;
    st->nodes = 0;
    st->n_edges = 0;
    st->pending = 0;
    st->found = 0;
    for (int c = 0; c < m; c++)
        st->color_edge[c] = -1;
    build_rows(st);
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
        PyList_SetItem(list, i, item);  /* steals item; cannot fail here */
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

/* Check a path query and walk the tree of paths from x that avoid y once,
 * for every length in [k_lo, k_hi] that the distance from x to y allows.
 * Candidates come in the same order at every length, the matching at a node
 * depends only on the path to it, and the distance prune removes only
 * subtrees with no path of a pending length; so each length's witness is
 * the first in preorder, the path a walk for that length alone records.
 * Sets *r to the search result (1 when every length got a path) and returns
 * 0, or returns -1 with an exception set. */
static int walk(State *st, int n, PyObject *adj, int x, int y, int k_lo, int k_hi,
                long long node_limit, int *r)
{
    if (init_state(st, n, adj, node_limit) < 0)
        return -1;
    if (x < 0 || x >= n || y < 0 || y >= n) {
        PyErr_Format(PyExc_ValueError, "x=%d or y=%d outside [0, %d)", x, y, n);
        return -1;
    }
    if (k_hi > n) {
        PyErr_Format(PyExc_ValueError, "k=%d exceeds n=%d", k_hi, n);
        return -1;
    }
    bfs(st, y, st->live);
    int lo = st->dist[x] + 1;
    if (lo < k_lo)
        lo = k_lo;
    if (lo < 2)
        lo = 2;
    *r = 0;
    if (lo > k_hi)
        return 0;
    st->pending = (2ULL << (k_hi - 2)) - (1ULL << (lo - 2));
    st->k = k_hi;
    st->low = lo;
    memset(st->own, 0, sizeof st->own);
    st->allowance = 0;
    st->y = y;
    st->path[0] = x;
    st->depth = 1;
    *r = path_extend(st, 1ULL << x);
    return 0;
}

PyDoc_STRVAR(find_path_doc,
"find_path(n, adj, x, y, k, node_limit)\n\n"
"Exact k-vertex rainbow path from x to y. Returns (status, vertices,\n"
"colors, nodes); vertices/colors are None unless status == FOUND.");

static PyObject *find_path(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "adj", "x", "y", "k", "node_limit", NULL};
    int n, x, y, k, r;
    PyObject *adj;
    long long node_limit;
    State st;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOiiiL:find_path", kwlist,
                                     &n, &adj, &x, &y, &k, &node_limit))
        return NULL;
    if (walk(&st, n, adj, x, y, k, k, node_limit, &r) < 0)
        return NULL;
    if (r == 1)
        return Py_BuildValue("(iNNL)", FOUND, int_list(st.wverts[k - 2], k),
                             int_list(st.wcols[k - 2], k - 1), st.nodes);
    return result(&st, r);
}

PyDoc_STRVAR(find_paths_doc,
"find_paths(n, adj, x, y, k_lo, k_hi, node_limit)\n\n"
"Rainbow paths from x to y on every k in [k_lo, k_hi], from one walk of\n"
"the search tree. Returns (status, {k: (vertices, colors)}, nodes), each\n"
"witness the one find_path gives for its k. status is BUDGET when the\n"
"walk stopped undecided, on the node limit or giving up, else FOUND or\n"
"NONE as some k has a path or none has; a k missing from the dict of a\n"
"decided walk has no path.");

static PyObject *find_paths(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "adj", "x", "y", "k_lo", "k_hi", "node_limit",
                             NULL};
    int n, x, y, k_lo, k_hi, r;
    PyObject *adj;
    long long node_limit;
    State st;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOiiiiL:find_paths", kwlist,
                                     &n, &adj, &x, &y, &k_lo, &k_hi, &node_limit))
        return NULL;
    if (walk(&st, n, adj, x, y, k_lo, k_hi, node_limit, &r) < 0)
        return NULL;
    PyObject *paths = PyDict_New();
    if (paths == NULL)
        return NULL;
    for (u64 rest = st.found; rest; rest ^= lowbit(rest)) {
        int k = __builtin_ctzll(rest) + 2;
        PyObject *key = PyLong_FromLong(k);
        PyObject *value = Py_BuildValue("(NN)", int_list(st.wverts[k - 2], k),
                                        int_list(st.wcols[k - 2], k - 1));
        /* PyDict_SetItem takes its own references to key and value */
        int failed = key == NULL || value == NULL || PyDict_SetItem(paths, key, value) < 0;
        Py_XDECREF(key);
        Py_XDECREF(value);
        if (failed) {
            Py_DECREF(paths);
            return NULL;
        }
    }
    int status = r == ABORT ? BUDGET : st.found ? FOUND : NONE;
    return Py_BuildValue("(iNL)", status, paths, st.nodes);
}

PyDoc_STRVAR(find_cycle_doc,
"find_cycle(n, adj, length, node_limit)\n\n"
"Rainbow cycle on exactly `length` vertices. Start vertex is the cycle\n"
"minimum; reflections are broken by second < last vertex id, and a branch\n"
"stops once no unvisited neighbour of the start above the second vertex is\n"
"left to close the cycle.");

static PyObject *find_cycle(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "adj", "length", "node_limit", NULL};
    int n, length;
    PyObject *adj;
    long long node_limit;
    State st;
    int r = 0;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOiL:find_cycle", kwlist,
                                     &n, &adj, &length, &node_limit))
        return NULL;
    if (init_state(&st, n, adj, node_limit) < 0)
        return NULL;
    if (length < 3 || length > n)
        return PyErr_Format(PyExc_ValueError, "length=%d outside [3, %d]", length, n);
    for (u64 rest = st.live; rest; rest ^= lowbit(rest)) {
        int s = __builtin_ctzll(rest);
        st.higher = st.live & ~((2ULL << s) - 1);
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
    {"find_paths", (PyCFunction)(void (*)(void))find_paths,
     METH_VARARGS | METH_KEYWORDS, find_paths_doc},
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
