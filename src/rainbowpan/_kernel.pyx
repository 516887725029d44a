# cython: language_level=3, boundscheck=False, wraparound=False
"""No longer built; deleted together with the `kernel_pyx_sha256` field of
`perfbench/kernel_build.provenance()`, which hashes this file (ROADMAP.md).

The Cython source of the former generated kernel. The compiled kernel is
the hand-written `_kernel.c`, which adds the cycle reflection bound and the
input checks this file lacks."""

from libc.stdlib cimport free, malloc
from libc.string cimport memcpy

cdef extern from *:
    int __builtin_ctzll(unsigned long long)
    int __builtin_popcountll(unsigned long long)

ctypedef unsigned long long u64

FOUND = 0
NONE = 1
BUDGET = 2

cdef int _INF = 1 << 20
cdef int _ABORT = -2


cdef struct State:
    int n
    int m
    u64 *adj            # m*n rows, adj[c*n + v]
    u64 rows[64]        # union adjacency
    int dist[64]
    long long node_limit
    long long nodes
    int color_edge[64]  # color -> edge index, -1 free
    int edge_color[64]  # edge index -> color
    u64 opts[64]        # edge index -> option mask at assignment time
    int n_edges
    int path[65]
    int depth           # vertices currently in path
    int k               # target vertex count / cycle length
    int start           # cycle start vertex
    u64 ybit
    u64 higher


cdef void _build_rows(State *st):
    cdef int v, c
    cdef u64 row
    for v in range(st.n):
        row = 0
        for c in range(st.m):
            row |= st.adj[c * st.n + v]
        st.rows[v] = row


cdef void _bfs(State *st, int src, u64 scope):
    cdef int i, v, d
    cdef u64 frontier, seen, nxt, rest, low
    for i in range(st.n):
        st.dist[i] = _INF
    st.dist[src] = 0
    frontier = (<u64>1) << src
    seen = frontier
    d = 0
    while frontier:
        d += 1
        nxt = 0
        rest = frontier
        while rest:
            low = rest & (~rest + 1)
            v = __builtin_ctzll(low)
            rest ^= low
            nxt |= st.rows[v]
        nxt &= scope & ~seen
        rest = nxt
        while rest:
            low = rest & (~rest + 1)
            st.dist[__builtin_ctzll(low)] = d
            rest ^= low
        seen |= nxt
        frontier = nxt


cdef bint _kuhn(State *st, int e, u64 *visited):
    # entry snapshot of untried options, as in the reference kernel
    cdef u64 options = st.opts[e] & ~visited[0]
    cdef u64 low
    cdef int c, holder
    cdef bint ok
    while options:
        low = options & (~options + 1)
        c = __builtin_ctzll(low)
        options ^= low
        visited[0] |= low
        holder = st.color_edge[c]
        if holder < 0:
            ok = True
        else:
            ok = _kuhn(st, holder, visited)
        if ok:
            st.color_edge[c] = e
            st.edge_color[e] = c
            return True
    return False


cdef bint _push_edge(State *st, u64 option_mask):
    cdef int e = st.n_edges
    cdef u64 visited = 0
    st.edge_color[e] = -1
    st.opts[e] = option_mask
    st.n_edges += 1
    if _kuhn(st, e, &visited):
        return True
    st.n_edges -= 1
    return False


cdef int _order_candidates(State *st, int last, u64 cand,
                           int *cnt, int *vert, u64 *oms):
    """Fill (option count, vertex, option mask) sorted by (count, vertex)."""
    cdef int ncand = 0
    cdef u64 rest = cand, low, om
    cdef int v, c, i, j, ck, vk
    cdef u64 ok_
    while rest:
        low = rest & (~rest + 1)
        v = __builtin_ctzll(low)
        rest ^= low
        om = 0
        for c in range(st.m):
            if (st.adj[c * st.n + last] >> v) & 1:
                om |= (<u64>1) << c
        if om:
            cnt[ncand] = __builtin_popcountll(om)
            vert[ncand] = v
            oms[ncand] = om
            ncand += 1
    # insertion sort by (count, vertex); vertices are distinct
    for i in range(1, ncand):
        ck = cnt[i]
        vk = vert[i]
        ok_ = oms[i]
        j = i - 1
        while j >= 0 and (cnt[j] > ck or (cnt[j] == ck and vert[j] > vk)):
            cnt[j + 1] = cnt[j]
            vert[j + 1] = vert[j]
            oms[j + 1] = oms[j]
            j -= 1
        cnt[j + 1] = ck
        vert[j + 1] = vk
        oms[j + 1] = ok_
    return ncand


cdef int _path_extend(State *st, u64 used):
    st.nodes += 1
    if st.nodes > st.node_limit:
        return _ABORT
    cdef int d = st.depth - 1
    if d == st.k - 1:
        return 1
    cdef int last = st.path[st.depth - 1]
    cdef u64 cand
    if d == st.k - 2:
        cand = st.rows[last] & st.ybit
    else:
        cand = st.rows[last] & ~used & ~st.ybit
    cdef int rem_after = st.k - 2 - d
    cdef int cnt[64]
    cdef int vert[64]
    cdef u64 oms[64]
    cdef int ncand = _order_candidates(st, last, cand, cnt, vert, oms)
    cdef int snap_ce[64]
    cdef int snap_ec[64]
    cdef int snap_ne
    cdef int i, v, r
    for i in range(ncand):
        v = vert[i]
        if st.dist[v] > rem_after:
            continue
        memcpy(snap_ce, st.color_edge, st.m * sizeof(int))
        snap_ne = st.n_edges
        memcpy(snap_ec, st.edge_color, snap_ne * sizeof(int))
        if not _push_edge(st, oms[i]):
            continue
        st.path[st.depth] = v
        st.depth += 1
        r = _path_extend(st, used | ((<u64>1) << v))
        if r != 0:
            return r
        st.depth -= 1
        memcpy(st.color_edge, snap_ce, st.m * sizeof(int))
        memcpy(st.edge_color, snap_ec, snap_ne * sizeof(int))
        st.n_edges = snap_ne
    return 0


cdef int _cycle_extend(State *st, u64 used):
    st.nodes += 1
    if st.nodes > st.node_limit:
        return _ABORT
    cdef int d = st.depth - 1
    cdef int last = st.path[st.depth - 1]
    cdef u64 om
    cdef int c
    if d == st.k - 1:
        if st.path[1] > st.path[st.depth - 1]:
            return 0
        if not (st.rows[last] >> st.start) & 1:
            return 0
        om = 0
        for c in range(st.m):
            if (st.adj[c * st.n + last] >> st.start) & 1:
                om |= (<u64>1) << c
        if _push_edge(st, om):
            return 1
        return 0
    cdef u64 cand = st.rows[last] & st.higher & ~used
    cdef int rem = st.k - 1 - d
    cdef int cnt[64]
    cdef int vert[64]
    cdef u64 oms[64]
    cdef int ncand = _order_candidates(st, last, cand, cnt, vert, oms)
    cdef int snap_ce[64]
    cdef int snap_ec[64]
    cdef int snap_ne
    cdef int i, v, r
    for i in range(ncand):
        v = vert[i]
        if st.dist[v] > rem:
            continue
        memcpy(snap_ce, st.color_edge, st.m * sizeof(int))
        snap_ne = st.n_edges
        memcpy(snap_ec, st.edge_color, snap_ne * sizeof(int))
        if not _push_edge(st, oms[i]):
            continue
        st.path[st.depth] = v
        st.depth += 1
        r = _cycle_extend(st, used | ((<u64>1) << v))
        if r != 0:
            return r
        st.depth -= 1
        memcpy(st.color_edge, snap_ce, st.m * sizeof(int))
        memcpy(st.edge_color, snap_ec, snap_ne * sizeof(int))
        st.n_edges = snap_ne
    return 0


cdef State *_new_state(int n, int m, object adj, long long node_limit) except NULL:
    cdef State *st = <State *>malloc(sizeof(State))
    if st == NULL:
        raise MemoryError
    st.n = n
    st.m = m
    st.node_limit = node_limit
    st.nodes = 0
    st.n_edges = 0
    cdef int i
    for i in range(m):
        st.color_edge[i] = -1
    st.adj = <u64 *>malloc(m * n * sizeof(u64))
    if st.adj == NULL:
        free(st)
        raise MemoryError
    for i in range(m * n):
        st.adj[i] = <u64>adj[i]
    _build_rows(st)
    return st


cdef void _free_state(State *st):
    free(st.adj)
    free(st)


def find_path(int n, int m, object adj, int x, int y, int k,
              object vmask, object node_limit):
    """Exact k-vertex rainbow path from x to y. Returns (status, vertices,
    colors, nodes); vertices/colors are None unless status == FOUND."""
    cdef State *st = _new_state(n, m, adj, <long long>node_limit)
    cdef u64 vm = <u64>vmask
    cdef int r, i
    try:
        _bfs(st, y, vm)
        if st.dist[x] > k - 1:
            return (NONE, None, None, 0)
        st.k = k
        st.ybit = (<u64>1) << y
        st.path[0] = x
        st.depth = 1
        r = _path_extend(st, (<u64>1) << x)
        if r == _ABORT:
            return (BUDGET, None, None, st.nodes)
        if r == 0:
            return (NONE, None, None, st.nodes)
        return (
            FOUND,
            [st.path[i] for i in range(st.depth)],
            [st.edge_color[i] for i in range(st.n_edges)],
            st.nodes,
        )
    finally:
        _free_state(st)


def find_cycle(int n, int m, object adj, int length,
               object vmask, object node_limit):
    """Rainbow cycle on exactly `length` vertices. Start vertex is the cycle
    minimum; reflections are broken by second < last vertex id."""
    cdef State *st = _new_state(n, m, adj, <long long>node_limit)
    cdef u64 vm = <u64>vmask
    cdef u64 rest, low, scope
    cdef int s, r, i
    cdef bint found = False
    try:
        rest = vm
        while rest:
            low = rest & (~rest + 1)
            s = __builtin_ctzll(low)
            rest ^= low
            st.higher = vm & ~(((<u64>2) << s) - 1)
            if __builtin_popcountll(st.higher) + 1 < length:
                break
            scope = st.higher | ((<u64>1) << s)
            _bfs(st, s, scope)
            st.k = length
            st.start = s
            st.path[0] = s
            st.depth = 1
            r = _cycle_extend(st, (<u64>1) << s)
            if r == _ABORT:
                return (BUDGET, None, None, st.nodes)
            if r == 1:
                found = True
                break
        if not found:
            return (NONE, None, None, st.nodes)
        return (
            FOUND,
            [st.path[i] for i in range(st.depth)],
            [st.edge_color[i] for i in range(st.n_edges)],
            st.nodes,
        )
    finally:
        _free_state(st)
