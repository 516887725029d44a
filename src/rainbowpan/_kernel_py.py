"""Pure-Python search kernel: exact k-path / k-cycle search with an
injective edge->color assignment maintained incrementally.

This is the reference implementation. rainbowpan._kernel, hand-written C,
mirrors its search operation for operation: both kernels make the same
choices (the same candidates in the same order, the same augmenting steps)
and return identical witnesses and node counts, which the parity tests pin
down.

Interface contract (shared by both kernels):
  adj is a flat sequence of m*n ints, adj[c*n + v] = bitmask of v's neighbors
  in color c, already restricted to surviving vertices and colors. Color
  values in results are positions 0..m-1 into that array; the caller re-maps
  them to base collection ids.
  Both kernels raise ValueError when n or m is outside [0, 64], adj does not
  hold exactly m*n rows, x or y is outside [0, n), k exceeds n or length is
  outside [3, n], and OverflowError when a row of adj or vmask is negative
  or has a bit at or above n. The compiled kernel's tables are 64-slot
  arrays, so these inputs would read or write outside them; a cycle below
  3 vertices would read a second vertex the search never placed.

Determinism: candidates are tried by (fewest colors carrying the new edge,
then smallest vertex id); augmenting steps scan colors in ascending order.

Tables: the search reads its input through tables that depend on the input
alone: the union rows, the BFS distances by (source, scope), and for each
vertex `last` an option row whose entry v is the mask of colors joining last
and v. This kernel caches them (`_Tables`) where the compiled kernel
recomputes them in C (rows and distances per call, option masks per
search node). A one-slot cache keeps the tables of the last tuple `adj`
together with that tuple: a tuple cannot change, and holding it keeps its
id from being reused, so the same object means the same input. The search
layer passes each view's cached kernel input, one tuple, so every query on
one view reuses its tables. A list, which may change between calls, gets
tables for one call only. The checks on n, m and adj run when tables are
built, so a cache hit repeats none of them.
"""
from __future__ import annotations

FOUND = 0
NONE = 1
BUDGET = 2

_INF = 1 << 20


class _Budget(Exception):
    pass


_MAXN = 64  # the compiled kernel's table width


def _union_rows(n: int, adj) -> list[int]:
    rows = []
    for v in range(n):
        row = 0
        for r in adj[v::n]:  # v's row in each color
            row |= r
        rows.append(row)
    return rows


def _bfs(n: int, rows: list[int], src: int, vmask: int) -> list[int]:
    """Distance from src over the union graph restricted to vmask."""
    dist = [_INF] * n
    dist[src] = 0
    frontier = 1 << src
    seen = frontier
    d = 0
    while frontier:
        d += 1
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            nxt |= rows[low.bit_length() - 1]
            rest ^= low
        nxt &= vmask & ~seen
        rest = nxt
        while rest:
            low = rest & -rest
            dist[low.bit_length() - 1] = d
            rest ^= low
        seen |= nxt
        frontier = nxt
    return dist


class _Tables:
    """The tables of one input: union rows built at once, BFS distances and
    option rows built on first use. Each entry depends on the input alone,
    so two calls that share the tables and fill one entry build the same
    value."""

    __slots__ = ("n", "m", "adj", "rows", "dists", "options")

    def __init__(self, n, m, adj):
        if not 0 <= n <= _MAXN:
            raise ValueError(f"n={n} outside [0, {_MAXN}]")
        if not 0 <= m <= _MAXN:
            raise ValueError(f"m={m} outside [0, {_MAXN}]")
        if len(adj) != m * n:
            raise ValueError(f"adj has {len(adj)} rows, not m*n = {m * n}")
        if adj and (min(adj) < 0 or max(adj) >> n):
            raise OverflowError(f"adj has a row that is not an {n}-bit mask")
        self.n = n
        self.m = m
        self.adj = adj
        self.rows = _union_rows(n, adj)
        self.dists: dict[tuple[int, int], list[int]] = {}
        self.options: list[list[int] | None] = [None] * n

    def dist(self, src: int, scope: int) -> list[int]:
        key = (src, scope)
        dist = self.dists.get(key)
        if dist is None:
            dist = self.dists[key] = _bfs(self.n, self.rows, src, scope)
        return dist

    def option_row(self, last: int) -> list[int]:
        """Entry v is the mask of colors joining last and v."""
        row = self.options[last]
        if row is None:
            row = [0] * self.n
            bit = 1
            for rest in self.adj[last::self.n]:  # last's row in each color
                while rest:
                    low = rest & -rest
                    row[low.bit_length() - 1] |= bit
                    rest ^= low
                bit <<= 1
            self.options[last] = row
        return row


_cached: _Tables | None = None  # the tables of the last tuple input


def _tables(n: int, m: int, adj) -> _Tables:
    """The cached tables when adj is the tuple the slot holds, else new ones,
    which take the slot when adj is a tuple."""
    global _cached
    tables = _cached
    if tables is not None and tables.adj is adj and tables.n == n and tables.m == m:
        return tables
    tables = _Tables(n, m, adj)
    if type(adj) is tuple:
        _cached = tables
    return tables


class _Search:
    """Shared DFS state for one kernel call."""

    def __init__(self, tables: _Tables, node_limit):
        self.tables = tables
        self.node_limit = node_limit
        self.nodes = 0
        self.color_edge = [-1] * tables.m  # color -> edge index
        self.edge_color: list[int] = []  # edge index -> color
        self.opts: list[int] = []  # edge index -> option mask at assignment time

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise _Budget

    # -- incremental injective assignment (augmenting step per new edge) --

    def _kuhn(self, e: int, visited: int) -> tuple[bool, int]:
        free = self.opts[e] & ~visited
        while free:
            low = free & -free
            c = low.bit_length() - 1
            free ^= low
            visited |= low
            holder = self.color_edge[c]
            if holder < 0:
                ok = True
            else:
                ok, visited = self._kuhn(holder, visited)
            if ok:
                self.color_edge[c] = e
                self.edge_color[e] = c
                return True, visited
        return False, visited

    def push_edge(self, option_mask: int) -> bool:
        """Try to admit one more edge with the given color options.

        On failure the matching is untouched. On success the caller must
        eventually undo with pop_edge(snapshot) using the returned state.
        """
        e = len(self.edge_color)
        self.edge_color.append(-1)
        self.opts.append(option_mask)
        ok, _ = self._kuhn(e, 0)
        if not ok:
            self.edge_color.pop()
            self.opts.pop()
        return ok

    def snapshot(self) -> tuple[list[int], list[int]]:
        return (self.color_edge.copy(), self.edge_color.copy())

    def restore(self, snap: tuple[list[int], list[int]]) -> None:
        self.color_edge[:] = snap[0]
        self.edge_color[:] = snap[1]
        del self.opts[len(self.edge_color):]

    # -- candidate enumeration --

    def ordered_candidates(self, last: int, cand_mask: int) -> list[tuple[int, int, int]]:
        """(option count, vertex, option mask) sorted fail-first, one lookup
        in last's option row per candidate vertex. `order_candidates` of
        `_kernel.c` makes the same list by testing every color for every
        candidate; vertices are distinct, so the sort is by (count, vertex)."""
        out = []
        row = self.tables.option_row(last)
        while cand_mask:
            low = cand_mask & -cand_mask
            cand_mask ^= low
            v = low.bit_length() - 1
            om = row[v]
            if om:
                out.append((om.bit_count(), v, om))
        out.sort()
        return out


def _check_vertex_mask(vmask: int, n: int) -> None:
    if vmask < 0 or vmask >> n:
        raise OverflowError(f"vmask is not an {n}-bit mask")


def find_path(n, m, adj, x, y, k, vmask, node_limit):
    """Exact k-vertex rainbow path from x to y. Returns (status, vertices,
    colors, nodes); vertices/colors are None unless status == FOUND."""
    tables = _tables(n, m, adj)
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"x={x} or y={y} outside [0, {n})")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    _check_vertex_mask(vmask, n)
    rows = tables.rows
    dist = tables.dist(y, vmask)
    if dist[x] > k - 1:
        return (NONE, None, None, 0)
    st = _Search(tables, node_limit)
    path = [x]
    ybit = 1 << y

    def extend(used: int) -> bool:
        st.tick()
        d = len(path) - 1  # edges placed
        if d == k - 1:
            return True
        last = path[-1]
        if d == k - 2:
            cand = rows[last] & ybit
        else:
            cand = rows[last] & ~used & ~ybit
        rem_after = k - 2 - d
        for _, v, om in st.ordered_candidates(last, cand):
            if dist[v] > rem_after:
                continue
            snap = st.snapshot()
            if not st.push_edge(om):
                continue
            path.append(v)
            if extend(used | (1 << v)):
                return True
            path.pop()
            st.restore(snap)
        return False

    try:
        ok = extend(1 << x)
    except _Budget:
        return (BUDGET, None, None, st.nodes)
    finally:
        # the closure refers to itself through its cell; break that cycle so
        # reference counting frees the search state
        extend = None
    if not ok:
        return (NONE, None, None, st.nodes)
    return (FOUND, list(path), st.edge_color.copy(), st.nodes)


def find_cycle(n, m, adj, length, vmask, node_limit):
    """Rainbow cycle on exactly `length` vertices. Start vertex is the cycle
    minimum; reflections are broken by second < last vertex id, and a branch
    stops once no unvisited neighbour of the start above the second vertex
    is left to close the cycle."""
    tables = _tables(n, m, adj)
    if not 3 <= length <= n:
        raise ValueError(f"length={length} outside [3, {n}]")
    _check_vertex_mask(vmask, n)
    rows = tables.rows
    st = _Search(tables, node_limit)
    result = None

    rest = vmask
    while rest:
        low = rest & -rest
        rest ^= low
        s = low.bit_length() - 1
        higher = vmask & ~((1 << (s + 1)) - 1)
        if higher.bit_count() + 1 < length:
            break
        scope = higher | (1 << s)
        dist = tables.dist(s, scope)
        path = [s]
        sbit = 1 << s

        def extend(used: int) -> bool:
            st.tick()
            d = len(path) - 1
            last = path[-1]
            if d == length - 1:
                if path[1] > path[-1]:
                    return False
                if not (rows[last] >> s) & 1:
                    return False
                snap = st.snapshot()
                if st.push_edge(tables.option_row(last)[s]):
                    return True
                st.restore(snap)
                return False
            # reflection bound: the closing vertex is an unvisited neighbour
            # of s above path[1]; with none left, every leaf below is rejected
            if d and not (rows[s] & higher & ~used) >> (path[1] + 1):
                return False
            cand = rows[last] & higher & ~used
            rem = length - 1 - d
            for _, v, om in st.ordered_candidates(last, cand):
                if dist[v] > rem:
                    continue
                snap = st.snapshot()
                if not st.push_edge(om):
                    continue
                path.append(v)
                if extend(used | (1 << v)):
                    return True
                path.pop()
                st.restore(snap)
            return False

        try:
            if extend(sbit):
                result = (list(path), st.edge_color.copy())
                break
        except _Budget:
            return (BUDGET, None, None, st.nodes)
        finally:
            extend = None  # as in find_path: no self-referencing closure left
        if st.edge_color:
            raise RuntimeError("matching not unwound between start vertices")

    if result is None:
        return (NONE, None, None, st.nodes)
    return (FOUND, result[0], result[1], st.nodes)
