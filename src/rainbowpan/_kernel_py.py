"""Pure-Python search kernel: exact k-path / k-cycle search with an
injective edge->color assignment maintained incrementally.

This is the reference implementation. rainbowpan._kernel (Cython) mirrors it
operation for operation; both must return byte-identical witnesses and node
counts, which the parity tests pin down.

Interface contract (shared by both kernels):
  adj is a flat list of m*n ints, adj[c*n + v] = bitmask of v's neighbors in
  color c, already restricted to surviving vertices and colors. Color values
  in results are positions 0..m-1 into that array; the caller re-maps them to
  base collection ids.

Determinism: candidates are tried by (fewest colors carrying the new edge,
then smallest vertex id); augmenting steps scan colors in ascending order.
"""
from __future__ import annotations

FOUND = 0
NONE = 1
BUDGET = 2

_INF = 1 << 20


class _Budget(Exception):
    pass


def _union_rows(n: int, adj: list[int]) -> list[int]:
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


class _Search:
    """Shared DFS state for one kernel call."""

    def __init__(self, n, m, adj, node_limit):
        self.n = n
        self.adj = adj
        self.node_limit = node_limit
        self.nodes = 0
        self.color_edge = [-1] * m  # color -> edge index
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
        """(option count, vertex, option mask) sorted fail-first. As in
        `_order_candidates` of `_kernel.pyx`, each candidate vertex tests
        every color; vertices are distinct, so the sort is by (count, vertex)."""
        out = []
        col = self.adj[last::self.n]  # last's row in each color
        while cand_mask:
            low = cand_mask & -cand_mask
            cand_mask ^= low
            om = 0
            bit = 1
            for row in col:
                if row & low:
                    om |= bit
                bit <<= 1
            if om:
                out.append((om.bit_count(), low.bit_length() - 1, om))
        out.sort()
        return out


def find_path(n, m, adj, x, y, k, vmask, node_limit):
    """Exact k-vertex rainbow path from x to y. Returns (status, vertices,
    colors, nodes); vertices/colors are None unless status == FOUND."""
    rows = _union_rows(n, adj)
    dist = _bfs(n, rows, y, vmask)
    if dist[x] > k - 1:
        return (NONE, None, None, 0)
    st = _Search(n, m, adj, node_limit)
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
    minimum; reflections are broken by second < last vertex id."""
    rows = _union_rows(n, adj)
    st = _Search(n, m, adj, node_limit)
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
        dist = _bfs(n, rows, s, scope)
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
                om = 0
                bit = 1
                for row in st.adj[last::st.n]:
                    if row & sbit:
                        om |= bit
                    bit <<= 1
                snap = st.snapshot()
                if st.push_edge(om):
                    return True
                st.restore(snap)
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
