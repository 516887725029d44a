"""Pure-Python search kernel: exact k-path / k-cycle search with an
injective edge->color assignment maintained incrementally.

This is the reference implementation. rainbowpan._kernel, hand-written C,
mirrors its search operation for operation: both kernels make the same
choices (the same candidates in the same order, the same augmenting steps)
and return identical witnesses and node counts, which the parity tests pin
down.

Structure: the two kernels match function for function. `_Search` holds a
call's state, as `State` does in C. `find_cycle` checks its input, sets up
the state and calls `_Search.cycle_extend`; `find_path` and `find_paths`
call `_walk`, which checks a path query and calls `_Search.path_extend`.
Every edge a search admits goes through the one candidate loop
`_Search.try_candidates`, which snapshots the matching, admits the edge with
`push_edge` (an augmenting step, `kuhn`), recurses and undoes. A search
returns 1 (found), 0 (refuted) or `_ABORT` (budget), and `_Search.result`
turns that into a cycle query's answer. `_bfs` is C's `bfs`.

Path walk: a path query holds a set of pending lengths k and walks the tree
of paths from x that avoid y once for all of them. At a node with d edges
placed, when k = d + 2 is pending and the last vertex is adjacent to y, the
step to y is tried as the one candidate of `try_candidates`, with
`_Search.close_path` as the node it reaches: when the matching admits the
edge, that counts one node, records the path and the matching's colors as
k's witness and drops k, and `try_candidates` then undoes the step as it
does every other. Children are kept while their distance to y fits the
largest pending length, and the walk stops once nothing is pending.
Candidates come in the same order at every length, the matching at a node
depends only on the path to it, and the distance prune removes only
subtrees with no path of a pending length, so each length's witness is the
first in preorder: the path, colors and node count of a walk for that
length alone. `find_path` is that walk with one length, and `find_paths`
asks a whole range [k_lo, k_hi] at once.

A walk for many lengths can cost far more than the queries for them one at
a time: while a short length has no path, only exhausting the tree cut at
the longest pending length decides it, where its own query exhausts a
small tree. So the walk keeps the node count each length's own query would
have: a node with d edges placed and distance t to y is one that every
query for a length of at least t + d + 1 visits (distances change by at
most one a step, so that bound never drops along a path). `allowance` is
the sum of the counts of the lengths found so far and of the smallest
pending length `low`'s so far: a node with that bound at most `low` adds
one, finding a length k other than `low` adds k's count plus its own node,
and finding `low` moves `low` to the next pending length and adds one plus
the new `low`'s count. At a node that `low`'s query would not visit, the
walk gives up, as a budget stop, once its own count exceeds `allowance`.

Interface contract (shared by both kernels):
  adj is one bytes object of m*n native-endian 64-bit words: word c*n + v is
  the bitmask of v's neighbors in color c, already restricted to surviving
  vertices and colors. The kernel reads m from its length, m =
  len(adj) // (8*n), and takes as its vertex set `live`, the vertices with
  an edge in some color: no other vertex lies on a cycle or on a path of two
  or more vertices. Color values in results are positions 0..m-1 into that
  array; the caller re-maps them to base collection ids.
  Both kernels raise TypeError when adj is not bytes, ValueError when n is
  outside [0, 64], adj does not hold 8*m*n bytes for some m in [0, 64], x or
  y is outside [0, n), k or k_hi exceeds n or length is outside [3, n], and
  OverflowError when a word of adj has a bit at or above n. The compiled
  kernel's tables are 64-slot arrays, so these inputs would read or write
  outside them; a cycle below 3 vertices would read a second vertex the
  search never placed.

Determinism: candidates are tried by (fewest colors carrying the new edge,
then smallest vertex id); augmenting steps scan colors in ascending order.

Tables: the search reads its input through tables that depend on the input
alone: the words of adj as ints, the union rows and `live`, the BFS
distances by (source, scope), and for each vertex `last` an option row whose
entry v is the mask of colors joining last and v. This kernel caches them (`_Tables`)
where the compiled kernel recomputes them in C (rows and distances per
call, option masks per search node). A one-slot cache keeps the tables of
the last input together with that bytes object: bytes cannot change, and
holding the object keeps its id from being reused, so the same object means
the same input. The search layer passes each view's cached kernel input, so
every query on one view reuses its tables. The checks on n and adj run
when tables are built, so a cache hit repeats none of them.
"""
from __future__ import annotations

from array import array

FOUND = 0
NONE = 1
BUDGET = 2

_INF = 1 << 20
_ABORT = -2  # a search result: the node budget ran out


_MAXN = 64  # the compiled kernel's table width


def _union_rows(n: int, words: list[int]) -> list[int]:
    rows = []
    for v in range(n):
        row = 0
        for r in words[v::n]:  # v's row in each color
            row |= r
        rows.append(row)
    return rows


def _bfs(n: int, rows: list[int], src: int, scope: int) -> list[int]:
    """Distance from src over the union graph restricted to scope."""
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
        nxt &= scope & ~seen
        rest = nxt
        while rest:
            low = rest & -rest
            dist[low.bit_length() - 1] = d
            rest ^= low
        seen |= nxt
        frontier = nxt
    return dist


class _Tables:
    """The tables of one input: union rows and `live` built at once, BFS
    distances and option rows built on first use. Each entry depends on the
    input alone, so two calls that share the tables and fill one entry build
    the same value."""

    __slots__ = ("n", "m", "adj", "words", "rows", "live", "dists", "options")

    def __init__(self, n, adj):
        if not 0 <= n <= _MAXN:
            raise ValueError(f"n={n} outside [0, {_MAXN}]")
        if not isinstance(adj, bytes):
            raise TypeError(f"adj must be bytes, not {type(adj).__name__}")
        m = len(adj) // (8 * n) if n else 0
        if m > _MAXN or len(adj) != 8 * m * n:
            raise ValueError(
                f"adj has {len(adj)} bytes, not 8*m*n for n={n} and some m in [0, {_MAXN}]")
        words = array("Q", adj).tolist()
        if words and max(words) >> n:
            raise OverflowError(f"adj has a bit at or above n={n}")
        self.n = n
        self.m = m
        self.adj = adj
        self.words = words
        self.rows = _union_rows(n, words)
        self.live = sum(1 << v for v, row in enumerate(self.rows) if row)
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
            for rest in self.words[last::self.n]:  # last's row in each color
                while rest:
                    low = rest & -rest
                    row[low.bit_length() - 1] |= bit
                    rest ^= low
                bit <<= 1
            self.options[last] = row
        return row


_cached: _Tables | None = None  # the tables of the last input


def _tables(n: int, adj) -> _Tables:
    """The cached tables when adj is the bytes object the slot holds, else
    new ones, which take the slot."""
    global _cached
    tables = _cached
    if tables is not None and tables.adj is adj and tables.n == n:
        return tables
    _cached = _Tables(n, adj)
    return _cached


class _Search:
    """The state of one kernel call, as `State` in `_kernel.c`: the matching,
    the path, the distances to the target and the query's constants."""

    __slots__ = ("tables", "node_limit", "nodes", "color_edge", "edge_color", "opts",
                 "path", "dist", "k", "start", "y", "pending", "found", "low", "own",
                 "allowance", "higher")

    def __init__(self, tables: _Tables, node_limit):
        self.tables = tables
        self.node_limit = node_limit
        self.nodes = 0
        self.color_edge = [-1] * tables.m  # color -> edge index
        self.edge_color: list[int] = []  # edge index -> color
        self.opts: list[int] = []  # edge index -> option mask at assignment time
        self.path: list[int] = []
        self.dist: list[int] = []
        self.k = 0  # largest pending path length / cycle length
        self.start = 0  # cycle start vertex
        self.y = 0  # path target
        self.pending = 0  # bit k-2 for each path length still without a path
        self.found: dict[int, tuple[list[int], list[int]]] = {}  # k -> (vertices, colors)
        self.low = 0  # smallest pending path length
        self.own = [0] * (_MAXN + 1)  # s -> walk nodes whose shortest own length is s
        self.allowance = 0  # nodes the queries for the found lengths and `low` alone spend
        self.higher = 0

    # -- incremental injective assignment (augmenting step per new edge) --

    def kuhn(self, e: int, visited: int) -> tuple[bool, int]:
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
                ok, visited = self.kuhn(holder, visited)
            if ok:
                self.color_edge[c] = e
                self.edge_color[e] = c
                return True, visited
        return False, visited

    def push_edge(self, option_mask: int) -> bool:
        """Try to admit one more edge with the given color options. On
        failure the matching is untouched; on success `try_candidates` undoes
        it from the snapshot it took before."""
        e = len(self.edge_color)
        self.edge_color.append(-1)
        self.opts.append(option_mask)
        ok, _ = self.kuhn(e, 0)
        if not ok:
            self.edge_color.pop()
            self.opts.pop()
        return ok

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

    # -- the search: 1 found, 0 refuted, _ABORT when the budget ran out --

    def try_candidates(self, used: int, last: int, cand: int, spent: int, extend) -> int:
        """Try each candidate after `last` in order: admit its edge, recurse,
        undo. `k - spent` is the largest distance to the target a candidate
        may have, read for each candidate: a path walk lowers k when it
        records the largest pending length."""
        dist = self.dist
        path = self.path
        color_edge = self.color_edge
        edge_color = self.edge_color
        for _, v, om in self.ordered_candidates(last, cand):
            if dist[v] > self.k - spent:
                continue
            snap_ce = color_edge.copy()
            snap_ec = edge_color.copy()
            if not self.push_edge(om):
                continue
            path.append(v)
            r = extend(used | (1 << v))
            if r:
                return r
            path.pop()
            color_edge[:] = snap_ce
            edge_color[:] = snap_ec
            del self.opts[len(snap_ec):]
        return 0

    def close_path(self, used: int) -> int:
        """The node that `try_candidates` reaches by the step to y: it counts
        one node, records the path and the matching's colors as the witness
        of k = len(path) and drops k. Returns _ABORT, 1 when no length is
        left pending, else 0."""
        self.nodes += 1
        if self.nodes > self.node_limit:
            return _ABORT
        k = len(self.path)
        self.found[k] = (self.path.copy(), self.edge_color.copy())
        self.pending &= ~(1 << (k - 2))
        if not self.pending:
            return 1
        self.k = self.pending.bit_length() + 1
        if k == self.low:
            self.low = (self.pending & -self.pending).bit_length() + 1
            self.allowance += 1 + self.own_nodes(self.low)
        else:
            self.allowance += self.own_nodes(k) + 1
        return 0

    def own_nodes(self, k: int) -> int:
        """The walk nodes so far that a query for k alone visits too."""
        return sum(self.own[:k + 1])

    def path_extend(self, used: int) -> int:
        """A node with d edges placed: the step to y, as a candidate, when
        k = d + 2 is pending, then the children, kept while they can still
        reach y within the largest pending length. The walk gives up, as a
        budget stop, at a node that a query for the smallest pending length
        would not visit once it has spent more than `allowance` nodes."""
        self.nodes += 1
        if self.nodes > self.node_limit:
            return _ABORT
        d = len(self.path) - 1  # edges placed
        last = self.path[-1]
        s = self.dist[last] + d + 1  # the shortest length whose query visits this node
        self.own[s] += 1
        if s <= self.low:
            self.allowance += 1
        elif self.nodes > self.allowance:
            return _ABORT
        rows = self.tables.rows
        if (self.pending >> d) & (rows[last] >> self.y) & 1:
            r = self.try_candidates(used, last, 1 << self.y, d + 2, self.close_path)
            if r:
                return r
        if d + 2 >= self.k:
            return 0
        return self.try_candidates(used, last, rows[last] & ~used & ~(1 << self.y),
                                   d + 2, self.path_extend)

    def cycle_extend(self, used: int) -> int:
        self.nodes += 1
        if self.nodes > self.node_limit:
            return _ABORT
        path = self.path
        rows = self.tables.rows
        d = len(path) - 1
        last = path[-1]
        s = self.start
        if d == self.k - 1:
            if path[1] > last or not (rows[last] >> s) & 1:
                return 0
            return self.push_edge(self.tables.option_row(last)[s])
        # reflection bound: the closing vertex is an unvisited neighbour of
        # the start above path[1]; with none left, every leaf below is rejected
        if d and not (rows[s] & self.higher & ~used) >> (path[1] + 1):
            return 0
        return self.try_candidates(used, last, rows[last] & self.higher & ~used,
                                   d + 1, self.cycle_extend)

    def result(self, r: int):
        """(status, vertices, colors, nodes) for the search result r."""
        if r == _ABORT:
            return (BUDGET, None, None, self.nodes)
        if not r:
            return (NONE, None, None, self.nodes)
        return (FOUND, self.path, self.edge_color, self.nodes)


def _walk(n, adj, x, y, k_lo, k_hi, node_limit) -> tuple[_Search, int]:
    """Check a path query and walk the tree of paths from x that avoid y
    once, for every length in [k_lo, k_hi] that the distance from x to y
    allows: the search state and its result, 1 when every length got a
    path."""
    tables = _tables(n, adj)
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"x={x} or y={y} outside [0, {n})")
    if k_hi > n:
        raise ValueError(f"k={k_hi} exceeds n={n}")
    st = _Search(tables, node_limit)
    st.dist = tables.dist(y, tables.live)
    lo = max(st.dist[x] + 1, k_lo, 2)
    if lo > k_hi:
        return st, 0
    st.pending = (1 << (k_hi - 1)) - (1 << (lo - 2))
    st.k = k_hi
    st.low = lo
    st.y = y
    st.path.append(x)
    return st, st.path_extend(1 << x)


def find_path(n, adj, x, y, k, node_limit):
    """Exact k-vertex rainbow path from x to y. Returns (status, vertices,
    colors, nodes); vertices/colors are None unless status == FOUND."""
    st, r = _walk(n, adj, x, y, k, k, node_limit)
    if r == 1:
        return (FOUND, *st.found[k], st.nodes)
    return st.result(r)


def find_paths(n, adj, x, y, k_lo, k_hi, node_limit):
    """Rainbow paths from x to y on every k in [k_lo, k_hi], from one walk
    of the search tree. Returns (status, {k: (vertices, colors)}, nodes),
    each witness the one find_path gives for its k. status is BUDGET when
    the walk stopped undecided, on the node limit or giving up, else FOUND
    or NONE as some k has a path or none has; a k missing from the dict of
    a decided walk has no path."""
    st, r = _walk(n, adj, x, y, k_lo, k_hi, node_limit)
    status = BUDGET if r == _ABORT else FOUND if st.found else NONE
    return status, dict(sorted(st.found.items())), st.nodes


def find_cycle(n, adj, length, node_limit):
    """Rainbow cycle on exactly `length` vertices. Start vertex is the cycle
    minimum; reflections are broken by second < last vertex id, and a branch
    stops once no unvisited neighbour of the start above the second vertex
    is left to close the cycle."""
    tables = _tables(n, adj)
    if not 3 <= length <= n:
        raise ValueError(f"length={length} outside [3, {n}]")
    st = _Search(tables, node_limit)
    st.k = length
    r = 0
    live = rest = tables.live
    while rest:
        low = rest & -rest
        rest ^= low
        s = low.bit_length() - 1
        st.higher = live & ~((low << 1) - 1)
        if st.higher.bit_count() + 1 < length:
            break
        st.dist = tables.dist(s, st.higher | low)
        st.start = s
        st.path = [s]
        r = st.cycle_extend(low)
        if r:
            break
        if st.edge_color:
            raise RuntimeError("matching not unwound between start vertices")
    return st.result(r)
