"""Rainbow path/cycle search over collections and views.

A path is rainbow when its edges map injectively to colors, each edge present
in its assigned graph. Exact-length existence queries run on the selected
kernel; feasibility of the color assignment is maintained incrementally by
the kernel (one augmenting step per appended edge), so infeasible branches
are pruned as soon as the partial edge set stops being assignable.

The kernel input comes from the view's snapshot (`_Snapshot` in core):
the adjacency over every surviving color, packed as one bytes object of
64-bit words, is built once per view and reused by every query on it. A
query over fewer colors runs on a view that removes the others
(`restrict`). A collection is its own full view, so callers that pass the
collection share its snapshot. The pure-Python kernel keeps the tables it
derives from that bytes object (union rows, distances, option rows) until
it is given another, so queries on one view share those too. Every witness a kernel returns is re-checked against the view.

One pair's k-sweep (`k_paths`) covers every length from the union-graph
distance + 1 up to `k_cap` with one kernel call, `find_paths`. The kernel
walks the tree of paths from x that avoid y once for the whole range: at a
node with d edges placed it tries the step to y for k = d + 2 while that k
is pending, as one more candidate of the kernel's one candidate loop,
prunes children by the largest pending k and stops once every k has a
path. Each k's witness is the one a query for that k alone returns.
The walk pays off when the lengths have paths; while a short length has
none, only exhausting the tree cut at the longest pending length decides
it. So the kernel keeps one counter, `allowance`, of the nodes the queries
for the lengths it found, and for the smallest pending one, would have
spent, and gives the walk up once it has spent more. A walk that gave up or
ran out of budget leaves the lengths it had not decided to one query each,
in order, so budget stops read as they do per length.
`shortest_rainbow_path` needs only the first length with a path and
deepens one k at a time: a walk would decide the whole range, which can
cost far more.

Every path and cycle query is bounded at the root, without a kernel call:
`_longest` reads from the union graph the most vertices a rainbow path
joining the query's ends, or a rainbow cycle, can have. That is the size
of the component holding the ends, lowered to what each twin class
(vertices with one shared union row, an independent set) leaves room for
when it alternates with the rest. A query above the bound has no answer,
a pair's walk stops at it, and `shortest_rainbow_path` deepens up to it.
This decides Corollary 2.3's case (ii) at every length above the half
size, but case (iii) only at its longest lengths.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import kernels
from .core import (
    CollectionLike,
    ColoredCycle,
    ColoredPath,
    bits,
    check_colored_cycle,
    check_colored_path,
    mask_of,
)

DEFAULT_NODE_LIMIT = 50_000_000
BUDGET_ENV_VAR = "RAINBOW_BUDGET"


@dataclass(frozen=True)
class SearchBudget:
    """Node budget for one search query.

    node_limit counts search-tree nodes; exhausting it raises BudgetExceeded,
    a third outcome distinct from "no such path".
    """

    node_limit: int = DEFAULT_NODE_LIMIT

    def __post_init__(self) -> None:
        if self.node_limit <= 0:
            raise ValueError("node_limit must be positive")


def default_budget() -> SearchBudget:
    """Budget from the RAINBOW_BUDGET env var, or the 50M-node default.

    Raises ValueError, naming the variable, when it is set to anything but a
    positive integer.
    """
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return SearchBudget()
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR}={raw!r} is not a positive integer")
    return SearchBudget(node_limit=limit)


class BudgetExceeded(Exception):
    """Search ran out of nodes before deciding existence."""

    def __init__(self, query: str, nodes: int):
        super().__init__(f"{query}: budget exhausted after {nodes} nodes")
        self.query = query
        self.nodes = nodes


def _longest(view, ends: tuple[int, ...]) -> int:
    """The most vertices a rainbow path joining the two `ends` can have, or
    a rainbow cycle when `ends` is empty, judged from the union graph alone.

    Either lies in one union component, which must hold the ends: 0 when
    they lie apart, and the largest component for a cycle. A twin class I
    is independent, so a path needs a vertex outside I between any two of
    its members and at each end outside I: it has room for 2|V - I| + 1
    vertices, less one per end outside I, and a cycle for 2|V - I|. The
    three largest classes (`union_twin_classes` comes largest first) leave
    the least room: the ends move a class's room by at most 2, a smaller
    class has 2 more, and of three largest classes one holds no end.
    """
    ends_mask = mask_of(ends)
    longest = 0
    for c in view.union_components:
        if c & ends_mask == ends_mask and c.bit_count() > longest:
            longest = c.bit_count()
    total = view.n_surviving
    for eye in view.union_twin_classes[:3]:
        room = 2 * (total - eye.bit_count()) + (eye & ends_mask).bit_count() - (1 if ends else 0)
        if room < longest:
            longest = room
    return longest


def _require_vertex(view, v: int, name: str) -> None:
    if not 0 <= v < view.n:
        raise ValueError(f"{name}={v} outside vertex range")
    if not (view.vertex_mask >> v) & 1:
        raise ValueError(f"{name}={v} removed by view")


def assign_colors(
    view: CollectionLike,
    vertices: Sequence[int],
) -> tuple[int, ...] | None:
    """Injective color assignment for the edges of a vertex path.

    None means the options admit no injective assignment (matching
    deficiency). A consecutive pair absent from every surviving graph violates
    the precondition and is rejected instead.

    Deterministic: edges are matched in path order, colors scanned ascending,
    via augmenting steps.
    """
    if len(set(vertices)) != len(vertices):
        raise ValueError("repeated vertex in path")
    for v in vertices:
        _require_vertex(view, v, "vertex")
    options: list[int] = []
    for u, v in zip(vertices, vertices[1:]):
        om = 0
        for c in view.colors:
            if view.has_edge(c, u, v):
                om |= 1 << c
        if not om:
            raise ValueError(f"({u}, {v}) is not an edge of any surviving graph")
        options.append(om)

    color_edge: dict[int, int] = {}
    edge_color = [-1] * len(options)

    def augment(e: int, visited: set[int]) -> bool:
        for c in bits(options[e]):
            if c in visited:
                continue
            visited.add(c)
            if c not in color_edge or augment(color_edge[c], visited):
                color_edge[c] = e
                edge_color[e] = c
                return True
        return False

    for e in range(len(options)):
        if not augment(e, set()):
            return None
    return tuple(edge_color)


def find_rainbow_path(
    view: CollectionLike,
    x: int,
    y: int,
    k: int,
    *,
    budget: SearchBudget | None = None,
) -> ColoredPath | None:
    """Rainbow path on exactly k vertices joining x and y, or None.

    Raises BudgetExceeded when the node budget runs out undecided.
    """
    _require_vertex(view, x, "x")
    _require_vertex(view, y, "y")
    if x == y:
        raise ValueError("endpoints must differ")
    if not 2 <= k <= view.n_surviving:
        raise ValueError(f"k={k} outside [2, {view.n_surviving}]")
    if k - 1 > len(view.colors):
        raise ValueError(f"k={k} needs {k - 1} colors, only {len(view.colors)} available")
    if k > _longest(view, (x, y)):
        return None
    if budget is None:
        budget = default_budget()
    result = kernels.find_path(view.n, view.kernel_adj, x, y, k, budget.node_limit)
    return _witness(view, result, ColoredPath, check_colored_path, "path x={} y={} k={}", x, y, k)


def find_rainbow_ham_path(
    view: CollectionLike,
    x: int,
    y: int,
    *,
    budget: SearchBudget | None = None,
) -> ColoredPath | None:
    """Rainbow path through every surviving vertex, joining x and y."""
    return find_rainbow_path(view, x, y, view.n_surviving, budget=budget)


def k_cap(view: CollectionLike) -> int:
    """The most vertices a rainbow path of the view can have: every
    surviving vertex, and one more than the surviving colors, since a
    k-path needs k - 1 distinct colors."""
    return min(view.n_surviving, view.m_surviving + 1)


def _lengths(view: CollectionLike, x: int, y: int) -> range:
    """The lengths a rainbow path joining x and y may have: from the
    union-graph distance + 1, a lower bound, up to k_cap(view); empty when
    the union graph does not join them."""
    _require_vertex(view, x, "x")
    _require_vertex(view, y, "y")
    if x == y:
        raise ValueError("endpoints must differ")
    lower = view.union_distances(x)[y]
    return range(0) if lower is None else range(lower + 1, k_cap(view) + 1)


def k_paths(
    view: CollectionLike,
    x: int,
    y: int,
    *,
    budget: SearchBudget | None = None,
) -> Iterator[tuple[int, ColoredPath | None]]:
    """The k-sweep of one pair: whether a rainbow k-path joins x and y for
    each k of `_lengths`, in that order. From the first k that has one it
    yields (k, path), a shortest rainbow path first, then (k, path or None)
    for every longer k; it yields nothing when no rainbow path joins x and
    y. A budget stop raises BudgetExceeded from the query that ran out.

    One `find_paths` walk decides the range up to `_longest`; no longer k
    has a path. When the walk stops undecided, on the budget or giving up,
    every k it found a path for keeps that path, and every other k is
    asked by `find_rainbow_path` when the sweep reaches it. That gives what
    one query per k gives, budget stops included: the walk's tree holds
    every node of each k's own search tree, in the same order, so a k the
    walk decided within the budget's L nodes is decided the same way by a
    query for k alone within L nodes. A walk over one length is that
    length's own query, so its budget stop is raised at once.
    """
    lengths = _lengths(view, x, y)
    top = min(lengths.stop - 1, _longest(view, (x, y)))
    status, paths, nodes = kernels.NONE, {}, 0
    if lengths.start <= top:
        if budget is None:
            budget = default_budget()
        status, paths, nodes = kernels.find_paths(
            view.n, view.kernel_adj, x, y, lengths.start, top, budget.node_limit,
        )
    if status == kernels.BUDGET and lengths.start == top:
        _witness(view, (status, None, None, nodes), ColoredPath, check_colored_path,
                 "path x={} y={} k={}", x, y, top)
    found = False
    for k in lengths:
        if k in paths:
            path = _witness(view, (kernels.FOUND, *paths[k], nodes), ColoredPath,
                            check_colored_path, "path x={} y={} k={}", x, y, k)
        elif status == kernels.BUDGET and k <= top:
            path = find_rainbow_path(view, x, y, k, budget=budget)
        else:
            path = None
        found = found or path is not None
        if found:
            yield k, path


def shortest_rainbow_path(
    view: CollectionLike,
    x: int,
    y: int,
    *,
    budget: SearchBudget | None = None,
) -> ColoredPath | None:
    """A shortest rainbow path joining x and y, or None if there is none:
    the first path of their k-sweep, asked one k at a time up to the first
    that has one, and no further than `_longest`. For x == y it is the
    one-vertex path.

    `k_paths` would answer the same, but its walk decides every length up
    to k_cap before the first is read: over all pairs of Corollary 2.3's
    case (iii) at n = 14 that is 41M nodes where these queries take 210.
    """
    if x == y:
        _require_vertex(view, x, "x")
        return ColoredPath((x,), ())
    lengths = _lengths(view, x, y)
    for k in range(lengths.start, min(lengths.stop, _longest(view, (x, y)) + 1)):
        path = find_rainbow_path(view, x, y, k, budget=budget)
        if path is not None:
            return path
    return None


def rainbow_distance(
    coll: CollectionLike,
    x: int,
    y: int,
    *,
    budget: SearchBudget | None = None,
) -> int | None:
    """Length (edge count) of a shortest rainbow path, or None if unreachable."""
    path = shortest_rainbow_path(coll, x, y, budget=budget)
    return None if path is None else path.k - 1


def find_rainbow_cycle(
    view: CollectionLike,
    length: int,
    *,
    budget: SearchBudget | None = None,
) -> ColoredCycle | None:
    """Rainbow cycle on exactly `length` vertices, or None."""
    if length < 3:
        raise ValueError("cycle length below 3")
    if length > view.n_surviving:
        return None
    if length > len(view.colors):
        raise ValueError(f"length={length} exceeds {len(view.colors)} available colors")
    if length > _longest(view, ()):
        return None
    if budget is None:
        budget = default_budget()
    result = kernels.find_cycle(view.n, view.kernel_adj, length, budget.node_limit)
    return _witness(view, result, ColoredCycle, check_colored_cycle, "cycle length={}", length)


def _witness(view, result, kind, check, query, *args):
    """The witness of a kernel answer `(status, vertices, colors, nodes)`,
    built as `kind` with the view's color ids and re-checked by `check`; None
    when the kernel found none. A budget stop raises BudgetExceeded naming
    the query `query.format(*args)`, formatted only then."""
    status, verts, cols, nodes = result
    if status == kernels.BUDGET:
        raise BudgetExceeded(query.format(*args), nodes)
    if status == kernels.NONE:
        return None
    witness = kind(tuple(verts), tuple(map(view.colors.__getitem__, cols)))
    problem = check(view, witness)
    if problem is not None:
        raise AssertionError(f"kernel returned invalid {kind.__name__}: {problem}")
    return witness
