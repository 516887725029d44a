"""Core data model: simple graphs on a shared vertex set, collections, and
colored (transversal) paths and cycles.

Vertices are 0-based ints. Adjacency is stored as one bitmask per vertex,
sized for n <= 64 so neighborhood algebra stays single-word. Colors are
graph indices into the collection.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

MAX_VERTICES = 64
MAX_COLORS = 63


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _reach(rows: Sequence[int], frontier: int) -> int:
    out = 0
    for v in bits(frontier):
        out |= rows[v]
    return out


def distances(rows: Sequence[int], src: int) -> list[int | None]:
    """BFS layer of every vertex from src over adjacency rows; None when
    unreachable."""
    dist: list[int | None] = [None] * len(rows)
    dist[src] = 0
    seen = frontier = 1 << src
    layer = 0
    while frontier:
        layer += 1
        frontier = _reach(rows, frontier) & ~seen
        seen |= frontier
        for v in bits(frontier):
            dist[v] = layer
    return dist


def components(rows: Sequence[int], keep_mask: int) -> list[int]:
    """Component masks of the graph induced on keep_mask, in order of their
    smallest vertex."""
    comps = []
    rest = keep_mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            frontier = _reach(rows, frontier) & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def row_groups(rows: Sequence[int], keep_mask: int) -> dict[int, int]:
    """Vertices of keep_mask grouped by their row: each row maps to the mask
    of the vertices having it, in order of their smallest vertex."""
    groups: dict[int, int] = {}
    for v in bits(keep_mask):
        groups[rows[v]] = groups.get(rows[v], 0) | (1 << v)
    return groups


def clique_split(
    rows: Sequence[int], keep_mask: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The two cliques partitioning the graph induced on keep_mask, smaller
    side first (ties by vertex tuple), or None when it is not exactly two
    disjoint cliques."""
    comps = components(rows, keep_mask)
    if len(comps) != 2:
        return None
    for comp in comps:
        if any(rows[v] & comp != comp & ~(1 << v) for v in bits(comp)):
            return None
    a, b = sorted((tuple(bits(c)) for c in comps), key=lambda c: (len(c), c))
    return a, b


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside [1, {MAX_VERTICES}]")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} has bits outside the vertex range")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in bits(row):
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric edge ({v}, {u})")

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u]):
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def with_edge(self, u: int, v: int) -> "SimpleGraph":
        _check_pair(self.n, u, v)
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return SimpleGraph(self.n, tuple(adj))

    def without_edge(self, u: int, v: int) -> "SimpleGraph":
        _check_pair(self.n, u, v)
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return SimpleGraph(self.n, tuple(adj))


def _check_pair(n: int, u: int, v: int) -> None:
    if u == v:
        raise ValueError(f"loop edge ({u}, {v})")
    for w in (u, v):
        if not 0 <= w < n:
            raise ValueError(f"vertex {w} outside [0, {n})")


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
    """Build a validated SimpleGraph from an edge list (duplicates collapse)."""
    adj = [0] * n
    for u, v in edges:
        _check_pair(n, u, v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return SimpleGraph(n, tuple(adj))


def min_degree(g: SimpleGraph) -> int:
    return min(map(int.bit_count, g.adj))


def sigma2(g: SimpleGraph) -> int | None:
    """Minimum degree sum over non-adjacent vertex pairs; None for complete graphs."""
    best: int | None = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                s = g.degree(u) + g.degree(v)
                if best is None or s < best:
                    best = s
    return best


class _Snapshot:
    """The cached snapshot of a view: vertex mask, surviving colors,
    restricted rows per color, union rows with their components, twin
    classes and per-source distances, and the packed kernel input.

    Built on first use from `base`, `removed_vertices` and `removed_colors`
    and cached on the instance. Both `SubCollectionView` and
    `GraphCollection` (its own full view, with nothing removed) carry it, so
    a collection holds its snapshot without holding a view that points back
    at it.
    """

    @cached_property
    def vertex_mask(self) -> int:
        return ((1 << self.base.n) - 1) & ~mask_of(self.removed_vertices)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(bits(self.vertex_mask))

    @cached_property
    def colors(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.base.m) if c not in self.removed_colors)

    @property
    def n_surviving(self) -> int:
        return self.base.n - len(self.removed_vertices)

    @property
    def m_surviving(self) -> int:
        return self.base.m - len(self.removed_colors)

    @cached_property
    def color_rows(self) -> tuple[tuple[int, ...], ...]:
        """Restricted adjacency rows per base color: color_rows[c][v] is v's
        neighborhood in graph c among surviving vertices, zero when v or c is
        removed."""
        vmask = self.vertex_mask
        alive = [(vmask >> v) & 1 for v in range(self.base.n)]
        zero = (0,) * self.base.n
        return tuple(
            zero
            if c in self.removed_colors
            else tuple(row & vmask if keep else 0 for row, keep in zip(g.adj, alive))
            for c, g in enumerate(self.base.graphs)
        )

    @cached_property
    def union_rows(self) -> tuple[int, ...]:
        """Per-vertex union of the restricted rows over surviving colors."""
        rows = [0] * self.base.n
        for c in self.colors:
            for v, row in enumerate(self.color_rows[c]):
                rows[v] |= row
        return tuple(rows)

    @cached_property
    def union_components(self) -> tuple[int, ...]:
        """Component masks of the union graph on the surviving vertices."""
        return tuple(components(self.union_rows, self.vertex_mask))

    @cached_property
    def union_twin_classes(self) -> tuple[int, ...]:
        """Masks of the surviving vertices grouped by union row, largest
        class first. Each class is independent in the union graph: no
        vertex is its own neighbor, and every member has the row the others
        are missing from."""
        groups = row_groups(self.union_rows, self.vertex_mask).values()
        return tuple(sorted(groups, key=int.bit_count, reverse=True))

    @cached_property
    def _union_distance_rows(self) -> dict[int, tuple[int | None, ...]]:
        return {}

    def union_distances(self, src: int) -> tuple[int | None, ...]:
        """`distances` from src over the union rows, computed on first use
        per source and kept, so a view runs at most one BFS per vertex."""
        rows = self._union_distance_rows
        if src not in rows:
            rows[src] = tuple(distances(self.union_rows, src))
        return rows[src]

    @cached_property
    def kernel_adj(self) -> bytes:
        """The kernel input over every surviving color: m*n native-endian
        64-bit words, word pos*n + v the row of v in the pos-th color of
        `colors`."""
        return array("Q", [row for c in self.colors for row in self.color_rows[c]]).tobytes()

    def has_edge(self, color: int, u: int, v: int) -> bool:
        return bool((self.color_rows[color][u] >> v) & 1)


@dataclass(frozen=True)
class GraphCollection(_Snapshot):
    """Ordered collection of graphs over one shared vertex set.

    A collection is its own full view: its base is itself and it removes
    nothing, so every caller that passes the collection shares one snapshot.
    """

    n: int
    graphs: tuple[SimpleGraph, ...]

    removed_vertices = frozenset()
    removed_colors = frozenset()

    def __post_init__(self) -> None:
        if not self.graphs:
            raise ValueError("collection needs at least one graph")
        if len(self.graphs) > MAX_COLORS:
            raise ValueError(f"collection exceeds {MAX_COLORS} graphs")
        for i, g in enumerate(self.graphs):
            if g.n != self.n:
                raise ValueError(f"graph {i} has n={g.n}, expected {self.n}")

    @property
    def base(self) -> "GraphCollection":
        return self

    @property
    def m(self) -> int:
        return len(self.graphs)

    def __getitem__(self, color: int) -> SimpleGraph:
        return self.graphs[color]

    @cached_property
    def min_color_degree(self) -> int:
        """The least degree of a vertex in any of the graphs, computed once."""
        return min(min_degree(g) for g in self.graphs)


def collection_min_degree(coll: GraphCollection) -> int:
    return coll.min_color_degree


@dataclass(frozen=True)
class ColoredPath:
    """Vertex path with one distinct color (graph index) per edge."""

    vertices: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("empty path")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("repeated vertex in path")
        if len(self.colors) != len(self.vertices) - 1:
            raise ValueError("path needs exactly one color per edge")
        if len(set(self.colors)) != len(self.colors):
            raise ValueError("repeated color in path")

    @property
    def k(self) -> int:
        """Vertex count (the k in 'k-path')."""
        return len(self.vertices)

    def reversed(self) -> "ColoredPath":
        return ColoredPath(self.vertices[::-1], self.colors[::-1])

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices), "colors": list(self.colors)}


@dataclass(frozen=True)
class ColoredCycle:
    """Vertex cycle with one distinct color per edge, closing edge included."""

    vertices: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("cycle needs at least 3 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("repeated vertex in cycle")
        if len(self.colors) != len(self.vertices):
            raise ValueError("cycle needs exactly one color per edge")
        if len(set(self.colors)) != len(self.colors):
            raise ValueError("repeated color in cycle")

    @property
    def length(self) -> int:
        return len(self.vertices)

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices), "colors": list(self.colors)}


@dataclass(frozen=True, eq=False)
class SubCollectionView(_Snapshot):
    """Copy-free restriction of a collection: vertices and colors masked out.

    Vertex ids and color ids stay those of the base collection. The view's
    snapshot is built on first use and cached on the view; views are
    immutable, so it lives exactly as long as the view. Views with the same
    base and removal sets are equal, and a view that removes nothing equals
    its collection, which is its own full view.
    """

    base: GraphCollection
    removed_vertices: frozenset[int] = field(default_factory=frozenset)
    removed_colors: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for v in self.removed_vertices:
            if not 0 <= v < self.base.n:
                raise ValueError(f"removed vertex {v} outside range")
        for c in self.removed_colors:
            if not 0 <= c < self.base.m:
                raise ValueError(f"removed color {c} outside range")
        if len(self.removed_colors) >= self.base.m:
            raise ValueError("view removes every color")
        if len(self.removed_vertices) >= self.base.n:
            raise ValueError("view removes every vertex")

    def _key(self) -> tuple:
        return (self.base, self.removed_vertices, self.removed_colors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SubCollectionView, GraphCollection)):
            return NotImplemented
        return self._key() == (other.base, other.removed_vertices, other.removed_colors)

    def __hash__(self) -> int:
        if self.removed_vertices or self.removed_colors:
            return hash(self._key())
        return hash(self.base)

    @property
    def n(self) -> int:
        return self.base.n


CollectionLike = Union[GraphCollection, SubCollectionView]


def restrict(
    view: CollectionLike,
    remove_vertices: Iterable[int] = (),
    remove_colors: Iterable[int] = (),
) -> SubCollectionView:
    """View with extra vertices/colors removed. Composes: restricting a view
    merges removal sets against the original base."""
    return SubCollectionView(
        view.base,
        view.removed_vertices | frozenset(remove_vertices),
        view.removed_colors | frozenset(remove_colors),
    )


def check_colored_path(coll: CollectionLike, path: ColoredPath) -> str | None:
    """First violation making path invalid in coll, or None if valid."""
    vs = path.vertices
    return _check_edges(coll, vs, zip(vs, vs[1:], path.colors), len(path.colors))


def check_colored_cycle(coll: CollectionLike, cycle: ColoredCycle) -> str | None:
    vs = cycle.vertices
    return _check_edges(coll, vs, zip(vs, vs[1:] + vs[:1], cycle.colors), len(cycle.colors))


def _check_edges(view, vertices, edges, n_edges) -> str | None:
    """First violation among the edge count, the vertices in order and then
    the (u, v, color) edges in order."""
    n_alive = view.m_surviving
    if n_edges > n_alive:
        return f"{n_edges} edges exceed {n_alive} available colors"
    n = view.n
    vmask = view.vertex_mask
    for v in vertices:
        if not 0 <= v < n:
            return f"vertex {v} outside range"
        if not (vmask >> v) & 1:
            return f"vertex {v} removed by view"
    rows = view.color_rows
    m = view.base.m
    removed = view.removed_colors
    for u, v, c in edges:
        if not 0 <= c < m or c in removed:
            return f"color {c} unavailable"
        if not (rows[c][u] >> v) & 1:
            return f"edge ({u}, {v}) missing from graph {c}"
    return None


def verify_colored_path(coll: CollectionLike, path: ColoredPath) -> bool:
    return check_colored_path(coll, path) is None


def verify_colored_cycle(coll: CollectionLike, cycle: ColoredCycle) -> bool:
    return check_colored_cycle(coll, cycle) is None


def union_adjacency(coll: CollectionLike) -> list[int]:
    """Per-vertex union adjacency across surviving colors, restricted."""
    return list(coll.union_rows)
