"""Independent brute-force oracles used to check the library's answers.

Everything here enumerates exhaustively with no shared code with the package
search internals: simple paths by DFS over explicit neighbor sets, color
assignments by trying every injective mapping. Views are read through their
base graphs and removal sets, never through a view's cached snapshot, so the
oracles can check that snapshot. Exponential on purpose; only run on small
instances. `rotation_reference` is the constructive rotation builder written
as one loop per k, the reference that its per-pair table must equal.
"""
from __future__ import annotations

from itertools import combinations, permutations

from rainbowpan.constructions import BranchTrace, HypothesisViolation
from rainbowpan.core import CollectionLike, ColoredPath


def neighbor_sets(coll: CollectionLike) -> list[set[int]]:
    """Union-graph neighbor sets over surviving vertices."""
    view = coll
    alive = set(range(view.n)) - view.removed_vertices
    out: list[set[int]] = [set() for _ in range(view.n)]
    for c, g in enumerate(view.base.graphs):
        if c in view.removed_colors:
            continue
        for v in alive:
            out[v] |= set(g.neighbors(v)) & alive
    return out


def _edge_colors(view, u: int, v: int) -> list[int]:
    """Surviving colors whose graph has edge uv, both ends alive."""
    if u in view.removed_vertices or v in view.removed_vertices:
        return []
    return [
        c
        for c, g in enumerate(view.base.graphs)
        if c not in view.removed_colors and g.has_edge(u, v)
    ]


def restricted_rows(coll: CollectionLike, c: int) -> list[int]:
    """Adjacency rows of color c restricted to the view, built by hand from
    the base graph; all zero for a removed color, zero at removed vertices."""
    view = coll
    if c in view.removed_colors:
        return [0] * view.n
    alive = [v for v in range(view.n) if v not in view.removed_vertices]
    adj = view.base.graphs[c].adj
    return [
        0
        if v in view.removed_vertices
        else sum(1 << u for u in alive if (adj[v] >> u) & 1)
        for v in range(view.n)
    ]


def all_simple_paths(coll: CollectionLike, x: int, y: int, max_edges: int):
    """Yield every simple x..y path with at most max_edges edges, as a tuple."""
    nbr = neighbor_sets(coll)

    def walk(path: list[int], seen: set[int]):
        u = path[-1]
        if u == y:
            yield tuple(path)
            return
        if len(path) > max_edges:
            return
        for v in sorted(nbr[u]):
            if v not in seen:
                path.append(v)
                seen.add(v)
                yield from walk(path, seen)
                path.pop()
                seen.remove(v)

    yield from walk([x], {x})


def edge_color_options(coll: CollectionLike, vertices) -> list[list[int]]:
    """For each edge of the vertex sequence, the colors containing it."""
    return [_edge_colors(coll, u, v) for u, v in zip(vertices, vertices[1:])]


def exhaustive_assignment(coll: CollectionLike, vertices):
    """Some injective edge->color assignment found by trying all orders.

    Returns a tuple of colors or None. Tries every permutation-free branch by
    plain backtracking over the option lists.
    """
    options = edge_color_options(coll, vertices)
    chosen: list[int] = []
    used: set[int] = set()

    def go(e: int) -> bool:
        if e == len(options):
            return True
        for c in options[e]:
            if c not in used:
                used.add(c)
                chosen.append(c)
                if go(e + 1):
                    return True
                chosen.pop()
                used.remove(c)
        return False

    if go(0):
        return tuple(chosen)
    return None


def rainbow_path_exists(coll: CollectionLike, x: int, y: int, k: int):
    """True iff some k-vertex x..y path admits an injective color assignment."""
    for path in all_simple_paths(coll, x, y, k - 1):
        if len(path) == k and exhaustive_assignment(coll, path) is not None:
            return True
    return False


def rainbow_cycle_exists(coll: CollectionLike, length: int) -> bool:
    """True iff some cycle on `length` vertices is rainbow-colorable."""
    view = coll
    verts = sorted(set(range(view.n)) - view.removed_vertices)

    def colorable(cyc: tuple[int, ...]) -> bool:
        options = []
        m = len(cyc)
        for i in range(m):
            u, v = cyc[i], cyc[(i + 1) % m]
            opts = _edge_colors(view, u, v)
            if not opts:
                return False
            options.append(opts)
        used: set[int] = set()

        def go(e: int) -> bool:
            if e == m:
                return True
            for c in options[e]:
                if c not in used:
                    used.add(c)
                    if go(e + 1):
                        return True
                    used.remove(c)
            return False

        return go(0)

    for head in verts:
        rest = [v for v in verts if v > head]
        for mid in permutations(rest, length - 1):
            cyc = (head, *mid)
            # one orientation per cycle
            if length > 2 and cyc[1] > cyc[-1]:
                continue
            if colorable(cyc):
                return True
    return False


def single_graph_path_exists(g, x: int, y: int, k: int) -> bool:
    """True iff one graph has a plain x..y path on exactly k vertices."""

    def walk(u: int, seen: set[int], left: int) -> bool:
        if left == 0:
            return u == y
        for v in g.neighbors(u):
            if v not in seen and (v != y or left == 1):
                seen.add(v)
                if walk(v, seen, left - 1):
                    return True
                seen.remove(v)
        return False

    if k == 1:
        return x == y
    return walk(x, {x}, k - 1)


def _surviving(coll: CollectionLike):
    """Surviving vertices and graphs of a view, from its base and removal sets."""
    view = coll
    alive = [v for v in range(view.n) if v not in view.removed_vertices]
    graphs = [
        g for c, g in enumerate(view.base.graphs) if c not in view.removed_colors
    ]
    return alive, graphs


def join_partitions(coll: CollectionLike) -> list[tuple[tuple, tuple]]:
    """Every split (H, I) of the surviving vertices with |I| = half + 1 such
    that, in every surviving color, the surviving neighbors of each I vertex
    are exactly H. Enumerates every candidate I."""
    alive, graphs = _surviving(coll)
    alive_set = set(alive)
    found = []
    for eye in combinations(alive, len(alive) // 2 + 1):
        h = tuple(v for v in alive if v not in eye)
        if all(
            set(g.neighbors(u)) & alive_set == set(h) for g in graphs for u in eye
        ):
            found.append((h, eye))
    return found


def clique_splits(coll: CollectionLike, color: int) -> list[tuple[tuple, tuple]]:
    """Every split of the surviving vertices into two nonempty cliques with no
    edge between them in graph `color`, smaller side first (ties by vertex
    tuple). Enumerates every side holding the first surviving vertex."""
    alive, _ = _surviving(coll)
    g = coll.base.graphs[color]
    found = []
    for r in range(1, len(alive)):
        for a in combinations(alive[1:], r - 1):
            a = (alive[0],) + a
            b = tuple(v for v in alive if v not in a)
            inner = [e for side in (a, b) for e in combinations(side, 2)]
            if all(g.has_edge(u, v) for u, v in inner) and not any(
                g.has_edge(u, v) for u in a for v in b
            ):
                found.append(tuple(sorted((a, b), key=lambda s: (len(s), s))))
    return found


def f_partitions(coll) -> list[tuple[tuple, tuple, tuple]]:
    """Every (Q1, Q2, single edge) of the join family: all graphs share one
    edge set, |Q1| = (n-1)/2, Q1 is independent and joined to all of Q2, and
    G[Q2] has minimum degree 1 and a component that is a single edge, the
    smallest such edge named. Enumerates every candidate Q1."""
    edge_sets = [set(g.edges()) for g in coll.graphs]
    n = coll.n
    if n % 2 == 0 or n < 5 or any(e != edge_sets[0] for e in edge_sets[1:]):
        return []
    nbr = [set(coll.graphs[0].neighbors(v)) for v in range(n)]
    found = []
    for q1 in combinations(range(n), (n - 1) // 2):
        q2 = tuple(v for v in range(n) if v not in q1)
        if any(nbr[u] != set(q2) for u in q1):
            continue
        comps, seen = [], set()
        for v in q2:
            if v in seen:
                continue
            comp, stack = {v}, [v]
            while stack:
                for t in nbr[stack.pop()] & set(q2):
                    if t not in comp:
                        comp.add(t)
                        stack.append(t)
            seen |= comp
            comps.append(comp)
        singles = [tuple(sorted(c)) for c in comps if len(c) == 2]
        if all(len(c) > 1 for c in comps) and singles:
            found.append((q1, q2, min(singles)))
    return found


def rotation_reference(coll, cycle, x: int, y: int, k: int) -> BranchTrace:
    """`constructions.rotation_k_path` as one loop per k: the c_star
    candidates picked again, and both attachment sets read position by
    position, at every k. Takes a valid cycle on all but x, y and z that
    misses two colors; returns the same trace, or raises the same
    violation, as the builder."""
    n = coll.n
    length = n - 3
    used = set(cycle.colors)
    missing = [c for c in range(coll.m) if c not in used]
    z = next(iter(set(range(n)) - set(cycle.vertices) - {x, y}))
    graphs = coll.base.graphs
    candidates = [c for c in missing if not graphs[c].has_edge(x, z)]
    if not candidates:
        raise HypothesisViolation(
            "rotation", "free-color",
            f"both unused colors {missing} join x={x} to the removed vertex "
            f"z={z}; no attach color is available",
        )

    def u(i):
        return cycle.vertices[(i - 1) % length]

    def sig(i):
        return cycle.colors[(i - 1) % length]

    tried = []
    for c_star in candidates:
        j = missing[0] if missing[1] == c_star else missing[1]
        i_k = tuple(i for i in range(1, length + 1) if graphs[c_star].has_edge(x, u(i + k - 3)))
        i_0 = tuple(i for i in range(1, length + 1) if graphs[j].has_edge(y, u(i)))
        common = sorted(set(i_k) & set(i_0))
        if not common:
            tried.append(f"c_star={c_star}: |i_k|={len(i_k)}, |i_0|={len(i_0)}, no overlap")
            continue
        s = common[0]
        verts = (x,) + tuple(u(s + k - 3 - t) for t in range(k - 2)) + (y,)
        cols = (c_star,) + tuple(sig(s + k - 4 - t) for t in range(k - 3)) + (j,)
        sets = {"i_k": list(i_k), "i_0": list(i_0), "s": s, "c_star": c_star, "j": j}
        return BranchTrace("rotation", None, None, sets, k, ColoredPath(verts, cols))
    raise HypothesisViolation(
        "rotation",
        "pivot-overlap",
        "the two attachment sets never overlap although their sizes must sum "
        f"past the cycle length: {'; '.join(tried)}",
    )
