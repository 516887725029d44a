"""Deterministic, seeded instance generators.

Four families: random collections meeting a minimum-degree target, the
exceptional join family, the even-order obstruction shapes, and engineered
fixtures that steer each constructive branch. Every generator is a pure
function of its parameters plus the seed (stdlib Mersenne Twister, one
stream per graph index, so instances reproduce byte for byte), and every
instance re-verifies its advertised structure through the independent
recognizers or by running the branch builders before it is returned.

Engineered fixtures plant exactly the edges each branch's claim checks
require; seed variation adds only provably inert edges (pairs no check ever
reads) or relabels vertices, so the planted structure survives any seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .analysis import (
    recognize_F_family,
    recognize_join_partition,
    recognize_two_cliques,
)
from .constructions import (
    HypothesisViolation,
    endpoint_bound_report,
    ham_path_k_path,
    join_partition_k_path,
    near_cycle_k_path,
    rotation_k_path,
    two_clique_k_path,
)
from .core import (
    ColoredCycle,
    ColoredPath,
    GraphCollection,
    build_graph,
    check_colored_cycle,
    check_colored_path,
    collection_min_degree,
    components,
    min_degree,
)

__all__ = [
    "GenSpec",
    "gen_random_collection",
    "gen_extremal_F",
    "gen_cor23_obstruction",
    "gen_lemma_shape",
    "generate",
    "LEMMA_SHAPES",
]


@dataclass(frozen=True)
class GenSpec:
    """Reproducible description of one generated instance."""

    n: int
    m: int
    seed: int
    family: str
    min_degree: int | None = None
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "family": self.family,
            "min_degree": self.min_degree,
            "params": self.params,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "GenSpec":
        return GenSpec(
            n=int(data["n"]),
            m=int(data["m"]),
            seed=int(data["seed"]),
            family=str(data["family"]),
            min_degree=None if data.get("min_degree") is None else int(data["min_degree"]),
            params=dict(data.get("params", {})),
        )


def _stream(seed: int, index: int) -> random.Random:
    """Independent deterministic stream per graph index."""
    return random.Random(f"{seed}:{index}")


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise RuntimeError(f"generator postcondition failed: {what}")


def _build(n: int, m: int, edge_sets: dict[int, set]) -> GraphCollection:
    return GraphCollection(
        n,
        tuple(
            build_graph(n, sorted(edge_sets.get(c, set()))) for c in range(m)
        ),
    )


def _permuted(coll: GraphCollection, perm: list[int]) -> GraphCollection:
    graphs = []
    for g in coll.graphs:
        edges = [(perm[u], perm[v]) for u, v in g.edges()]
        graphs.append(build_graph(coll.n, edges))
    return GraphCollection(coll.n, tuple(graphs))


# ---------------------------------------------------------------------------
# random collections


def gen_random_collection(
    n: int, m: int, min_degree_target: int, seed: int
) -> GraphCollection:
    """m random graphs on n vertices, each with min degree >= the target.

    Edges are included independently at density (target+1)/n, then deficient
    vertices are repaired by adding random incident edges, smallest deficient
    vertex first. Deterministic per (n, m, target, seed); the repair step
    biases the distribution, which is acceptable for hypothesis sampling.
    """
    if not 0 <= min_degree_target <= n - 1:
        raise ValueError(
            f"min degree target {min_degree_target} infeasible on {n} vertices"
        )
    if m < 1:
        raise ValueError("need at least one graph")
    p = (min_degree_target + 1) / n
    graphs = []
    for i in range(m):
        rng = _stream(seed, i)
        edges = set()
        deg = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.add((u, v))
                    deg[u] += 1
                    deg[v] += 1
        while True:
            short = [v for v in range(n) if deg[v] < min_degree_target]
            if not short:
                break
            v = short[0]
            others = [
                u
                for u in range(n)
                if u != v and (min(u, v), max(u, v)) not in edges
            ]
            u = rng.choice(others)
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
        g = build_graph(n, sorted(edges))
        _expect(min_degree(g) >= min_degree_target, "degree repair fell short")
        graphs.append(g)
    return GraphCollection(n, tuple(graphs))


# ---------------------------------------------------------------------------
# the exceptional join family


def _default_q2_edges(q2n: int) -> tuple[tuple[int, int], ...]:
    """One isolated edge plus a cover of the rest with degree >= 1."""
    edges = [(0, 1)]
    rest = list(range(2, q2n))
    while len(rest) >= 2:
        if len(rest) == 3:
            a, b, c = rest
            edges += [(a, b), (b, c)]
            rest = []
        else:
            edges.append((rest[0], rest[1]))
            rest = rest[2:]
    return tuple(edges)


def gen_extremal_F(
    n: int,
    m: int | None = None,
    q2_edges: tuple[tuple[int, int], ...] | None = None,
    seed: int = 0,
) -> GraphCollection:
    """m identical copies of the join of an independent half with a small
    graph holding an isolated edge.

    The independent side has (n-1)/2 vertices; the other side has (n+1)/2
    vertices carrying q2_edges, which must give every vertex degree >= 1
    while keeping at least one component that is a single edge. At n=5 the
    second side has 3 vertices, and no such edge set exists: one component
    takes two of them and the leftover vertex cannot reach degree 1, so n=5
    is rejected. The seed relabels vertices.
    """
    if n % 2 == 0:
        raise ValueError("the join family needs odd n")
    if n == 5:
        raise ValueError(
            "infeasible at n=5: beside the single-edge component only one "
            "vertex remains on the small side, and it cannot reach degree 1"
        )
    if n < 7:
        raise ValueError("the join family needs n >= 7")
    m = n - 1 if m is None else m
    if m < 1:
        raise ValueError("need at least one graph")
    q2n = (n + 1) // 2
    if q2_edges is None:
        q2_edges = _default_q2_edges(q2n)
    q2 = build_graph(q2n, q2_edges)
    if min_degree(q2) < 1:
        raise ValueError("small side must have min degree >= 1")
    if not any(c.bit_count() == 2 for c in components(q2.adj, (1 << q2n) - 1)):
        raise ValueError("small side needs a component that is a single edge")
    half = (n - 1) // 2
    perm = list(range(n))
    random.Random(f"{seed}").shuffle(perm)
    q1_ids = [perm[i] for i in range(half)]
    q2_ids = [perm[half + i] for i in range(q2n)]
    edges = [(a, b) for a in q1_ids for b in q2_ids]
    edges += [(q2_ids[a], q2_ids[b]) for a, b in q2_edges]
    g = build_graph(n, edges)
    coll = GraphCollection(n, tuple([g] * m))
    _expect(
        recognize_F_family(coll) is not None,
        "join-family instance not recognized",
    )
    if min_degree(q2) == 1:
        _expect(
            collection_min_degree(coll) == (n + 1) // 2,
            "join-family degree off the threshold",
        )
    return coll


# ---------------------------------------------------------------------------
# even-order obstruction shapes


def gen_cor23_obstruction(n: int, case_tag: str, seed: int = 0) -> GraphCollection:
    """n graphs on an even number of vertices in one of the two known
    obstruction shapes: "ii" gives identical disjoint half cliques, "iii"
    gives an independent large side fully joined to a small side whose inner
    edges are random per graph."""
    if n % 2 != 0 or n < 4:
        raise ValueError("obstruction shapes need even n >= 4")
    if case_tag not in ("ii", "iii"):
        raise ValueError(f"unknown case tag {case_tag!r}")
    perm = list(range(n))
    random.Random(f"{seed}").shuffle(perm)
    if case_tag == "ii":
        half = n // 2
        edges = []
        for block in (perm[:half], perm[half:]):
            edges += [
                (block[i], block[j])
                for i in range(half)
                for j in range(i + 1, half)
            ]
        g = build_graph(n, edges)
        coll = GraphCollection(n, tuple([g] * n))
        _expect(
            recognize_two_cliques(coll) is not None,
            "half-clique instance not recognized",
        )
        return coll
    small = (n - 2) // 2
    h_ids = perm[:small]
    i_ids = perm[small:]
    join = [(a, b) for a in h_ids for b in i_ids]
    graphs = []
    for gi in range(n):
        rng = _stream(seed, gi)
        inner = [
            (h_ids[a], h_ids[b])
            for a in range(small)
            for b in range(a + 1, small)
            if rng.random() < 0.5
        ]
        graphs.append(build_graph(n, join + inner))
    coll = GraphCollection(n, tuple(graphs))
    _expect(
        recognize_join_partition(coll) is not None,
        "join-shape instance not recognized",
    )
    return coll


# ---------------------------------------------------------------------------
# engineered fixtures for the constructive branches

LEMMA_SHAPES = {
    "lem2": ("main",),
    "lem3": ("main", "case3", "b1", "b2", "b3"),
    "lem5": ("lo-lo", "lo-hi", "overlap"),
    "lem6": ("a", "b", "c1", "c2", "c2rec"),
    "lem7": ("z", "cross"),
    "lem8": ("witness", "inner", "family"),
}


def gen_lemma_shape(
    lemma_id: str, n: int, seed: int = 0, variant: str | None = None
) -> tuple[GraphCollection, dict]:
    """Instance steering one constructive branch, plus its planted handles.

    The handles name the planted structure (working cycle or path, the
    endpoint/removed vertices, reserved colors, partitions) so tests can
    call the branch builders directly. Infeasible (lemma, n, variant)
    combinations are rejected with the reason.
    """
    if lemma_id not in LEMMA_SHAPES:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    if n % 2 == 0 or n < 7:
        raise ValueError("engineered fixtures need odd n >= 7")
    if variant is None:
        variant = _default_variant(lemma_id, n)
    if variant not in LEMMA_SHAPES[lemma_id]:
        raise ValueError(f"unknown variant {variant!r} for {lemma_id}")
    builder = {
        "lem2": _shape_rotation,
        "lem3": _shape_near_cycle,
        "lem5": _shape_endpoint_bounds,
        "lem6": _shape_ham_path,
        "lem7": _shape_two_clique,
        "lem8": _shape_join,
    }[lemma_id]
    return builder(n, seed, variant)


def _default_variant(lemma_id: str, n: int) -> str:
    if lemma_id == "lem6":
        return "a" if n >= 9 else "c2"
    return LEMMA_SHAPES[lemma_id][0]


def _decorate(edge_sets: dict[int, set], zone, rng) -> None:
    # inert pairs only: nothing any claim check reads
    for color, u, v in zone:
        if rng.random() < 0.5:
            edge_sets.setdefault(color, set()).add((min(u, v), max(u, v)))


def _sigma_zone(sigma_colors, off_vertices, extra_vertex, ring):
    """Decoration pairs: path colors among removed vertices and from the
    last removed vertex into the working structure."""
    zone = []
    for c in sigma_colors:
        offs = sorted(off_vertices)
        for i, a in enumerate(offs):
            for b in offs[i + 1 :]:
                zone.append((c, a, b))
        for v in ring:
            zone.append((c, extra_vertex, v))
    return zone


def _shape_rotation(n, seed, variant):
    length = n - 3
    x, y, z = n - 3, n - 2, n - 1
    c_star, j = n - 3, n - 2
    edge_sets: dict[int, set] = {c: set() for c in range(n - 1)}
    ring = list(range(length))
    for i in range(length):
        edge_sets[i].add((min(ring[i], ring[(i + 1) % length]), max(ring[i], ring[(i + 1) % length])))
    for v in ring:
        edge_sets[c_star].add((v, x))
        edge_sets[j].add((v, y))
    edge_sets[j].add((x, z))
    zone = _sigma_zone(range(length), (x, y, z), z, ring)
    _decorate(edge_sets, zone, random.Random(f"{seed}:deco"))
    coll = _build(n, n - 1, edge_sets)
    cycle = ColoredCycle(tuple(ring), tuple(range(length)))
    _expect(check_colored_cycle(coll, cycle) is None, "planted cycle invalid")
    for k in range(4, n):
        sets = rotation_k_path(coll, cycle, x, y, k).sets
        _expect(sets["c_star"] == c_star and sets["j"] == j, "rotation roles drifted")
    handles = {"cycle": cycle, "x": x, "y": y, "z": z, "c_star": c_star, "j": j}
    return coll, handles


def _shape_near_cycle(n, seed, variant):
    if variant == "case3" and n != 9:
        # at n=7 the only interior anchor sits next to the lone odd slot
        # and the sweep can never land on it, so the shape does not exist
        raise ValueError("the interior-anchor variant needs n=9")
    length = n - 4
    w, x, y, z = n - 4, n - 3, n - 2, n - 1
    c_star = n - 4
    f_a, f_b = n - 3, n - 2
    edge_sets: dict[int, set] = {c: set() for c in range(n - 1)}
    ring = list(range(length))
    for i in range(length):
        a, b = ring[i], ring[(i + 1) % length]
        edge_sets[i].add((min(a, b), max(a, b)))
    # w's attachment pattern: every second ring vertex, both free colors
    hub_positions = list(range(1, length - 1, 2))
    hub_verts = [ring[p - 1] for p in hub_positions]
    for c in (f_a, f_b):
        for v in hub_verts:
            edge_sets[c].add((min(v, w), max(v, w)))
        for t in (x, y, z):
            edge_sets[c].add((min(t, w), max(t, w)))
        edge_sets[c].add((x, z))
    even_verts = [v for v in ring if v not in hub_verts]
    if variant == "main":
        edge_sets[c_star] |= {(0, x), (ring[length - 1], x)}
    elif variant == "case3":
        edge_sets[c_star] |= {(0, x), (1, x)}
    else:
        # k=4 fallback chain: the opening neighborhood is pinned exactly
        for v in even_verts:
            edge_sets[c_star].add((v, x))
        edge_sets[c_star] |= {(min(w, x), max(w, x)), (x, y)}
        if variant == "b1":
            edge_sets[f_a].add((0, y))
        elif variant == "b2":
            edge_sets[f_a].add((y, z))
        else:
            for v in even_verts:
                edge_sets[f_a].add((v, y))
            edge_sets[f_a].add((min(w, y), max(w, y)))
            edge_sets[f_a].add((x, y))
    zone = _sigma_zone(range(length), (x, y, z), z, ring)
    _decorate(edge_sets, zone, random.Random(f"{seed}:deco"))
    coll = _build(n, n - 1, edge_sets)
    cycle = ColoredCycle(tuple(ring), tuple(range(length)))
    _expect(check_colored_cycle(coll, cycle) is None, "planted cycle invalid")
    expect_sub = {"main": "main", "case3": "main", "b1": "b1", "b2": "b2", "b3": "b3"}
    for k in range(4, n):
        trace = near_cycle_k_path(coll, cycle, x, y, z, w, k)
        if k == 4:
            _expect(
                trace.case == "1" and trace.subcase == expect_sub[variant],
                f"length-4 branch drifted to {trace.case}/{trace.subcase}",
            )
        elif variant == "case3":
            _expect(trace.case == "3", f"expected interior anchor, got {trace.case}")
    handles = {
        "cycle": cycle,
        "x": x,
        "y": y,
        "z": z,
        "w": w,
        "c_star": c_star,
        "f_a": f_a,
        "f_b": f_b,
    }
    return coll, handles


def _shape_endpoint_bounds(n, seed, variant):
    if n not in (7, 9):
        raise ValueError("endpoint-bound fixtures are built for n in {7, 9}")
    if variant in ("lo-hi", "overlap") and n != 9:
        raise ValueError(f"variant {variant!r} needs n=9")
    length = n - 3
    off = (n - 3, n - 2, n - 1)
    c_star = n - 4
    f1, f2 = n - 3, n - 2
    edge_sets: dict[int, set] = {c: set() for c in range(n - 1)}
    for i in range(length - 1):
        edge_sets[i].add((i, i + 1))
    if n == 7:
        edge_sets[f1].add((0, 1))
        edge_sets[f2].add((2, 3))
        want = (1, 1)
    elif variant == "lo-lo":
        edge_sets[f1] |= {(0, 1), (0, 2)}
        edge_sets[f2] |= {(2, 5), (4, 5)}
        want = (2, 2)
    elif variant == "lo-hi":
        edge_sets[f1] |= {(0, 1), (0, 2)}
        edge_sets[f2] |= {(2, 5), (3, 5), (4, 5)}
        want = (2, 3)
    else:  # overlap: index 3 serves both endpoints, splicing a cycle
        edge_sets[f1] |= {(0, 1), (0, 2), (0, 3)}
        edge_sets[f2] |= {(2, 5), (4, 5)}
        want = None
    zone = [
        (c, a, b)
        for c in range(n - 1)
        for ai, a in enumerate(off)
        for b in off[ai + 1 :]
    ]
    _decorate(edge_sets, zone, random.Random(f"{seed}:deco"))
    coll = _build(n, n - 1, edge_sets)
    path = ColoredPath(tuple(range(length)), tuple(range(length - 1)))
    _expect(check_colored_path(coll, path) is None, "planted path invalid")
    handles = {"path": path, "excluded_color": c_star}
    if variant == "overlap":
        try:
            endpoint_bound_report(coll, path, excluded_color=c_star)
        except HypothesisViolation as hv:
            _expect(hv.fatal and hv.evidence is not None, "overlap fixture lost its cycle")
        else:
            raise RuntimeError("generator postcondition failed: overlap fixture passed")
        return coll, handles
    report = endpoint_bound_report(coll, path, excluded_color=c_star)
    _expect((report.d1, report.d2) == want, f"degrees {report.d1},{report.d2} != {want}")
    handles["d1"], handles["d2"] = want
    return coll, handles


def _hp_edges(n, variant) -> dict[int, set]:
    """Edge plants for the spanning-path shapes, n=9 (and n=7 for c2)."""
    f_a, f_b = n - 3, n - 2
    s: dict[int, set] = {c: set() for c in range(n - 1)}
    for i in range(n - 4):
        s[i].add((i, i + 1))
    if n == 7:
        # only the low-gap shape exists at n=7
        x, y, z = 4, 5, 6
        s[4] |= {(x, z), (0, 1), (0, 4), (0, 5), (0, 6)}
        s[5] |= {(x, z), (2, 3), (3, 4), (3, 5), (3, 6), (1, 4)}
        s[2] |= {(3, 4), (3, 5)}
        s[0] |= {(0, 4)}
        return s
    x, y, z = 6, 7, 8
    s[f_a].add((x, z))
    s[f_b].add((x, z))
    open_attach = {(0, 6), (0, 7), (0, 8)}
    close_attach = {(5, 6), (5, 7), (5, 8)}
    if variant == "a":
        s[6] |= {(0, 2), (0, 3), (1, 6)} | open_attach
        s[7] |= {(3, 5), (4, 5)} | close_attach
        s[1] |= {(1, 7)}
        s[2] |= {(2, 7)}
        s[4] |= {(5, 7)}
    elif variant == "b":
        s[6] |= {(0, 1), (0, 3), (1, 6)} | open_attach
        s[7] |= {(3, 5), (4, 5)} | close_attach
        s[3] |= {(4, 6)}
        s[2] |= {(2, 7)}
        s[4] |= {(5, 7)}
    elif variant == "c1":
        s[6] |= {(0, 1), (0, 2)} | open_attach
        s[7] |= {(2, 5), (3, 5), (4, 5), (5, 7)}
        s[0] |= {(0, 2)}
        s[1] |= {(1, 7)}
        s[4] |= {(5, 7)}
    elif variant == "c2":
        s[6] |= {(0, 1), (0, 2)} | open_attach
        s[7] |= {(3, 5), (4, 5)} | close_attach
        s[4] |= {(1, 5), (5, 6), (5, 7)}
        s[1] |= {(1, 7)}
        s[0] |= {(0, 6)}
    else:  # c2rec: the recolored re-entry lands in the full-run shape
        s[6] |= {(0, 1), (0, 2), (2, 5), (3, 5), (4, 5), (5, 7)} | open_attach
        s[7] |= {(3, 5), (4, 5)} | close_attach
        s[4] |= {(1, 5), (2, 5), (0, 1), (0, 2)} | open_attach
        s[0] |= {(0, 2)}
        s[1] |= {(1, 7)}
    return s


def _shape_ham_path(n, seed, variant):
    if n == 7 and variant != "c2":
        raise ValueError(
            "at n=7 the opening set has one slot, so only the low-gap "
            "shape c2 exists"
        )
    if n != 7 and n != 9:
        raise ValueError("spanning-path fixtures are built for n in {7, 9}")
    x, y, z = n - 3, n - 2, n - 1
    edge_sets = _hp_edges(n, variant)
    ring = list(range(n - 3))
    zone = _sigma_zone(range(n - 4), (x, y, z), z, ring)
    _decorate(edge_sets, zone, random.Random(f"{seed}:deco"))
    coll = _build(n, n - 1, edge_sets)
    path = ColoredPath(tuple(ring), tuple(range(n - 4)))
    _expect(check_colored_path(coll, path) is None, "planted path invalid")
    want_case = {"a": "a", "b": "b", "c1": "c", "c2": "c", "c2rec": "c"}[variant]
    for k in range(4, n):
        trace = ham_path_k_path(coll, path, x, y, z, k)
        _expect(trace.case == want_case, f"case drifted to {trace.case} at k={k}")
        if variant == "c2rec":
            _expect(
                trace.subcase is not None and trace.subcase.startswith("3.2->rec:"),
                f"recolored re-entry missing at k={k}: {trace.subcase}",
            )
    handles = {
        "path": path,
        "x": x,
        "y": y,
        "z": z,
        "c_star": n - 4,
        "case": want_case,
    }
    return coll, handles


def _shape_two_clique(n, seed, variant):
    half = (n - 3) // 2
    u1 = list(range(half))
    u2 = list(range(half, 2 * half))
    x, y, z = n - 3, n - 2, n - 1
    edge_sets: dict[int, set] = {c: set() for c in range(n - 1)}
    for c in range(n - 1):
        for side in (u1, u2):
            for i, a in enumerate(side):
                for b in side[i + 1 :]:
                    edge_sets[c].add((a, b))
        for v in u1 + u2:
            for t in (x, y, z):
                edge_sets[c].add((min(v, t), max(v, t)))
    edge_sets[0].add((x, y))
    if variant == "cross":
        edge_sets[0].add((0, half))
    perm = list(range(n))
    random.Random(f"{seed}:relabel").shuffle(perm)
    coll = _permuted(_build(n, n - 1, edge_sets), perm)
    u1_p = tuple(sorted(perm[v] for v in u1))
    u2_p = tuple(sorted(perm[v] for v in u2))
    u1_p, u2_p = min(u1_p, u2_p), max(u1_p, u2_p)
    handles = {
        "u1": u1_p,
        "u2": u2_p,
        "x": perm[x],
        "y": perm[y],
        "z": perm[z],
        "j": 0,
    }
    want = {"z": ("z-mid", "z-full"), "cross": ("cross",)}[variant]
    for k in range(4, n):
        tag = two_clique_k_path(
            coll, u1_p, u2_p, handles["x"], handles["y"], handles["z"], 0, k
        ).case
        _expect(
            tag == "straight" or tag in want,
            f"branch drifted to {tag!r} at k={k}",
        )
    return coll, handles


def _shape_join(n, seed, variant):
    if variant == "family":
        coll = gen_extremal_F(n, seed=seed)
        witness = recognize_F_family(coll)
        _expect(witness is not None, "family fixture not recognized")
        sx, sy = witness.partition["single_edge"]
        handles = {
            "f": tuple(v for v in witness.partition["q2"] if v not in (sx, sy)),
            "i": tuple(witness.partition["q1"]),
            "x": sx,
            "y": sy,
            "witness": witness,
        }
        return coll, handles
    big = (n - 1) // 2
    small = (n - 5) // 2
    eye = list(range(big))
    eff = list(range(big, big + small))
    x, y, z = n - 3, n - 2, n - 1
    edge_sets: dict[int, set] = {c: set() for c in range(n - 1)}
    for c in range(n - 1):
        for w in eye:
            for t in eff + [x, y, z]:
                edge_sets[c].add((min(w, t), max(w, t)))
        for i, a in enumerate(eff):
            for b in eff[i + 1 :]:
                edge_sets[c].add((a, b))
        for v in eff:
            edge_sets[c].add((v, z))
        edge_sets[c].add((x, y))
    if variant == "witness":
        edge_sets[1].add((eff[0], x))
    else:  # inner
        edge_sets[0].add((eye[0], eye[1]))
    perm = list(range(n))
    random.Random(f"{seed}:relabel").shuffle(perm)
    coll = _permuted(_build(n, n - 1, edge_sets), perm)
    handles = {
        "f": tuple(sorted(perm[v] for v in eff)),
        "i": tuple(sorted(perm[v] for v in eye)),
        "x": perm[x],
        "y": perm[y],
        "z": perm[z],
    }
    want = "1" if variant == "inner" else "2.1"
    for k in range(4, n):
        trace = join_partition_k_path(
            coll, handles["f"], handles["i"], handles["x"], handles["y"], handles["z"], k
        )
        _expect(trace.subcase == want, f"branch drifted to {trace.subcase!r} at k={k}")
        _expect(trace.path is not None, "unexpected verdict")
    return coll, handles


# ---------------------------------------------------------------------------
# dispatcher


def generate(spec: GenSpec) -> GraphCollection:
    """Build the instance a GenSpec describes."""
    if spec.family == "random":
        target = spec.min_degree if spec.min_degree is not None else (spec.n + 1) // 2
        return gen_random_collection(spec.n, spec.m, target, spec.seed)
    if spec.family == "F_family":
        q2 = spec.params.get("q2_edges")
        q2_edges = None if q2 is None else tuple((int(a), int(b)) for a, b in q2)
        return gen_extremal_F(spec.n, spec.m, q2_edges, spec.seed)
    if spec.family == "two_cliques_cor23":
        return gen_cor23_obstruction(spec.n, "ii", spec.seed)
    if spec.family == "join_partition_cor23":
        return gen_cor23_obstruction(spec.n, "iii", spec.seed)
    if spec.family.startswith("lemma_shape:"):
        lemma_id = spec.family.split(":", 1)[1]
        coll, _handles = gen_lemma_shape(
            lemma_id, spec.n, spec.seed, spec.params.get("variant")
        )
        return coll
    raise ValueError(f"unknown family {spec.family!r}")
