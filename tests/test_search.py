import random
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rainbowpan import _kernel_py, core, kernels
from rainbowpan.analysis import is_rainbow_panconnected
from rainbowpan.core import (
    GraphCollection,
    build_graph,
    mask_of,
    restrict,
    verify_colored_path,
)
from rainbowpan.generate import gen_cor23_obstruction
from rainbowpan.search import (
    _longest,
    BudgetExceeded,
    SearchBudget,
    assign_colors,
    default_budget,
    find_rainbow_cycle,
    find_rainbow_ham_path,
    find_rainbow_path,
    k_cap,
    k_paths,
    rainbow_distance,
    shortest_rainbow_path,
)
from . import oracles
from .kernel_input import pack
from .strategies import collections, shaped_views, views
from .sweeps import reference_k_paths, sweep_outcome


def random_collection(seed: str, max_n: int = 6, max_m: int = 4, p: float = 0.5):
    rng = random.Random(seed)
    n = rng.randint(4, max_n)
    m = rng.randint(2, max_m)
    graphs = []
    for _ in range(m):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        graphs.append(build_graph(n, edges))
    return GraphCollection(n, tuple(graphs))


class TestPathAgainstOracle:
    def test_existence_matches_exhaustive_enumeration(self):
        for seed in range(30):
            coll = random_collection(f"path:{seed}")
            k_top = min(coll.n, coll.m + 1)
            for x in range(coll.n):
                for y in range(x + 1, coll.n):
                    for k in range(2, k_top + 1):
                        got = find_rainbow_path(coll, x, y, k)
                        expect = oracles.rainbow_path_exists(coll, x, y, k)
                        assert (got is not None) == expect, (seed, x, y, k)
                        if got is not None:
                            assert got.vertices[0] == x and got.vertices[-1] == y
                            assert got.k == k

    def test_forbidden_colors_respected(self):
        """A query over fewer colors runs on a view that removes the others,
        restricted again from a view that already removes a vertex."""
        for seed in range(12):
            coll = random_collection(f"forbid:{seed}")
            banned = {coll.m - 1}
            view = restrict(coll, remove_vertices=[seed % coll.n])
            sub = restrict(view, remove_colors=banned)
            assert sub.removed_colors == banned
            assert sub.removed_vertices == view.removed_vertices
            alive = sub.vertices
            k_top = min(sub.n_surviving, sub.m_surviving + 1)
            for i, x in enumerate(alive):
                for y in alive[i + 1 :]:
                    for k in range(2, k_top + 1):
                        got = find_rainbow_path(sub, x, y, k)
                        expect = oracles.rainbow_path_exists(sub, x, y, k)
                        assert (got is not None) == expect
                        if got is not None:
                            assert banned.isdisjoint(got.colors)

    def test_repeated_query_returns_identical_witness(self):
        coll = random_collection("det:0", max_n=6)
        first = find_rainbow_path(coll, 0, 1, 4)
        second = find_rainbow_path(coll, 0, 1, 4)
        assert first == second


class TestAssignColors:
    def test_matches_exhaustive_assignment(self):
        for seed in range(40):
            rng = random.Random(f"assign:{seed}")
            coll = random_collection(f"assign:{seed}", p=0.6)
            length = rng.randint(2, coll.n)
            vertices = rng.sample(range(coll.n), length)
            options = oracles.edge_color_options(coll, vertices)
            if any(not opts for opts in options):
                with pytest.raises(ValueError, match="not an edge"):
                    assign_colors(coll, vertices)
                continue
            got = assign_colors(coll, vertices)
            expect = oracles.exhaustive_assignment(coll, vertices)
            assert (got is None) == (expect is None), (seed, vertices)
            if got is not None:
                assert len(set(got)) == len(got)
                for (u, v), c in zip(zip(vertices, vertices[1:]), got):
                    assert coll.has_edge(c, u, v)

    def test_pigeonhole_deficiency_is_none(self):
        # both edges carried only by color 0
        g0 = build_graph(3, [(0, 1), (1, 2)])
        g1 = build_graph(3, [])
        coll = GraphCollection(3, (g0, g1))
        assert assign_colors(coll, [0, 1, 2]) is None

    def test_rejects_union_non_edge_naming_pair(self):
        g = build_graph(3, [(0, 1)])
        coll = GraphCollection(3, (g, g))
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            assign_colors(coll, [0, 1, 2])

    def test_rejects_repeated_vertices(self):
        coll = random_collection("assign:err")
        with pytest.raises(ValueError):
            assign_colors(coll, [0, 1, 0])

    def test_single_vertex_assigns_nothing(self):
        coll = random_collection("assign:one")
        assert assign_colors(coll, [0]) == ()


class TestTwoVertexPaths:
    @given(collections(min_n=2))
    def test_k2_path_iff_some_color_has_edge(self, coll):
        x, y = 0, 1
        got = find_rainbow_path(coll, x, y, 2)
        expect = any(g.has_edge(x, y) for g in coll.graphs)
        assert (got is not None) == expect


class TestBudget:
    def test_tiny_budget_raises(self):
        kn = build_graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
        coll = GraphCollection(7, (kn,) * 6)
        with pytest.raises(BudgetExceeded) as info:
            find_rainbow_path(coll, 0, 6, 7, budget=SearchBudget(node_limit=1))
        # one node for the root, the second tick trips the limit
        assert info.value.nodes == 2

    def test_budget_env_var(self, monkeypatch):
        monkeypatch.setenv("RAINBOW_BUDGET", "123")
        assert default_budget().node_limit == 123
        monkeypatch.delenv("RAINBOW_BUDGET")
        assert default_budget().node_limit == 50_000_000

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            SearchBudget(node_limit=0)


class TestRainbowDistance:
    def test_matches_smallest_oracle_length(self):
        for seed in range(15):
            coll = random_collection(f"dist:{seed}", max_n=5, max_m=3)
            k_top = min(coll.n, coll.m + 1)
            for x in range(coll.n):
                for y in range(x + 1, coll.n):
                    expect = None
                    for k in range(2, k_top + 1):
                        if oracles.rainbow_path_exists(coll, x, y, k):
                            expect = k - 1
                            break
                    assert rainbow_distance(coll, x, y) == expect

    def test_same_vertex_distance_zero(self):
        coll = random_collection("dist:self")
        assert rainbow_distance(coll, 2, 2) == 0

    def test_unreachable_vertex(self):
        g = build_graph(3, [(0, 1)])
        coll = GraphCollection(3, (g, g))
        assert rainbow_distance(coll, 0, 2) is None

    def test_symmetry(self):
        for seed in range(8):
            coll = random_collection(f"dist:sym:{seed}")
            for x in range(coll.n):
                for y in range(x + 1, coll.n):
                    assert rainbow_distance(coll, x, y) == rainbow_distance(
                        coll, y, x
                    )

    def test_at_least_union_distance_with_equality_when_assignable(self):
        for seed in range(12):
            coll = random_collection(f"dist:lb:{seed}")
            nbr = oracles.neighbor_sets(coll)
            for x in range(coll.n):
                for y in range(x + 1, coll.n):
                    base = _union_distance(nbr, x, y)
                    got = rainbow_distance(coll, x, y)
                    if base is None:
                        assert got is None
                        continue
                    assert got is None or got >= base
                    shortest = [
                        p
                        for p in oracles.all_simple_paths(coll, x, y, base)
                        if len(p) == base + 1
                    ]
                    if any(
                        oracles.exhaustive_assignment(coll, p) is not None
                        for p in shortest
                    ):
                        assert got == base


def _union_distance(nbr, x, y):
    dist = {x: 0}
    frontier = [x]
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbr[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist.get(y)


class TestMonotonicity:
    def test_adding_edges_never_loses_paths(self):
        hits = 0
        for seed in range(50):
            rng = random.Random(f"mono:{seed}")
            coll = random_collection(f"mono:{seed}", p=0.45)
            x, y = rng.sample(range(coll.n), 2)
            k = rng.randint(2, min(coll.n, coll.m + 1))
            before = find_rainbow_path(coll, x, y, k)
            if before is None:
                continue
            hits += 1
            c = rng.randrange(coll.m)
            non_edges = [
                (u, v)
                for u in range(coll.n)
                for v in range(u + 1, coll.n)
                if not coll.has_edge(c, u, v)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            grown = GraphCollection(
                coll.n,
                tuple(
                    g.with_edge(u, v) if i == c else g
                    for i, g in enumerate(coll.graphs)
                ),
            )
            assert find_rainbow_path(grown, x, y, k) is not None
        assert hits > 10  # the sweep must actually exercise the property


class TestCycles:
    def test_existence_matches_oracle(self):
        for seed in range(15):
            coll = random_collection(f"cycle:{seed}", max_n=6, max_m=4, p=0.55)
            for length in range(3, min(coll.n, coll.m) + 1):
                got = find_rainbow_cycle(coll, length)
                expect = oracles.rainbow_cycle_exists(coll, length)
                assert (got is not None) == expect, (seed, length)

    def test_witness_is_canonical(self):
        for seed in range(20):
            coll = random_collection(f"cycle:canon:{seed}", p=0.7)
            for length in range(3, min(coll.n, coll.m) + 1):
                got = find_rainbow_cycle(coll, length)
                if got is not None:
                    vs = got.vertices
                    assert vs[0] == min(vs)
                    assert vs[1] < vs[-1]

    def test_length_above_vertex_count_is_none(self):
        kn = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        coll = GraphCollection(4, (kn,) * 5)
        assert find_rainbow_cycle(coll, 5) is None

    def test_length_above_color_count_rejected(self):
        kn = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        coll = GraphCollection(5, (kn,) * 3)
        with pytest.raises(ValueError):
            find_rainbow_cycle(coll, 4)


def _complete_bipartite(a: int, b: int, m: int) -> GraphCollection:
    """m copies of K_{a,b}, sides range(a) and range(a, a + b)."""
    g = build_graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])
    return GraphCollection(a + b, (g,) * m)


class TestSpanningRefutation:
    """Queries refuted at the root, before any kernel call: a node limit of
    1, or a kernel that raises, shows that no search ran."""

    @settings(deadline=None)
    @given(shaped_views())
    def test_refutation_agrees_with_oracle(self, view):
        """Wherever the root rule refutes a path or cycle length, exhaustive
        enumeration finds none."""
        assume(view.n_surviving <= 9)
        alive = view.vertices
        for i, x in enumerate(alive):
            for y in alive[i + 1 :]:
                for k in range(max(2, _longest(view, (x, y)) + 1), k_cap(view) + 1):
                    assert not oracles.rainbow_path_exists(view, x, y, k), (x, y, k)
        for length in range(max(3, _longest(view, ()) + 1), view.n_surviving + 1):
            assert not oracles.rainbow_cycle_exists(view, length), length

    @given(shaped_views(max_n=12))
    def test_longest_is_the_least_room_of_every_class(self, view):
        """`_longest` reads only the three largest twin classes; the bound
        is the one every component and class gives."""
        def reference(ends):
            held = [c.bit_count() for c in view.union_components
                    if all((c >> v) & 1 for v in ends)]
            rooms = [2 * (view.n_surviving - eye.bit_count())
                     + ((eye & mask_of(ends)).bit_count() - 1 if ends else 0)
                     for eye in view.union_twin_classes]
            return min([max(held, default=0), *rooms])

        alive = view.vertices
        assert _longest(view, ()) == reference(())
        for i, x in enumerate(alive):
            for y in alive[i + 1 :]:
                assert _longest(view, (x, y)) == reference((x, y)), (x, y)

    @settings(deadline=None)
    @given(shaped_views(), st.data())
    def test_spanning_paths_match_oracle_under_forbidden_colors(self, view, data):
        """Spanning queries on a view that removes up to two more colors."""
        k = view.n_surviving
        assume(2 <= k <= 7)
        forbidden = data.draw(st.sets(st.sampled_from(view.colors), max_size=2))
        assume(k - 1 <= len(set(view.colors) - forbidden))
        sub = restrict(view, remove_colors=forbidden)
        alive = sub.vertices
        for i, x in enumerate(alive):
            for y in alive[i + 1 :]:
                got = find_rainbow_ham_path(sub, x, y)
                expect = oracles.rainbow_path_exists(sub, x, y, k)
                assert (got is not None) == expect, (x, y)

    def test_twin_bound_counts_the_ends(self):
        one = SearchBudget(node_limit=1)
        # K_{3,3}: a spanning path joins the two sides; a spanning cycle exists
        coll = _complete_bipartite(3, 3, 6)
        assert find_rainbow_ham_path(coll, 0, 1, budget=one) is None
        assert find_rainbow_ham_path(coll, 4, 5, budget=one) is None
        assert find_rainbow_ham_path(coll, 0, 3) is not None
        assert find_rainbow_cycle(coll, 6) is not None
        # K_{3,4}: both ends on the larger side, and no spanning cycle
        coll = _complete_bipartite(3, 4, 7)
        assert find_rainbow_ham_path(coll, 3, 4) is not None
        assert find_rainbow_ham_path(coll, 0, 3, budget=one) is None
        assert find_rainbow_ham_path(coll, 0, 1, budget=one) is None
        assert find_rainbow_cycle(coll, 7, budget=one) is None
        # shorter paths are left to the kernel
        with pytest.raises(BudgetExceeded):
            find_rainbow_path(coll, 0, 1, 5, budget=one)

    def test_disconnected_union_refuted(self):
        one = SearchBudget(node_limit=1)
        # vertex 0 is isolated in every color; the other five span a K_5
        k5 = build_graph(6, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
        coll = GraphCollection(6, (k5,) * 6)
        assert find_rainbow_ham_path(coll, 1, 2, budget=one) is None
        assert find_rainbow_cycle(coll, 6, budget=one) is None
        rest = restrict(coll, remove_vertices=[0])
        assert find_rainbow_ham_path(rest, 1, 2) is not None
        assert find_rainbow_cycle(rest, 5) is not None

    @pytest.mark.parametrize("case", ["ii", "iii"])
    def test_cor23_obstructions_at_size_limit(self, case):
        coll = gen_cor23_obstruction(62, case)
        one = SearchBudget(node_limit=1)
        for x, y in [(0, 1), (0, 61), (30, 31)]:
            assert find_rainbow_ham_path(coll, x, y, budget=one) is None
        sub = restrict(coll, remove_colors=[5])
        assert find_rainbow_ham_path(sub, 0, 61, budget=one) is None
        assert find_rainbow_cycle(coll, 62, budget=one) is None

    @pytest.mark.parametrize("case", ["ii", "iii"])
    def test_refuted_queries_never_reach_a_kernel(self, case, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("a refuted query reached the kernel")

        for name in ("find_path", "find_paths", "find_cycle"):
            monkeypatch.setattr(kernels, name, no_kernel)
        coll = gen_cor23_obstruction(12, case)
        refuted = 0
        for x in range(12):
            for y in range(x + 1, 12):
                for k in range(max(2, _longest(coll, (x, y)) + 1), 13):
                    assert find_rainbow_path(coll, x, y, k) is None, (x, y, k)
                    refuted += 1
        for length in range(max(3, _longest(coll, ()) + 1), 13):
            assert find_rainbow_cycle(coll, length) is None, length
            refuted += 1
        assert refuted > 67  # more than the 66 spanning paths and one cycle

    @pytest.mark.parametrize("impl", ["python", "compiled"])
    @pytest.mark.parametrize(
        "n, failure", [(28, (0, 1, 15)), (30, (0, 1, 16)), (40, (0, 1, None)), (62, (0, 1, None))]
    )
    def test_cor23_case_ii_decides(self, n, failure, impl, request, monkeypatch):
        """Two half cliques: a pair on one side has no path longer than its
        half, and the certificate says so without searching the clique."""
        kern = _kernel_py if impl == "python" else request.getfixturevalue("kernel")
        for name in ("find_path", "find_paths", "find_cycle"):
            monkeypatch.setattr(kernels, name, getattr(kern, name))
        cert = is_rainbow_panconnected(gen_cor23_obstruction(n, "ii", 0))
        assert (cert.verdict, cert.failure) == (False, failure)


class TestViewsAndValidation:
    def test_ham_path_spans_surviving_vertices(self):
        kn = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        coll = GraphCollection(5, (kn,) * 4)
        view = restrict(coll, remove_vertices=[4])
        path = find_rainbow_ham_path(view, 0, 3)
        assert path is not None and path.k == 4
        assert 4 not in path.vertices
        assert verify_colored_path(view, path)

    def test_rejects_equal_endpoints(self):
        coll = random_collection("val:0")
        with pytest.raises(ValueError):
            find_rainbow_path(coll, 1, 1, 3)

    def test_rejects_k_out_of_range(self):
        coll = random_collection("val:1")
        with pytest.raises(ValueError):
            find_rainbow_path(coll, 0, 1, 1)
        with pytest.raises(ValueError):
            find_rainbow_path(coll, 0, 1, coll.n + 1)

    def test_rejects_k_beyond_colors(self):
        g = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        coll = GraphCollection(5, (g, g))
        with pytest.raises(ValueError):
            find_rainbow_path(coll, 0, 1, 4)  # 3 edges, 2 colors

    @pytest.mark.parametrize("query, message", [
        (lambda view: find_rainbow_path(view, 0, view.n, 2), "outside vertex range"),
        (lambda view: list(k_paths(view, 1, 1)), "endpoints must differ"),
        (lambda view: find_rainbow_cycle(view, 2), "cycle length below 3"),
    ], ids=["vertex-out-of-range", "k-paths-one-endpoint", "cycle-below-3"])
    def test_rejects_malformed_queries(self, query, message):
        with pytest.raises(ValueError, match=message):
            query(random_collection("val:3"))

    def test_rejects_removed_endpoint(self):
        coll = random_collection("val:2")
        view = restrict(coll, remove_vertices=[0])
        with pytest.raises(ValueError):
            find_rainbow_path(view, 0, 1, 2)

    def test_budget_is_keyword_only(self):
        # a positional budget once landed where a removed parameter stood
        kn = build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        view = GraphCollection(6, (kn,) * 6)
        for call in (
            lambda: find_rainbow_cycle(view, 6, SearchBudget()),
            lambda: find_rainbow_path(view, 0, 1, 4, SearchBudget()),
            lambda: find_rainbow_ham_path(view, 0, 1, SearchBudget()),
            lambda: shortest_rainbow_path(view, 0, 1, SearchBudget()),
            lambda: rainbow_distance(view, 0, 1, SearchBudget()),
        ):
            with pytest.raises(TypeError):
                call()
        assert find_rainbow_cycle(view, 6, budget=SearchBudget()) is not None

    @given(collections(min_n=2))
    def test_every_collection_edge_yields_its_two_path(self, coll):
        for c in range(coll.m):
            for u, v in coll[c].edges():
                path = find_rainbow_path(coll, u, v, 2)
                assert path is not None


class TestKernelInput:
    @given(views(), st.data())
    def test_kernel_adj_matches_reference(self, view, data):
        """The kernel input of a view restricted again by colors, checked
        against rows built by hand from the base graphs."""
        more = data.draw(st.sets(st.integers(0, view.base.m - 1)))
        assume(len(view.removed_colors | more) < view.base.m)
        sub = restrict(view, remove_colors=more)
        expect_active = [
            c
            for c in range(view.base.m)
            if c not in view.removed_colors and c not in more
        ]
        assert sub.n == view.n
        assert list(sub.colors) == expect_active
        assert array("Q", sub.kernel_adj).tolist() == [
            row for c in expect_active for row in oracles.restricted_rows(sub, c)
        ]
        alive = [v for v in range(view.n) if v not in view.removed_vertices]
        assert sub.vertex_mask == sum(1 << v for v in alive)


class TestShortestPath:
    def test_is_the_distance_witness(self):
        for seed in range(6):
            coll = random_collection(f"short:{seed}")
            for x in range(coll.n):
                for y in range(x + 1, coll.n):
                    d = rainbow_distance(coll, x, y)
                    path = shortest_rainbow_path(coll, x, y)
                    if d is None:
                        assert path is None
                        continue
                    assert path == find_rainbow_path(coll, x, y, d + 1)

    def test_distance_on_color_restricted_views(self):
        """The deepening stops at the view's surviving color count."""
        unreachable = 0
        for seed in range(10):
            coll = random_collection(f"short:restricted:{seed}", max_n=5, max_m=3)
            sub = restrict(coll, remove_colors=[seed % coll.m])
            k_top = min(sub.n_surviving, sub.m_surviving + 1)
            for x in range(coll.n):
                for y in range(x + 1, coll.n):
                    expect = next(
                        (k - 1 for k in range(2, k_top + 1)
                         if oracles.rainbow_path_exists(sub, x, y, k)),
                        None,
                    )
                    assert rainbow_distance(sub, x, y) == expect, (seed, x, y)
                    unreachable += expect is None
        assert unreachable > 0  # some pair is cut off by the color count

    def test_same_vertex_is_one_vertex_path(self):
        coll = random_collection("short:self")
        assert shortest_rainbow_path(coll, 2, 2).vertices == (2,)

    def test_asks_one_k_at_a_time_up_to_the_first_path(self, monkeypatch):
        """The kernel queries are the first ones of the per-k sweep: one
        `find_path` call per k, up to the first k with a path, and no walk."""
        calls = []

        def spy(*args):
            calls.append(args[2:5])
            return _kernel_py.find_path(*args)

        monkeypatch.setattr(kernels, "find_path", spy)
        monkeypatch.setattr(kernels, "find_paths", None)
        deeper = 0
        for seed in range(30):
            coll = random_collection(f"short:queries:{seed}", max_n=7, p=0.25)
            for view in (coll, restrict(coll, remove_colors=[seed % coll.m])):
                for x in view.vertices:
                    for y in view.vertices:
                        if x == y:
                            continue
                        calls.clear()
                        expect = next((path for _, path in reference_k_paths(view, x, y)), None)
                        asked = calls.copy()
                        calls.clear()
                        assert shortest_rainbow_path(view, x, y) == expect
                        assert calls == asked, (seed, x, y)
                        deeper += len(asked) > 1
        assert deeper > 10, deeper


def _walk_views():
    """(view, node limits): collections of random graphs on 5 to 11
    vertices and Corollary 2.3's obstructions on 4 to 12, each with a view
    without one vertex and one color. The obstructions' largest views, whose
    unlimited sweeps exhaust big trees, are asked under node limits only."""
    limits = (None, 3, 20, 200)
    for seed in range(40):
        rng = random.Random(f"walk:{seed}")
        n = rng.randint(5, 11)
        m = rng.randint(3, n)
        p = rng.uniform(0.2, 0.6)
        coll = GraphCollection(n, tuple(
            build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            for _ in range(m)
        ))
        yield coll, limits
        yield restrict(coll, remove_vertices=(rng.randrange(n),), remove_colors=(rng.randrange(m),)), limits
    for n in range(4, 13, 2):
        for case in ("ii", "iii"):
            coll = gen_cor23_obstruction(n, case)
            asked = limits if n <= 10 else limits[1:]
            yield coll, asked
            yield restrict(coll, remove_vertices=(0,), remove_colors=(1,)), asked


@pytest.mark.parametrize("impl", ["python", "compiled"])
def test_k_paths_walk_equals_the_per_k_sweep(impl, request, monkeypatch):
    """On every pair of every view and under every node limit, `k_paths`
    yields what one `find_rainbow_path` query per k yields and, when a
    budget stops the sweep, raises the same BudgetExceeded message."""
    kern = _kernel_py if impl == "python" else request.getfixturevalue("kernel")
    monkeypatch.setattr(kernels, "find_path", kern.find_path)
    monkeypatch.setattr(kernels, "find_paths", kern.find_paths)
    sweeps = stops = 0
    for view, limits in _walk_views():
        alive = view.vertices
        for i, x in enumerate(alive):
            for y in alive[i + 1:]:
                for limit in limits:
                    budget = None if limit is None else SearchBudget(limit)
                    want = sweep_outcome(reference_k_paths, view, x, y, budget)
                    assert sweep_outcome(k_paths, view, x, y, budget) == want, (view, x, y, limit)
                    sweeps += 1
                    stops += bool(want) and isinstance(want[-1], str)
    assert sweeps > 10_000 and stops > 2_000, (sweeps, stops)


def test_k_paths_walk_gives_up_on_a_missing_short_length(monkeypatch):
    """On a bipartite union graph a path between two vertices of one side
    has an odd vertex count. The pair (0, 1) at distance 2 has a path on 3
    vertices and none on 4, while every odd count up to 15 has one. Read up
    to its first missing length, as the certificate reads it, one query per
    length spends 12 nodes; a walk that exhausted the tree cut at 15
    vertices would spend millions before it could tell 4 has no path."""
    rng = random.Random("bipartite")
    n = 16
    coll = GraphCollection(n, tuple(
        build_graph(n, [(u, v) for u in range(8) for v in range(8, n) if rng.random() < 0.5])
        for _ in range(n - 1)
    ))
    spent = []

    def path_spy(*args):
        result = _kernel_py.find_path(*args)
        spent.append(result[3])
        return result

    def walk_spy(*args):
        result = _kernel_py.find_paths(*args)
        spent.append(result[2])
        return result

    monkeypatch.setattr(kernels, "find_path", path_spy)
    monkeypatch.setattr(kernels, "find_paths", walk_spy)
    read = []
    for k, path in k_paths(coll, 0, 1):
        read.append((k, path is not None))
        if path is None:
            break
    assert read == [(3, True), (4, False)]
    assert sum(spent) < 200, spent  # a walk, then the query for 4 alone


def test_union_distances_run_one_bfs_per_source(monkeypatch):
    """The union distances are kept on the view per source, computed when a
    source is first asked: one pair's sweep runs one BFS, and a certificate
    over every pair one per source, not one per pair."""
    sources = []
    bfs = core.distances
    monkeypatch.setattr(core, "distances", lambda rows, src: sources.append(src) or bfs(rows, src))
    complete = build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    list(k_paths(GraphCollection(6, (complete,) * 5), 0, 1))
    assert sources == [0]
    sources.clear()
    cert = is_rainbow_panconnected(GraphCollection(6, (complete,) * 5))
    assert cert.verdict and len(cert.pairs) == 15 and sources == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("view, x, y", [
    # k_cap ends the range: a 6-cycle in 3 colors, pair at distance 3
    (GraphCollection(6, (build_graph(6, [(i, (i + 1) % 6) for i in range(6)]),) * 3), 0, 3),
    # the twin bound ends it: K_{2,4}, both ends on the side of 2
    (_complete_bipartite(2, 4, 5), 0, 1),
], ids=["k_cap", "twin_bound"])
@pytest.mark.parametrize("limit", [1, 2])
def test_one_length_walk_budget_stop_is_final(view, x, y, limit, monkeypatch):
    """A walk over a single length is that length's own query, so its
    budget stop is raised from the walk: one `find_paths` call and no
    `find_path` call, with the per-k sweep's message."""
    calls = []

    def spy(name):
        real = getattr(kernels, name)
        return lambda *args: calls.append(name) or real(*args)

    budget = SearchBudget(limit)
    want = sweep_outcome(reference_k_paths, view, x, y, budget)
    assert len(want) == 1 and "budget exhausted" in want[0]
    for name in ("find_path", "find_paths"):
        monkeypatch.setattr(kernels, name, spy(name))
    assert sweep_outcome(k_paths, view, x, y, budget) == want
    assert calls == ["find_paths"]


def test_pure_kernel_calls_leave_no_reference_cycles():
    """A pure kernel call leaves nothing in a reference cycle: its search
    state and the extenders it hands the candidate loop are freed by
    reference counting, whatever the call ends in, on a new input each call
    (tables built, the old ones dropped) and on one input (cached tables,
    hit by every call after the first)."""
    import gc

    from rainbowpan import _kernel_py as kp

    n = m = 6
    ring = [(1 << (v + 1) % n) | (1 << (v - 1) % n) for v in range(n)]  # C6
    one = pack(ring * m)
    for adj in (lambda: pack(ring * m), lambda: one):
        calls = [
            (kp.FOUND, lambda: kp.find_paths(n, adj(), 0, 3, 2, 6, 10**6)),
            (kp.NONE, lambda: kp.find_paths(n, adj(), 0, 1, 3, 3, 10**6)),
            (kp.BUDGET, lambda: kp.find_paths(n, adj(), 0, 1, 2, 6, 1)),
            (kp.FOUND, lambda: kp.find_path(n, adj(), 0, 3, 4, 10**6)),
            (kp.NONE, lambda: kp.find_path(n, adj(), 0, 1, 3, 10**6)),
            (kp.BUDGET, lambda: kp.find_path(n, adj(), 0, 1, 6, 1)),
            (kp.FOUND, lambda: kp.find_cycle(n, adj(), 6, 10**6)),
            (kp.NONE, lambda: kp.find_cycle(n, adj(), 4, 10**6)),
            (kp.BUDGET, lambda: kp.find_cycle(n, adj(), 6, 1)),
        ]
        gc.collect()
        gc.disable()
        try:
            for _ in range(2):
                for status, call in calls:
                    assert call()[0] == status
                    assert gc.collect() == 0
        finally:
            gc.enable()
    assert kp._cached.adj is one
