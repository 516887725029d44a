import gc
import weakref

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rainbowpan.core import (
    ColoredCycle,
    ColoredPath,
    GraphCollection,
    SimpleGraph,
    SubCollectionView,
    bits,
    build_graph,
    check_colored_cycle,
    check_colored_path,
    collection_min_degree,
    mask_of,
    min_degree,
    restrict,
    row_groups,
    sigma2,
    union_adjacency,
    verify_colored_cycle,
    verify_colored_path,
)
from . import oracles
from .strategies import collections, graphs, shaped_views, views


@given(st.lists(st.integers(0, 63), unique=True))
def test_mask_of_bits_roundtrip(vertices):
    assert list(bits(mask_of(vertices))) == sorted(vertices)


class TestSimpleGraph:
    @given(graphs())
    def test_edges_rebuild_identity(self, g):
        assert build_graph(g.n, g.edges()) == g

    @given(graphs())
    def test_handshake(self, g):
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count()

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(3, [(0, 3)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, (0b10, 0b00))

    @pytest.mark.parametrize("n, adj, message", [
        (0, (), "vertex count 0"),
        (65, (0,) * 65, "vertex count 65"),
        (3, (0, 0), "row count"),
        (2, (0b100, 0), "bits outside"),
        (2, (0b1, 0), "loop at vertex 0"),
    ], ids=["n=0", "n=65", "row-count", "bits-outside-n", "loop"])
    def test_rejects_malformed_rows(self, n, adj, message):
        with pytest.raises(ValueError, match=message):
            SimpleGraph(n, adj)

    def test_with_without_edge_roundtrip(self):
        g = build_graph(4, [(0, 1)])
        g2 = g.with_edge(2, 3)
        assert g2.has_edge(2, 3) and g2.has_edge(3, 2)
        assert g2.without_edge(2, 3) == g

    def test_neighbors_ascending(self):
        g = build_graph(5, [(2, 4), (2, 0), (2, 3)])
        assert g.neighbors(2) == (0, 3, 4)

    def test_min_degree(self):
        assert min_degree(build_graph(3, [(0, 1), (1, 2)])) == 1

    def test_sigma2_complete_is_none(self):
        k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert sigma2(k3) is None

    def test_sigma2_path(self):
        # P3: only non-adjacent pair is the two leaves
        assert sigma2(build_graph(3, [(0, 1), (1, 2)])) == 2


class TestGraphCollection:
    def test_indexing_and_m(self):
        g0 = build_graph(3, [(0, 1)])
        g1 = build_graph(3, [(1, 2)])
        coll = GraphCollection(3, (g0, g1))
        assert coll.m == 2
        assert coll[1] is g1
        assert coll.has_edge(0, 1, 0)
        assert not coll.has_edge(1, 0, 1)

    def test_rejects_mismatched_vertex_count(self):
        with pytest.raises(ValueError):
            GraphCollection(3, (build_graph(4, []),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GraphCollection(3, ())

    def test_rejects_more_than_63_graphs(self):
        with pytest.raises(ValueError, match="exceeds 63 graphs"):
            GraphCollection(2, (build_graph(2, [(0, 1)]),) * 64)

    @given(collections())
    def test_min_degree_matches_per_graph_minimum(self, coll):
        assert collection_min_degree(coll) == min(
            min_degree(g) for g in coll.graphs
        )


class TestColoredPath:
    def test_k_counts_vertices(self):
        p = ColoredPath((0, 1, 2), (0, 1))
        assert p.k == 3

    def test_edge_items(self):
        # edge i joins vertices i and i + 1 in colors[i]
        g31, g12 = build_graph(4, [(3, 1)]), build_graph(4, [(1, 2)])
        coll = GraphCollection(4, (g12,) + (build_graph(4, []),) * 4 + (g31,))
        assert check_colored_path(coll, ColoredPath((3, 1, 2), (5, 0))) is None
        assert check_colored_path(coll, ColoredPath((3, 1, 2), (0, 5))) == (
            "edge (3, 1) missing from graph 0"
        )

    def test_reversed(self):
        p = ColoredPath((0, 1, 2), (4, 7))
        assert p.reversed() == ColoredPath((2, 1, 0), (7, 4))

    @pytest.mark.parametrize(
        "vertices,colors",
        [
            ((0, 1, 0), (0, 1)),  # repeated vertex
            ((0, 1, 2), (0,)),  # wrong color count
            ((0, 1, 2), (3, 3)),  # repeated color
            ((), ()),
        ],
    )
    def test_rejects_malformed(self, vertices, colors):
        with pytest.raises(ValueError):
            ColoredPath(vertices, colors)


class TestColoredCycle:
    def test_closing_edge_included(self):
        c = ColoredCycle((0, 1, 2), (5, 6, 7))
        empty = build_graph(3, [])
        graphs = [empty] * 8
        graphs[5], graphs[6] = build_graph(3, [(0, 1)]), build_graph(3, [(1, 2)])
        open_coll = GraphCollection(3, tuple(graphs))
        assert check_colored_cycle(open_coll, c) == "edge (2, 0) missing from graph 7"
        assert not verify_colored_cycle(open_coll, c)
        graphs[7] = build_graph(3, [(2, 0)])
        closed_coll = GraphCollection(3, tuple(graphs))
        assert check_colored_cycle(closed_coll, c) is None
        assert verify_colored_cycle(closed_coll, c)
        assert c.length == 3

    def test_rejects_short_cycle(self):
        with pytest.raises(ValueError):
            ColoredCycle((0, 1), (0, 1))

    def test_rejects_color_count_mismatch(self):
        with pytest.raises(ValueError):
            ColoredCycle((0, 1, 2), (0, 1))

    @pytest.mark.parametrize("vertices, colors, message", [
        ((0, 1, 0), (0, 1, 2), "repeated vertex"),
        ((0, 1, 2), (0, 1, 1), "repeated color"),
    ], ids=["vertex", "color"])
    def test_rejects_repeats(self, vertices, colors, message):
        with pytest.raises(ValueError, match=message):
            ColoredCycle(vertices, colors)


def _demo_collection() -> GraphCollection:
    g0 = build_graph(5, [(0, 1), (1, 2), (2, 3)])
    g1 = build_graph(5, [(0, 2), (1, 2), (3, 4)])
    g2 = build_graph(5, [(0, 4), (2, 4)])
    return GraphCollection(5, (g0, g1, g2))


class TestSubCollectionView:
    def test_as_view_identity(self):
        # a collection and each of its views are read as views directly
        coll = _demo_collection()
        view = restrict(coll, remove_vertices=[4])
        assert coll.base is coll and view.base is coll
        assert restrict(coll) == coll and restrict(view) == view
        # anything else is left to its own comparison, and so unequal
        assert view.__eq__(coll.graphs) is NotImplemented
        assert view != coll.graphs and view != (coll, frozenset({4}), frozenset())

    def test_full_view_surfaces_everything(self):
        view = _demo_collection()
        assert view.vertices == (0, 1, 2, 3, 4)
        assert view.colors == (0, 1, 2)
        assert view.n_surviving == 5 and view.m_surviving == 3

    def test_removed_vertex_disappears_from_rows(self):
        view = restrict(_demo_collection(), remove_vertices=[2])
        assert view.color_rows[1][2] == 0
        assert not view.has_edge(0, 1, 2)
        assert view.has_edge(0, 0, 1)
        assert view.color_rows[0][1].bit_count() == 1  # edge (1,2) gone, (0,1) stays

    def test_removed_color_disappears(self):
        view = restrict(_demo_collection(), remove_colors=[1])
        assert view.colors == (0, 2)
        assert view.color_rows[1][0] == 0

    def test_restrict_composes_against_base(self):
        coll = _demo_collection()
        twice = restrict(restrict(coll, remove_vertices=[0]), remove_vertices=[3])
        once = restrict(coll, remove_vertices=[0, 3])
        assert twice == once and hash(twice) == hash(once) != hash(coll)
        assert len({twice, once, restrict(coll, remove_colors=[0])}) == 2
        assert twice.base is coll

    def test_rejects_total_removal(self):
        coll = _demo_collection()
        with pytest.raises(ValueError):
            restrict(coll, remove_vertices=range(5))
        with pytest.raises(ValueError):
            restrict(coll, remove_colors=range(3))

    def test_rejects_out_of_range_removals(self):
        with pytest.raises(ValueError):
            restrict(_demo_collection(), remove_vertices=[9])
        with pytest.raises(ValueError):
            restrict(_demo_collection(), remove_colors=[7])

    @given(collections(min_n=3))
    def test_degree_matches_masked_count(self, coll):
        view = restrict(coll, remove_vertices=[0])
        for c in view.colors:
            for v in view.vertices:
                manual = sum(
                    1
                    for u in view.vertices
                    if u != v and coll.has_edge(c, u, v)
                )
                assert view.color_rows[c][v].bit_count() == manual


class TestPathChecks:
    def test_valid_path_passes(self):
        coll = _demo_collection()
        assert check_colored_path(coll, ColoredPath((0, 1, 2), (0, 1))) is None

    def test_missing_edge_reported(self):
        coll = _demo_collection()
        msg = check_colored_path(coll, ColoredPath((0, 1, 2), (2, 1)))
        assert msg is not None and "graph 2" in msg

    def test_removed_vertex_reported(self):
        view = restrict(_demo_collection(), remove_vertices=[1])
        msg = check_colored_path(view, ColoredPath((0, 1, 2), (0, 1)))
        assert msg is not None and "removed" in msg

    def test_unavailable_color_reported(self):
        view = restrict(_demo_collection(), remove_colors=[0])
        msg = check_colored_path(view, ColoredPath((0, 1, 2), (0, 1)))
        assert msg is not None and "color 0" in msg

    def test_too_many_edges_for_colors(self):
        coll = _demo_collection()
        view = restrict(coll, remove_colors=[1, 2])
        msg = check_colored_path(view, ColoredPath((0, 1, 2), (0, 5)))
        assert msg is not None and "available colors" in msg

    def test_cycle_closing_edge_checked(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        coll = GraphCollection(3, (g, g, g))
        msg = check_colored_cycle(coll, ColoredCycle((0, 1, 2), (0, 1, 2)))
        assert msg is not None and "(2, 0)" in msg

    @pytest.mark.parametrize("removed, vertices, colors, message", [
        ({}, (3, 4, 0, 1), (1, 2, 0), None),
        ({"remove_colors": [1, 2]}, (0, 1, 2), (0, 5), "2 edges exceed 1 available colors"),
        ({"remove_vertices": [1]}, (3, 9, 1), (0, 1), "vertex 9 outside range"),
        ({}, (0, -1), (0,), "vertex -1 outside range"),
        ({"remove_vertices": [2]}, (0, 1, 2, 3), (0, 1, 2), "vertex 2 removed by view"),
        ({"remove_colors": [1]}, (0, 1, 2), (0, 1), "color 1 unavailable"),
        ({}, (0, 1, 2), (0, 7), "color 7 unavailable"),
        ({}, (0, 1, 2), (0, -1), "color -1 unavailable"),
        ({}, (0, 1, 2, 3), (2, 7, 0), "edge (0, 1) missing from graph 2"),
        ({}, (4, 2, 3), (2, 1), "edge (2, 3) missing from graph 1"),
    ])
    def test_first_path_violation(self, removed, vertices, colors, message):
        view = restrict(_demo_collection(), **removed)
        assert check_colored_path(view, ColoredPath(vertices, colors)) == message

    @pytest.mark.parametrize("removed, vertices, colors, message", [
        ({}, (0, 1, 2), (0, 1, 2), None),
        ({}, (1, 2, 3, 0), (0, 1, 3, 2), None),
        ({"remove_colors": [2, 3]}, (0, 1, 2), (0, 1, 2), "3 edges exceed 2 available colors"),
        ({}, (0, 1, 5), (0, 1, 2), "vertex 5 outside range"),
        ({"remove_vertices": [2]}, (0, 1, 2), (0, 1, 2), "vertex 2 removed by view"),
        ({"remove_colors": [1]}, (0, 1, 2), (0, 1, 2), "color 1 unavailable"),
        ({}, (0, 1, 2), (0, 1, 9), "color 9 unavailable"),
        ({}, (0, 1, 3), (0, 1, 2), "edge (1, 3) missing from graph 1"),
        ({}, (0, 2, 3), (0, 1, 2), "edge (3, 0) missing from graph 2"),
    ])
    def test_first_cycle_violation(self, removed, vertices, colors, message):
        tri = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        coll = GraphCollection(4, (tri, tri, tri, build_graph(4, [(0, 3)])))
        view = restrict(coll, **removed)
        assert check_colored_cycle(view, ColoredCycle(vertices, colors)) == message

    @given(collections())
    def test_verify_accepts_known_good_two_paths(self, coll):
        for c in range(coll.m):
            for u, v in coll[c].edges():
                assert verify_colored_path(coll, ColoredPath((u, v), (c,)))


@given(collections())
def test_union_adjacency_matches_naive(coll):
    rows = union_adjacency(coll)
    for v in range(coll.n):
        expect = 0
        for g in coll.graphs:
            expect |= g.adj[v]
        assert rows[v] == expect


class TestViewSnapshot:
    @given(views())
    def test_color_rows_match_reference(self, view):
        for c in range(view.base.m):
            ref = oracles.restricted_rows(view, c)
            assert list(view.color_rows[c]) == ref

    @given(views())
    def test_union_rows_match_reference(self, view):
        expect = [0] * view.n
        for c in range(view.base.m):
            for v, row in enumerate(oracles.restricted_rows(view, c)):
                expect[v] |= row
        assert list(view.union_rows) == expect
        rows = union_adjacency(view)
        assert rows == expect
        rows[0] ^= 1  # a fresh list: the cached rows stay as they were
        assert list(view.union_rows) == expect

    @given(views(), st.data())
    def test_restrict_of_cached_view_gets_fresh_snapshot(self, view, data):
        view.kernel_adj, view.union_rows  # fill the parent's snapshot
        more_v = data.draw(st.sets(st.integers(0, view.n - 1)))
        more_c = data.draw(st.sets(st.integers(0, view.base.m - 1)))
        assume(len(view.removed_vertices | more_v) < view.n)
        assume(len(view.removed_colors | more_c) < view.base.m)
        sub = restrict(view, more_v, more_c)
        assert sub.vertex_mask == ((1 << view.n) - 1) & ~mask_of(sub.removed_vertices)
        assert sub.colors == tuple(
            c for c in range(view.base.m) if c not in sub.removed_colors
        )
        for c in range(view.base.m):
            assert list(sub.color_rows[c]) == oracles.restricted_rows(sub, c)

    def test_collection_shares_one_full_view(self):
        # every query on the collection reads the collection's own snapshot
        coll = _demo_collection()
        assert coll.base.color_rows is coll.color_rows
        assert coll == SubCollectionView(coll)

    def test_collection_is_its_own_full_view(self):
        coll = _demo_collection()
        full = SubCollectionView(coll)
        assert coll.base is coll
        assert not coll.removed_vertices and not coll.removed_colors
        assert full == coll and hash(full) == hash(coll)
        assert restrict(coll, [1]) != coll and restrict(coll, [1]) == restrict(full, [1])
        for name in ("vertex_mask", "colors", "color_rows", "union_rows", "kernel_adj"):
            assert getattr(coll, name) == getattr(full, name), name

    def test_collection_freed_without_cycle_collector(self):
        """A collection holds its own snapshot, so nothing it caches points
        back at it and reference counting frees it."""
        from rainbowpan.analysis import (
            classify_ham_path_obstruction,
            is_rainbow_panconnected,
        )
        from rainbowpan.generate import GenSpec, gen_cor23_obstruction, generate

        def run(coll, check):
            ref = weakref.ref(coll)
            check(coll)
            return ref

        gc.collect()
        gc.disable()
        try:
            refs = [
                run(generate(GenSpec(7, 6, 1, "random", min_degree=4)), is_rainbow_panconnected),
                run(gen_cor23_obstruction(8, "iii", 0), classify_ham_path_obstruction),
                run(generate(GenSpec(8, 8, 0, "random", min_degree=4)), classify_ham_path_obstruction),
            ]
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


def _union_neighbors(view):
    """Union neighbor sets of the surviving vertices, from the base graphs."""
    nbr = oracles.neighbor_sets(view)
    return {v: nbr[v] for v in range(view.n) if v not in view.removed_vertices}


@given(st.lists(st.integers(0, 7), max_size=8), st.integers(0, 255))
def test_row_groups_partitions_keep_mask_by_row(rows, keep):
    keep &= (1 << len(rows)) - 1
    groups = row_groups(rows, keep)
    expect: dict[int, list[int]] = {}
    for v in range(len(rows)):
        if (keep >> v) & 1:
            expect.setdefault(rows[v], []).append(v)
    assert {r: list(bits(m)) for r, m in groups.items()} == expect
    firsts = [next(bits(m)) for m in groups.values()]
    assert firsts == sorted(firsts)


@given(shaped_views())
def test_union_components_and_twin_classes_match_reference(view):
    nbr = _union_neighbors(view)
    comps, left = [], set(nbr)
    while left:
        comp, todo = set(), [min(left)]
        while todo:
            u = todo.pop()
            if u not in comp:
                comp.add(u)
                todo.extend(nbr[u] - comp)
        comps.append(comp)
        left -= comp
    assert [set(bits(c)) for c in view.union_components] == comps
    twins: dict[frozenset, set] = {}
    for v, s in nbr.items():
        twins.setdefault(frozenset(s), set()).add(v)
    classes = [set(bits(c)) for c in view.union_twin_classes]
    assert sorted(map(sorted, classes)) == sorted(map(sorted, twins.values()))
    sizes = [len(eye) for eye in classes]
    assert sizes == sorted(sizes, reverse=True)  # largest first
    for eye in classes:
        assert not any(nbr[u] & eye for u in eye)
