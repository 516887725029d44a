"""Certificates, recognizers and headline verdicts against brute force."""
import random

import pytest
from hypothesis import given, settings

from rainbowpan.analysis import (
    classify_ham_path_obstruction,
    f_family_rejection_reason,
    is_panconnected_single,
    is_rainbow_ham_connected,
    is_rainbow_panconnected,
    join_partition,
    recognize_clique_split,
    recognize_F_family,
    recognize_join_partition,
    recognize_two_cliques,
    two_clique_partition,
    verify_theorem_1_5,
)
from rainbowpan.core import (
    GraphCollection,
    build_graph,
    clique_split,
    collection_min_degree,
    distances,
    restrict,
    verify_colored_path,
)
from rainbowpan.generate import (
    gen_cor23_obstruction,
    gen_extremal_F,
    gen_random_collection,
)
from rainbowpan import kernels
from rainbowpan.search import SearchBudget, find_rainbow_path, k_cap, k_paths

from .oracles import (
    clique_splits,
    f_partitions,
    join_partitions,
    rainbow_path_exists,
    single_graph_path_exists,
)
from .strategies import shaped_collections, shaped_views


def complete_collection(n: int, m: int) -> GraphCollection:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return GraphCollection(n, tuple(build_graph(n, edges) for _ in range(m)))


def brute_panconnected(coll) -> bool:
    k_cap = min(coll.n, coll.m + 1)
    for x in range(coll.n):
        for y in range(x + 1, coll.n):
            k_min = next(
                (k for k in range(2, coll.n + 1) if rainbow_path_exists(coll, x, y, k)),
                None,
            )
            if k_min is None:
                return False
            for k in range(k_min, k_cap + 1):
                if not rainbow_path_exists(coll, x, y, k):
                    return False
    return True


# -- panconnectivity certificates -------------------------------------------


def test_certificate_verdict_matches_bruteforce():
    for seed in range(8):
        coll = gen_random_collection(6, 4, 3, seed)
        cert = is_rainbow_panconnected(coll)
        assert cert.verdict is brute_panconnected(coll), f"seed {seed}"


def test_certificate_witnesses_verify():
    coll = gen_random_collection(7, 6, 4, seed=11)
    cert = is_rainbow_panconnected(coll)
    assert cert.verdict is True
    assert cert.k_cap == 7
    for pair in cert.pairs:
        assert sorted(pair.witnesses) == list(
            range(pair.distance + 1, cert.k_cap + 1)
        )
        for k, path in pair.witnesses.items():
            assert len(path.vertices) == k
            assert {path.vertices[0], path.vertices[-1]} == {pair.x, pair.y}
            assert verify_colored_path(coll, path)


def test_certificate_asks_each_query_once(monkeypatch):
    coll = gen_random_collection(7, 6, 4, seed=11)
    asked = []
    real = kernels.find_path

    def recording(n, adj, x, y, k, node_limit):
        asked.append((x, y, k))
        return real(n, adj, x, y, k, node_limit)

    monkeypatch.setattr(kernels, "find_path", recording)
    cert = is_rainbow_panconnected(coll)
    monkeypatch.undo()
    assert cert.verdict is True
    assert len(asked) == len(set(asked))
    for pair in cert.pairs:
        k = pair.distance + 1
        assert pair.witnesses[k] == find_rainbow_path(coll, pair.x, pair.y, k)


def test_budget_stopped_certificate_keeps_the_pairs_it_measured():
    # a pair enters the certificate once its rainbow distance is known and
    # keeps the witnesses found before the stop
    coll = gen_random_collection(7, 6, 4, seed=11)
    full = is_rainbow_panconnected(coll)
    stopped = 0
    for limit in range(1, 30):
        cert = is_rainbow_panconnected(coll, budget=SearchBudget(node_limit=limit))
        if cert.verdict is not None:
            continue
        stopped += 1
        assert cert.failure is None and len(cert.pairs) <= len(full.pairs)
        for got, want in zip(cert.pairs, full.pairs):
            assert (got.x, got.y, got.distance) == (want.x, want.y, want.distance)
            assert all(want.witnesses[k] == path for k, path in got.witnesses.items())
    assert stopped


def test_certificate_json_shape():
    cert = is_rainbow_panconnected(complete_collection(5, 4))
    d = cert.to_json_dict()
    assert set(d) == {"n", "m", "verdict", "pairs", "failure", "extremal", "k_cap"}
    assert d["verdict"] is True
    assert d["failure"] is None
    # unknown verdict serializes as the string, not null
    starved = is_rainbow_panconnected(
        complete_collection(7, 6), budget=SearchBudget(node_limit=1)
    )
    assert starved.verdict is None
    assert starved.to_json_dict()["verdict"] == "unknown"


def test_failing_triple_is_lexicographically_least():
    coll = gen_extremal_F(7, seed=1)
    cert = is_rainbow_panconnected(coll)
    assert cert.verdict is False
    x, y, k = cert.failure
    assert k == 4
    # every single-edge pair of the small side misses a 4-path; the sweep
    # must report the least one
    witness = recognize_F_family(coll)
    assert witness is not None
    assert (x, y) <= tuple(witness.partition["single_edge"])
    assert not rainbow_path_exists(coll, x, y, 4)


# -- single-graph baseline ---------------------------------------------------


def test_single_graph_panconnected_complete():
    n = 6
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    assert is_panconnected_single(g)


def test_single_graph_path_not_panconnected():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert not is_panconnected_single(g)


def test_single_graph_rejects_trivial():
    with pytest.raises(ValueError):
        is_panconnected_single(build_graph(1, []))


def plain_panconnected(g) -> bool:
    for x in range(g.n):
        dist = distances(g.adj, x)
        for y in range(x + 1, g.n):
            if dist[y] is None or not all(
                single_graph_path_exists(g, x, y, k) for k in range(dist[y] + 1, g.n + 1)
            ):
                return False
    return True


def test_single_graph_verdict_is_the_certificates():
    verdicts = []
    for seed in range(4):
        for target in (2, 3):
            g = gen_random_collection(7, 1, target, seed=seed)[0]
            cert = is_rainbow_panconnected(GraphCollection(7, (g,) * 6))
            verdicts.append(plain_panconnected(g))
            assert is_panconnected_single(g) is cert.verdict is verdicts[-1]
    assert set(verdicts) == {True, False}


def test_single_graph_budget_is_unknown():
    g = gen_random_collection(7, 1, 4, seed=0)[0]
    assert is_panconnected_single(g) is True
    assert is_panconnected_single(g, budget=SearchBudget(node_limit=1)) is None


# -- Hamiltonian connectivity -------------------------------------------------


def test_ham_connected_complete():
    rep = is_rainbow_ham_connected(complete_collection(5, 4))
    assert rep.holds is True
    assert len(rep.witnesses) == 10
    for (x, y), path in rep.witnesses.items():
        assert len(path.vertices) == 5
        assert {path.vertices[0], path.vertices[-1]} == {x, y}


def test_ham_connected_needs_enough_colors():
    with pytest.raises(ValueError):
        is_rainbow_ham_connected(complete_collection(5, 3))


def test_ham_connected_obstruction_fails():
    coll = gen_cor23_obstruction(4, "ii", seed=0)
    rep = is_rainbow_ham_connected(coll)
    assert rep.holds is False
    assert rep.failing_pair is not None
    x, y = rep.failing_pair
    # the failing pair straddles the two cliques
    w = recognize_two_cliques(coll)
    h1 = set(w.partition["half1"])
    assert (x in h1) != (y in h1)


def test_ham_report_unknown_serialization():
    rep = is_rainbow_ham_connected(
        complete_collection(6, 5), budget=SearchBudget(node_limit=1)
    )
    assert rep.holds is None
    assert rep.to_json_dict()["holds"] == "unknown"


# -- recognizers ---------------------------------------------------------------


def test_recognize_F_family_roundtrip():
    coll = gen_extremal_F(9, seed=5)
    w = recognize_F_family(coll)
    assert w is not None and w.kind == "F_family"
    q1, q2 = w.partition["q1"], w.partition["q2"]
    assert len(q1) == 4 and len(q2) == 5
    assert sorted(q1 + q2) == list(range(9))
    g0 = coll.graphs[0]
    for u in q1:
        assert set(g0.neighbors(u)) == set(q2)
    a, b = w.partition["single_edge"]
    assert g0.has_edge(a, b)
    others = [v for v in q2 if v not in (a, b)]
    assert all(not g0.has_edge(a, v) and not g0.has_edge(b, v) for v in others)
    # with several single-edge components, the one with the smallest vertex
    fam = gen_extremal_F(11, seed=3)
    g0 = fam.graphs[0]
    q2 = recognize_F_family(fam).partition["q2"]
    alone = [
        (u, v)
        for u, v in g0.edges()
        if {u, v} <= set(q2)
        and all(not g0.has_edge(t, s) for t in (u, v) for s in q2 if s not in (u, v))
    ]
    assert len(alone) == 3
    assert recognize_F_family(fam).partition["single_edge"] == min(alone)


def test_recognize_F_family_rejects_nonmembers():
    assert recognize_F_family(complete_collection(7, 6)) is None
    assert recognize_F_family(gen_random_collection(7, 6, 4, seed=3)) is None
    # one differing graph breaks the identical-graphs requirement
    coll = gen_extremal_F(7, seed=2)
    w = recognize_F_family(coll)
    q1 = w.partition["q1"]
    extra = tuple(sorted(q1[:2]))
    bumped = build_graph(7, sorted(set(coll.graphs[5].edges()) | {extra}))
    broken = GraphCollection(7, coll.graphs[:5] + (bumped,))
    assert recognize_F_family(broken) is None
    assert "differ" in f_family_rejection_reason(broken)


def f_family_cases():
    """Identical-graph collections at every odd n <= 11: join families with
    one or several single-edge components, each with single edges toggled,
    the shape with two candidate halves, a family shape with the wrong side
    sizes, and random graphs."""
    q2_variants = {
        7: [None, ((0, 1), (2, 3))],
        9: [None, ((0, 1), (2, 3), (3, 4))],
        11: [None, ((0, 1), (2, 3), (4, 5)), ((0, 1), (2, 3), (3, 4), (4, 5))],
    }
    for n, variants in q2_variants.items():
        for seed, q2_edges in enumerate(variants):
            g = gen_extremal_F(n, 2, q2_edges, seed).graphs[0]
            yield g
            rng = random.Random(f"F:{n}:{seed}")
            for _ in range(6):
                u, v = rng.sample(range(n), 2)
                yield g.without_edge(u, v) if g.has_edge(u, v) else g.with_edge(u, v)
    for n in (5, 7, 9, 11):
        h = (n - 1) // 2
        # halves {0..h-1} and {h..2h-1}, joined to each other and to vertex n-1:
        # both are candidate independent halves
        halves = [(a, b) for a in range(h) for b in range(h, n)]
        yield build_graph(n, halves + [(a, n - 1) for a in range(h, n - 1)])
        if n >= 9:
            # an independent side one vertex too large, over a single edge
            # and a path
            q2 = list(range(h + 1, n))
            join = [(a, b) for a in range(h + 1) for b in q2]
            yield build_graph(n, join + [(q2[0], q2[1])] + list(zip(q2[2:], q2[3:])))
        rng = random.Random(f"F:random:{n}")
        for _ in range(4):
            yield build_graph(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            )


def test_recognize_F_family_matches_bruteforce():
    named = 0
    for g in f_family_cases():
        coll = GraphCollection(g.n, (g, g))
        want = f_partitions(coll)
        assert len(want) <= 1
        got = recognize_F_family(coll)
        if not want:
            assert got is None, g
            continue
        named += 1
        q1, q2, single = want[0]
        assert got.partition == {"q1": q1, "q2": q2, "single_edge": single}
    assert named >= 8


def test_f_family_rejection_reasons():
    assert "even" in f_family_rejection_reason(complete_collection(6, 5))
    assert "below 5" in f_family_rejection_reason(complete_collection(3, 2))
    assert "no partition" in f_family_rejection_reason(complete_collection(7, 6))


def test_recognize_clique_split():
    g = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    w = recognize_clique_split(g)
    assert w is not None
    assert w.partition["half1"] == (0, 1, 2)
    # a bridge between the sides kills the split
    assert recognize_clique_split(build_graph(6, set(g.edges()) | {(2, 3)})) is None
    # a missing inner edge kills it too
    assert recognize_clique_split(build_graph(6, set(g.edges()) - {(3, 4)})) is None


def test_recognize_two_cliques():
    coll = gen_cor23_obstruction(6, "ii", seed=4)
    w = recognize_two_cliques(coll)
    assert w is not None and w.kind == "two_cliques"
    assert len(w.partition["half1"]) == 3
    assert recognize_two_cliques(complete_collection(6, 6)) is None
    # odd vertex counts never qualify
    assert recognize_two_cliques(complete_collection(5, 5)) is None


def test_recognize_join_partition():
    coll = gen_cor23_obstruction(8, "iii", seed=4)
    w = recognize_join_partition(coll)
    assert w is not None and w.kind == "join_partition"
    h, i = w.partition["h"], w.partition["i"]
    assert len(h) == 3 and len(i) == 5
    for g in coll.graphs:
        for u in i:
            assert set(g.neighbors(u)) == set(h)
    assert recognize_join_partition(gen_cor23_obstruction(8, "ii", seed=4)) is None
    # the join must hold in every graph: detach one H vertex in the last one
    last = build_graph(8, [e for e in coll.graphs[-1].edges() if h[0] not in e])
    detached = GraphCollection(8, coll.graphs[:-1] + (last,))
    assert recognize_join_partition(detached) is None


def _first(found):
    assert len(found) <= 1
    return found[0] if found else None


@settings(max_examples=150, deadline=None)
@given(shaped_views())
def test_view_recognizers_match_bruteforce(view):
    assert join_partition(view) == _first(join_partitions(view))
    splits = {c: _first(clique_splits(view, c)) for c in view.colors}
    for c in view.colors:
        got = clique_split(view.color_rows[c], view.vertex_mask)
        assert got == splits[c]
    # two equal cliques that every surviving color splits the view into
    halves = splits[view.colors[0]]
    shared = (
        halves is not None
        and 2 * len(halves[0]) == view.n_surviving
        and all(splits[c] == halves for c in view.colors)
    )
    assert two_clique_partition(view) == (halves if shared else None)


@settings(max_examples=150, deadline=None)
@given(shaped_collections())
def test_recognizers_match_bruteforce(coll):
    join = _first(join_partitions(coll))
    w = recognize_join_partition(coll)
    if coll.n % 2 or join is None:
        assert w is None
    else:
        assert (w.partition["h"], w.partition["i"]) == join
    splits = [_first(clique_splits(coll, c)) for c in range(coll.m)]
    for g, split in zip(coll.graphs, splits):
        w = recognize_clique_split(g)
        got = None if w is None else (w.partition["half1"], w.partition["half2"])
        assert got == split
    w = recognize_two_cliques(coll)
    halves = splits[0]
    if (
        coll.n % 2 == 0
        and halves is not None
        and len(halves[0]) == coll.n // 2
        and all(g == coll.graphs[0] for g in coll.graphs)
    ):
        assert (w.partition["half1"], w.partition["half2"]) == halves
    else:
        assert w is None


@settings(max_examples=60, deadline=None)
@given(shaped_views(max_n=7))
def test_k_paths_sweep_matches_bruteforce(view):
    cap = min(view.n_surviving, view.m_surviving + 1)
    assert k_cap(view) == cap
    alive = view.vertices
    for x, y in list(zip(alive, alive[1:]))[:3]:
        lengths = [
            k for k in range(2, cap + 1) if rainbow_path_exists(view, x, y, k)
        ]
        got = list(k_paths(view, x, y))
        if not lengths:
            assert got == []
            continue
        assert [k for k, _ in got] == list(range(lengths[0], cap + 1))
        for k, path in got:
            assert (path is not None) == (k in lengths)
            if path is not None:
                assert (path.k, path.vertices[0], path.vertices[-1]) == (k, x, y)
                assert verify_colored_path(view, path)


@pytest.mark.parametrize("n", [7, 9])
def test_join_partition_on_reduced_family_views(n):
    """The reduced view the constructive replay inspects: the exceptional
    family without the single edge, one more small-side vertex and a color."""
    for seed in range(4):
        coll = gen_extremal_F(n, seed=seed)
        part = recognize_F_family(coll).partition
        x, y = part["single_edge"]
        z = next(v for v in part["q2"] if v not in (x, y))
        view = restrict(coll, (x, y, z), (seed % coll.m,))
        found = join_partitions(view)
        assert found and found[0][1] == part["q1"]
        assert join_partition(view) == found[0]


def test_recognizers_at_size_limit():
    join = gen_cor23_obstruction(62, "iii", seed=5)
    w = recognize_join_partition(join)
    assert len(w.partition["h"]) == 30 and len(w.partition["i"]) == 32
    i_mask = sum(1 << v for v in w.partition["i"])
    h_mask = sum(1 << v for v in w.partition["h"])
    assert all(g.adj[v] == h_mask for g in join.graphs for v in w.partition["i"])
    assert i_mask | h_mask == (1 << 62) - 1
    # one extra edge inside I breaks the shape
    a, b = w.partition["i"][:2]
    broken = GraphCollection(62, (join.graphs[0].with_edge(a, b),) + join.graphs[1:])
    assert recognize_join_partition(broken) is None
    assert recognize_join_partition(gen_random_collection(62, 62, 30, seed=1)) is None
    fam = gen_extremal_F(63)
    w = recognize_F_family(fam)
    assert len(w.partition["q1"]) == 31 and len(w.partition["q2"]) == 32


# -- trichotomy ----------------------------------------------------------------


def test_classify_requires_square_collection():
    with pytest.raises(ValueError):
        classify_ham_path_obstruction(complete_collection(5, 4))


def test_classify_case_ii():
    cls = classify_ham_path_obstruction(gen_cor23_obstruction(6, "ii", seed=1))
    assert cls.case == "ii"
    assert cls.within_hypothesis
    assert cls.witness.kind == "two_cliques"
    assert cls.ham_report is None


def test_classify_case_iii():
    cls = classify_ham_path_obstruction(gen_cor23_obstruction(6, "iii", seed=1))
    assert cls.case == "iii"
    assert cls.within_hypothesis
    assert cls.witness.kind == "join_partition"


def test_classify_case_i_dense():
    cls = classify_ham_path_obstruction(complete_collection(6, 6))
    assert cls.case == "i"
    assert cls.witness is None
    assert cls.ham_report.holds is True


# -- the headline statement ------------------------------------------------------


def test_theorem_1_5_holds_by_search():
    coll = gen_random_collection(7, 6, 4, seed=20)
    res = verify_theorem_1_5(coll)
    assert res.outcome == "holds"
    assert res.via == "panconnected"
    assert res.certificate.verdict is True
    assert res.rejection_reason is None


def test_theorem_1_5_holds_by_family():
    coll = gen_extremal_F(7, seed=20)
    assert collection_min_degree(coll) == 4
    res = verify_theorem_1_5(coll)
    assert res.outcome == "holds"
    assert res.via == "F_family"
    assert res.certificate.verdict is False
    assert res.certificate.extremal is not None
    assert res.certificate.extremal.kind == "F_family"


def test_theorem_1_5_preconditions():
    with pytest.raises(ValueError):
        verify_theorem_1_5(complete_collection(7, 5))  # wrong graph count
    sparse = gen_random_collection(7, 6, 3, seed=0)
    if collection_min_degree(sparse) >= 4:
        pytest.skip("random repair overshot the degree target")
    with pytest.raises(ValueError):
        verify_theorem_1_5(sparse)


def test_theorem_1_5_inconclusive_on_tiny_budget():
    coll = gen_random_collection(7, 6, 4, seed=21)
    res = verify_theorem_1_5(coll, budget=SearchBudget(node_limit=1))
    assert res.outcome == "inconclusive"
    assert res.via is None
