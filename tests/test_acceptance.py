"""Acceptance gate: nine numbered criteria, one verdict line each.

The conftest reporting hook turns each test_criterion_N_<slug> result into
a `criterion N (<slug>): PASS|FAIL` line on the terminal. Tolerances are
zero unless a criterion states a time budget; time budgets are asserted
too.
"""
import json
import random
import time

from rainbowpan.analysis import (
    classify_ham_path_obstruction,
    is_rainbow_panconnected,
    recognize_F_family,
)
from rainbowpan.cli import main, run_campaign
from rainbowpan.constructions import constructive_panconnect, endpoint_bound_report
from rainbowpan.core import GraphCollection, build_graph, collection_min_degree, verify_colored_path
from rainbowpan.generate import (
    gen_cor23_obstruction,
    gen_extremal_F,
    gen_lemma_shape,
    gen_random_collection,
)
from rainbowpan.search import assign_colors, default_budget, find_rainbow_ham_path, rainbow_distance

from .oracles import all_simple_paths, exhaustive_assignment, rainbow_path_exists


NODE_LIMIT = default_budget().node_limit


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(90001)
    disagreements = 0
    for _ in range(100):
        n = rng.randint(3, 8)
        m = rng.randint(1, 7)
        p = rng.uniform(0.15, 0.5)
        graphs = []
        for _ in range(m):
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            graphs.append(build_graph(n, edges))
        coll = GraphCollection(n, tuple(graphs))
        for x in range(n):
            for y in range(x + 1, n):
                for path in all_simple_paths(coll, x, y, 6):
                    fast = assign_colors(coll, path)
                    slow = exhaustive_assignment(coll, path)
                    if (fast is None) != (slow is None):
                        disagreements += 1
                    elif fast is not None:
                        # the fast assignment must itself be injective and valid
                        assert len(set(fast)) == len(fast)
                        for (u, v), c in zip(zip(path, path[1:]), fast):
                            assert coll.graphs[c].has_edge(u, v)
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_2_theorem_1_5_campaign():
    start = time.perf_counter()
    report = run_campaign("t1_5", [5, 7, 9], trials=500, base_seed=2000,
                          node_limit=NODE_LIMIT)
    elapsed = time.perf_counter() - start
    assert report.fails == 0, report.failing[:3]
    assert report.inconclusive == 0
    assert report.passes == 1500
    assert elapsed < 900, f"took {elapsed:.1f}s"


def test_criterion_3_family_sharpness():
    for n in (7, 9):
        coll = gen_extremal_F(n, seed=30 + n)
        cert = is_rainbow_panconnected(coll)
        assert cert.verdict is False
        u, v, k = cert.failure
        assert k == 4
        # exhaustive search confirms the missing 4-path
        assert not rainbow_path_exists(coll, u, v, 4)
        witness = recognize_F_family(coll)
        assert witness is not None
        # the witness re-verifies: u, v is a single-edge component pair
        singles = set(witness.partition["single_edge"])
        assert {u, v} == singles or coll.graphs[0].has_edge(u, v)
        q1, q2 = witness.partition["q1"], witness.partition["q2"]
        g0 = coll.graphs[0]
        assert all(set(g0.neighbors(w)) == set(q2) for w in q1)
        assert all(g is g0 or g == g0 for g in coll.graphs)
        # sharp degree bound
        assert collection_min_degree(coll) == (n + 1) // 2


def test_criterion_4_theorem_2_1_campaign():
    report = run_campaign("t2_1", [5, 7, 9], trials=300, base_seed=4000,
                          node_limit=NODE_LIMIT)
    assert report.fails == 0, report.failing[:3]
    assert report.inconclusive == 0
    assert report.passes == 900


def test_criterion_5_cor23_obstructions():
    for n in (4, 6, 8):
        for case in ("ii", "iii"):
            coll = gen_cor23_obstruction(n, case, seed=50 + n)
            cls = classify_ham_path_obstruction(coll)
            assert cls.case == case, (n, case, cls.case)
            assert cls.witness is not None
            for x in range(n):
                for y in range(x + 1, n):
                    assert find_rainbow_ham_path(coll, x, y) is None, (n, case, x, y)


def test_criterion_6_theorem_1_1_campaign():
    report = run_campaign("t1_1", [4, 5, 6, 7, 8, 9], trials=200, base_seed=6000,
                          node_limit=NODE_LIMIT)
    assert report.fails == 0, report.failing[:3]
    assert report.inconclusive == 0
    assert report.passes == 1200


def test_criterion_7_lemma_5_bounds():
    checked = 0
    for n, variant in ((7, "lo-lo"), (9, "lo-lo"), (9, "lo-hi")):
        lo, hi = (n - 5) // 2, (n - 3) // 2
        for seed in range(100):
            coll, h = gen_lemma_shape("lem5", n, seed=seed, variant=variant)
            rep = endpoint_bound_report(
                coll, h["path"], excluded_color=h["excluded_color"]
            )
            assert rep.d1 in (lo, hi) and rep.d2 in (lo, hi), (n, variant, seed)
            assert n - 5 <= rep.d1 + rep.d2 <= n - 4, (n, variant, seed)
            checked += 1
    assert checked == 300


def test_criterion_8_proof_replay():
    start = time.perf_counter()
    budget = default_budget()
    for n in (7, 9):
        for seed in range(100):
            coll = gen_random_collection(n, n - 1, (n + 1) // 2, seed=8000 + seed)
            for x in range(n):
                for y in range(x + 1, n):
                    rep = constructive_panconnect(coll, x, y, budget=budget)
                    assert not rep.discrepancies, (n, seed, x, y)
                    assert rep.missing_k == (), (n, seed, x, y)
                    # independent check of every emitted path
                    dist = rainbow_distance(coll, x, y)
                    assert rep.distance == dist
                    assert sorted(rep.paths) == list(range(dist + 1, n + 1))
                    for k, path in rep.paths.items():
                        assert len(path.vertices) == k
                        assert {path.vertices[0], path.vertices[-1]} == {x, y}
                        assert verify_colored_path(coll, path)
    elapsed = time.perf_counter() - start
    assert elapsed < 1200, f"took {elapsed:.1f}s"


def test_criterion_9_determinism(tmp_path, capsys):
    # instances
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["gen", "--family", "random", "--n", "9", "--m", "8",
                     "--min-degree", "5", "--seed", "99", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()

    # certificates
    ca, cb = tmp_path / "ca.json", tmp_path / "cb.json"
    for cert in (ca, cb):
        assert main(["check", "--in", str(a), "--cert", str(cert)]) == 0
    assert ca.read_bytes() == cb.read_bytes()
    capsys.readouterr()

    # campaign reports, wall time excluded
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    for rep in (ra, rb):
        assert main(["verify", "--theorem", "t1_5", "--n", "7", "--trials", "5",
                     "--seed", "12", "--report", str(rep)]) == 0
    da, db = json.loads(ra.read_text()), json.loads(rb.read_text())
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db
    capsys.readouterr()
