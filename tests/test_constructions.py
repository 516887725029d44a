"""Branch builders on engineered fixtures with frozen case tags.

Each fixture from gen_lemma_shape plants exactly the attachment structure
one branch needs, so the expected (case, subcase) labels are known constants;
a builder drifting to a different branch is a regression even when the path
it emits is still valid.
"""
import itertools

import pytest

from rainbowpan import constructions
from rainbowpan.analysis import ExtremalWitness, join_partition
from rainbowpan.constructions import (
    BranchTrace,
    HypothesisViolation,
    _Frame,
    _hp_close,
    _pan_route,
    _retry,
    _rotation_table,
    construct_short_paths,
    constructive_panconnect,
    endpoint_bound_report,
    five_vertex_4path,
    ham_path_k_path,
    join_partition_k_path,
    near_cycle_k_path,
    rotation_k_path,
    two_clique_k_path,
)
from rainbowpan.core import (
    ColoredCycle,
    ColoredPath,
    GraphCollection,
    build_graph,
    check_colored_cycle,
    check_colored_path,
    clique_split,
    restrict,
    verify_colored_path,
)
from rainbowpan.generate import (
    LEMMA_SHAPES,
    GenSpec,
    gen_extremal_F,
    gen_lemma_shape,
    gen_random_collection,
    generate,
)

from rainbowpan.search import find_rainbow_cycle, find_rainbow_path

from .oracles import rainbow_path_exists, rotation_reference


def complete_collection(n: int, m: int) -> GraphCollection:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return GraphCollection(n, tuple(build_graph(n, edges) for _ in range(m)))


def check_path(coll, path, x, y, k):
    assert len(path.vertices) == k
    assert {path.vertices[0], path.vertices[-1]} == {x, y}
    assert verify_colored_path(coll, path)


# -- short paths ---------------------------------------------------------------


def test_short_paths_on_complete():
    coll = complete_collection(7, 6)
    one, two = construct_short_paths(coll, 0, 3)
    check_path(coll, one, 0, 3, 2)
    assert one.colors == (0,)  # smallest color wins
    check_path(coll, two, 0, 3, 3)


def test_short_paths_missing_edge():
    coll = gen_extremal_F(7, seed=0)
    # inside the independent half no color has the edge
    from rainbowpan.analysis import recognize_F_family

    q1 = recognize_F_family(coll).partition["q1"]
    one, two = construct_short_paths(coll, q1[0], q1[1])
    assert one is None
    check_path(coll, two, q1[0], q1[1], 3)


# -- the smallest odd order ------------------------------------------------------


def test_five_vertex_4path_all_pairs():
    for seed in range(5):
        coll = gen_random_collection(5, 4, 3, seed=seed)
        for x in range(5):
            for y in range(x + 1, 5):
                trace = five_vertex_4path(coll, x, y)
                assert (trace.lemma, trace.k) == ("five_vertex", 4)
                check_path(coll, trace.path, x, y, 4)
                assert trace.case in ("direct", "recolored", "shifted")


@pytest.mark.parametrize(
    "seed, pair, case", [(25, (1, 2), "recolored"), (194, (0, 2), "shifted")]
)
def test_five_vertex_4path_late_exits(seed, pair, case):
    """The exits after the direct closing fails: y reached in the interior
    edge's own color, from u2 or, shifting the path by one, from u3."""
    coll = gen_random_collection(5, 4, 3, seed=seed)
    trace = five_vertex_4path(coll, *pair)
    assert trace.case == case
    check_path(coll, trace.path, *pair, 4)


# -- rotation around a spanning cycle ---------------------------------------------


@pytest.mark.parametrize("n", [7, 9])
def test_rotation_all_lengths(n):
    coll, h = gen_lemma_shape("lem2", n, seed=n)
    for k in range(4, n):
        trace = rotation_k_path(coll, h["cycle"], h["x"], h["y"], k)
        check_path(coll, trace.path, h["x"], h["y"], k)
        sets = trace.sets
        assert sets["c_star"] == h["c_star"]
        assert sets["j"] == h["j"]
        assert sets["s"] in sets["i_k"] and sets["s"] in sets["i_0"]
        # positions are 1-based along the cycle
        length = len(h["cycle"].vertices)
        assert all(1 <= p <= length for p in sets["i_k"] + sets["i_0"])


def test_rotation_rejects_wrong_cycle():
    coll, h = gen_lemma_shape("lem2", 7, seed=1)
    with pytest.raises(HypothesisViolation) as exc:
        rotation_k_path(coll, h["cycle"], h["x"], h["z"], 5)
    assert exc.value.claim == "pivot-overlap"
    assert exc.value.details == (
        "the two attachment sets never overlap although their sizes must sum past the "
        "cycle length: c_star=4: |i_k|=4, |i_0|=0, no overlap; "
        "c_star=5: |i_k|=0, |i_0|=0, no overlap"
    )


def rotation_outcomes(build, n):
    """What build(k) gives for every k in [4, n-1]: the trace, or the
    violation's stage, claim, details, evidence and fatal flag."""
    out = []
    for k in range(4, n):
        try:
            out.append(build(k))
        except HypothesisViolation as hv:
            out.append((hv.stage, hv.claim, hv.details, hv.evidence, hv.fatal))
    return out


@pytest.mark.parametrize("n", [7, 9, 11, 13])
def test_rotation_table_matches_the_per_k_loop_on_lemma_shapes(n):
    """One pair's table gives, at every k, the trace or violation of the
    per-k loop: for each ordered pair of the three vertices off the cycle
    (two take the rotation, four overlap nowhere), and with x joined to z
    in both unused colors, where the free-color claim fails."""
    coll, h = gen_lemma_shape("lem2", n)
    cycle = h["cycle"]
    unused = set(range(coll.m)) - set(cycle.colors)
    joined = GraphCollection(n, tuple(
        g.with_edge(h["x"], h["z"]) if c in unused else g for c, g in enumerate(coll.graphs)
    ))
    cases = [(coll, x, y) for x, y in itertools.permutations((h["x"], h["y"], h["z"]), 2)]
    cases.append((joined, h["x"], h["y"]))
    claims = set()
    for inst, x, y in cases:
        want = rotation_outcomes(lambda k: rotation_reference(inst, cycle, x, y, k), n)
        assert rotation_outcomes(_rotation_table(inst, cycle, x, y), n) == want, (x, y)
        claims |= {out[1] for out in want if isinstance(out, tuple)}
    assert claims == {"pivot-overlap", "free-color"}


@pytest.mark.parametrize("seed", [0, 1])
def test_rotation_table_matches_the_per_k_loop_on_replay_pairs(seed):
    """On every pair of a replay instance whose reduced view takes the
    rotation route, its table gives the per-k loop's traces."""
    coll = generate(GenSpec(13, 12, seed, "random", min_degree=7))
    rotations = 0
    for x, y, z, view in reduced_views(coll):
        cycle = None if join_partition(view) else find_rainbow_cycle(view, coll.n - 3)
        if cycle is None:
            continue
        rotations += 1
        want = rotation_outcomes(lambda k: rotation_reference(coll, cycle, x, y, k), coll.n)
        assert rotation_outcomes(_rotation_table(coll, cycle, x, y), coll.n) == want, (x, y)
    assert rotations


def test_replay_checks_a_rotation_cycle_once(monkeypatch):
    """A pair's replay checks its spanning cycle once for all n - 4
    lengths the rotation builds."""
    coll = generate(GenSpec(13, 12, 0, "random", min_degree=7))
    checked = []
    check = constructions.check_colored_cycle
    monkeypatch.setattr(
        constructions, "check_colored_cycle", lambda *args: checked.append(args) or check(*args)
    )
    rep = constructive_panconnect(coll, 0, 1)
    assert [t.lemma for t in rep.traces if 4 <= t.k < coll.n] == ["rotation"] * (coll.n - 4)
    assert len(checked) == 1


# -- cycle one vertex short of spanning --------------------------------------------


NEAR_CYCLE_K4 = {"main": "main", "b1": "b1", "b2": "b2", "b3": "b3"}


@pytest.mark.parametrize("variant", sorted(NEAR_CYCLE_K4))
def test_near_cycle_k4_subcases(variant):
    coll, h = gen_lemma_shape("lem3", 9, seed=1, variant=variant)
    trace = near_cycle_k_path(
        coll, h["cycle"], h["x"], h["y"], h["z"], h["w"], 4
    )
    check_path(coll, trace.path, h["x"], h["y"], 4)
    assert trace.case == "1"
    assert trace.subcase == NEAR_CYCLE_K4[variant]


@pytest.mark.parametrize("variant", ["main", "b1", "b2", "b3"])
def test_near_cycle_longer_lengths_use_anchor_sweep(variant):
    coll, h = gen_lemma_shape("lem3", 9, seed=1, variant=variant)
    for k in range(5, 9):
        trace = near_cycle_k_path(
            coll, h["cycle"], h["x"], h["y"], h["z"], h["w"], k
        )
        check_path(coll, trace.path, h["x"], h["y"], k)
        assert trace.case == "2"
        # disjoint attachment sets with the lone excluded position
        sets = trace.sets
        assert not set(sets["a"]) & set(sets["b"])
        assert sets["excluded"] not in sets["a"] + sets["b"]


def test_near_cycle_interior_anchor_case():
    coll, h = gen_lemma_shape("lem3", 9, seed=2, variant="case3")
    for k in range(5, 9):
        trace = near_cycle_k_path(
            coll, h["cycle"], h["x"], h["y"], h["z"], h["w"], k
        )
        check_path(coll, trace.path, h["x"], h["y"], k)
        assert trace.case == "3"


def test_near_cycle_partition_roles():
    coll, h = gen_lemma_shape("lem3", 9, seed=3, variant="main")
    sets = near_cycle_k_path(coll, h["cycle"], h["x"], h["y"], h["z"], h["w"], 6).sets
    cycle_verts = set(h["cycle"].vertices)
    assert set(sets["u1"]) | set(sets["u2"]) == cycle_verts
    assert not set(sets["u1"]) & set(sets["u2"])
    assert sets["w"] == h["w"]


# -- endpoint degree bounds ----------------------------------------------------------


ENDPOINT_BOUNDS = [
    (7, "lo-lo", 1, 1),
    (9, "lo-lo", 2, 2),
    (9, "lo-hi", 2, 3),
]


@pytest.mark.parametrize("n,variant,d1,d2", ENDPOINT_BOUNDS)
def test_endpoint_bounds_frozen_degrees(n, variant, d1, d2):
    coll, h = gen_lemma_shape("lem5", n, seed=0, variant=variant)
    rep = endpoint_bound_report(coll, h["path"], excluded_color=h["excluded_color"])
    assert (rep.d1, rep.d2) == (d1, d2)
    assert len(rep.i_f1) == d1 and len(rep.i_f2) == d2
    positions = range(1, n - 2)  # 1-based along the n-3 path vertices
    assert all(p in positions for p in rep.i_f1 + rep.i_f2)
    lo, hi = (n - 5) // 2, (n - 3) // 2
    assert {rep.d1, rep.d2} <= {lo, hi}
    assert n - 5 <= rep.d1 + rep.d2 <= n - 4


def test_endpoint_bounds_overlap_is_fatal():
    coll, h = gen_lemma_shape("lem5", 9, seed=0, variant="overlap")
    with pytest.raises(HypothesisViolation) as exc:
        endpoint_bound_report(coll, h["path"], excluded_color=h["excluded_color"])
    assert exc.value.fatal
    assert exc.value.claim == "cycle-free"
    assert "cycle" in exc.value.evidence
    # the spliced cycle is an (n-3)-cycle of the view, found by search first
    cycle = assert_fatal_cycle(exc.value, "cycle-free", h["path"].k)
    assert check_colored_cycle(coll, cycle) is None


# -- spanning path of the reduced view --------------------------------------------


HAM_PATH_TAGS = {
    ("a", 9): {4: ("a", "claim5"), 8: ("a", "full")},
    ("b", 9): {4: ("b", "bridge"), 7: ("b", "long")},
    ("c1", 9): {4: ("c", "3.1:claim5"), 8: ("c", "3.1:full")},
    ("c2", 9): {4: ("c", "3.2:claim5"), 5: ("c", "3.2:z"), 6: ("c", "3.2:mid")},
    ("c2", 7): {4: ("c", "3.2:u2"), 5: ("c", "3.2:z")},
}


@pytest.mark.parametrize("variant,n", sorted(HAM_PATH_TAGS))
def test_ham_path_cases(variant, n):
    coll, h = gen_lemma_shape("lem6", n, seed=2, variant=variant)
    expected = HAM_PATH_TAGS[(variant, n)]
    for k in range(4, n):
        trace = ham_path_k_path(coll, h["path"], h["x"], h["y"], h["z"], k)
        check_path(coll, trace.path, h["x"], h["y"], k)
        assert trace.case == h["case"]
        if k in expected:
            assert (trace.case, trace.subcase) == expected[k], k


# the planted path of case a or b handed backwards: case c finds its one gap
# above the lowest admissible position and reverses the frame back, landing
# in the planted case
HAM_PATH_REVERSED_TAGS = {
    "a": {4: "claim5", 5: "claim5", 6: "u2", 7: "u2", 8: "full"},
    "b": {4: "bridge", 5: "claim5", 6: "u2", 7: "long", 8: "long"},
}


@pytest.mark.parametrize("variant", sorted(HAM_PATH_REVERSED_TAGS))
def test_ham_path_case_c_hands_off_by_reversal(variant):
    coll, h = gen_lemma_shape("lem6", 9, 0, variant)
    for k, subcase in HAM_PATH_REVERSED_TAGS[variant].items():
        trace = ham_path_k_path(coll, h["path"].reversed(), h["x"], h["y"], h["z"], k)
        assert (trace.case, trace.subcase) == ("c", f"3.2->rev:{variant}:{subcase}"), k
        check_path(coll, trace.path, h["x"], h["y"], k)


def test_ham_path_recolor_redispatch():
    # the planted frame only completes after re-rooting on recolored ends
    coll, h = gen_lemma_shape("lem6", 9, seed=2, variant="c2rec")
    for k in range(4, 9):
        trace = ham_path_k_path(coll, h["path"], h["x"], h["y"], h["z"], k)
        check_path(coll, trace.path, h["x"], h["y"], k)
        assert trace.subcase.startswith("3.2->rec:")


def test_ham_path_block_structure():
    coll, h = gen_lemma_shape("lem6", 9, seed=5, variant="a")
    sets = ham_path_k_path(coll, h["path"], h["x"], h["y"], h["z"], 6).sets
    # blocks tile a1 exactly
    from_blocks = [p for s, t in sets["blocks"] for p in range(s, t + 1)]
    assert sorted(sets["a1"]) == sorted(from_blocks)
    assert sets["l"] == len(sets["blocks"])


# -- two-clique collections -----------------------------------------------------------


TWO_CLIQUE_TAGS = {
    ("z", 7): {4: "straight", 5: "z-mid", 6: "z-full"},
    ("z", 9): {4: "straight", 6: "z-mid", 7: "z-full", 8: "z-full"},
    ("cross", 7): {4: "straight", 5: "cross", 6: "cross"},
    ("cross", 9): {5: "straight", 6: "cross", 8: "cross"},
}


@pytest.mark.parametrize("variant,n", sorted(TWO_CLIQUE_TAGS))
def test_two_clique_routes(variant, n):
    coll, h = gen_lemma_shape("lem7", n, seed=3, variant=variant)
    expected = TWO_CLIQUE_TAGS[(variant, n)]
    for k in range(4, n):
        trace = two_clique_k_path(
            coll, h["u1"], h["u2"], h["x"], h["y"], h["z"], h["j"], k
        )
        check_path(coll, trace.path, h["x"], h["y"], k)
        if k in expected:
            assert trace.case == expected[k], k


# -- join partitions -------------------------------------------------------------------


def test_join_partition_witness_route():
    coll, h = gen_lemma_shape("lem8", 9, seed=4, variant="witness")
    for k in range(4, 9):
        trace = join_partition_k_path(
            coll, h["f"], h["i"], h["x"], h["y"], h["z"], k
        )
        check_path(coll, trace.path, h["x"], h["y"], k)
        assert trace.subcase == "2.1"


def test_join_partition_inner_route():
    coll, h = gen_lemma_shape("lem8", 9, seed=4, variant="inner")
    for k in range(4, 9):
        trace = join_partition_k_path(
            coll, h["f"], h["i"], h["x"], h["y"], h["z"], k
        )
        check_path(coll, trace.path, h["x"], h["y"], k)
        assert trace.subcase == "1"


def _join_shape(n: int, end: str) -> tuple:
    """The lem8 join shape, unrelabeled: the independent half (n - 1) / 2
    joined in every color to the rest, the small half (n - 5) / 2 and z a
    clique, x and y adjacent, and the witness edge from `end` ("x" or "y")
    to z planted in color 1. Returns the collection and its (f, i, x, y, z)
    handles."""
    big, small = (n - 1) // 2, (n - 5) // 2
    eye, eff = list(range(big)), list(range(big, big + small))
    x, y, z = n - 3, n - 2, n - 1
    edge_sets = [set() for _ in range(n - 1)]
    for edges in edge_sets:
        edges.update((w, t) for w in eye for t in eff + [x, y, z])
        edges.update((a, b) for i, a in enumerate(eff + [z]) for b in (eff + [z])[i + 1 :])
        edges.add((x, y))
    edge_sets[1].add((x if end == "x" else y, z))
    graphs = tuple(build_graph(n, sorted(edges)) for edges in edge_sets)
    return GraphCollection(n, graphs), (tuple(eff), tuple(eye), x, y, z)


@pytest.mark.parametrize("n", [7, 9, 11])
@pytest.mark.parametrize("end", ["x", "y"])
def test_join_partition_witness_through_z(n, end):
    """A witness edge from x to z opens every even length through z; from
    y to z it does too, the row built from y and then reversed."""
    coll, (f, i, x, y, z) = _join_shape(n, end)
    for k in range(4, n, 2):
        trace = join_partition_k_path(coll, f, i, x, y, z, k)
        assert trace.subcase == "2.1", k
        check_path(coll, trace.path, x, y, k)
        assert trace.path.vertices[0] == x and z in trace.path.vertices, k


def test_join_partition_family_verdict():
    # both routes must agree: the builder's structural verdict and the
    # exhaustive search both say the 4-path is missing
    coll, h = gen_lemma_shape("lem8", 9, seed=4, variant="family")
    f, i, x, y = h["f"], h["i"], h["x"], h["y"]
    trace = join_partition_k_path(coll, f[1:], i, x, y, f[0], 4)
    assert (trace.case, trace.subcase, trace.path) == ("2", "2.2", None)
    verdict = trace.sets["verdict"]
    assert isinstance(verdict, ExtremalWitness)
    assert verdict.kind == "F_family"
    assert trace.to_json_dict()["sets"]["verdict"] == verdict.to_json_dict()
    assert not rainbow_path_exists(coll, x, y, 4)
    # every other length is still reachable
    trace = join_partition_k_path(coll, f[1:], i, x, y, f[0], 5)
    check_path(coll, trace.path, x, y, 5)
    assert trace.subcase == "2.1"


# -- every builder returns the trace of the branch it fired -----------------------------


SHAPE_BUILDERS = {
    "lem2": ("rotation", lambda coll, h, k: rotation_k_path(coll, h["cycle"], h["x"], h["y"], k)),
    "lem3": (
        "near_cycle",
        lambda coll, h, k: near_cycle_k_path(
            coll, h["cycle"], h["x"], h["y"], h["z"], h["w"], k
        ),
    ),
    "lem6": (
        "ham_path",
        lambda coll, h, k: ham_path_k_path(coll, h["path"], h["x"], h["y"], h["z"], k),
    ),
    "lem7": (
        "two_clique",
        lambda coll, h, k: two_clique_k_path(
            coll, h["u1"], h["u2"], h["x"], h["y"], h["z"], h["j"], k
        ),
    ),
    "lem8": (
        "join_partition",
        lambda coll, h, k: join_partition_k_path(
            coll, h["f"], h["i"], h["x"], h["y"], h["z"], k
        ),
    ),
}


def k_path_shapes():
    """(lemma, variant, n) for every gen_lemma_shape fixture at n = 7 and 9
    that a k-path builder reads (lem5 feeds `endpoint_bound_report`)."""
    for n in (7, 9):
        for lemma in sorted(SHAPE_BUILDERS):
            for variant in LEMMA_SHAPES[lemma]:
                try:
                    gen_lemma_shape(lemma, n, 0, variant)
                except ValueError:  # the shape does not exist at this order
                    continue
                yield lemma, variant, n


@pytest.mark.parametrize("lemma,variant,n", list(k_path_shapes()))
def test_builders_return_the_trace_they_fired(lemma, variant, n):
    coll, h = gen_lemma_shape(lemma, n, 0, variant)
    family = (lemma, variant) == ("lem8", "family")
    if family:
        # the family has no removed vertex: one F vertex stands in for z
        h = dict(h, f=h["f"][1:], z=h["f"][0])
    name, build = SHAPE_BUILDERS[lemma]
    for k in range(4, n):
        trace = build(coll, h, k)
        assert isinstance(trace, BranchTrace)
        assert (trace.lemma, trace.k) == (name, k)
        if trace.path is None:
            assert family and trace.subcase == "2.2", k
            assert trace.sets["verdict"].kind == "F_family"
            continue
        assert check_colored_path(coll, trace.path) is None
        check_path(coll, trace.path, h["x"], h["y"], k)


# -- the full constructive pipeline ------------------------------------------------------


def test_constructive_random_has_no_gaps():
    for seed in (0, 7):
        coll = gen_random_collection(7, 6, 4, seed=seed)
        for x, y in ((0, 1), (2, 5)):
            rep = constructive_panconnect(coll, x, y)
            assert rep.missing_k == ()
            assert not rep.discrepancies
            assert rep.verdict is None
            assert sorted(rep.paths) == list(range(rep.distance + 1, 8))
            for k, path in rep.paths.items():
                check_path(coll, path, x, y, k)
            lemmas = {t.lemma for t in rep.traces}
            assert lemmas <= {
                "short_path",
                "ham_search",
                "five_vertex",
                "universal_endpoint",
                "rotation",
                "near_cycle",
                "ham_path",
                "two_clique",
                "join_partition",
                "search",
            }


def test_constructive_matches_bruteforce_per_length():
    coll = gen_random_collection(7, 6, 4, seed=13)
    rep = constructive_panconnect(coll, 1, 4)
    for k in range(2, 8):
        built = k in rep.paths
        exists = rainbow_path_exists(coll, 1, 4, k)
        if k > rep.distance:
            assert built and exists, k


def test_constructive_route_universal_endpoint():
    rep = constructive_panconnect(complete_collection(7, 6), 0, 1)
    assert "universal_endpoint" in {t.lemma for t in rep.traces}
    assert rep.missing_k == ()


def test_constructive_route_five_vertex():
    rep = constructive_panconnect(gen_random_collection(5, 4, 3, seed=1), 0, 2)
    assert "five_vertex" in {t.lemma for t in rep.traces}
    assert rep.missing_k == ()


def test_missing_lengths_are_sorted_on_the_five_vertex_exit(monkeypatch):
    """With no spanning path, no five-vertex 4-path and no fallback path,
    both missing lengths are reported in ascending order."""

    def no_four_path(coll, x, y):
        raise HypothesisViolation("five_vertex", "interior-edge", "stubbed")

    monkeypatch.setattr(constructions, "find_rainbow_ham_path", lambda *a, **kw: None)
    monkeypatch.setattr(constructions, "five_vertex_4path", no_four_path)
    monkeypatch.setattr(constructions, "find_rainbow_path", lambda *a, **kw: None)
    rep = constructive_panconnect(gen_random_collection(5, 4, 3, seed=1), 0, 2)
    assert rep.missing_k == (4, 5)
    assert rep.to_json_dict()["missing_k"] == [4, 5]


def test_constructive_route_two_clique():
    coll, h = gen_lemma_shape("lem7", 7, seed=5, variant="z")
    rep = constructive_panconnect(coll, h["x"], h["y"])
    assert "two_clique" in {t.lemma for t in rep.traces}
    assert rep.missing_k == () and not rep.discrepancies


def test_constructive_route_join_partition():
    coll, h = gen_lemma_shape("lem8", 9, seed=6, variant="witness")
    rep = constructive_panconnect(coll, h["x"], h["y"])
    assert "join_partition" in {t.lemma for t in rep.traces}
    assert rep.missing_k == () and not rep.discrepancies


def test_constructive_family_verdict_on_single_edge_pair():
    coll = gen_extremal_F(7, seed=3)
    from rainbowpan.analysis import recognize_F_family

    sx, sy = recognize_F_family(coll).partition["single_edge"]
    rep = constructive_panconnect(coll, sx, sy)
    assert rep.verdict is not None and rep.verdict.kind == "F_family"
    assert rep.missing_k == (4,)
    assert not rep.discrepancies
    # other lengths are present and valid
    for k, path in rep.paths.items():
        check_path(coll, path, sx, sy, k)


def reduced_views(coll):
    """(x, y, z, view) for every pair whose replay reaches `_pan_route`,
    reduced the way `constructive_panconnect` reduces it."""
    n = coll.n
    for x in range(n):
        for y in range(x + 1, n):
            interior = [v for v in range(n) if v not in (x, y)]
            miss = next(
                ((c, u) for c in range(coll.m) for u in interior if not coll.has_edge(c, x, u)),
                None,
            )
            if miss is not None:
                c_star, z = miss
                yield x, y, z, restrict(coll, (x, y, z), (c_star,))


@pytest.mark.parametrize("n", [11, 13])
def test_join_route_excludes_the_searched_routes(n):
    """Where the reduced view has the join shape, `_pan_route` takes it, and
    the searches it skips (N- and (N-1)-cycles, N-vertex paths with one color
    removed, two-clique colors) all come back empty. The searches run on the
    first two join views, every color and pair at n = 11 and one removed color
    at n = 13, to keep the pure-Python kernel quick."""
    coll = gen_extremal_F(n, seed=0)
    joins = 0
    for x, y, z, view in reduced_views(coll):
        join = join_partition(view)
        if join is None:
            continue
        joins += 1
        trace = _pan_route(coll, view, x, y, z, None)(5)
        assert trace.lemma == "join_partition"
        assert (tuple(trace.sets["f"]), tuple(trace.sets["i"])) == join
        assert all(clique_split(view.color_rows[c], view.vertex_mask) is None for c in view.colors)
        if joins > 2:
            continue
        big = view.n_surviving
        assert find_rainbow_cycle(view, big) is None
        assert find_rainbow_cycle(view, big - 1) is None
        keep = view.vertices
        for j in view.colors if n == 11 else view.colors[:1]:
            sub = restrict(view, remove_colors=(j,))
            for ai, a in enumerate(keep):
                for b in keep[ai + 1 :]:
                    assert find_rainbow_path(sub, a, b, big) is None
    assert joins > 2


def test_constructive_rejects_out_of_scope():
    with pytest.raises(ValueError):
        constructive_panconnect(complete_collection(6, 5), 0, 1)  # even order
    with pytest.raises(ValueError):
        constructive_panconnect(complete_collection(7, 5), 0, 1)  # wrong m
    sparse = GraphCollection(
        7, tuple(build_graph(7, [(u, (u + 1) % 7) for u in range(7)]) for _ in range(6))
    )
    with pytest.raises(ValueError):
        constructive_panconnect(sparse, 0, 1)  # min degree 2 below threshold


def test_constructive_deterministic():
    import json

    coll = gen_random_collection(9, 8, 5, seed=4)
    a = constructive_panconnect(coll, 0, 3).to_json_dict()
    b = constructive_panconnect(coll, 0, 3).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- the shared row closer, role retries and fatal cycles ---------------------------


def with_edges(coll, *edges):
    graphs = list(coll.graphs)
    for c, u, v in edges:
        graphs[c] = graphs[c].with_edge(u, v)
    return GraphCollection(coll.n, tuple(graphs))


def four_vertex_row(*edges):
    """x=0, y=1 and the chain (2, 3) in three colors: head 0, inner 1, tail 2."""
    empty = GraphCollection(4, tuple(build_graph(4, []) for _ in range(3)))
    return with_edges(empty, (1, 2, 3), *edges)


ROW_FRAME = _Frame((2, 3), (1,), 0, 2, 3, "test row")


def close_row(coll):
    return _hp_close(coll, ROW_FRAME, 0, 1, (2, 3), (1,), 0, 2, "test-claim")


def test_row_closer_forward():
    coll = four_vertex_row((0, 0, 2), (2, 3, 1))
    path = close_row(coll)
    assert (path.vertices, path.colors) == ((0, 2, 3, 1), (0, 1, 2))


def test_row_closer_prefers_forward_when_both_close():
    coll = four_vertex_row((0, 0, 2), (2, 3, 1), (2, 0, 3), (0, 2, 1))
    assert close_row(coll).vertices == (0, 2, 3, 1)


def test_row_closer_reversed():
    coll = four_vertex_row((2, 0, 3), (0, 2, 1))
    path = close_row(coll)
    assert (path.vertices, path.colors) == ((0, 3, 2, 1), (2, 1, 0))
    assert verify_colored_path(coll, path)


def test_row_closer_reversed_after_half_forward():
    # the head color reaches x, but the tail color misses y: only the
    # reversed row closes at both ends
    coll = four_vertex_row((0, 0, 2), (2, 0, 3), (0, 2, 1))
    assert close_row(coll).vertices == (0, 3, 2, 1)


def test_row_closer_neither_endpoint():
    coll = four_vertex_row((0, 0, 2), (0, 2, 1), (2, 2, 1))
    with pytest.raises(HypothesisViolation) as exc:
        close_row(coll)
    assert exc.value.claim == "test-claim" and not exc.value.fatal
    assert "test row" in exc.value.details


def violation(claim, fatal=False):
    def attempt():
        raise HypothesisViolation("stage", claim, "details", fatal=fatal)

    return attempt


def test_retry_returns_first_success_after_non_fatal_violations():
    assert _retry([violation("a"), lambda: "ok", violation("f", True)]) == "ok"
    with pytest.raises(HypothesisViolation) as exc:
        _retry([violation("a"), violation("f", True), lambda: "ok"])
    assert exc.value.claim == "f"
    with pytest.raises(HypothesisViolation) as exc:
        _retry([violation("a"), violation("b")])
    assert exc.value.claim == "a"


def test_ham_path_retries_roles_after_non_fatal_violations(monkeypatch):
    # handed the planted path backwards, the first two role assignments fail
    # their opening count; the third, the planted frame, succeeds
    coll, h = gen_lemma_shape("lem6", 9, seed=0, variant="c1")
    args = (h["x"], h["y"], h["z"])
    want = ham_path_k_path(coll, h["path"], *args, 6)
    outcomes = []
    dispatch = constructions._hp_dispatch

    def spy(coll, frame, *rest):
        try:
            result = dispatch(coll, frame, *rest)
        except HypothesisViolation as hv:
            outcomes.append(hv.claim)
            raise
        outcomes.append("ok")
        return result

    monkeypatch.setattr(constructions, "_hp_dispatch", spy)
    got = ham_path_k_path(coll, h["path"].reversed(), *args, 6)
    assert outcomes == ["opening-count", "opening-count", "ok"]
    assert got == want


def assert_fatal_cycle(hv, claim, length):
    assert hv.fatal and hv.claim == claim
    data = hv.evidence["cycle"]
    cycle = ColoredCycle(tuple(data["vertices"]), tuple(data["colors"]))
    assert cycle.length == length
    return cycle


def test_ham_path_terminal_edge_is_a_fatal_spanning_cycle():
    coll, h = gen_lemma_shape("lem6", 9, seed=0, variant="a")
    path = h["path"]
    # f_a = 6 joins the path's ends: path plus that edge is a spanning cycle
    coll = with_edges(coll, (6, path.vertices[0], path.vertices[-1]))
    with pytest.raises(HypothesisViolation) as exc:
        ham_path_k_path(coll, path, h["x"], h["y"], h["z"], 5)
    cycle = assert_fatal_cycle(exc.value, "spanning-cycle", 6)
    assert check_colored_cycle(coll, cycle) is None
    assert set(cycle.vertices) == set(path.vertices)


def test_near_cycle_detached_vertex_is_a_fatal_spanning_cycle():
    coll, h = gen_lemma_shape("lem3", 9, seed=0, variant="main")
    ring, w = h["cycle"].vertices, h["w"]
    # w meets ring position 3 in f_a; meeting position 2 in f_b as well
    # threads w between positions 2 and 3 of the ring
    coll = with_edges(coll, (h["f_b"], w, ring[1]))
    with pytest.raises(HypothesisViolation) as exc:
        near_cycle_k_path(coll, h["cycle"], h["x"], h["y"], h["z"], w, 6)
    cycle = assert_fatal_cycle(exc.value, "detached-vertex", len(ring) + 1)
    assert check_colored_cycle(coll, cycle) is None
    assert set(cycle.vertices) == set(ring) | {w}


def test_builders_reject_malformed_inputs():
    coll, h = gen_lemma_shape("lem6", 9, seed=0, variant="a")
    path, x, y, z = h["path"], h["x"], h["y"], h["z"]
    recolored = ColoredPath(path.vertices, (h["c_star"],) + path.colors[1:])
    bad_calls = [
        lambda: ham_path_k_path(GraphCollection(9, coll.graphs[:-1]), path, x, y, z, 5),
        lambda: ham_path_k_path(coll, path, x, x, z, 5),
        lambda: ham_path_k_path(coll, path, x, y, 9, 5),
        lambda: ham_path_k_path(coll, path, x, y, z, 3),
        lambda: ham_path_k_path(coll, path, x, y, z, 9),
        lambda: ham_path_k_path(coll, path, x, y, path.vertices[0], 5),
        lambda: ham_path_k_path(coll, ColoredPath(path.vertices[1:], path.colors[1:]), x, y, z, 5),
        lambda: ham_path_k_path(coll, recolored, x, y, z, 5),  # not an edge in c_star
        lambda: endpoint_bound_report(coll, path.reversed(), excluded_color=path.colors[0]),
    ]
    for call in bad_calls:
        with pytest.raises(ValueError):
            call()
    coll, h = gen_lemma_shape("lem7", 7, seed=3, variant="z")
    args = (h["x"], h["y"], h["z"], h["j"], 5)
    with pytest.raises(ValueError):
        two_clique_k_path(coll, h["u1"], h["u2"][1:], *args)
    with pytest.raises(ValueError):
        two_clique_k_path(coll, h["u1"], h["u1"], *args)
    coll, h = gen_lemma_shape("lem8", 9, seed=4, variant="witness")
    with pytest.raises(ValueError):
        join_partition_k_path(coll, h["i"], h["f"], h["x"], h["y"], h["z"], 5)
