"""Decision procedures and recognizers for collection-level properties:
panconnectivity (single-graph and rainbow), rainbow Hamiltonian connectivity,
the extremal join family, obstruction classification, and the degree-threshold
theorem checker built from those parts.

Verdict conventions: True/False are exhaustive-search answers; None means the
node budget ran out before the answer was decided, and is never collapsed
into False.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    CollectionLike,
    ColoredPath,
    GraphCollection,
    SimpleGraph,
    bits,
    clique_split,
    collection_min_degree,
    components,
    row_groups,
)
from .search import (
    BudgetExceeded,
    SearchBudget,
    find_rainbow_ham_path,
    k_cap,
    k_paths,
)


@dataclass(frozen=True)
class ExtremalWitness:
    """A recognized obstruction structure, re-verified before emission.

    kind is one of "F_family", "two_cliques", "join_partition",
    "single_graph_split"; partition maps role names to vertex tuples.
    """

    kind: str
    partition: dict[str, tuple[int, ...]]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "partition": {k: list(v) for k, v in self.partition.items()},
        }


@dataclass
class PairReport:
    x: int
    y: int
    distance: int | None
    witnesses: dict[int, ColoredPath] = field(default_factory=dict)

    def to_json_dict(self, *, leaves: bool = False) -> dict:
        """The pair's JSON; with `leaves`, each witness stays its
        `ColoredPath`, which `io.write_json` writes as its to_json_dict()."""
        ws = self.witnesses
        return {
            "x": self.x,
            "y": self.y,
            "distance": self.distance,
            "witnesses": {
                str(k): ws[k] if leaves else ws[k].to_json_dict() for k in sorted(ws)
            },
        }


@dataclass
class PanconnectivityCertificate:
    """Per-pair rainbow distance and k-path witnesses.

    verdict True requires every pair to carry witnesses for its whole
    k-range [distance+1, k_cap]; False carries the lexicographically smallest
    failing (x, y, k); None means a budget ran out first. k is capped at
    min(n, m+1) since a k-path needs k-1 distinct colors; certificates carry
    the cap so a reader can tell when it bound the range.
    """

    n: int
    m: int
    verdict: bool | None
    pairs: list[PairReport]
    failure: tuple[int, int, int | None] | None
    extremal: ExtremalWitness | None
    k_cap: int

    def to_json_dict(self, *, leaves: bool = False) -> dict:
        """The certificate's JSON; `leaves` as in PairReport.to_json_dict."""
        return {
            "n": self.n,
            "m": self.m,
            "verdict": self.verdict if self.verdict is not None else "unknown",
            "pairs": [p.to_json_dict(leaves=leaves) for p in self.pairs],
            "failure": (
                None
                if self.failure is None
                else {
                    "x": self.failure[0],
                    "y": self.failure[1],
                    "k": self.failure[2],
                }
            ),
            "extremal": (
                None if self.extremal is None else self.extremal.to_json_dict()
            ),
            "k_cap": self.k_cap,
        }


@dataclass
class HamConnectivityReport:
    """holds True iff every pair has a rainbow Hamiltonian path."""

    holds: bool | None
    witnesses: dict[tuple[int, int], ColoredPath] = field(default_factory=dict)
    failing_pair: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds if self.holds is not None else "unknown",
            "witnesses": {
                f"{x},{y}": p.to_json_dict()
                for (x, y), p in sorted(self.witnesses.items())
            },
            "failing_pair": (
                None if self.failing_pair is None else list(self.failing_pair)
            ),
        }


def is_panconnected_single(
    g: SimpleGraph, budget: SearchBudget | None = None
) -> bool | None:
    """Every pair joined by a plain k-path for all k in [d(x,y)+1, n]; None
    when the budget ran out first.

    A single graph is the collection of n-1 copies of itself: with that many
    colors an injective assignment always exists, so rainbow search decides
    plain path existence, the union distance is the plain distance, and the
    rainbow certificate of the copies is the verdict.
    """
    if g.n < 2:
        raise ValueError("need at least two vertices")
    coll = GraphCollection(g.n, (g,) * (g.n - 1))
    return is_rainbow_panconnected(coll, budget=budget).verdict


def is_rainbow_panconnected(
    view: CollectionLike, budget: SearchBudget | None = None
) -> PanconnectivityCertificate:
    """Certificate over all pairs, k from distance+1 to min(n, m+1).

    Pairs are swept in lexicographic order and k ascending, so a False
    verdict's failing triple is the lexicographically smallest one. The sweep
    stops at the first failure; budget exhaustion anywhere yields verdict
    None ("unknown"), never False.
    """
    pairs: list[PairReport] = []
    try:
        failure = _first_failure(view, budget, pairs)
        verdict = failure is None
    except BudgetExceeded:
        failure, verdict = None, None
    return PanconnectivityCertificate(
        view.n_surviving, view.m_surviving, verdict, pairs, failure, None, k_cap(view)
    )


def _first_failure(view, budget, pairs):
    """Sweep the pairs, appending each pair's report to `pairs` once its
    distance is known; the first failing (x, y, k) triple, k None when no
    rainbow path joins x and y, or None when every pair passes."""
    alive = view.vertices
    for i, x in enumerate(alive):
        for y in alive[i + 1 :]:
            report = None
            for k, path in k_paths(view, x, y, budget=budget):
                if report is None:  # the shortest path comes first
                    report = PairReport(x, y, k - 1)
                    pairs.append(report)
                if path is None:
                    return x, y, k
                report.witnesses[k] = path
            if report is None:
                pairs.append(PairReport(x, y, None))
                return x, y, None
    return None


def is_rainbow_ham_connected(
    view: CollectionLike, budget: SearchBudget | None = None
) -> HamConnectivityReport:
    """Rainbow Hamiltonian path between every pair of surviving vertices."""
    if view.m_surviving < view.n_surviving - 1:
        raise ValueError(
            f"{view.m_surviving} colors cannot span {view.n_surviving} vertices"
        )
    report = HamConnectivityReport(holds=True)
    alive = view.vertices
    try:
        for i, x in enumerate(alive):
            for y in alive[i + 1 :]:
                path = find_rainbow_ham_path(view, x, y, budget=budget)
                if path is None:
                    return HamConnectivityReport(False, report.witnesses, (x, y))
                report.witnesses[(x, y)] = path
    except BudgetExceeded:
        return HamConnectivityReport(None, report.witnesses, None)
    return report


# -- extremal recognizers ---------------------------------------------------


def recognize_F_family(coll: GraphCollection) -> ExtremalWitness | None:
    """Identical graphs shaped independent-half joined to a min-degree-1 half
    containing a single-edge component.

    Detection: every vertex of the independent half Q1 has row exactly the
    other half Q2, so Q1 is a group of vertices sharing one row, that row
    being its complement, and Q1 has (n-1)/2 vertices; one grouping of the
    rows of graph 0 finds every candidate.
    """
    n = coll.n
    if n % 2 == 0 or n < 5:
        return None
    g0 = coll.graphs[0]
    if any(g is not g0 and g != g0 for g in coll.graphs[1:]):
        return None
    full = (1 << n) - 1
    # At most one candidate passes, so the witness does not depend on the
    # order the groups are tried in. Two candidates are disjoint groups of
    # (n-1)/2 vertices each, joined to each other and to the one vertex r
    # left over; then Q2 of either is the other plus r, a star on
    # (n+1)/2 >= 3 vertices, with no single-edge component.
    for row, eye in row_groups(g0.adj, full).items():
        if eye.bit_count() != (n - 1) // 2 or row != full & ~eye:
            continue
        # Q2 needs minimum degree 1 and a single-edge component; the first
        # such component in order of smallest vertex is the one named
        comps = components(g0.adj, row)
        if any(comp.bit_count() == 1 for comp in comps):
            continue
        single = next((comp for comp in comps if comp.bit_count() == 2), None)
        if single is not None:
            q1, q2 = tuple(bits(eye)), tuple(bits(row))
            return ExtremalWitness(
                "F_family", {"q1": q1, "q2": q2, "single_edge": tuple(bits(single))}
            )
    return None


def f_family_rejection_reason(coll: GraphCollection) -> str:
    """Why recognize_F_family returned none, for violation bundles."""
    n = coll.n
    if n % 2 == 0:
        return "vertex count is even"
    if n < 5:
        return "vertex count below 5"
    g0 = coll.graphs[0]
    if any(g != g0 for g in coll.graphs[1:]):
        diff = next(i for i, g in enumerate(coll.graphs) if g != g0)
        return f"graphs 0 and {diff} differ"
    return "no partition matches the join-family shape"


def recognize_clique_split(g: SimpleGraph) -> ExtremalWitness | None:
    """Graph equal to two disjoint cliques covering every vertex."""
    split = clique_split(g.adj, (1 << g.n) - 1)
    if split is None:
        return None
    a, b = split
    return ExtremalWitness("single_graph_split", {"half1": a, "half2": b})


def two_clique_partition(
    view: CollectionLike,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The split of the surviving vertices into two cliques of equal size
    that every surviving color is exactly, or None.

    The colors must share one restricted row per vertex, so their rows are
    compared before the first color's graph is split.
    """
    n = view.n_surviving
    if n % 2 != 0:
        return None
    rows = view.color_rows
    first = rows[view.colors[0]]
    if any(rows[c] != first for c in view.colors[1:]):
        return None
    split = clique_split(first, view.vertex_mask)
    if split is None or len(split[0]) != n // 2:
        return None
    return split


def recognize_two_cliques(coll: GraphCollection) -> ExtremalWitness | None:
    """All graphs identical and equal to two cliques of exactly half size."""
    split = two_clique_partition(coll)
    if split is None:
        return None
    h1, h2 = split
    return ExtremalWitness("two_cliques", {"half1": h1, "half2": h2})


def join_partition(
    view: CollectionLike,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Partition (H, I) of the surviving vertices with |I| = n_surviving//2 + 1
    such that in every surviving color each I vertex is adjacent to exactly
    H, or None.

    I is a group of vertices sharing one row in every surviving color, that
    row being H. At most one partition qualifies: I holds more than half the
    surviving vertices, so two candidate I sides share a vertex, and that
    vertex's neighborhood fixes H and with it I. No H vertex has row H (it
    is not its own neighbor), so in the first surviving color I is exactly
    the group of vertices with row H: grouping that color's rows finds the
    only candidate in O(n), and checking it in the other colors costs
    O(m·n) only when one exists.
    """
    keep = view.vertex_mask
    i_size = view.n_surviving // 2 + 1
    rows = view.color_rows
    for h, eye in row_groups(rows[view.colors[0]], keep).items():
        if eye.bit_count() == i_size and h == keep & ~eye:
            members = tuple(bits(eye))
            if all(rows[c][v] == h for c in view.colors[1:] for v in members):
                return tuple(bits(h)), members
    return None


def recognize_join_partition(coll: GraphCollection) -> ExtremalWitness | None:
    """Partition (H, I) with |H| = (n-2)/2: every graph has all H-I edges and
    an independent I; H interiors are unconstrained."""
    if coll.n % 2 != 0:
        return None
    split = join_partition(coll)
    if split is None:
        return None
    h, i = split
    return ExtremalWitness("join_partition", {"h": h, "i": i})


@dataclass
class ObstructionClassification:
    case: str  # "i" | "ii" | "iii"
    within_hypothesis: bool
    witness: ExtremalWitness | None
    ham_report: HamConnectivityReport | None

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "within_hypothesis": self.within_hypothesis,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "ham_report": (
                None if self.ham_report is None else self.ham_report.to_json_dict()
            ),
        }


def classify_ham_path_obstruction(
    coll: GraphCollection, budget: SearchBudget | None = None
) -> ObstructionClassification:
    """Trichotomy for n-graph collections: the two structural obstructions
    are recognized first (they are cheap); otherwise search certifies the
    Hamiltonian-connected case.
    """
    if coll.m != coll.n:
        raise ValueError(f"expected {coll.n} graphs, got {coll.m}")
    within = collection_min_degree(coll) >= coll.n // 2 - 1
    two = recognize_two_cliques(coll)
    if two is not None:
        return ObstructionClassification("ii", within, two, None)
    join = recognize_join_partition(coll)
    if join is not None:
        return ObstructionClassification("iii", within, join, None)
    report = is_rainbow_ham_connected(coll, budget=budget)
    return ObstructionClassification("i", within, None, report)


@dataclass
class Theorem15Result:
    outcome: str  # "holds" | "violated" | "inconclusive"
    via: str | None  # "panconnected" | "F_family"
    certificate: PanconnectivityCertificate
    rejection_reason: str | None = None  # why F-recognition failed, on violation

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "via": self.via,
            "certificate": self.certificate.to_json_dict(),
            "rejection_reason": self.rejection_reason,
        }


def verify_theorem_1_5(
    coll: GraphCollection, budget: SearchBudget | None = None
) -> Theorem15Result:
    """Either the collection is rainbow panconnected or it is the extremal
    join family; anything else is a violation bundle.

    Preconditions (m = n-1, min degree >= (n+1)/2) are rejected, not judged.
    """
    n = coll.n
    if coll.m != n - 1:
        raise ValueError(f"need {n - 1} graphs, got {coll.m}")
    delta = collection_min_degree(coll)
    if 2 * delta < n + 1:
        raise ValueError(f"min degree {delta} below {(n + 1 + 1) // 2}")
    cert = is_rainbow_panconnected(coll, budget=budget)
    if cert.verdict is True:
        return Theorem15Result("holds", "panconnected", cert)
    if cert.verdict is None:
        return Theorem15Result("inconclusive", None, cert)
    witness = recognize_F_family(coll)
    if witness is not None:
        cert.extremal = witness
        return Theorem15Result("holds", "F_family", cert)
    return Theorem15Result(
        "violated", None, cert, rejection_reason=f_family_rejection_reason(coll)
    )
