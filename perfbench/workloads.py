"""The benchmark's four workloads: inputs made from a seed, the items a user
waits for, and the checks that every item's output is right.

A workload's setup writes the instance files a user would already have on
disk and returns its items. An item's `run` is the timed call into the
package; its `check` runs afterwards, outside the timed region, and turns the
output into a `Checked`: decided or stopped by the node budget, the
deterministic JSON that is digested, and any problems found. Checks are
structural, so they hold at every seed: verdicts match what the instance was
built to be, and every witness is re-checked against the instance with
`verify_colored_path`.

Calls go through module attributes looked up at call time, so the traced
run's wrappers see them.

What the workload seed s changes: trials that a campaign draws itself
(`campaign`, the cor2_3 trials of `obstruction`) use trial seeds
s * SEED_STRIDE + t, as `verify --seed` would; the instance files a user
already has (`certificate`, the classify files, `replay`) are the same at
every seed; and the seed shuffles the order in which a pass runs the items
(seed 0 keeps the listed order). perfbench/NOTES.md says why the files stay
fixed.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SEED_STRIDE = 1000
REPLAY_NODE_LIMIT = 200_000


class Modules:
    """The package modules, imported after the kernel is registered."""

    def __init__(self) -> None:
        for name in (
            "analysis",
            "cli",
            "constructions",
            "core",
            "generate",
            "io",
            "kernels",
            "search",
        ):
            setattr(self, name, importlib.import_module(f"rainbowpan.{name}"))


@dataclass
class Checked:
    decided: bool
    doc: dict | None = None
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], Checked]


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str  # "python" or "compiled", as rainbowpan.kernels.IMPLEMENTATION
    build: Callable[["Modules", Path, int], list[Item]]

    def setup(self, rp: Modules, workdir: Path, seed: int) -> list[Item]:
        """Write the inputs and return the items in the order a pass runs them."""
        items = self.build(rp, workdir, seed)
        if seed != 0:
            random.Random(f"perfbench:{self.name}:{seed}").shuffle(items)
        return items


class BudgetStop:
    """Output of an item whose search ran out of nodes."""


def digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _path_problem(rp, coll, raw, x, y, k) -> str | None:
    try:
        path = rp.core.ColoredPath(tuple(raw["vertices"]), tuple(raw["colors"]))
    except ValueError as exc:
        return f"malformed {k}-path {x}-{y}: {exc}"
    if path.k != k or path.vertices[0] != x or path.vertices[-1] != y:
        return f"{k}-path {x}-{y} has the wrong length or endpoints"
    if not rp.core.verify_colored_path(coll, path):
        return f"{k}-path {x}-{y} is not a rainbow path of the instance"
    return None


def _union_distance(rp, coll, x, y) -> int | None:
    rows = rp.core.union_adjacency(coll)
    seen, frontier, d = 1 << x, 1 << x, 0
    while frontier:
        if (frontier >> y) & 1:
            return d
        nxt = 0
        for v in rp.core.bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= nxt
        d += 1
    return None


def _certificate_problems(rp, coll, cert: dict) -> list[str]:
    """A True panconnectivity certificate: every pair, every k in its range,
    each witness a rainbow path of the instance."""
    problems = []
    if cert["verdict"] is not True:
        return [f"verdict {cert['verdict']!r}, expected True"]
    n, k_cap = coll.n, cert["k_cap"]
    if k_cap != min(n, coll.m + 1):
        problems.append(f"k_cap {k_cap}")
    pairs = {(p["x"], p["y"]): p for p in cert["pairs"]}
    if len(pairs) != n * (n - 1) // 2:
        problems.append(f"{len(pairs)} pairs certified")
    for (x, y), p in sorted(pairs.items()):
        d = p["distance"]
        if d is None or d < _union_distance(rp, coll, x, y):
            problems.append(f"pair {x}-{y} distance {d}")
            continue
        if sorted(int(k) for k in p["witnesses"]) != list(range(d + 1, k_cap + 1)):
            problems.append(f"pair {x}-{y} k-range incomplete")
        for k, raw in p["witnesses"].items():
            problem = _path_problem(rp, coll, raw, x, y, int(k))
            if problem:
                problems.append(problem)
    return problems


def _partition_problems(coll, case: str, witness: dict | None) -> list[str]:
    """The structural obstruction the classification names holds in every graph."""
    if witness is None:
        return [f"case {case} without a witness"]
    n, part = coll.n, witness["partition"]
    if case == "ii":
        halves = [set(part["half1"]), set(part["half2"])]
        if sorted(map(len, halves)) != [n // 2, n // 2] or halves[0] & halves[1]:
            return ["two-clique halves are not a balanced partition"]
        for c, g in enumerate(coll.graphs):
            for u in range(n):
                own = next(h for h in halves if u in h)
                if set(g.neighbors(u)) != own - {u}:
                    return [f"graph {c} is not two cliques at vertex {u}"]
        return []
    h, i = set(part["h"]), set(part["i"])
    if len(h) != (n - 2) // 2 or h | i != set(range(n)) or h & i:
        return ["join partition sides have the wrong sizes"]
    for c, g in enumerate(coll.graphs):
        for u in i:
            if set(g.neighbors(u)) != h:
                return [f"graph {c}: vertex {u} of I is not joined to exactly H"]
    return []


# -- campaign: t1_5 trials at n = 9 on the pure-Python kernel ---------------


def _t1_5_item(rp, n: int, seed: int) -> Item:
    def run():
        spec = rp.generate.GenSpec(n, n - 1, seed, "random", min_degree=(n + 1) // 2)
        coll = rp.generate.generate(spec)
        return coll, rp.analysis.verify_theorem_1_5(coll, budget=rp.search.SearchBudget())

    def check(out) -> Checked:
        coll, res = out
        if res.outcome == "inconclusive":
            return Checked(False)
        doc = res.to_json_dict()
        if res.outcome != "holds":
            return Checked(True, doc, [f"outcome {res.outcome}"])
        if res.via == "F_family":
            problems = [] if res.certificate.extremal else ["F family without witness"]
        else:
            problems = _certificate_problems(rp, coll, doc["certificate"])
        return Checked(True, doc, problems)

    return Item(f"t1_5:n{n}:s{seed}", run, check)


def setup_campaign(rp, workdir: Path, seed: int) -> list[Item]:
    base = seed * SEED_STRIDE
    return [_t1_5_item(rp, 9, base + t) for t in range(150)]


# -- certificate: `check --in FILE --cert OUT` at n = 21 --------------------


def _check_item(rp, coll, path: Path, out: Path) -> Item:
    def run():
        return rp.cli.main(["check", "--in", str(path), "--cert", str(out)])

    def check(code) -> Checked:
        if code == rp.cli.EXIT_INCONCLUSIVE:
            return Checked(False)
        doc = json.loads(out.read_text())
        problems = [] if code == rp.cli.EXIT_PASS else [f"exit code {code}"]
        return Checked(True, doc, problems + _certificate_problems(rp, coll, doc))

    return Item(f"check:{path.name}", run, check)


def setup_certificate(rp, workdir: Path, seed: int) -> list[Item]:
    items = []
    for i in range(4):
        spec = rp.generate.GenSpec(21, 20, i, "random", min_degree=11)
        coll = rp.generate.generate(spec)
        path = workdir / f"cert-n21-s{i}.txt"
        rp.io.write_instance(path, coll)
        items.append(_check_item(rp, coll, path, workdir / f"{path.stem}.cert.json"))
    return items


# -- obstruction: cor2_3 trials at n = 12 and `classify --in` at n = 18 ------


def _cor2_3_item(rp, n: int, seed: int) -> Item:
    case = "ii" if seed % 2 == 0 else "iii"
    family = "two_cliques_cor23" if case == "ii" else "join_partition_cor23"

    def run():
        budget = rp.search.SearchBudget()
        try:
            coll = rp.generate.generate(rp.generate.GenSpec(n, n, seed, family))
            cls = rp.analysis.classify_ham_path_obstruction(coll, budget=budget)
            found = None
            if cls.case == case:
                for x in range(n):
                    for y in range(x + 1, n):
                        found = rp.search.find_rainbow_ham_path(coll, x, y, budget=budget)
                        if found is not None:
                            return coll, cls, found
            return coll, cls, found
        except rp.search.BudgetExceeded:
            return BudgetStop()

    def check(out) -> Checked:
        if isinstance(out, BudgetStop):
            return Checked(False)
        coll, cls, found = out
        doc = {
            "classification": cls.to_json_dict(),
            "spanning_path": None if found is None else found.to_json_dict(),
        }
        problems = []
        if cls.case != case:
            problems.append(f"classified as {cls.case}, built {case}")
        else:
            problems += _partition_problems(coll, case, doc["classification"]["witness"])
        if found is not None:
            problems.append(f"spanning path {found.vertices} in a case-{case} obstruction")
        return Checked(True, doc, problems)

    return Item(f"cor2_3:n{n}:s{seed}", run, check)


def _classify_item(rp, coll, case: str, path: Path, out: Path) -> Item:
    kind = {"i": "none", "ii": "two_cliques", "iii": "join_partition"}[case]

    def run():
        return rp.cli.main(["classify", "--in", str(path), "--out", str(out)])

    def check(code) -> Checked:
        doc = json.loads(out.read_text())
        if doc.get("case") == "unknown":
            return Checked(False)
        problems = [] if code == rp.cli.EXIT_PASS else [f"exit code {code}"]
        if doc["kind"] != kind or doc.get("case") != case:
            problems.append(f"classified {doc['kind']}/{doc.get('case')}, built {kind}/{case}")
        elif case == "i":
            if doc.get("ham_connected") is not True:
                problems.append("case i instance not Hamiltonian connected")
        else:
            problems += _partition_problems(coll, case, doc["witness"])
        return Checked(True, doc, problems)

    return Item(f"classify:{path.name}", run, check)


def setup_obstruction(rp, workdir: Path, seed: int) -> list[Item]:
    base = seed * SEED_STRIDE
    items = [_cor2_3_item(rp, 12, base + t) for t in range(12)]
    n = 18
    families = (("i", "random"), ("ii", "two_cliques_cor23"), ("iii", "join_partition_cor23"))
    for case, family in families:
        for i in range(2):
            spec = rp.generate.GenSpec(
                n, n, i, family, min_degree=n // 2 if family == "random" else None
            )
            coll = rp.generate.generate(spec)
            path = workdir / f"classify-{case}-n{n}-s{i}.txt"
            rp.io.write_instance(path, coll)
            items.append(_classify_item(rp, coll, case, path, workdir / f"{path.stem}.json"))
    return items


# -- replay: constructive_panconnect on every pair ---------------------------

def _replay_item(rp, coll, name: str, x: int, y: int) -> Item:
    def run():
        budget = rp.search.SearchBudget(node_limit=REPLAY_NODE_LIMIT)
        try:
            return rp.constructions.constructive_panconnect(coll, x, y, budget=budget)
        except rp.search.BudgetExceeded:
            return BudgetStop()

    def check(rep) -> Checked:
        if isinstance(rep, BudgetStop):
            return Checked(False)
        doc = rep.to_json_dict()
        n = coll.n
        problems = [f"discrepancy at k={d['k']}: {d['detail']}" for d in rep.discrepancies]
        if rep.distance != _union_distance(rp, coll, x, y):
            problems.append(f"distance {rep.distance}")
        want = set(range(rep.distance + 1, n + 1))
        if set(rep.paths) | set(rep.missing_k) != want or set(rep.paths) & set(rep.missing_k):
            problems.append("k-range not covered exactly once")
        if rep.missing_k and (rep.verdict is None or set(rep.missing_k) != {4}):
            problems.append(f"missing k {rep.missing_k} without the family verdict")
        for k, path in rep.paths.items():
            problem = _path_problem(rp, coll, path.to_json_dict(), x, y, k)
            if problem:
                problems.append(problem)
        built = [t for t in rep.traces if t.path is not None and 4 <= t.k < n]
        counts = {
            "k_paths": len(built),
            # traces tagged "search" came from exhaustive search, not a branch builder
            "fallback_k_paths": sum(t.lemma == "search" for t in built),
        }
        return Checked(True, doc, problems, counts)

    return Item(f"replay:{name}:{x}-{y}", run, check)


def setup_replay(rp, workdir: Path, seed: int) -> list[Item]:
    specs = [rp.generate.GenSpec(13, 12, i, "random", min_degree=7) for i in range(6)]
    specs += [rp.generate.GenSpec(15, 14, i, "random", min_degree=8) for i in range(4)]
    specs += [rp.generate.GenSpec(11, 10, i, "F_family") for i in range(2)]
    items = []
    for spec in specs:
        path = workdir / f"replay-{spec.family}-n{spec.n}-s{spec.seed}.txt"
        rp.io.write_instance(path, rp.generate.generate(spec))
        coll = rp.io.read_instance(path)
        for x in range(coll.n):
            for y in range(x + 1, coll.n):
                items.append(_replay_item(rp, coll, path.stem, x, y))
    return items


WORKLOADS = {
    "campaign": Workload("campaign", "python", setup_campaign),
    "certificate": Workload("certificate", "compiled", setup_certificate),
    "obstruction": Workload("obstruction", "compiled", setup_obstruction),
    "replay": Workload("replay", "compiled", setup_replay),
}
