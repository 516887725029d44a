"""Command line front end.

Subcommands: gen (write instances), check (panconnectivity verdicts and
certificates), classify (structure recognition), verify (seeded campaigns
over a named statement), replay (constructive certificate with branch
traces). Machine output is JSON on stdout; human summaries go to stderr.
Exit codes are a stable contract: 0 pass, 1 property fails, 2 usage or
infeasible input, 3 inconclusive under the search budget.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .analysis import (
    classify_ham_path_obstruction,
    is_panconnected_single,
    is_rainbow_ham_connected,
    is_rainbow_panconnected,
    recognize_F_family,
    recognize_join_partition,
    recognize_two_cliques,
    verify_theorem_1_5,
)
from .constructions import HypothesisViolation, constructive_panconnect, endpoint_bound_report
from .core import GraphCollection, collection_min_degree
from .generate import GenSpec, gen_lemma_shape, generate
from .io import InstanceFormatError, format_instance, read_instance, write_json
from .search import (
    BudgetExceeded,
    SearchBudget,
    default_budget,
    find_rainbow_ham_path,
    find_rainbow_path,
    k_cap,
    k_paths,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _emit_json(obj, path: str | None) -> None:
    """Write `obj` as JSON to the file at `path`, or to stdout."""
    if path:
        with _output(path) as fh:
            write_json(obj, fh)
    else:
        write_json(obj, sys.stdout)


@contextmanager
def _output(path: str):
    """The text file at `path`, opened for writing. A file that cannot be
    opened is a usage error; a regular file that an error leaves half
    written is removed before the error goes on."""
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise SystemExit(_usage_exit(f"cannot write output: {exc}"))
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


def _check_output(path: str | None) -> None:
    """Reject, before any work, an output path that the late open in
    `_output` could not write: a directory, or one in a directory that does
    not exist. The file itself is neither created nor truncated here."""
    if not path:
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = f"{path} is a directory"
    elif not os.path.isdir(folder):
        problem = f"{path}: {folder} is not a directory"
    else:
        return
    raise SystemExit(_usage_exit(f"cannot write output: {problem}"))


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _exit_for(verdict: bool | None) -> int:
    """The exit code of a three-valued verdict; None is inconclusive."""
    if verdict is None:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if verdict else EXIT_FAIL


def _budget_from(args) -> SearchBudget:
    if args.budget is not None:
        return SearchBudget(node_limit=args.budget)
    try:
        return default_budget()
    except ValueError as exc:
        raise SystemExit(_usage_exit(str(exc)))


def _positive_int(text: str) -> int:
    """The argparse type of --budget, --trials and --jobs: at least one."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


# ---------------------------------------------------------------------------
# gen

_FAMILY_ALIASES = {
    "f": "F_family",
    "F_family": "F_family",
    "random": "random",
    "cor23_ii": "two_cliques_cor23",
    "two_cliques_cor23": "two_cliques_cor23",
    "cor23_iii": "join_partition_cor23",
    "join_partition_cor23": "join_partition_cor23",
}


def cmd_gen(args) -> int:
    family = _FAMILY_ALIASES.get(args.family, args.family)
    if not (family in set(_FAMILY_ALIASES.values()) or family.startswith("lemma_shape:")):
        _say(f"unknown family {args.family!r}")
        return EXIT_USAGE
    if family == "random":
        default_m, default_delta = args.n - 1, (args.n + 1) // 2
    elif family in ("two_cliques_cor23", "join_partition_cor23"):
        default_m, default_delta = args.n, None
    else:
        default_m, default_delta = args.n - 1, None
    params = {}
    if args.variant is not None:
        params["variant"] = args.variant
    spec = GenSpec(
        n=args.n,
        m=args.m if args.m is not None else default_m,
        seed=args.seed,
        family=family,
        min_degree=args.min_degree if args.min_degree is not None else default_delta,
        params=params,
    )
    try:
        coll = generate(spec)
    except ValueError as exc:
        _say(f"infeasible: {exc}")
        return EXIT_USAGE
    text = format_instance(coll)
    if args.out:
        with _output(args.out) as fh:
            fh.write(text)
        _emit_json(spec.to_json_dict(), args.out + ".spec.json")
        _say(f"wrote {args.out} ({coll.n} vertices, {coll.m} graphs)")
    else:
        sys.stdout.write(text)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# check


def _load(path: str) -> GraphCollection:
    try:
        return read_instance(path)
    except (OSError, InstanceFormatError) as exc:
        raise SystemExit(_usage_exit(f"cannot read instance: {exc}"))


def _usage_exit(msg: str) -> int:
    _say(msg)
    return EXIT_USAGE


def _pair_of(args, n: int) -> tuple[int, int] | None:
    """The --pair endpoints, checked against the instance's n."""
    if args.pair is None:
        return None
    x, y = args.pair
    if not (0 <= x < n and 0 <= y < n and x != y):
        raise SystemExit(_usage_exit(f"bad pair ({x}, {y}) for n={n}"))
    return x, y


def cmd_check(args) -> int:
    coll = _load(args.infile)
    budget = _budget_from(args)
    if args.k is not None and args.pair is None:
        return _usage_exit("--k needs --pair")
    pair = _pair_of(args, coll.n)
    if pair is not None:
        return _check_pair(coll, *pair, args.k, budget, args.cert)
    cert = is_rainbow_panconnected(coll, budget=budget)
    if args.cert:
        _emit_json(cert.to_json_dict(leaves=True), args.cert)
    if cert.verdict is True:
        print(f"panconnected: yes (k capped at {cert.k_cap})")
    elif cert.verdict is False:
        x, y, k = cert.failure
        print(f"panconnected: no, failing triple ({x}, {y}, {k})")
    else:
        print("panconnected: unknown (budget exhausted)")
    return _exit_for(cert.verdict)


def _check_pair(coll, x, y, k, budget, cert_path) -> int:
    if k is not None:
        cap = k_cap(coll)
        if not 2 <= k <= cap:
            return _usage_exit(f"--k {k} outside [2, {cap}] for n={coll.n}, m={coll.m}")
        path = find_rainbow_path(coll, x, y, k, budget=budget)
        result = {
            "pair": [x, y],
            "k": k,
            "found": path is not None,
            "path": path,
        }
        _emit_json(result, cert_path)
        if cert_path:
            print("found" if path is not None else "absent")
        return _exit_for(path is not None)
    result, complete = _pair_sweep(coll, x, y, budget)
    _emit_json(result, cert_path)
    if cert_path:
        print("complete" if complete else "incomplete")
    return _exit_for(complete)


def _pair_sweep(coll, x, y, budget) -> tuple[dict, bool]:
    """The k-sweep of one pair as `check --pair` writes it, its witnesses
    left as path objects for the JSON writer, and whether it found a path
    for every k from the distance to the cap."""
    found = dict(k_paths(coll, x, y, budget=budget))
    missing = [kk for kk, p in found.items() if p is None]
    result = {
        "pair": [x, y],
        "distance": min(found) - 1 if found else None,
        "k_cap": k_cap(coll),
        "missing": missing,
        "witnesses": {str(kk): p for kk, p in found.items() if p is not None},
    }
    return result, bool(found) and not missing


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    coll = _load(args.infile)
    budget = _budget_from(args)
    report: dict = {"n": coll.n, "m": coll.m, "min_degree": collection_min_degree(coll)}
    witness = recognize_F_family(coll)
    stopped = False
    if coll.m == coll.n:
        # the classification runs the two-clique and join recognizers itself
        # (before any search), so its witness stands in for theirs
        cls = classify_ham_path_obstruction(coll, budget=budget)
        ham = cls.ham_report
        # case i is a search verdict; a budget stop leaves it unknown
        stopped = ham is not None and ham.holds is None
        report["case"] = "unknown" if stopped else cls.case
        report["within_hypothesis"] = cls.within_hypothesis
        if ham is not None:
            report["ham_connected"] = ham.holds
        if witness is None:
            witness = cls.witness
    else:
        if witness is None:
            witness = recognize_two_cliques(coll)
        if witness is None:
            witness = recognize_join_partition(coll)
    report["kind"] = witness.kind if witness is not None else "none"
    report["witness"] = None if witness is None else witness.to_json_dict()
    _emit_json(report, args.out)
    if args.out:
        print(report["kind"])
    return _exit_for(None) if stopped else EXIT_PASS


# ---------------------------------------------------------------------------
# verify (campaigns)


@dataclass
class CampaignReport:
    """Outcome tallies for one seeded campaign; pass means zero fails and
    zero inconclusives, and every failure embeds a reproducer."""

    theorem: str
    trials_per_n: dict[int, int]
    base_seed: int
    node_limit: int
    passes: int = 0
    fails: int = 0
    inconclusive: int = 0
    failing: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def verdict(self) -> bool | None:
        """False on any fail, else None on any inconclusive trial, else True."""
        if self.fails:
            return False
        return None if self.inconclusive else True

    @property
    def passed(self) -> bool:
        return self.verdict is True

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "trials_per_n": {str(n): t for n, t in sorted(self.trials_per_n.items())},
            "base_seed": self.base_seed,
            "budget": {
                "node_limit": self.node_limit,
                "inconclusive_trials": self.inconclusive,
            },
            "passes": self.passes,
            "fails": self.fails,
            "inconclusive": self.inconclusive,
            "passed": self.passed,
            "failing": self.failing,
            "wall_time_s": round(self.wall_time_s, 3),
        }


# Each campaign statement: the spec of trial (n, seed), a decision on that
# spec returning (verdict, detail of a failure), and the vertex counts it
# applies to. A decision answers None, or raises BudgetExceeded, when the
# budget stops it.


def _threshold_spec(n: int, seed: int) -> GenSpec:
    return GenSpec(n, n - 1, seed, "random", min_degree=(n + 1) // 2)


def _decide_t1_1(spec: GenSpec, budget: SearchBudget):
    return is_panconnected_single(generate(spec)[0], budget=budget), "k-path missing"


def _decide_t1_5(spec: GenSpec, budget: SearchBudget):
    res = verify_theorem_1_5(generate(spec), budget=budget)
    verdict = {"holds": True, "violated": False}.get(res.outcome)
    return verdict, f"failure={res.certificate.failure} {res.rejection_reason}"


def _decide_t2_1(spec: GenSpec, budget: SearchBudget):
    rep = is_rainbow_ham_connected(generate(spec), budget=budget)
    return rep.holds, f"pair {rep.failing_pair} has no spanning path"


def _decide_lem1(spec: GenSpec, budget: SearchBudget):
    cert = is_rainbow_panconnected(generate(spec), budget=budget)
    return cert.verdict, f"failing triple {cert.failure}"


def _lem5_spec(n: int, seed: int) -> GenSpec:
    variants = ("lo-lo",) if n == 7 else ("lo-lo", "lo-hi")
    variant = variants[seed % len(variants)]
    return GenSpec(n, n - 1, seed, "lemma_shape:lem5", params={"variant": variant})


def _decide_lem5(spec: GenSpec, budget: SearchBudget):
    n = spec.n
    coll, handles = gen_lemma_shape("lem5", n, spec.seed, spec.params["variant"])
    try:
        rep = endpoint_bound_report(
            coll, handles["path"], excluded_color=handles["excluded_color"], budget=budget
        )
    except HypothesisViolation as exc:
        return False, f"hypothesis check rejected the fixture: {exc}"
    allowed = {(n - 5) // 2, (n - 3) // 2}
    ok = rep.d1 in allowed and rep.d2 in allowed and n - 5 <= rep.d1 + rep.d2 <= n - 4
    return ok, f"degrees ({rep.d1}, {rep.d2})"


def _cor2_3_spec(n: int, seed: int) -> GenSpec:
    family = "two_cliques_cor23" if seed % 2 == 0 else "join_partition_cor23"
    return GenSpec(n, n, seed, family)


def _decide_cor2_3(spec: GenSpec, budget: SearchBudget):
    case = "ii" if spec.family == "two_cliques_cor23" else "iii"
    coll = generate(spec)
    cls = classify_ham_path_obstruction(coll, budget=budget)
    if cls.case != case:
        return False, f"classified as {cls.case}, built {case}"
    for x, y in combinations(range(spec.n), 2):
        if find_rainbow_ham_path(coll, x, y, budget=budget) is not None:
            return False, f"unexpected spanning path for ({x}, {y})"
    return True, None


_THEOREMS = {
    "t1_1": (
        lambda n, seed: GenSpec(n, 1, seed, "random", min_degree=(n + 3) // 2),
        _decide_t1_1,
        lambda n: 4 <= n,
    ),
    "t1_5": (_threshold_spec, _decide_t1_5, lambda n: n % 2 == 1 and n >= 5),
    "t2_1": (_threshold_spec, _decide_t2_1, lambda n: n % 2 == 1 and n >= 5),
    "lem1": (_threshold_spec, _decide_lem1, lambda n: n == 5),
    "lem5-bounds": (_lem5_spec, _decide_lem5, lambda n: n in (7, 9)),
    "cor2_3": (_cor2_3_spec, _decide_cor2_3, lambda n: n % 2 == 0 and n >= 4),
}


def _campaign_trial(task) -> dict:
    theorem, n, seed, node_limit = task
    spec_of, decide, _ = _THEOREMS[theorem]
    spec = spec_of(n, seed)
    try:
        verdict, detail = decide(spec, SearchBudget(node_limit=node_limit))
    except BudgetExceeded:
        verdict = None
    if verdict is None:
        status, detail = "inconclusive", "budget"
    elif verdict:
        status, detail = "pass", None
    else:
        status = "fail"
    return {
        "n": n,
        "seed": seed,
        "status": status,
        "detail": detail,
        "spec": spec.to_json_dict(),
    }


def run_campaign(
    theorem: str,
    n_values: list[int],
    trials: int,
    base_seed: int,
    node_limit: int,
    jobs: int = 1,
) -> CampaignReport:
    """Seeded verification campaign; deterministic given identical flags."""
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    if not n_values or len(set(n_values)) < len(n_values):
        raise ValueError(f"a campaign needs distinct vertex counts, got n={n_values}")
    if trials < 1:
        raise ValueError(f"a campaign needs at least one trial, got trials={trials}")
    applies_to = _THEOREMS[theorem][2]
    bad = [n for n in n_values if not applies_to(n)]
    if bad:
        raise ValueError(f"theorem {theorem} does not apply to n={bad}")
    tasks = [
        (theorem, n, base_seed + t, node_limit)
        for n in n_values
        for t in range(trials)
    ]
    start = time.perf_counter()
    chunk = 8
    # a pool starts all its workers at once, so start no more than it has chunks
    workers = min(jobs, -(-len(tasks) // chunk))
    if workers > 1:
        # imported here: it loads multiprocessing, which nothing else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_campaign_trial, tasks, chunksize=chunk))
    else:
        results = [_campaign_trial(t) for t in tasks]
    report = CampaignReport(
        theorem=theorem,
        trials_per_n={n: trials for n in n_values},
        base_seed=base_seed,
        node_limit=node_limit,
    )
    for res in sorted(results, key=lambda r: (r["n"], r["seed"])):
        if res["status"] == "pass":
            report.passes += 1
        elif res["status"] == "fail":
            report.fails += 1
            report.failing.append(
                {
                    "n": res["n"],
                    "seed": res["seed"],
                    "detail": res["detail"],
                    "spec": res["spec"],
                    "reproducer": (
                        f"verify --theorem {theorem} --n {res['n']} "
                        f"--trials 1 --seed {res['seed']}"
                    ),
                }
            )
        else:
            report.inconclusive += 1
    report.wall_time_s = time.perf_counter() - start
    return report


def cmd_verify(args) -> int:
    try:
        n_values = [int(s) for s in args.n.split(",") if s]
    except ValueError:
        return _usage_exit(f"bad --n list {args.n!r}")
    budget = _budget_from(args)
    try:
        report = run_campaign(
            args.theorem, n_values, args.trials, args.seed, budget.node_limit, args.jobs
        )
    except ValueError as exc:
        return _usage_exit(str(exc))
    _emit_json(report.to_json_dict(), args.report)
    total = report.passes + report.fails + report.inconclusive
    _say(
        f"{args.theorem}: {report.passes}/{total} pass, {report.fails} fail, "
        f"{report.inconclusive} inconclusive ({report.wall_time_s:.1f}s)"
    )
    return _exit_for(report.verdict)


# ---------------------------------------------------------------------------
# replay


def cmd_replay(args) -> int:
    coll = _load(args.infile)
    budget = _budget_from(args)
    pair = _pair_of(args, coll.n)
    n, m = coll.n, coll.m
    hypothesis = n % 2 == 1 and n >= 5 and m == n - 1 and 2 * collection_min_degree(coll) >= n + 1
    if not hypothesis:
        note = "constructive replay needs odd n >= 5, m = n-1 and min degree >= (n+1)/2; "
        if pair is None:
            note += "emitting a search certificate only"
            cert = is_rainbow_panconnected(coll, budget=budget)
            body, verdict = {"certificate": cert.to_json_dict(leaves=True)}, cert.verdict
        else:
            note += "emitting the pair's search k-sweep only"
            body, verdict = _pair_sweep(coll, *pair, budget)
        _emit_json({"mode": "search", "note": note, **body}, args.out)
        _say(note)
        return _exit_for(verdict)
    pairs = [pair] if pair is not None else [(x, y) for x in range(n) for y in range(x + 1, n)]
    reports = []
    clean = True
    verdict = None
    for x, y in pairs:
        rep = constructive_panconnect(coll, x, y, budget=budget)
        reports.append(rep)
        if rep.discrepancies:
            clean = False
        if rep.verdict is not None:
            verdict = rep.verdict
        elif rep.missing_k:
            clean = False
    out = {
        "mode": "constructive",
        "n": n,
        "m": m,
        "clean": clean,
        "verdict": None if verdict is None else verdict.to_json_dict(),
        "pairs": [r.to_json_dict() for r in reports],
    }
    _emit_json(out, args.out)
    branches = sorted({t.lemma for r in reports for t in r.traces})
    _say(
        f"replayed {len(reports)} pair(s); branches: {', '.join(branches)}; "
        + ("no discrepancies" if clean else "DISCREPANCIES FOUND")
    )
    return _exit_for(clean)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rainbowpan",
        description="rainbow path toolkit: generate, check, classify, verify, replay",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    g.add_argument("--family", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int)
    g.add_argument("--min-degree", type=int, dest="min_degree")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--variant")
    g.add_argument("--out")

    c = sub.add_parser("check", help="panconnectivity check / single query")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--pair", type=int, nargs=2, metavar=("U", "V"))
    c.add_argument("--k", type=int)
    c.add_argument("--cert", help="write certificate JSON here")
    c.add_argument("--budget", type=_positive_int)

    cl = sub.add_parser("classify", help="recognize extremal structure")
    cl.add_argument("--in", dest="infile", required=True)
    cl.add_argument("--out")
    cl.add_argument("--budget", type=_positive_int)

    v = sub.add_parser("verify", help="seeded campaign for one statement")
    v.add_argument("--theorem", required=True, choices=tuple(_THEOREMS))
    v.add_argument("--n", required=True, help="comma-separated vertex counts")
    v.add_argument("--trials", type=_positive_int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--budget", type=_positive_int)
    v.add_argument("--jobs", type=_positive_int, default=1)
    v.add_argument("--report", help="write campaign JSON here")

    r = sub.add_parser("replay", help="constructive certificate with traces")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--pair", type=int, nargs=2, metavar=("U", "V"))
    r.add_argument("--out")
    r.add_argument("--budget", type=_positive_int)
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; parsing leaves it unchanged."""
    return build_parser()


# the option that names each command's output file
_OUTPUT_OPTION = {"gen": "out", "check": "cert", "classify": "out", "verify": "report", "replay": "out"}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a replaced cmd_* function takes effect
    command = {
        "gen": cmd_gen,
        "check": cmd_check,
        "classify": cmd_classify,
        "verify": cmd_verify,
        "replay": cmd_replay,
    }[args.command]
    try:
        _check_output(getattr(args, _OUTPUT_OPTION[args.command]))
        return command(args)
    except BudgetExceeded as exc:
        # a query ran out of budget, so the verdict is unknown
        _say(f"inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
    except SystemExit as done:
        code = done.code
        return code if isinstance(code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
