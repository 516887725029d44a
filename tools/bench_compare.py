"""Benchmark a base revision against the working tree into BENCH_<label>.json.

    python3 tools/bench_compare.py --label L --before REV \
        --workloads certificate,replay --seeds 0-9

For every workload and seed it runs
`python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0` once
in an export of REV's committed files (`git archive`, in a temporary
directory under $TMPDIR) and once in the working tree, one run at a time,
and keeps each run's last output line, its JSON result. Each side keeps
its bytecode in its own fresh `PYTHONPYCACHEPREFIX` in that directory, so
neither reads a `__pycache__` from inside a tree. Even seeds run the
base first, odd seeds the working tree first, so a slow phase of the host
does not always land on the same side. The file is rewritten after every
pair, so an interrupted comparison keeps the pairs it finished. A summary
goes to stderr: each side's failure share, and per metric each side's
median and quartiles, marked as a gain when the working tree is better on
at least nine tenths of the seeds and its median moved further than the
base's own runs spread, marked when the change is worse than the metric's
bound in BENCHMARK.json, and marked unresolved when the base's own runs
spread wider than that bound.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import sysconfig
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 20  # the run length BENCHMARK.json declares


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def _compiler() -> str:
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    try:
        out = subprocess.run(cc + ["--version"], capture_output=True, text=True).stdout
    except OSError:
        return "none"
    return out.splitlines()[0].strip() if out else "unknown"


def _run(tree: Path, pycache: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"{workload} seed {seed} in {tree} gave no result (exit {done.returncode}):\n"
            + done.stderr[-2000:]
        ) from None


def parse_seeds(text: str) -> list[int]:
    """Comma-separated seeds and inclusive ranges, each seed once in the
    order given: "0-3,7,2" is [0, 1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        if not part:
            continue
        lo, sep, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi if sep else lo)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad seed {part!r}: use S or A-B") from None
        if last < first:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds.extend(range(first, last + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return list(dict.fromkeys(seeds))


def metric_specs() -> dict[str, dict]:
    """Each end-to-end metric's declaration in BENCHMARK.json (`better`,
    `bound`) by name."""
    return {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _side(values: list[float]) -> str:
    q1, q3 = _quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def _failed(pairs: list[dict], side: str) -> str:
    failed = sum(p[side]["failed"] for p in pairs)
    attempted = sum(p[side]["attempted"] for p in pairs)
    return f"{failed}/{attempted} ({failed / attempted if attempted else 0:.2%})"


def summary(doc: dict, specs: dict[str, dict]) -> list[str]:
    """One line per workload with each side's failure share (failed items
    over attempted ones), then one per metric: each side's median with its
    quartiles in brackets, the change of the median, and on how many seeds
    the metric moved in its `better` direction. A gain is marked when the
    after run is better on at least nine tenths of the pairs, ties counting
    for neither, and the median moved in the `better` direction by more
    than the before side's spread: the distance between its quartiles,
    over its median. A metric whose after-median is worse than its
    before-median by more than its `bound` is marked. So is one left
    unresolved: the before side's spread is wider than the `bound`, and not
    every after run reads better than every before run."""
    lines = []
    for workload, seeds in doc["workloads"].items():
        pairs = list(seeds.values())
        if not pairs:
            continue
        lines.append(f"{workload}: {len(pairs)} seed(s), correct "
                     f"{all(p[s]['correct'] for p in pairs for s in ('before', 'after'))}, "
                     f"failed {_failed(pairs, 'before')} -> {_failed(pairs, 'after')}")
        for metric in pairs[0]["before"]["metrics"]:
            b = [p["before"]["metrics"][metric]["value"] for p in pairs]
            a = [p["after"]["metrics"][metric]["value"] for p in pairs]
            sign = 1 if specs[metric]["better"] == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(b, a))
            mb, ma = statistics.median(b), statistics.median(a)
            change = (ma - mb) / mb
            line = (f"  {metric:<12} {_side(b)} -> {_side(a)}  ({change:+.1%}, "
                    f"better on {wins} of {len(pairs)})")
            bound = specs[metric]["bound"]
            q1, q3 = _quartiles(b)
            spread = (q3 - q1) / mb
            if 10 * wins >= 9 * len(pairs) and sign * change > spread:
                line += f"  GAIN: BETTER ON {wins} OF {len(pairs)}, BEYOND THE {spread:.1%} BEFORE SPREAD"
            every_run_better = min(a) > max(b) if sign > 0 else max(a) < min(b)
            if spread > bound and not every_run_better:
                line += f"  UNRESOLVED: BEFORE SPREAD {spread:.0%} IS WIDER THAN ITS {bound:.0%} BOUND"
            if -sign * change > bound:
                line += f"  WORSE BY MORE THAN ITS {bound:.0%} BOUND"
            lines.append(line)
    return lines


def parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repo root")
    ap.add_argument("--before", required=True, help="base revision")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", type=parse_seeds, default="0-3",
                    help="comma-separated seeds and A-B ranges, e.g. 0-9 or 0,2,5-7")
    return ap


def main(argv=None) -> int:
    args = parser().parse_args(argv)

    workloads = [w for w in args.workloads.split(",") if w]
    before_commit = _git("rev-parse", "--short", args.before).strip()
    out = ROOT / f"BENCH_{args.label}.json"
    doc = {
        "what": "perfbench/run.py last-line JSON per workload and seed, at commit "
                f"{before_commit} (before) and the working tree (after)",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "before_commit": before_commit,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "compiler": _compiler(),
            "note": "shared host; end-to-end times are reported at the benchmark's "
                    "fixed calibration speed",
        },
        "order": "one run at a time; even seeds: before then after; odd seeds: after then before",
        "workloads": {w: {} for w in workloads},
    }
    with tempfile.TemporaryDirectory(prefix="bench-before-") as tmp:
        base = Path(tmp) / "tree"
        _export(before_commit, base)
        trees = {"before": base, "after": ROOT}
        pycaches = {side: Path(tmp) / f"pycache-{side}" for side in trees}
        for workload in workloads:
            for seed in args.seeds:
                order = ("before", "after") if seed % 2 == 0 else ("after", "before")
                pair = {}
                for side in order:
                    pair[side] = _run(trees[side], pycaches[side], workload, seed)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr)
                doc["workloads"][workload][str(seed)] = {s: pair[s] for s in ("before", "after")}
                out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(summary(doc, metric_specs())), file=sys.stderr)
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
