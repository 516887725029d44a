"""The benchmark comparison script's command line."""
import argparse
import importlib.util
import io
import json
import subprocess
import tarfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("text, seeds", [
    ("0-9", list(range(10))),
    ("0,1,2,3", [0, 1, 2, 3]),
    ("4", [4]),
    ("0,2,5-7", [0, 2, 5, 6, 7]),
    ("3-3", [3]),
    ("7,0-2,1", [7, 0, 1, 2]),
    ("0,1,", [0, 1]),
])
def test_seeds_accept_lists_and_ranges(bench_compare, text, seeds):
    assert bench_compare.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["", ",", "a", "1-", "-1", "5-2", "1-2-3", "0..9"])
def test_seeds_reject_malformed_text(bench_compare, text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_compare.parse_seeds(text)


def test_seeds_option_parses_ranges(bench_compare):
    base = ["--label", "x", "--before", "HEAD", "--workloads", "replay"]
    assert bench_compare.parser().parse_args(base).seeds == [0, 1, 2, 3]
    assert bench_compare.parser().parse_args(base + ["--seeds", "0-2,5"]).seeds == [0, 1, 2, 5]
    with pytest.raises(SystemExit):
        bench_compare.parser().parse_args(base + ["--seeds", "5-2"])


def _run(metrics: dict, failed: int = 0, attempted: int = 100) -> dict:
    return {"correct": True, "failed": failed, "attempted": attempted,
            "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()}}


def test_summary_reads_direction_and_bound_from_the_declaration(bench_compare):
    """Each metric's `better` and `bound` come from the declaration: a rate
    that falls 29% and a time that rises 40% pass a 50% bound and are
    marked under a 25% one; medians and quartiles of both sides and each
    side's failure share are printed."""
    seeds = {
        str(seed): {"before": _run({"rate": 100.0 + seed, "time": 1.0 + seed / 10}, 1, 100),
                    "after": _run({"rate": 70.0 + seed, "time": 1.4 * (1.0 + seed / 10)}, 0, 50)}
        for seed in range(5)
    }
    doc = {"workloads": {"w": seeds, "empty": {}}}

    def lines(bound):
        specs = {"rate": {"better": "higher", "bound": bound},
                 "time": {"better": "lower", "bound": bound}}
        return bench_compare.summary(doc, specs)

    head, rate, time = lines(0.25)
    assert head == "w: 5 seed(s), correct True, failed 5/500 (1.00%) -> 0/250 (0.00%)"
    assert rate.split()[:8] == ["rate", "102", "[100.5,", "103.5]", "->", "72", "[70.5,", "73.5]"]
    assert "better on 0 of 5" in rate and "better on 0 of 5" in time
    assert rate.endswith("WORSE BY MORE THAN ITS 25% BOUND")
    assert time.endswith("WORSE BY MORE THAN ITS 25% BOUND")
    assert not any("WORSE" in line for line in lines(0.5))

    specs = {"rate": {"better": "lower", "bound": 0.25}, "time": {"better": "higher", "bound": 0.25}}
    _, rate, time = bench_compare.summary(doc, specs)
    assert "better on 5 of 5" in rate and "WORSE" not in rate
    assert "better on 5 of 5" in time and "WORSE" not in time


def test_summary_marks_a_metric_the_base_spread_leaves_unresolved(bench_compare):
    """The before side of `time` spreads 30% between its quartiles, wider
    than a 25% bound: unchanged after runs leave it unresolved, and so do
    faster ones that overlap the slowest before runs; after runs that all
    beat every before run resolve it. `rate` spreads 3% and is resolved."""
    before = [1.0, 0.8, 1.2, 0.9, 1.1]

    def time_line(after, bound=0.25):
        seeds = {
            str(seed): {"before": _run({"rate": 100.0 + seed, "time": t0}),
                        "after": _run({"rate": 100.0 + seed, "time": t1})}
            for seed, (t0, t1) in enumerate(zip(before, after))
        }
        specs = {"rate": {"better": "higher", "bound": bound},
                 "time": {"better": "lower", "bound": bound}}
        _, rate, time = bench_compare.summary({"workloads": {"w": seeds}}, specs)
        assert "UNRESOLVED" not in rate
        return time

    assert time_line(before).endswith("UNRESOLVED: BEFORE SPREAD 30% IS WIDER THAN ITS 25% BOUND")
    assert "UNRESOLVED" in time_line([0.5, 0.4, 0.6, 0.45, 0.85])
    assert "UNRESOLVED" not in time_line([0.5, 0.4, 0.6, 0.45, 0.75])
    assert "UNRESOLVED" not in time_line(before, bound=0.5)


def test_summary_marks_a_gain_by_the_nine_in_ten_rule(bench_compare):
    """A gain needs the after run better on at least nine of ten pairs,
    ties counting for neither, and a median that moved further than the
    before side's quartile spread over its median (here 4.5%)."""
    before = [100.0, 96.0, 104.0, 98.0, 102.0, 97.0, 103.0, 99.0, 101.0, 100.0]

    def rate_line(after):
        seeds = {
            str(seed): {"before": _run({"rate": b}), "after": _run({"rate": a})}
            for seed, (b, a) in enumerate(zip(before, after))
        }
        specs = {"rate": {"better": "higher", "bound": 0.25}}
        _, line = bench_compare.summary({"workloads": {"w": seeds}}, specs)
        return line

    up = [b * 1.10 for b in before]
    assert rate_line(up).endswith("GAIN: BETTER ON 10 OF 10, BEYOND THE 4.5% BEFORE SPREAD")
    nine = up[:9] + [before[9] - 1]  # one pair worse
    assert "GAIN: BETTER ON 9 OF 10" in rate_line(nine)
    tied = up[:8] + before[8:]  # two ties: better on 8 of 10
    assert "better on 8 of 10" in rate_line(tied) and "GAIN" not in rate_line(tied)
    small = [b + 1.0 for b in before]  # better on every pair, by less than the spread
    assert "better on 10 of 10" in rate_line(small) and "GAIN" not in rate_line(small)
    assert "GAIN" not in rate_line([b * 0.9 for b in before])


def test_summary_reads_the_repo_declaration(bench_compare):
    specs = bench_compare.metric_specs()
    assert specs["items_per_s"]["better"] == "higher"
    assert all(spec["bound"] > 0 for spec in specs.values())


def test_neither_side_reads_bytecode_from_a_tree(bench_compare, tmp_path, monkeypatch):
    """Every benchmark run gets a `PYTHONPYCACHEPREFIX` of its side's own,
    fresh at the side's first run and outside both trees, so a
    `__pycache__` left in the working tree cannot speed up one side."""
    archive = io.BytesIO()
    with tarfile.open(fileobj=archive, mode="w") as tar:
        tar.addfile(tarfile.TarInfo("perfbench/run.py"))
    metrics = [m["name"] for m in bench_compare.metric_specs().values()]
    result = {"correct": True, "failed": 0, "attempted": 1,
              "metrics": {name: {"value": 1.0, "unit": "u"} for name in metrics}}
    runs = []

    def fake_run(cmd, **kwargs):
        if cmd[:2] == ["git", "archive"]:
            out = archive.getvalue()
        elif cmd[:2] == ["git", "rev-parse"]:
            out = "abc1234\n"
        elif "perfbench/run.py" in cmd:
            prefix = Path(kwargs["env"]["PYTHONPYCACHEPREFIX"])
            runs.append((Path(kwargs["cwd"]), prefix, prefix.exists()))
            out = json.dumps(result) + "\n"
        else:
            out = "cc 1.0\n"
        return subprocess.CompletedProcess(cmd, 0, out, "")

    (tmp_path / "BENCHMARK.json").write_text((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_compare, "ROOT", tmp_path)
    monkeypatch.setattr(bench_compare.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "inherited"))
    argv = ["--label", "t", "--before", "HEAD", "--workloads", "replay", "--seeds", "0-1"]
    assert bench_compare.main(argv) == 0

    assert len(runs) == 4
    trees = {tree for tree, _, _ in runs}
    assert tmp_path in trees and len(trees) == 2
    prefixes = {tree: prefix for tree, prefix, _ in runs}
    assert len(set(prefixes.values())) == 2
    for tree, prefix, existed in runs:
        assert prefix == prefixes[tree]
        assert not any(prefix.is_relative_to(t) for t in trees), (prefix, trees)
    assert [existed for _, _, existed in runs[:2]] == [False, False]
