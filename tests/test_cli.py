"""Exit codes, JSON outputs and determinism of the command line front end."""
import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rainbowpan import cli
from rainbowpan.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
    run_campaign,
)
from rainbowpan.search import DEFAULT_NODE_LIMIT


def write_instance_via_gen(tmp_path, *args):
    out = tmp_path / "inst.txt"
    code = main(["gen", "--out", str(out), *args])
    assert code == EXIT_PASS
    return out


# -- gen -------------------------------------------------------------------


def test_gen_writes_instance_and_sidecar(tmp_path):
    out = tmp_path / "f6.txt"
    assert main(["gen", "--family", "f", "--n", "7", "--m", "6", "--seed", "1",
                 "--out", str(out)]) == EXIT_PASS
    assert out.exists()
    spec = json.loads((tmp_path / "f6.txt.spec.json").read_text())
    assert spec["family"] == "F_family"
    assert spec["n"] == 7 and spec["seed"] == 1


def test_gen_stdout_when_no_out(capsys):
    assert main(["gen", "--family", "random", "--n", "5", "--m", "4",
                 "--min-degree", "3", "--seed", "2"]) == EXIT_PASS
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split() == ["5", "4"]


def test_gen_infeasible_spec_is_usage_error(tmp_path, capsys):
    code = main(["gen", "--family", "f", "--n", "5", "--m", "4",
                 "--out", str(tmp_path / "x.txt")])
    assert code == EXIT_USAGE
    assert "infeasible" in capsys.readouterr().err


def test_gen_unknown_family(tmp_path):
    assert main(["gen", "--family", "bogus", "--n", "7"]) == EXIT_USAGE


def test_gen_deterministic_bytes(tmp_path):
    a = write_instance_via_gen(tmp_path, "--family", "random", "--n", "7",
                               "--m", "6", "--min-degree", "4", "--seed", "2")
    data = a.read_bytes()
    b = write_instance_via_gen(tmp_path, "--family", "random", "--n", "7",
                               "--m", "6", "--min-degree", "4", "--seed", "2")
    assert b.read_bytes() == data


# -- check -----------------------------------------------------------------


@pytest.fixture
def f6(tmp_path):
    return write_instance_via_gen(tmp_path, "--family", "f", "--n", "7", "--seed", "1")


@pytest.fixture
def rand7(tmp_path):
    return write_instance_via_gen(tmp_path, "--family", "random", "--n", "7",
                                  "--m", "6", "--min-degree", "4", "--seed", "2")


def test_check_failing_family(f6, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code = main(["check", "--in", str(f6), "--cert", str(cert)])
    assert code == EXIT_FAIL
    out = capsys.readouterr().out
    assert "failing triple" in out and ", 4)" in out
    payload = json.loads(cert.read_text())
    assert payload["verdict"] is False
    assert payload["failure"]["k"] == 4


def test_check_decides_two_half_cliques(tmp_path, capsys):
    # a pair inside one half clique has no path on more than 14 vertices
    inst = write_instance_via_gen(tmp_path, "--family", "cor23_ii", "--n", "28", "--seed", "0")
    cert = tmp_path / "cert.json"
    assert main(["check", "--in", str(inst), "--cert", str(cert)]) == EXIT_FAIL
    failure = json.loads(cert.read_text())["failure"]
    assert (failure["x"], failure["y"], failure["k"]) == (0, 1, 15)


def test_check_passing_instance(rand7, capsys):
    assert main(["check", "--in", str(rand7)]) == EXIT_PASS
    assert "yes" in capsys.readouterr().out


def test_check_single_query(rand7, capsys):
    code = main(["check", "--in", str(rand7), "--pair", "0", "3", "--k", "5"])
    assert code == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is True
    assert len(payload["path"]["vertices"]) == 5


def test_check_pair_sweep(f6, capsys):
    # sweep over one cross pair of the family still completes (exit by content)
    code = main(["check", "--in", str(f6), "--pair", "0", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["pair"] == [0, 1]
    expected = EXIT_FAIL if payload["missing"] else EXIT_PASS
    assert code == expected


def test_check_k_without_pair_is_usage(rand7):
    assert main(["check", "--in", str(rand7), "--k", "5"]) == EXIT_USAGE


def test_check_bad_pair(rand7):
    assert main(["check", "--in", str(rand7), "--pair", "0", "9"]) == EXIT_USAGE


@pytest.mark.parametrize("k", ["99", "8", "1", "0", "-3"])
def test_check_k_out_of_range_is_usage(rand7, capsys, k):
    code = main(["check", "--in", str(rand7), "--pair", "0", "1", "--k", k])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "--k" in captured.err and "outside [2, 7]" in captured.err
    assert not captured.out


def test_check_k_beyond_the_colors_is_usage(tmp_path, capsys):
    # n = 7 with 3 colors: no rainbow path has more than 4 vertices
    sparse = write_instance_via_gen(tmp_path, "--family", "random", "--n", "7",
                                    "--m", "3", "--min-degree", "4", "--seed", "0")
    code = main(["check", "--in", str(sparse), "--pair", "0", "1", "--k", "6"])
    assert code == EXIT_USAGE
    assert "outside [2, 4]" in capsys.readouterr().err
    assert main(["check", "--in", str(sparse), "--pair", "0", "1", "--k", "4"]) in (
        EXIT_PASS, EXIT_FAIL
    )


@pytest.mark.parametrize("pair", [("0", "0"), ("0", "42"), ("-1", "2")])
def test_replay_bad_pair_is_usage(rand7, capsys, pair):
    code = main(["replay", "--in", str(rand7), "--pair", *pair])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "bad pair" in captured.err and not captured.out


@pytest.mark.parametrize("budget", ["-5", "0", "abc"])
@pytest.mark.parametrize("command", ["check", "classify", "verify", "replay"])
def test_nonpositive_budget_is_usage(rand7, capsys, command, budget):
    if command == "verify":
        args = ["verify", "--theorem", "t1_5", "--n", "5", "--trials", "1"]
    else:
        args = [command, "--in", str(rand7)]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--budget", budget])
    assert exc.value.code == EXIT_USAGE
    assert f"'{budget}' is not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["check", "--pair", "0", "1", "--k", "99"],
    ["check", "--pair", "0", "1", "--k", "1"],
    ["replay", "--pair", "0", "0"],
    ["replay", "--pair", "0", "42"],
    ["check", "--budget", "-5"],
])
def test_bad_input_exits_2_without_traceback(rand7, args):
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "rainbowpan.cli", *args[:1], "--in", str(rand7), *args[1:]]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr and not done.stdout


def test_check_missing_file(tmp_path):
    assert main(["check", "--in", str(tmp_path / "nope.txt")]) == EXIT_USAGE


def test_check_tiny_budget_inconclusive(rand7):
    assert main(["check", "--in", str(rand7), "--budget", "1"]) == EXIT_INCONCLUSIVE


@pytest.mark.parametrize("argv", [
    ["check", "--pair", "0", "1", "--k", "7", "--cert"],
    ["check", "--pair", "0", "1", "--cert"],
    ["replay", "--out"],
], ids=["check-pair-k", "check-pair", "replay"])
def test_budget_stop_exits_inconclusive_without_output(rand7, tmp_path, capsys, argv):
    """A query that runs out of budget reaches `main`: exit 3, one stderr
    line naming the query and the nodes it spent, and no output file. The
    replay is constructive here (odd n, m = n - 1, degree at the threshold)."""
    out = tmp_path / "out.json"
    code = main([argv[0], "--in", str(rand7), *argv[1:], str(out), "--budget", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_INCONCLUSIVE
    assert re.fullmatch(r"inconclusive: path x=0 y=1 k=\d+: budget exhausted after \d+ nodes\n", err), err
    assert not out.exists()


def test_check_env_budget(rand7, monkeypatch):
    monkeypatch.setenv("RAINBOW_BUDGET", "1")
    assert main(["check", "--in", str(rand7)]) == EXIT_INCONCLUSIVE


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
@pytest.mark.parametrize("command", ["check", "classify", "verify", "replay"])
def test_bad_env_budget_is_usage(rand7, capsys, monkeypatch, command, value):
    monkeypatch.setenv("RAINBOW_BUDGET", value)
    if command == "verify":
        args = ["verify", "--theorem", "t1_5", "--n", "5", "--trials", "1"]
    else:
        args = [command, "--in", str(rand7)]
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"RAINBOW_BUDGET='{value}' is not a positive integer\n"
    assert not captured.out


# -- classify ----------------------------------------------------------------


def test_classify_family(f6, capsys):
    assert main(["classify", "--in", str(f6)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "F_family"
    assert set(payload["witness"]["partition"]) == {"q1", "q2", "single_edge"}


def test_classify_cor23_cases(tmp_path, capsys):
    two = write_instance_via_gen(tmp_path, "--family", "cor23_ii", "--n", "6",
                                 "--seed", "3")
    assert main(["classify", "--in", str(two)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "two_cliques" and payload["case"] == "ii"

    join = write_instance_via_gen(tmp_path, "--family", "cor23_iii", "--n", "6",
                                  "--seed", "3")
    assert main(["classify", "--in", str(join)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "join_partition" and payload["case"] == "iii"


def test_classify_join_at_size_limit(tmp_path, capsys):
    join = write_instance_via_gen(tmp_path, "--family", "cor23_iii", "--n", "62",
                                  "--seed", "5")
    assert main(["classify", "--in", str(join)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "join_partition" and payload["case"] == "iii"
    # the generator plants H on the first (n - 2) / 2 vertices of its shuffle
    perm = list(range(62))
    random.Random("5").shuffle(perm)
    partition = payload["witness"]["partition"]
    assert partition["h"] == sorted(perm[:30])
    assert partition["i"] == sorted(perm[30:])


def test_classify_stopped_by_the_budget_is_unknown(tmp_path, capsys):
    inst = write_instance_via_gen(tmp_path, "--family", "random", "--n", "8", "--m", "8",
                                  "--min-degree", "4", "--seed", "0")
    assert main(["classify", "--in", str(inst), "--budget", "2"]) == EXIT_INCONCLUSIVE
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "unknown" and payload["ham_connected"] is None
    assert main(["classify", "--in", str(inst)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "i" and payload["ham_connected"] is True


def test_classify_dense_random(rand7, capsys):
    assert main(["classify", "--in", str(rand7)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "none"
    assert "case" not in payload  # trichotomy needs m == n


# -- verify ---------------------------------------------------------------------


def test_verify_small_campaigns(tmp_path, capsys):
    for theorem, ns in [("t1_5", "7"), ("t2_1", "5"), ("t1_1", "5"),
                        ("lem1", "5"), ("lem5-bounds", "7"), ("cor2_3", "4")]:
        report = tmp_path / f"{theorem}.json"
        code = main(["verify", "--theorem", theorem, "--n", ns, "--trials", "2",
                     "--seed", "7", "--report", str(report)])
        assert code == EXIT_PASS, theorem
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert payload["fails"] == 0 and payload["inconclusive"] == 0
        capsys.readouterr()


def test_verify_cor2_3_at_n16_n20_within_default_budget(tmp_path, monkeypatch, capsys):
    """Cases (ii) and (iii) are refuted without kernel search, so the
    campaign decides every pair at sizes exhaustive search could not reach."""
    monkeypatch.delenv("RAINBOW_BUDGET", raising=False)
    report = tmp_path / "cor2_3.json"
    code = main(["verify", "--theorem", "cor2_3", "--n", "16,20", "--report", str(report)])
    assert code == EXIT_PASS
    payload = json.loads(report.read_text())
    assert payload["passes"] == 200 and payload["inconclusive"] == 0
    assert payload["budget"]["node_limit"] == DEFAULT_NODE_LIMIT


def test_consecutive_mains_parse_independently(rand7, tmp_path, capsys):
    """One parser serves every call in a process; no option of one call
    carries over to the next."""
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["gen", "--family", "random", "--n", "7", "--m", "6", "--min-degree", "4",
                 "--seed", "5", "--variant", "lo-lo", "--out", str(first)]) == EXIT_PASS
    assert main(["gen", "--family", "f", "--n", "7", "--out", str(second)]) == EXIT_PASS
    spec = json.loads((tmp_path / "b.txt.spec.json").read_text())
    assert spec == {"n": 7, "m": 6, "seed": 0, "family": "F_family", "min_degree": None,
                    "params": {}}
    capsys.readouterr()
    assert main(["check", "--in", str(rand7), "--pair", "0", "3", "--k", "5"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["k"] == 5
    main(["check", "--in", str(rand7), "--pair", "0", "3"])
    assert "k" not in json.loads(capsys.readouterr().out)
    assert main(["check", "--in", str(rand7)]) == EXIT_PASS
    assert capsys.readouterr().out.startswith("panconnected: yes")
    assert main(["check", "--in", str(rand7), "--budget", "1"]) == EXIT_INCONCLUSIVE
    assert main(["check", "--in", str(rand7)]) == EXIT_PASS


def test_main_calls_the_current_command_function(rand7, monkeypatch):
    """The parser is built once, but the command function is looked up per
    call, so a wrapped or replaced `cmd_*` takes effect."""
    assert main(["check", "--in", str(rand7), "--budget", "1"]) == EXIT_INCONCLUSIVE
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.infile) or 42)
    assert main(["check", "--in", str(rand7)]) == 42
    assert seen == [str(rand7)]


def test_verify_rejects_wrong_order(capsys):
    assert main(["verify", "--theorem", "lem1", "--n", "7", "--trials", "1"]) \
        == EXIT_USAGE
    assert main(["verify", "--theorem", "t1_5", "--n", "6", "--trials", "1"]) \
        == EXIT_USAGE
    assert main(["verify", "--theorem", "t1_5", "--n", "x", "--trials", "1"]) \
        == EXIT_USAGE


@pytest.mark.parametrize("flag,value", [
    ("--trials", "0"), ("--trials", "-3"), ("--jobs", "0"), ("--jobs", "-2"),
])
def test_verify_nonpositive_trials_or_jobs_is_usage(capsys, flag, value):
    """A campaign that runs no trial must not pass; no worker count below
    one is accepted."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "t1_5", "--n", "7", "--trials", "1", flag, value])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"'{value}' is not a positive integer" in captured.err
    assert not captured.out


@pytest.mark.parametrize("n_list,shown", [
    (",", "[]"), ("", "[]"), ("7,7", "[7, 7]"), ("5,7,5", "[5, 7, 5]"),
])
def test_verify_empty_or_repeated_n_list_is_usage(capsys, n_list, shown):
    assert main(["verify", "--theorem", "t1_5", "--n", n_list, "--trials", "2"]) \
        == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"a campaign needs distinct vertex counts, got n={shown}\n"
    assert not captured.out


@pytest.mark.parametrize("n_values,trials", [([], 2), ([5, 5], 2), ([5], 0), ([5], -1)])
def test_run_campaign_rejects_empty_campaigns(n_values, trials):
    with pytest.raises(ValueError, match="a campaign needs"):
        run_campaign("t1_1", n_values, trials=trials, base_seed=0, node_limit=1000)


def test_verify_unknown_theorem_is_parse_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "t9_9", "--n", "7"])
    assert exc.value.code == EXIT_USAGE


def test_verify_inconclusive_exit(capsys):
    code = main(["verify", "--theorem", "t1_5", "--n", "7", "--trials", "1",
                 "--seed", "0", "--budget", "1"])
    assert code == EXIT_INCONCLUSIVE


def test_verify_report_deterministic(tmp_path, capsys):
    args = ["verify", "--theorem", "lem5-bounds", "--n", "7,9", "--trials", "3",
            "--seed", "11"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*args, "--report", str(a)]) == EXIT_PASS
    assert main([*args, "--report", str(b)]) == EXIT_PASS
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db


def test_verify_jobs_merge_matches_serial(tmp_path, capsys):
    # 16 trials make two chunks of 8, so two workers run
    base = ["verify", "--theorem", "t2_1", "--n", "5", "--trials", "16", "--seed", "3"]
    a, b = tmp_path / "serial.json", tmp_path / "par.json"
    assert main([*base, "--report", str(a)]) == EXIT_PASS
    assert main([*base, "--jobs", "2", "--report", str(b)]) == EXIT_PASS
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db


class _InlinePool:
    """Stands in for `ProcessPoolExecutor`: records the workers asked for and
    runs the tasks in this process, starting none."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("trials, workers", [(1, []), (8, []), (9, [2]), (17, [3])])
def test_verify_jobs_starts_no_more_workers_than_chunks(monkeypatch, trials, workers):
    """Tasks go to the pool in chunks of 8, and a pool starts all its
    workers at once: `--jobs 64` starts one per chunk, and none for a
    single chunk."""
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "started", [])
    serial = run_campaign("lem1", [5], trials, 0, DEFAULT_NODE_LIMIT)
    pooled = run_campaign("lem1", [5], trials, 0, DEFAULT_NODE_LIMIT, jobs=64)
    assert _InlinePool.started == workers
    assert serial.passes == pooled.passes == trials
    assert serial.failing == pooled.failing == []


def test_failing_campaign_embeds_reproducer(monkeypatch):
    # wiring check: a failed trial must carry a one-command reproducer
    from rainbowpan.generate import GenSpec

    def spec_of(n, seed):
        return GenSpec(n, 1, seed, "random", min_degree=4)

    def always_fail(spec, budget):
        return False, "synthetic"

    monkeypatch.setitem(cli._THEOREMS, "t1_1", (spec_of, always_fail, lambda n: True))
    report = run_campaign("t1_1", [5], trials=2, base_seed=9, node_limit=1000)
    assert report.fails == 2 and not report.passed
    entry = report.failing[0]
    assert entry["seed"] == 9
    assert "--seed 9" in entry["reproducer"]
    assert entry["spec"]["n"] == 5


def test_false_certificate_on_a_threshold_instance_violates_theorem_1_5(monkeypatch):
    """A threshold instance whose certificate fails and which is not the F
    family violates Theorem 1.5. Its n - 1 graphs are one random threshold
    graph, so only the join shape can reject it; the certificate is made
    false by hand, since a true instance is all the theorem allows."""
    from rainbowpan import analysis
    from rainbowpan.core import GraphCollection
    from rainbowpan.generate import GenSpec, generate

    real = analysis.is_rainbow_panconnected

    def failing(coll, budget=None):
        return dataclasses.replace(real(coll, budget=budget), verdict=False, failure=(0, 1, 3))

    monkeypatch.setattr(analysis, "is_rainbow_panconnected", failing)
    graph = generate(GenSpec(9, 1, 0, "random", min_degree=5))[0]
    res = analysis.verify_theorem_1_5(GraphCollection(9, (graph,) * 8))
    assert (res.outcome, res.via) == ("violated", None)
    assert res.rejection_reason == "no partition matches the join-family shape"
    assert res.to_json_dict()["certificate"]["failure"] == {"x": 0, "y": 1, "k": 3}
    verdict, detail = cli._decide_t1_5(cli._threshold_spec(9, 0), cli.SearchBudget())
    assert verdict is False and detail.startswith("failure=(0, 1, 3) graphs 0 and ")


def test_t1_1_budget_stop_is_inconclusive_with_its_spec():
    spec_of, decide, _ = cli._THEOREMS["t1_1"]
    spec = spec_of(5, 0)
    verdict, _ = decide(spec, cli.SearchBudget(node_limit=1))
    assert verdict is None
    trial = cli._campaign_trial(("t1_1", 5, 0, 1))
    status, detail = trial["status"], trial["detail"]
    assert (status, detail) == ("inconclusive", "budget")
    assert (spec.n, spec.m, spec.family) == (5, 1, "random")
    assert trial["status"] == "inconclusive"
    assert trial["spec"] == spec.to_json_dict()
    report = run_campaign("t1_1", [5], trials=2, base_seed=0, node_limit=1)
    assert (report.passes, report.fails, report.inconclusive) == (0, 0, 2)


@pytest.mark.parametrize("seed, variant", [(0, "lo-lo"), (1, "lo-hi")])
def test_lem5_budget_stop_keeps_its_spec(seed, variant):
    trial = cli._campaign_trial(("lem5-bounds", 9, seed, 1))
    assert (trial["status"], trial["detail"]) == ("inconclusive", "budget")
    assert trial["spec"]["family"] == "lemma_shape:lem5"
    assert trial["spec"]["params"] == {"variant": variant}
    assert (trial["spec"]["n"], trial["spec"]["m"], trial["spec"]["seed"]) == (9, 8, seed)


def test_cor2_3_budget_stop_keeps_its_spec(monkeypatch):
    # the root refutation answers both obstruction families' spanning paths
    # without the kernel, so the budget stop is simulated in that loop
    def stopped(*args, **kwargs):
        raise cli.BudgetExceeded("path", 1)

    monkeypatch.setattr(cli, "find_rainbow_ham_path", stopped)
    for seed, family in ((0, "two_cliques_cor23"), (1, "join_partition_cor23")):
        trial = cli._campaign_trial(("cor2_3", 8, seed, 1))
        assert (trial["status"], trial["detail"]) == ("inconclusive", "budget")
        assert (trial["spec"]["family"], trial["spec"]["seed"]) == (family, seed)


# -- replay -----------------------------------------------------------------------


def test_replay_constructive(rand7, capsys):
    assert main(["replay", "--in", str(rand7)]) == EXIT_PASS
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["mode"] == "constructive"
    assert payload["clean"] is True
    assert len(payload["pairs"]) == 21
    assert all(not p["discrepancies"] for p in payload["pairs"])
    assert "no discrepancies" in captured.err


def test_replay_single_pair(rand7, capsys):
    assert main(["replay", "--in", str(rand7), "--pair", "0", "3"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["pairs"]) == 1
    assert payload["pairs"][0]["x"] == 0 and payload["pairs"][0]["y"] == 3


def test_replay_family_verdict(f6, capsys):
    assert main(["replay", "--in", str(f6)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "constructive"
    assert payload["verdict"]["kind"] == "F_family"
    gaps = [p["missing_k"] for p in payload["pairs"] if p["missing_k"]]
    assert gaps and all(g == [4] for g in gaps)


def test_replay_even_order_delegates(tmp_path, capsys):
    inst = write_instance_via_gen(tmp_path, "--family", "cor23_ii", "--n", "4",
                                  "--seed", "0")
    code = main(["replay", "--in", str(inst)])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["mode"] == "search"
    assert "search certificate" in payload["note"]
    # the obstruction is genuinely not panconnected
    assert code == EXIT_FAIL


@pytest.fixture
def rand8(tmp_path):
    """A random instance at even n, outside the replay's hypothesis."""
    return write_instance_via_gen(tmp_path, "--family", "random", "--n", "8",
                                  "--m", "7", "--min-degree", "4", "--seed", "0")


def test_replay_search_mode_sweeps_only_the_pair(rand8, tmp_path, monkeypatch, capsys):
    """Outside the hypothesis, `replay --pair X Y` runs that pair's k-sweep,
    writes it as `check --pair X Y` does and exits by it."""
    from rainbowpan import kernels

    asked = []

    def spy(original):
        def ask(n, adj, x, y, *rest):
            asked.append({x, y})
            return original(n, adj, x, y, *rest)

        return ask

    monkeypatch.setattr(kernels, "find_path", spy(kernels.find_path))
    monkeypatch.setattr(kernels, "find_paths", spy(kernels.find_paths))
    monkeypatch.setattr(kernels, "find_cycle", None)  # a pair sweep asks no cycle
    code = main(["replay", "--in", str(rand8), "--pair", "3", "0"])
    payload = json.loads(capsys.readouterr().out)
    assert asked and all(ends == {0, 3} for ends in asked)
    assert payload.pop("mode") == "search" and "k-sweep" in payload.pop("note")
    out = tmp_path / "pair.json"
    assert main(["check", "--in", str(rand8), "--pair", "3", "0", "--cert", str(out)]) == code
    assert payload == json.loads(out.read_text())
    assert payload["pair"] == [3, 0] and code == cli._exit_for(not payload["missing"])


def test_replay_search_mode_without_pair_is_the_certificate(rand8, capsys):
    from rainbowpan.analysis import is_rainbow_panconnected
    from rainbowpan.io import read_instance

    code = main(["replay", "--in", str(rand8)])
    cert = is_rainbow_panconnected(read_instance(rand8))
    note = ("constructive replay needs odd n >= 5, m = n-1 and min degree >= (n+1)/2; "
            "emitting a search certificate only")
    want = {"mode": "search", "note": note, "certificate": cert.to_json_dict()}
    assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert code == cli._exit_for(cert.verdict)


def test_replay_branch_violation_is_a_discrepancy(rand7, monkeypatch, capsys):
    """A branch builder that raises HypothesisViolation at k = 4 leaves a
    discrepancy in the pair and the 4-path the fallback search found; the
    replay exits 1 and says so."""
    from rainbowpan import constructions

    real = constructions._pan_route

    def route(coll, view, x, y, z, budget):
        build = real(coll, view, x, y, z, budget)

        def failing(k):
            if k == 4:
                raise constructions.HypothesisViolation("rotation", "claim", "patched to fail")
            return build(k)

        return failing

    monkeypatch.setattr(constructions, "_pan_route", route)
    code = main(["replay", "--in", str(rand7), "--pair", "0", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_FAIL and "DISCREPANCIES FOUND" in captured.err
    (pair,) = json.loads(captured.out)["pairs"]
    assert pair["discrepancies"] == [
        {"k": 4, "stage": "rotation", "claim": "claim", "detail": "patched to fail"}
    ]
    assert [t["lemma"] for t in pair["traces"] if t["k"] == 4] == ["search"]
    assert pair["paths"]["4"] and pair["missing_k"] == []


def test_replay_missing_spanning_path_is_a_discrepancy(rand7, monkeypatch, capsys):
    """A pair without its spanning path misses a length the hypothesis
    guarantees, with no family verdict to explain it: the replay exits 1."""
    from rainbowpan import constructions

    monkeypatch.setattr(constructions, "find_rainbow_ham_path", lambda *args, **kwargs: None)
    code = main(["replay", "--in", str(rand7), "--pair", "0", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_FAIL and "DISCREPANCIES FOUND" in captured.err
    (pair,) = json.loads(captured.out)["pairs"]
    assert pair["missing_k"] == [7] and pair["verdict"] is None
    assert [(d["k"], d["stage"]) for d in pair["discrepancies"]] == [(7, "ham_search")]


def test_replay_out_file(rand7, tmp_path):
    out = tmp_path / "replay.json"
    assert main(["replay", "--in", str(rand7), "--out", str(out)]) == EXIT_PASS
    assert json.loads(out.read_text())["clean"] is True


# -- JSON bytes --------------------------------------------------------------
# Every JSON output is ASCII, indented by two spaces with sorted keys, exactly
# as the stdlib's `json.dumps(..., indent=2, sort_keys=True)` writes it.


def assert_stdlib_bytes(text):
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.fixture
def rand9(tmp_path):
    return write_instance_via_gen(tmp_path, "--family", "random", "--n", "9",
                                  "--m", "8", "--min-degree", "5", "--seed", "1")


def test_check_cert_bytes_equal_stdlib(rand9, tmp_path, capsys):
    from rainbowpan.analysis import is_rainbow_panconnected
    from rainbowpan.io import read_instance

    cert = tmp_path / "cert.json"
    assert main(["check", "--in", str(rand9), "--cert", str(cert)]) == EXIT_PASS
    text = cert.read_text()
    assert_stdlib_bytes(text)
    want = is_rainbow_panconnected(read_instance(rand9)).to_json_dict()
    assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "instance,budget,code",
    [("f6", None, EXIT_FAIL), ("rand9", 1, EXIT_INCONCLUSIVE)],
    ids=["false", "unknown"],
)
def test_check_cert_bytes_equal_stdlib_when_not_true(instance, budget, code, request, tmp_path,
                                                     capsys):
    """A false certificate keeps its failing triple and the pairs swept
    before it; a budget-stopped one is "unknown". Both are written as the
    stdlib writes their plain to_json_dict()."""
    from rainbowpan.analysis import is_rainbow_panconnected
    from rainbowpan.io import read_instance
    from rainbowpan.search import SearchBudget

    inst = request.getfixturevalue(instance)
    cert = tmp_path / "cert.json"
    extra = [] if budget is None else ["--budget", str(budget)]
    assert main(["check", "--in", str(inst), "--cert", str(cert), *extra]) == code
    want = is_rainbow_panconnected(
        read_instance(inst), budget=None if budget is None else SearchBudget(node_limit=budget)
    ).to_json_dict()
    assert want["verdict"] == ("unknown" if budget else False)
    assert cert.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("k", [None, "5"])
def test_check_pair_bytes(rand9, tmp_path, capsys, k):
    args = ["check", "--in", str(rand9), "--pair", "0", "4"] + (["--k", k] if k else [])
    main(args)
    assert_stdlib_bytes(capsys.readouterr().out)
    out = tmp_path / "pair.json"
    main(args + ["--cert", str(out)])
    assert_stdlib_bytes(out.read_text())


def test_classify_bytes(f6, tmp_path, capsys):
    out = tmp_path / "classify.json"
    assert main(["classify", "--in", str(f6), "--out", str(out)]) == EXIT_PASS
    assert_stdlib_bytes(out.read_text())
    capsys.readouterr()
    main(["classify", "--in", str(f6)])
    assert_stdlib_bytes(capsys.readouterr().out)


def test_verify_report_bytes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--theorem", "t1_5", "--n", "5,7", "--trials", "2",
                 "--report", str(out)]) == EXIT_PASS
    text = out.read_text()
    assert isinstance(json.loads(text)["wall_time_s"], float)
    assert_stdlib_bytes(text)


def test_replay_bytes(rand7, f6, tmp_path, capsys):
    for inst in (rand7, f6):
        out = tmp_path / "replay.json"
        main(["replay", "--in", str(inst), "--out", str(out)])
        assert_stdlib_bytes(out.read_text())


def test_gen_sidecar_bytes(tmp_path):
    out = write_instance_via_gen(tmp_path, "--family", "lemma_shape:lem5", "--n", "9",
                                 "--variant", "lo-hi", "--seed", "3")
    assert_stdlib_bytes((tmp_path / (out.name + ".spec.json")).read_text())


# -- output files ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--in", "{inst}", "--cert", "{out}"],
        ["check", "--in", "{inst}", "--pair", "0", "1", "--cert", "{out}"],
        ["classify", "--in", "{inst}", "--out", "{out}"],
        ["replay", "--in", "{inst}", "--out", "{out}"],
        ["verify", "--theorem", "lem1", "--n", "5", "--trials", "1", "--report", "{out}"],
        ["gen", "--family", "f", "--n", "7", "--out", "{out}"],
    ],
    ids=["check", "check-pair", "classify", "replay", "verify", "gen"],
)
def test_unwritable_output_is_usage(rand7, tmp_path, capsys, monkeypatch, argv):
    """Every command rejects the path before it runs: no kernel is asked."""
    from rainbowpan import kernels

    for name in ("find_path", "find_paths", "find_cycle"):
        monkeypatch.setattr(kernels, name, None)
    out = tmp_path / "no" / "such" / "dir" / "out.json"
    args = [a.format(inst=rand7, out=out) for a in argv]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_is_rejected_before_the_search(tmp_path, capsys, monkeypatch, where):
    """`main` checks the output path before the command runs, so a
    certificate at n = 21 never starts its search, and nothing is created."""
    from rainbowpan import kernels

    inst = write_instance_via_gen(tmp_path, "--family", "random", "--n", "21", "--m", "20",
                                  "--min-degree", "11", "--seed", "0")

    def no_search(*args):
        raise AssertionError("the search ran before the output path was checked")

    monkeypatch.setattr(kernels, "find_paths", no_search)
    out = tmp_path / "missing" / "c.json" if where == "missing directory" else tmp_path
    capsys.readouterr()
    assert main(["check", "--in", str(inst), "--cert", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_writer_error_removes_the_partial_file(rand9, tmp_path, monkeypatch):
    """The certificate streams to its file, so an error part way through
    would leave a truncated report; the file is removed instead, and the
    error goes on."""
    from rainbowpan import analysis, io

    real_cert, real_write = cli.is_rainbow_panconnected, cli.write_json

    def cert_with_a_bad_last_pair(coll, budget=None):
        cert = real_cert(coll, budget=budget)
        cert.pairs.append(analysis.PairReport(0, 1, 0, {2: object()}))
        return cert

    written = []

    def spy(obj, fh):
        try:
            real_write(obj, fh)
        finally:
            written.append(fh.tell())

    monkeypatch.setattr(io, "_FLUSH_PIECES", 1)
    monkeypatch.setattr(cli, "is_rainbow_panconnected", cert_with_a_bad_last_pair)
    monkeypatch.setattr(cli, "write_json", spy)
    cert = tmp_path / "cert.json"
    cert.write_text("an older certificate\n")
    with pytest.raises(TypeError, match="not JSON serializable"):
        main(["check", "--in", str(rand9), "--cert", str(cert)])
    assert written[0] > 0 and not cert.exists()
