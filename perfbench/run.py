"""The repository benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/workloads.py): campaign, certificate, obstruction,
replay. The script builds the compiled kernel from `src/rainbowpan/_kernel.c`
into perfbench/.build (once per source hash), replays a fixed sample of the
workload's kernel calls on both kernels and fails on any difference, then
starts the workload in fresh single-threaded processes: a few that stop
where timing would begin, to measure set-up, and one that runs the items in
whole passes, at least two and about S seconds' worth, and checks every
output. It prints a summary, then one JSON line: `--trace 0` gives the
end-to-end metrics, with times at a fixed calibration speed
(perfbench/hostspeed.py), `--trace 1` the per-layer split of a traced run.
The exit code is 0 only when every output check passed.

`--record` stores the digests of this run's outputs in
perfbench/expected.json; later runs compare against them.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / ".build"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

SETUP_SAMPLES = 5  # processes timed from start to the first item; median reported
DEADLINE_S = 170  # the whole run, so it ends within 180 s once the kernel is built

# parity sample: the kernel calls the first items make, recorded until an item
# ends past either limit, then replayed in order up to a node total, skipping
# calls too large for the pure kernel to replay quickly
PARITY_CALLS = 1000
PARITY_RECORD_NODES = 2_000_000
PARITY_CALL_NODES = 50_000
PARITY_TOTAL_NODES = 100_000

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def parity(rp, compiled, items) -> tuple[int, int, list[str]]:
    """Record the kernel calls the first items make, replay a fixed sample on
    both kernels; return (calls compared, nodes, differences)."""
    kern = rp.kernels
    saved = kern.find_path, kern.find_cycle
    calls = []

    def recorder(kind, fn):
        def record(*args):
            res = fn(*args)
            calls.append((kind, args, res[3]))
            return res

        return record

    kern.find_path = recorder("find_path", saved[0])
    kern.find_cycle = recorder("find_cycle", saved[1])
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for item in items:
                item.run()
                if len(calls) >= PARITY_CALLS or sum(c[2] for c in calls) >= PARITY_RECORD_NODES:
                    break
    finally:
        kern.find_path, kern.find_cycle = saved

    pure = sys.modules["rainbowpan._kernel_py"]
    compared = nodes = 0
    diffs = []
    for kind, args, used in calls:
        if used > PARITY_CALL_NODES:
            continue
        if nodes + used > PARITY_TOTAL_NODES:
            break
        got = [getattr(k, kind)(*args) for k in (pure, compiled)]
        a, b = ([r[0], r[1] and list(r[1]), r[2] and list(r[2]), r[3]] for r in got)
        if a != b and len(diffs) < 5:
            shown = [x for x in args if not isinstance(x, list)]
            diffs.append(f"{kind}{shown}: python {a} vs compiled {b}")
        compared += 1
        nodes += used
    return compared, nodes, diffs


def run_child(cmd: list[str], env: dict, result: Path, deadline: float) -> dict:
    """Start one worker process, wait for it, return its result and the
    seconds from its start to its first timed item, as measured
    (`setup_raw_s`) and at the calibration speed (`setup_s`)."""
    result.unlink(missing_ok=True)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result.exists():
        raise RuntimeError(f"worker exited with code {code}")
    out = json.loads(result.read_text())
    raw = out["first_item_at"] - started - out["setup_sampling_s"]
    out["setup_raw_s"] = raw
    out["setup_s"] = raw * hostspeed.CAL_NOMINAL_S / out["setup_cal_s"]
    return out


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="store output digests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rainbowpan" / "_kernel.c").is_file():
        return _fail(f"no rainbowpan sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import kernel_build
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    try:
        so_path = kernel_build.build(ROOT, BUILD)
    except (RuntimeError, OSError) as exc:
        return _fail(str(exc))
    deadline = time.monotonic() + DEADLINE_S
    prov = kernel_build.provenance(ROOT)

    workdir = WORK / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "parity").mkdir(parents=True)
    os.environ.pop("RAINBOWPAN_PURE_PYTHON", None)
    compiled = kernel_build.register(so_path)
    rp = workloads.Modules()
    t_parity = time.monotonic()
    compared, nodes, diffs = parity(rp, compiled, wl.setup(rp, workdir / "parity", args.seed))
    t_parity = time.monotonic() - t_parity

    env = dict(os.environ)
    env.pop("RAINBOW_BUDGET", None)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", wl.name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(workdir / "result.json"),
    ]
    if wl.kernel == "python":
        env["RAINBOWPAN_PURE_PYTHON"] = "1"
    else:
        cmd += ["--kernel", str(so_path)]
    if EXPECTED.exists() and not args.record:
        cmd += ["--expected", str(EXPECTED)]
    try:
        starts = [
            run_child(cmd + ["--setup-only"], env, workdir / "result.json", deadline)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        res = run_child(cmd, env, workdir / "result.json", deadline)
    except RuntimeError as exc:
        return _fail(str(exc))
    starts.append(res)

    # Host speed drifts by up to 1.8x (perfbench/hostspeed.py), so every time
    # is reported at the fixed calibration speed: an item by the samples taken
    # during it, set-up by those taken while it ran. An item's time is its
    # median over the untraced passes.
    nominal = hostspeed.CAL_NOMINAL_S
    passes = [[t * nominal / c for t, c in zip(ts, cs)] for ts, cs in zip(res["times"], res["cals"])]
    item_s = [statistics.median(ts) for ts in zip(*passes)]
    raw_item_s = [statistics.median(ts) for ts in zip(*res["times"])]
    run_cal = statistics.median(c for cs in res["cals"] for c in cs)
    correct = not diffs and res["wrong"] == 0
    fail_ratio = res["failed"] / res["attempted"]
    print(f"workload {wl.name}  seed {args.seed}  kernel {res['implementation']}  "
          f"passes {res['passes']} x {res['items_per_pass']} items")
    print("kernel source  _kernel.c {kernel_c_sha256:.16}  _kernel.pyx {kernel_pyx_sha256:.16}  "
          "{compiler}  python {python}".format(**prov))
    print(f"parity         {compared} kernel calls, {nodes} nodes: "
          + ("identical on both kernels" if not diffs else "DIFFERENT") + f" ({t_parity:.1f} s)")
    for d in diffs:
        print(f"  {d}")
    print(f"fail_ratio     {fail_ratio:.4f} ratio  ({res['failed']} of {res['attempted']}: "
          f"{res['undecided']} undecided under the budget, {res['wrong']} wrong or raised)")
    print(f"host.ref_loop_s {res['ref_loop_s']:.4f} s  calibration {run_cal * 1e3:.3f} ms "
          f"(nominal {nominal * 1e3:.3f} ms)")
    for problem in res["problems"]:
        print(f"  {problem}")

    if args.trace:
        layers = dict(res["layers"], **{"host.ref_loop_s": res["ref_loop_s"]})
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in starts),
            "items_per_s": len(item_s) / sum(item_s),
            "item_p50_ms": statistics.median(item_s) * 1e3,
            "item_p90_ms": statistics.quantiles(item_s, n=10, method="inclusive")[-1] * 1e3,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        print(f"item latency   {len(item_s)} items, each its median of {len(passes)} untraced passes")
        print(f"unnormalized   setup {statistics.median(r['setup_raw_s'] for r in starts):.4g} s  "
              f"{len(raw_item_s) / sum(raw_item_s):.4g} items/s  "
              f"p50 {statistics.median(raw_item_s) * 1e3:.4g} ms  "
              f"p90 {statistics.quantiles(raw_item_s, n=10, method='inclusive')[-1] * 1e3:.4g} ms")
    for k, m in metrics.items():
        print(f"{k:<32} {m['value']:>14.6g} {m['unit']}")

    if args.record:
        if not correct:
            return _fail("not recording digests of a run that failed its checks")
        recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        recorded[wl.name] = res["digests"]
        EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    print(f"run took {time.monotonic() - t_start:.1f} s", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
