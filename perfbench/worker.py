"""One workload in its own single-threaded process.

Started by perfbench/run.py, which times the process from its start. The
worker registers the kernel it was given, imports the package from the
checkout's `src/`, refuses to run if the package picked another kernel than
the workload names, sets the workload up, and then runs its items in a
closed loop, one after another, in whole passes over the item list. Outputs
are checked after each pass, outside the timed region. Set-up and every
untraced pass take host-speed samples (hostspeed.py), and each item's busy
seconds come with the calibration seconds measured around it. With
`--trace 1` passes alternate untraced and traced, and the traced ones report
the per-layer split. The result goes to the `--result` file as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import kernel_build
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_PROBLEMS = 20
# each item's time is its median over the untraced passes
MIN_PASSES = 2


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started (VmHWM).
    getrusage's ru_maxrss would also count the parent's memory at fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _load(args):
    sys.path.insert(0, str(ROOT / "src"))
    if args.kernel:
        kernel_build.register(Path(args.kernel))
    rp = workloads.Modules()
    wl = workloads.WORKLOADS[args.workload]
    package = Path(sys.modules["rainbowpan"].__file__).resolve()
    impl = rp.kernels.IMPLEMENTATION
    if package.parent != (ROOT / "src" / "rainbowpan").resolve():
        raise SystemExit(f"imported rainbowpan from {package}, not from this checkout")
    if impl != wl.kernel:
        raise SystemExit(f"workload {wl.name} needs the {wl.kernel} kernel, package chose {impl}")
    if impl == "compiled" and Path(rp.kernels._impl.__file__).resolve() != Path(args.kernel).resolve():
        raise SystemExit("the compiled kernel in use is not the one built from this checkout")
    return rp, wl


def _run_pass(items, tracer):
    """Run every item once; return (outputs, busy seconds per item,
    calibration seconds per item). Untraced passes sample host speed."""
    outputs, spans = [], []
    clock = time.perf_counter
    sampler = hostspeed.Sampler() if tracer is None else None
    if sampler is not None:
        sampler.start()
    try:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.start_item(i)
            t0 = clock()
            try:
                out, err = item.run(), None
            except Exception as exc:  # an item that raises is a failed item, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            spans.append((t0, clock()))
            outputs.append((out, err))
    finally:
        if sampler is not None:
            sampler.stop()
    if sampler is None:
        return outputs, [t1 - t0 for t0, t1 in spans], None
    busy, cals = zip(*(sampler.item(t0, t1) for t0, t1 in spans))
    return outputs, list(busy), list(cals)


class Tally:
    """Outcome of every attempted item, and the digests of the first pass."""

    def __init__(self, expected: dict | None) -> None:
        self.expected = expected or {}
        self.attempted = self.failed = self.undecided = self.wrong = 0
        self.problems: list[str] = []
        self.first: dict[str, str | None] = {}

    def check_pass(self, digest, items, outputs, first_pass: bool) -> Counter:
        """Check one pass's outputs; return the counts the items report."""
        extra = Counter()
        for item, (out, err) in zip(items, outputs):
            self.attempted += 1
            decided, got, issues = False, None, []
            if err is not None:
                issues.append(f"raised {err}")
            else:
                try:
                    checked = item.check(out)
                except Exception as exc:  # unreadable output fails its check
                    checked = None
                    issues.append(f"output check raised {type(exc).__name__}: {exc}")
                if checked is not None:
                    decided = checked.decided
                    issues += checked.problems
                    extra.update(checked.counts)
                    got = digest(checked.doc) if decided else None
            if first_pass:
                self.first[item.id] = got
            elif got != self.first[item.id]:
                issues.append("output differs between passes")
            want = self.expected.get(item.id)
            if want is not None and got is not None and got != want:
                issues.append("output differs from the recorded digest")
            self.problems += [f"{item.id}: {what}" for what in issues][: MAX_PROBLEMS - len(self.problems)]
            self.wrong += bool(issues)
            self.undecided += err is None and not decided
            self.failed += bool(issues) or not decided
        return extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--kernel", default="", help="built compiled kernel to register")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--expected", help="recorded output digests")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up is sampled like a pass, so run.py can report it at the
    # calibration speed too
    sampler = hostspeed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    rp, wl = _load(args)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    items = wl.setup(rp, workdir, args.seed)
    t1 = time.perf_counter()
    first_item_at = time.monotonic()
    sampler.stop()
    busy, cal = sampler.item(t0, t1)
    result = {
        "first_item_at": first_item_at,
        "setup_sampling_s": t1 - t0 - busy,
        "setup_cal_s": cal,
        "implementation": rp.kernels.IMPLEMENTATION,
    }
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    expected = json.loads(Path(args.expected).read_text()).get(wl.name) if args.expected else None
    tally = Tally(expected)
    tracer = tracing.Tracer() if args.trace else None
    times: list[list[float]] = []
    cals: list[list[float]] = []
    pass_seconds = {"untraced": [], "traced": []}
    layer_passes = []
    ref = [hostspeed.ref_loop_s()]
    passes, p = MIN_PASSES, 0
    while p < passes:
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass()
        outputs, seconds, cal = _run_pass(items, tracer if traced else None)
        if traced:
            tracer.uninstall()
        ref.append(hostspeed.ref_loop_s())
        extra = tally.check_pass(workloads.digest, items, outputs, p == 0)
        del outputs
        pass_seconds["traced" if traced else "untraced"].append(sum(seconds))
        if traced:
            layer_passes.append(tracer.pass_metrics(extra))
        else:
            times.append(seconds)
            cals.append(cal)
        if p == 0:
            passes = max(MIN_PASSES, round(args.seconds / sum(seconds)))
        p += 1

    result.update(
        passes=passes,
        items_per_pass=len(items),
        times=times,
        cals=cals,
        attempted=tally.attempted,
        failed=tally.failed,
        undecided=tally.undecided,
        wrong=tally.wrong,
        problems=tally.problems,
        digests=tally.first,
        ref_loop_s=statistics.median(ref),
        peak_rss_mb=peak_rss_mb(),
    )
    if tracer is not None:
        layers = {k: statistics.fmean(lp[k] for lp in layer_passes) for k in tracing.PER_LAYER}
        layers["trace.overhead_ratio"] = min(pass_seconds["traced"]) / min(pass_seconds["untraced"]) - 1
        result["layers"] = layers
        tracer.write(workdir / "spans.jsonl.gz")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
