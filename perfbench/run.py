"""Benchmark of weylwalks: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in this process, single-threaded, in whole rounds of ops
(perfbench/workloads.py) until S seconds of rounds have passed; S = 0 runs
one round.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The timings come from each op
kind's upper quartile (see Outcome), which holds steadier than a mean or a
median on a host whose speed drifts.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 they are the per-layer
ones, measured by wrapping the program's functions (perfbench/spans.py).
The line before it is a reference record that is not a metric: the host
speed, the op count and the highest percentile with ten ops beyond it.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import compileall
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("chamber_walks", "exact_laws", "cli_oneshot")
# At least COLD_SETUPS_MIN cold set-ups, and more up to COLD_SETUPS_MAX while
# they have taken less than COLD_SETUP_BUDGET_S in all.
COLD_SETUPS_MIN = 3
COLD_SETUPS_MAX = 7
COLD_SETUP_BUDGET_S = 3.0
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def host_reference() -> float:
    """Seconds for a fixed stdlib-only loop that runs no program code."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 40000):
        acc += Fraction(1, k % 97 + 1)
        if acc > 10:
            acc -= 10
    return time.perf_counter() - start


def cold_setup_seconds(workload: str) -> float:
    """Wall time from spawning a fresh interpreter until it is ready for its
    first timed op.  A CLI call is ready once `weylwalks.cli` is imported and
    its parser built, which `--help` does before it exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if workload == "cli_oneshot":
        argv = [sys.executable, "-m", "weylwalks.cli", "--help"]
    else:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--cold-setup"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    try:
        if workload == "cli_oneshot":
            proc.communicate(timeout=120)
            elapsed = time.perf_counter() - start
        else:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=120)
            if line.strip() != "ready":
                raise RuntimeError(f"cold set-up of {workload} printed {line!r}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up of {workload} exited {proc.returncode}")
    return elapsed


def make_workload(name: str, trace: bool):
    import workloads

    if name == "cli_oneshot":
        child = [str(HERE / "cli_child.py")] if trace else None
        return workloads.CliOneshot(str(SRC), child)
    return workloads.WORKLOADS[name]()


class Outcome:
    """The ops of a run: wall times, labels, failures and check results.

    The end-to-end timings are built from the upper quartile of each op
    kind's wall times over the run (an op kind is a label; every round has
    the same kinds).  A shared host runs in stretches of different speed;
    the slower stretches come back in every run, the faster ones do not, so
    the upper quartile holds steadier from run to run than a mean or a
    median (0.07 to 0.14 against 0.15 to 0.23 in quartile spread, over 36-s
    windows of recordings made on the host of README.md).
    """

    def __init__(self):
        self.times = []
        self.labels = []
        self.failed = 0
        self.correct = True

    def run_round(self, ops):
        for label, run, check in ops:
            start = time.perf_counter()
            try:
                out = run()
            except Exception:
                self.failed += 1
                print(f"op {label} failed:", file=sys.stderr)
                traceback.print_exc()
                continue
            self.times.append(time.perf_counter() - start)
            self.labels.append(label)
            try:
                check(out)
            except Exception:
                self.correct = False
                print(f"op {label}: output check failed:", file=sys.stderr)
                traceback.print_exc()

    @property
    def attempted(self):
        return len(self.times) + self.failed

    def upper_quartiles(self):
        """Upper quartile of the wall times of each op kind, in seconds."""
        by_kind = {}
        for t, label in zip(self.times, self.labels):
            by_kind.setdefault(label, []).append(t)
        return {label: statistics.quantiles(ts, n=4, method="inclusive")[2]
                if len(ts) > 1 else ts[0] for label, ts in by_kind.items()}

    def ops_per_s(self):
        """Ops completed over the time they take when every op takes its
        kind's upper-quartile time."""
        q = self.upper_quartiles()
        return len(self.times) / sum(q[label] for label in self.labels) if self.times else 0.0

    def op_p50_ms(self):
        """Median over the ops of their kind's upper-quartile time."""
        q = self.upper_quartiles()
        return 1000.0 * statistics.median(q[label] for label in self.labels) \
            if self.times else 0.0

    def mean_ops_per_s(self):
        """Ops completed over their summed wall time."""
        return len(self.times) / sum(self.times) if self.times else 0.0


def run_rounds(wl, seed, seconds, outcome, first_round=0):
    """Whole rounds until `seconds` have passed; returns the next round index."""
    start = time.perf_counter()
    r = first_round
    while True:
        ops = wl.round(seed, r)
        gc.collect()
        outcome.run_round(ops)
        r += 1
        if time.perf_counter() - start >= seconds:
            return r


def reference(outcome, host_start, host_end, rounds):
    ms = sorted(1000.0 * t for t in outcome.times)
    ref = {"host_loop_s": {"start": host_start, "end": host_end},
           "ops": len(ms), "rounds": rounds, "tail": None, "p50_ms_by_op": {},
           # the plain mean rate and median op, beside the upper-quartile metrics
           "mean_ops_per_s": outcome.mean_ops_per_s(),
           "median_op_ms": statistics.median(ms) if ms else 0.0}
    for label in dict.fromkeys(outcome.labels):
        mine = [1000.0 * t for t, lb in zip(outcome.times, outcome.labels) if lb == label]
        ref["p50_ms_by_op"][label] = statistics.median(mine)
    for p in PERCENTILES:
        if len(ms) * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(ms, n=1000, method="inclusive")[int(p * 10) - 1]
            ref["tail"] = {"percentile": p, "ms": cut}
            break
    return ref


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-setup", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not (SRC / "weylwalks" / "__init__.py").is_file():
        print(f"no weylwalks sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.cold_setup:
        make_workload(args.workload, trace=False).setup()
        print("ready", flush=True)
        return 0

    # compiled bytecode makes every cold start after the first alike
    compileall.compile_dir(str(SRC), quiet=1)
    host_start = host_reference()
    setups = []
    while not args.trace and (len(setups) < COLD_SETUPS_MIN or (
            len(setups) < COLD_SETUPS_MAX and sum(setups) < COLD_SETUP_BUDGET_S)):
        setups.append(cold_setup_seconds(args.workload))

    from spans import Tracer

    cli = args.workload == "cli_oneshot"
    wl = make_workload(args.workload, trace=False)
    tracer = Tracer()
    if args.trace and not cli:
        tracer.install()
    setup_start = time.perf_counter()
    wl.setup()
    setup_in_process = time.perf_counter() - setup_start
    tracer.uninstall()

    outcome = Outcome()
    rounds = run_rounds(wl, args.seed, args.seconds, outcome)
    if args.trace:
        # One more round, traced; the untraced rounds give the overhead.  A
        # CLI round is traced inside its children, which report their totals.
        untraced = outcome.mean_ops_per_s()
        if cli:
            wl = make_workload(args.workload, trace=True)
            wl.setup()
        ops = wl.round(args.seed, rounds)
        traced = Outcome()
        if not cli:
            tracer.install()
        traced.run_round(ops)
        tracer.uninstall()
        for totals in getattr(wl, "trace_totals", []):
            tracer.merge(totals)
        if tracer.missing:
            print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
        metrics = tracer.snapshot()
        overhead = 100.0 * (1.0 - traced.mean_ops_per_s() / untraced) if untraced else 0.0
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        outcome.correct = outcome.correct and traced.correct
        outcome.failed += traced.failed
        outcome.times += traced.times
        outcome.labels += traced.labels
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": outcome.ops_per_s(), "unit": "1/s"},
            "op_p50_ms": {"value": outcome.op_p50_ms(), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(args.workload), "unit": "MB"},
        }
    host_end = host_reference()
    ref = reference(outcome, host_start, host_end, rounds)
    if args.trace:
        # the spans cover the traced set-up and the traced round
        ref["traced_s"] = {"setup": 0.0 if cli else setup_in_process,
                           "ops": sum(traced.times)}
    else:
        ref["setup_s_samples"] = setups
    print(json.dumps({"reference": ref}))
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
