"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/report.py --runs 10 --first-seed 1000 [--workloads a,b]

For each workload it makes `--runs` untraced runs with seeds first-seed,
first-seed+1, ... and prints, per end-to-end metric, the median and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.  It also
prints the host-speed reference loop, the mean of its start and end
timings per run, with the same median and spread, and the op counts, then makes one traced run per workload and prints each layer's self
time as a share of the traced time (traced set-up plus the traced round).
Runs are sequential; the figures are markdown tables on stdout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    ref, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(ref)["reference"], json.loads(result)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    print(f"## Spread over {args.runs} runs of {args.seconds:g} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}\n")
    print("| workload | metric | median | spread | bound |\n|---|---|---|---|---|")
    host = []
    counts = {}
    for name in names:
        results = []
        loops = []
        for k in range(args.runs):
            ref, result = run(name, args.first_seed + k, args.seconds, 0)
            assert result["correct"], f"{name}: an output check failed"
            loops.append(statistics.mean(ref["host_loop_s"].values()))
            results.append(result)
            print(f"<!-- {name} seed {args.first_seed + k}: host loop {loops[-1]:.4f} s: "
                  f"{json.dumps(result)} -->", file=sys.stderr, flush=True)
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            print(f"| {name} | {metric} | {statistics.median(values):.4g} {unit} "
                  f"| {spread(values):.3f} | {bounds[metric]} |", flush=True)
        print(f"| {name} | host loop (not a metric) | {statistics.median(loops):.4g} s "
              f"| {spread(loops):.3f} | |", flush=True)
        host += loops
        counts[name] = (sum(r["attempted"] for r in results),
                        sum(r["failed"] for r in results))
    print("\n| workload | ops attempted | failed |\n|---|---|---|")
    for name, (attempted, failed) in counts.items():
        print(f"| {name} | {attempted} | {failed} |")
    print(f"\nHost-speed loop, mean of start and end per run, over all these runs: "
          f"min {min(host):.3f} s, median {statistics.median(host):.3f} s, max "
          f"{max(host):.3f} s, spread {spread(host):.3f}.\n")

    print("## Traced per-layer shares (self time / traced time)\n")
    print("| workload | traced s | layer | self s | share | calls |\n|---|---|---|---|---|---|")
    for name in names:
        ref, result = run(name, args.first_seed, args.seconds, 1)
        m = result["metrics"]
        total = ref["traced_s"]["setup"] + ref["traced_s"]["ops"]
        rows = sorted(((v["value"], k[:-len(".self_s")]) for k, v in m.items()
                       if k.endswith(".self_s") and v["value"] > 0), reverse=True)
        for value, layer in rows:
            calls = m.get(f"{layer}.calls", {}).get("value", "")
            print(f"| {name} | {total:.2f} | {layer} | {value:.3f} | "
                  f"{value / total:.1%} | {calls} |")
        extra = ", ".join(f"{k} = {m[k]['value']:.4g}" for k in
                          ("montecarlo.steps", "montecarlo.rows_per_step",
                           "paths.growth_vertices", "montecarlo.words", "cli.startup_s",
                           "trace.overhead_pct") if m[k]["value"])
        print(f"| {name} | | *{extra}* | | | |")


if __name__ == "__main__":
    main()
