"""Quick self-test of the benchmark: every workload at its minimal size.

    python3 perfbench/selftest.py

Runs each workload for one round (`--seconds 0`), untraced and traced, and
asserts that every output check passed, that every metric BENCHMARK.json
names is printed with its unit, and that the attempted and failed op counts
are reported.  Exits 0 when all pass; takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(w["name"], trace)
            label = f"{w['name']} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] is True, f"{label}: an output check failed"
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
            assert isinstance(result["failed"], int) and result["failed"] == 0, label
            for m in names:
                got = result["metrics"].get(m["name"])
                assert got is not None, f"{label}: {m['name']} not printed"
                assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
                assert isinstance(got["value"], (int, float)), f"{label}: {m['name']}"
            print(f"ok {label}: {result['attempted']} ops", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
