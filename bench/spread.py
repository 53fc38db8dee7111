"""Run one workload once per seed, each in a fresh process as run.py is
meant to be run, and report for every end-to-end metric its median and its
quartile spread (Q3 - Q1) / median next to the bound in BENCHMARK.json.

    python3 bench/spread.py --workload dsd-train --seeds 1 2 3 4 5

The last stdout line is a JSON summary: per metric the median, quartiles,
spread and the values of each run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    failed = 0
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        failed += result["failed"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "failed": failed, "metrics": {}}
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2
        print(f"{name}: median {q2:.6g}  spread {spread:.4f}  bound {bounds[name]}  "
              f"spread/bound {spread / bounds[name]:.2f}")
        summary["metrics"][name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                                    "values": vals}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
