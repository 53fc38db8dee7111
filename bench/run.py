"""edgenet benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload dsd-train --seed 1 --seconds 40 --trace 0

Run from anywhere; the source tree is found next to this directory. Human
readable lines go to stdout first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (END_TO_END below); with ``--trace 1`` they
are the per-layer ones from the tracer, plus the cold import time of
``edgenet.cli`` and the tracer's own overhead. Each run is one closed loop
with one client in one process, with one BLAS thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SPANS = os.path.join(ROOT, ".bench_out")

END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), ("rows_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_RUNS = 5
MAX_REPORTED = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("dsd-train", "ingest-score", "predict-loop"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "edgenet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_commit": _git_commit(), "src_sha256": _src_sha256(), "seed": seed}


def cold_import_s(env: dict) -> float:
    """Median time for a fresh interpreter to ``import edgenet.cli``."""
    code = ("import time; t = time.perf_counter(); import edgenet.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


class Tally:
    """Operations attempted and failed; prints the first few problems."""

    def __init__(self):
        self.attempted = self.failed = 0

    def add(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        for problem in problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED:
                print(f"check failed: {problem}", file=sys.stderr)


def measure(wl, seed: int, seconds: float, work: str, tracer) -> dict:
    """Set up SETUP_REPEATS times, then run operations for up to ``seconds``.
    With a tracer, every second operation is traced."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        t0 = perf_counter()
        wl.setup(work, seed)
        setup_s.append(perf_counter() - t0)

    tally = Tally()
    op_s, traced_s, rows = [], [], 0
    start = perf_counter()
    deadline = start + seconds * wl.loop_share
    i = 0
    # Start an operation only if one more average loop period fits before
    # the deadline, so a run with long operations does not overrun it.
    while i < (2 if tracer else 1) or perf_counter() + (perf_counter() - start) / i <= deadline:
        traced = tracer is not None and i % 2 == 1
        elapsed = []

        def timed(fn, *args):
            if traced:
                tracer.op = i
                tracer.install()
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed.append(perf_counter() - t0)
                if traced:
                    tracer.uninstall()

        try:
            n, problems = wl.op(i, timed)
        except Exception:  # a broken operation is counted, the run goes on
            n, problems = 0, [traceback.format_exc()]
        (traced_s if traced else op_s).extend(elapsed)
        rows += 0 if traced else n
        tally.add(1, problems[:1])
        i += 1

    try:
        extra, attempted, problems = wl.finish(start + seconds - perf_counter(), op_s)
    except Exception:
        extra, attempted, problems = {}, 1, [traceback.format_exc()]
    tally.add(attempted, problems)
    return {"setup_s": setup_s, "op_s": op_s, "traced_s": traced_s, "rows": rows,
            "extra": extra, "tally": tally}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "edgenet")):
        print(f"error: no edgenet source tree at {SRC}", file=sys.stderr)
        return 2
    # Before numpy is first imported: thread pools are sized at load time.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import tracer as tracing
    import workloads

    wl = {"dsd-train": workloads.DsdTrain, "ingest-score": workloads.IngestScore,
          "predict-loop": lambda: workloads.PredictLoop(SRC)}[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None and tracer.missing:
        print(f"warning: not traced, not found: {', '.join(tracer.missing)}", file=sys.stderr)
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        r = measure(wl, args.seed, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    tally = r["tally"]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"operations {tally.attempted} failed {tally.failed} "
          f"error_rate {tally.failed / tally.attempted!r}")
    if tracer is None:
        values = {"setup_s": statistics.median(r["setup_s"]),
                  "op_p50_ms": 1e3 * statistics.median(r["op_s"]),
                  "rows_per_s": r["rows"] / sum(r["op_s"]),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(END_TO_END)
        for name, (value, unit) in r["extra"].items():
            print(f"{name} = {value!r} {unit}")
    else:
        values = tracer.layer_metrics(len(r["traced_s"]))
        values["cli.import_s"] = cold_import_s(workloads.child_env(SRC))
        op_s, traced_s = r["op_s"], r["traced_s"]
        untraced_s = statistics.median(op_s)
        values["tracer.overhead_pct"] = 100.0 * tracer.overhead_s(len(traced_s)) / untraced_s
        # The direct comparison counts as resolved, as a gain would, only when
        # the medians differ by more than the untraced quartile distance.
        diff_s = statistics.median(traced_s) - untraced_s
        q1, _, q3 = statistics.quantiles(op_s, n=4) if len(op_s) > 1 else (0.0, 0.0, 1e9)
        print(f"measured tracing overhead {100.0 * diff_s / untraced_s:+.2f}% from "
              f"{len(traced_s)} traced and {len(op_s)} untraced operations"
              + ("" if abs(diff_s) > q3 - q1 else
                 " (unresolved: within the untraced quartile distance)"))
        units = dict(tracing.LAYER_METRICS, **{"cli.import_s": "s",
                                               "tracer.overhead_pct": "%"})
        os.makedirs(SPANS, exist_ok=True)
        spans = os.path.join(SPANS, f"spans-{args.workload}-s{args.seed}.jsonl")
        tracer.write_jsonl(spans)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}")
    metrics = {name: {"value": float(v), "unit": units[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
