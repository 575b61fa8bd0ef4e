"""Run one workload of the orthokit benchmark and print its metrics.

    python3 perfbench/run.py --workload catalog-verify --seed 0 --seconds 36 --trace 0

Run it from the root of a checkout; it imports orthokit from `src/` and the
naive oracles from `tests/`, and refuses to run (exit 2) when either is
missing.  Workloads: catalog-verify, families-pipeline, ideal-queries (see
workloads.py and README.md).

Every pass runs in a fresh interpreter, one at a time, because every CLI call
is a fresh process.  With `--trace 0` no pass is traced and the
result holds the end-to-end metrics:

* setup_s: spawn of an interpreter through `import orthokit` and the first
  `catalog()`, median over every pass and a set-up-only process started
  before each pass;
* wall_s: mean over passes of the time from the end of set-up to the last
  answer (a mean, because catalog-verify fits only 3-5 passes in a run and
  their cost depends on the random terms each CLI seed draws);
* query_p50_ms, query_p95_ms: latency of one operation, pooled over passes
  (one CLI call for catalog-verify and ideal-queries, one model through the
  pipeline for families-pipeline);
* peak_rss_mb: median over passes of the pass process's peak RSS.

Every time is scaled to the reference host speed by the calibration chunks
timed in the same process (calibrate.py); the unscaled medians and the host
speed are printed on stderr.

With `--trace 1` untraced and traced passes of the first input alternate and
the result holds the per-layer metrics of tracing.py plus trace.overhead_s,
the traced minus the untraced median wall time.  Spans of the last traced pass
are written to perfbench/out/trace-<workload>.jsonl.

Answers are checked after the clock stops; `failed` counts operations with a
wrong answer, an unexpected exception or exit code, or a refusal.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170  # the whole run, set-up and checks included, ends before this
SETUP_PER_PASS = 1  # set-up-only processes started before each pass

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_p95_ms": "ms", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


PER_LAYER = {m: unit_of(m) for m in tracing.METRICS + ("trace.overhead_s",)}


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    return statistics.quantiles(s, n=100, method="inclusive")[int(q) - 1]


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.prepare = workloads.WORKLOADS[workload][0]
        self.started = time.monotonic()
        self.workdir = OUT / f"{workload}-s{seed}"
        self.cache: dict = {}
        self.inputs: dict[int, dict] = {}
        self.spawned = 0
        self.errors: list[str] = []
        self.crashed = 0

    def left(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def input(self, variant: int) -> dict:
        if variant not in self.inputs:
            self.inputs[variant] = self.prepare(self.seed, variant, self.workdir, self.cache)
        return self.inputs[variant]

    def spawn(self, mode: str, variant: int = 0, trace: bool = False) -> dict | None:
        """One worker process; None (and an error) when it failed or ran out of time."""
        spec = {"mode": mode, "workload": self.workload, "trace": trace,
                "trace_out": str(OUT / f"trace-{self.workload}.jsonl")}
        if mode == "pass":
            spec["input"] = self.input(variant)
        path = self.workdir / f"spec-{self.spawned}.json"
        self.spawned += 1
        path.write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, "-I", str(HERE / "worker.py"), str(path)]
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.left() - 5, 1))
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} process killed after running out of time")
            self.crashed += 1
            return None
        finally:
            path.unlink(missing_ok=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            self.crashed += 1
            return None
        res = json.loads(lines[-1])
        if res["orthokit"] != str(ROOT / "src" / "orthokit"):
            sys.exit(f"perfbench: imported orthokit from {res['orthokit']}, not from this checkout")
        res["setup_s"] = res["ready"] - t0
        res["process_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
        self.errors += res.get("errors", [])
        return res


def untraced(run: Run, seconds: float) -> dict:
    run.spawn("setup")  # compiles bytecode; not a sample
    setups = []
    passes = []
    busy = 0.0
    variant = 0
    while True:
        if passes:
            est = statistics.median(p["process_s"] for p in passes)
            if busy + est > seconds or run.left() < 2 * est + 10:
                break
        # set-up samples are spread over the run, like the passes
        setups += [(r["setup_s"], r["setup_speed"]) for r in (run.spawn("setup") for _ in range(SETUP_PER_PASS)) if r]
        res = run.spawn("pass", variant=variant)
        variant += 1
        if res is None:
            if run.crashed > 2 or run.left() < 20:
                break
            continue
        passes.append(res)
        busy += res["process_s"]
    if not passes:
        return {}
    setups += [(p["setup_s"], p["setup_speed"]) for p in passes]
    # times scaled to the reference host speed (calibrate.py)
    latencies = [x * v for p in passes for x, v in zip(p["latencies_ms"], p["speeds"])]
    metrics = {
        "setup_s": statistics.median(t * v for t, v in setups),
        "wall_s": statistics.fmean(p["wall_s"] * p["speed"] for p in passes),
        "query_p50_ms": percentile(latencies, 50),
        "query_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    raw = (f"unscaled medians: setup_s={statistics.median(t for t, _ in setups):.4g} "
           f"wall_s={statistics.median(p['wall_s'] for p in passes):.4g}; host speed "
           f"{min(p['speed'] for p in passes):.3f}-{max(p['speed'] for p in passes):.3f} of the reference")
    return {"metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            "passes": passes, "samples": len(latencies), "note": raw}


def traced(run: Run, seconds: float) -> dict:
    run.spawn("setup")
    plain, tr = [], []
    busy = 0.0
    while True:
        if tr:
            est = busy / len(tr)
            if busy + est > seconds or run.left() < 2 * est + 10:
                break
        a = run.spawn("pass")
        b = run.spawn("pass", trace=True) if a else None
        if b is None:
            break
        plain.append(a)
        tr.append(b)
        busy += a["process_s"] + b["process_s"]
    if not tr:
        return {}
    layers = {m: statistics.median(t["layers"][m] for t in tr) for m in tracing.METRICS}
    layers["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in tr)
                                  - statistics.median(p["wall_s"] for p in plain))
    return {"metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()},
            "passes": plain + tr, "samples": len(tr)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/orthokit/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of orthokit, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    workloads.add_paths(ROOT)
    run = Run(args.workload, args.seed)
    shutil.rmtree(run.workdir, ignore_errors=True)
    run.workdir.mkdir(parents=True)
    try:
        summary = (traced if args.trace else untraced)(run, args.seconds)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    if not summary:
        print("perfbench: no pass completed:\n  " + "\n  ".join(run.errors[:5]), file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in summary["passes"]) + run.crashed
    failed = sum(p["failed"] for p in summary["passes"]) + run.crashed
    note = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
            f"{len(summary['passes'])} passes, {summary['samples']} samples, "
            f"failed_ratio={failed / attempted:.4g} ({failed}/{attempted})"]
    if args.workload == "ideal-queries":
        kern = [workloads.kernel_share(spec) for spec in run.inputs.values()]
        note.append(f"share of --check subsets that are ideals: "
                    f"{sum(k for k, _ in kern)}/{sum(a for _, a in kern)}")
    if "note" in summary:
        note.append(summary["note"])
    note += [f"  {e}" for e in run.errors[:5]]
    print("\n".join(note), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
