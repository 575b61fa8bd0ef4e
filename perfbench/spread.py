"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload ideal-queries --seeds 0-9 [--out spread.json]

Runs the benchmark once per seed, one run at a time, with BENCHMARK.json's
run_seconds, and prints for every metric its median and the distance between
its first and third quartiles as a share of the median (the spread that the
bounds in BENCHMARK.json are set against).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    parser.add_argument("--out", help="append the summary as one JSON line to this file")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for seed in range(first, last + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        elapsed = time.monotonic() - t0
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        note = [line for line in proc.stderr.splitlines() if line.startswith("unscaled")]
        print(f"seed {seed} ({elapsed:.1f} s): correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values} {' '.join(note)}", flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds, "run_seconds": bench["run_seconds"],
               "all_correct": all(r["correct"] for r in runs), "metrics": {}}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        summary["metrics"][m["name"]] = {"values": values, "median": statistics.median(values),
                                         "spread": spread(values), "bound": m["bound"]}
        print(f"{m['name']:14s} median {statistics.median(values):10.4f}  spread {spread(values):.3f}"
              f"  bound {m['bound']}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
