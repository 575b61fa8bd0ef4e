"""One fresh interpreter: set up orthokit, then optionally run one pass of a workload.

Started by run.py as `python3 -I perfbench/worker.py <spec.json>`.  Set-up is
`import orthokit` plus the first `catalog()`, the cost every CLI call pays; the
parent times it from before the process was spawned to the CLOCK_MONOTONIC
stamp printed here.  Right after it a burst of calibration chunks measures the
host's speed (`setup_speed`); an untraced pass samples it throughout (`speed`
over the pass, `speeds` around each operation; see calibrate.py).  The last
line of stdout is a JSON object.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]


def main(spec_path: str) -> dict:
    import json

    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = None
    import orthokit
    from orthokit import catalog_io

    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    catalog_io.catalog()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    import calibrate

    out = {"ready": ready, "orthokit": str(Path(orthokit.__file__).resolve().parent),
           "setup_speed": calibrate.burst()}
    if spec["mode"] == "setup":
        return out

    import resource

    import workloads

    _, run_pass, check = workloads.WORKLOADS[spec["workload"]]
    sampler = None if tracer is not None else calibrate.Sampler()
    if sampler is not None:
        workloads.clock = sampler.clock
        sampler.start()
    try:
        wall, spans, results = run_pass(spec["input"])
    finally:
        if sampler is not None:
            sampler.stop()
    if sampler is not None and sampler.samples:
        out["speed"] = calibrate.speed(sampler.samples)
        out["speeds"] = [sampler.speed_near(s, e) for s, e in spans]
    else:
        out["speed"] = out["setup_speed"]
        out["speeds"] = [out["speed"]] * len(spans)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.dump(spec["trace_out"])
    attempted, failed, errors = check(spec["input"], results)
    out.update(wall_s=wall, latencies_ms=[(e - s) * 1e3 for s, e in spans], rss_mb=rss_mb,
               attempted=attempted, failed=failed, errors=errors[:5])
    return out


if __name__ == "__main__":
    import json

    print(json.dumps(main(sys.argv[1])))
