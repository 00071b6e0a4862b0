"""Child process of the benchmark: one set-up or one timed run,
reported as a JSON object on the last stdout line.

    python3 perfbench/worker.py setup --workload W --seed N --scale full --dir WORK
    python3 perfbench/worker.py run --workload W --dir WORK --out OUT --trace 0|1

``run --workload replay`` replays the headline manifest on the inputs in
WORK, the reference the staged CLI is checked against.

Each timed run is its own process, so its peak resident memory belongs
to that run alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import catalog  # noqa: E402
import envinfo  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def timed_run(workload: str, work_dir: str, out_dir: str, trace: bool) -> dict:
    tracer = tracing.Tracer() if trace else None
    run, check = workloads.operation(workload, work_dir, out_dir, tracer)
    restore = tracing.instrument(tracer) if tracer is not None else None
    try:
        if tracer is not None:
            tracer.open("op")
        start = time.perf_counter()
        result = run()
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.close()
    finally:
        if restore is not None:
            restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality, failures, notes = check(result)
    out = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "quality": quality,
        "failures": failures,
        "notes": notes,
        "env": envinfo.environment(),
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, wall_s)
        out["notes"].update(
            {key: tracer.notes[key] for key in ("svd_max_cell", "nnz_by_cell") if key in tracer.notes}
        )
        stages = {name: seconds for name, seconds in tracer.total_s.items()
                  if name.startswith("cli.")}
        if stages:
            out["notes"]["cli_stage_total_s"] = stages
        with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.span_rows()}, fh)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "run"))
    parser.add_argument("--workload", choices=(*catalog.WORKLOADS, "replay"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--scale", choices=tuple(catalog.SIZES))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.role == "setup":
            result = workloads.setup(args.workload, args.seed, args.scale, args.dir)
        else:
            os.makedirs(args.out, exist_ok=True)
            result = timed_run(args.workload, args.dir, args.out, bool(args.trace))
    except Exception as exc:  # reported to the parent, which counts the failure
        traceback.print_exc()
        result = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
