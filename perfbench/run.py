"""The gendervec benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cli_staged --seed 0 --seconds 50 --trace 0

Builds the workload's synthetic inputs from ``--seed`` in a set-up
process, then repeats the timed operation, each time in a fresh
process, until ``--seconds`` have passed, and checks every run's
outputs.  With ``--trace 1`` it adds one traced run and reports
per-layer metrics instead of end-to-end ones.  It prints what it
measured, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Scratch files go to ``.perfbench_work/`` under the repository root and
are removed at exit.  A traced run leaves its span list there as
``<workload>-seed<seed>.spans.json``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402

# Every run must finish in 180 s; stop starting work well before that.
DEADLINE_S = 170.0
MAX_RUNS = 50


class BenchmarkError(Exception):
    """The benchmark could not measure at all (as opposed to a failed run)."""


class Runner:
    def __init__(self, args, work_dir: str):
        self.args = args
        self.work_dir = work_dir
        self.started = time.monotonic()

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def worker(self, role: str, *extra: str) -> dict:
        """Run one worker process to completion and return its JSON result."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), role,
               "--dir", self.work_dir, *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return {"error": f"{role} worker did not finish before the deadline"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"{role} worker exited {proc.returncode}: {tail[0]}"}
        result = json.loads(lines[-1])
        if "error" in result:
            sys.stderr.write(proc.stderr)
        return result

    def timed(self, name: str, trace: bool, operation: str | None = None) -> dict:
        out = os.path.join(self.work_dir, name)
        result = self.worker("run", "--workload", operation or self.args.workload,
                             "--out", out, "--trace", str(int(trace)))
        result["dir"] = out
        result["label"] = name
        result.setdefault("failures", [])
        if "error" in result:
            result["failures"].append(result["error"])
        return result


def _same_bytes(a: str, b: str) -> bool:
    return os.path.isfile(a) and os.path.isfile(b) and filecmp.cmp(a, b, shallow=False)


def _compare(run: dict, other: dict, names: dict[str, str]) -> None:
    for name, other_name in names.items():
        if not _same_bytes(os.path.join(run["dir"], name), os.path.join(other["dir"], other_name)):
            run["failures"].append(f"{name} differs from {other['label']}'s {other_name}")


def cross_check(workload: str, runs: list[dict], replays: list[dict]) -> None:
    """Every run writes the first run's bytes.  For the staged CLI, a
    repeated manifest replay writes the first replay's bytes, and every
    run writes the same five files as the replay."""
    good = [r for r in runs if "error" not in r]
    for run in good[1:]:
        _compare(run, good[0], {name: name for name in catalog.REPEAT_FILES[workload]})
    if not replays:
        return
    reference, repeat = replays
    if "error" in reference:
        for run in runs + [repeat]:
            run["failures"].append("the reference replay failed")
        return
    if "error" not in repeat:
        _compare(repeat, reference, {name: name for name in catalog.REPLAY_FILES})
    for run in good:
        _compare(run, reference, catalog.CLI_MATCHES)


def measure(args, work_dir: str) -> tuple[dict, list[dict], dict | None, list[dict]]:
    runner = Runner(args, work_dir)
    setup = runner.worker("setup", "--workload", args.workload, "--seed", str(args.seed),
                          "--scale", args.scale)
    if "error" in setup:
        raise BenchmarkError(f"set-up failed: {setup['error']}")

    runs: list[dict] = []
    measure_start = time.monotonic()
    longest = 0.0
    while len(runs) < MAX_RUNS:
        if runs:
            elapsed = time.monotonic() - measure_start
            # Start no run that would likely end after --seconds.
            if elapsed + longest > args.seconds:
                break
            # Leave room for the traced run and the replays.
            if runner.remaining() < 4 * longest:
                break
        began = time.monotonic()
        runs.append(runner.timed(f"run{len(runs)}", trace=False))
        longest = max(longest, time.monotonic() - began)

    traced = runner.timed("traced", trace=True) if args.trace else None
    if traced is not None and "error" not in traced:
        spans = os.path.join(os.path.dirname(work_dir),
                             f"{args.workload}-seed{args.seed}.spans.json")
        shutil.copyfile(os.path.join(traced["dir"], "trace.json"), spans)
        traced["notes"]["spans_file"] = os.path.relpath(spans, ROOT)
    # The staged CLI is checked against two manifest replays of the same
    # run; the second is traced in a traced run, for run_from_manifest's
    # self time.
    replays = []
    if args.workload == "cli_staged":
        replays = [runner.timed("replay0", trace=False, operation="replay"),
                   runner.timed("replay1", trace=bool(args.trace), operation="replay")]
    cross_check(args.workload, runs + ([traced] if traced else []), replays)
    return setup, runs, traced, replays


def _median(values):
    return statistics.median(values) if values else 0.0


def report(args, setup: dict, runs: list[dict], traced: dict | None,
           replays: list[dict]) -> dict:
    """Print the human-readable record and return the result object."""
    everything = runs + ([traced] if traced else []) + replays
    attempted = len(everything)
    failed = sum(1 for r in everything if r["failures"])
    ok_runs = [r for r in runs if "error" not in r]
    if not ok_runs:
        raise BenchmarkError("no timed run completed: " + "; ".join(runs[0]["failures"]))
    quality = ok_runs[0]["quality"]
    wall_s = _median([r["wall_s"] for r in ok_runs])

    print(f"# gendervec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} scale={args.scale} "
          f"size(nouns, sentences)={catalog.SIZES[args.scale][args.workload]}")
    print("# env " + json.dumps(ok_runs[0]["env"], sort_keys=True))
    print("# setup_s per set-up: " + ", ".join(f"{x:.4f}" for x in setup["setup_s"]))
    for run in everything:
        status = "ok" if not run["failures"] else "FAILED: " + "; ".join(run["failures"])
        if "wall_s" in run:
            print(f"# {run['label']}: wall_s={run['wall_s']:.4f} "
                  f"peak_rss_mb={run['peak_rss_mb']:.1f} {status}")
        else:
            print(f"# {run['label']}: {status}")
    notes = ok_runs[0].get("notes", {})
    if traced is not None and "error" not in traced:
        notes = {**notes, **traced.get("notes", {})}
    for key, value in sorted(notes.items()):
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")

    error_rate = failed / attempted
    if args.trace:
        for run in [traced] + replays[1:]:
            if "layers" not in run:
                raise BenchmarkError(f"the traced {run['label']} failed: "
                                     + "; ".join(run["failures"]))
        metrics = dict(traced["layers"])
        if replays:
            name = "pipeline.run_from_manifest_self_s"
            metrics[name] = replays[1]["layers"][name]
        metrics["synthetic.generate_s"] = (_median(setup["generate_s"]), "s")
        metrics["synthetic.write_s"] = (_median(setup["write_s"]), "s")
        metrics["synthetic.tokens"] = (setup["tokens"], "count")
        metrics["trace.overhead_s"] = (traced["wall_s"] - wall_s, "s")
        for key in ("pipeline.cells", "pipeline.cells_failed", "grid_cells_at_baseline"):
            metrics[key] = (traced["quality"].get(key, 0), "count")
        metrics["error_rate"] = (error_rate, "fraction")
    else:
        metrics = {
            "setup_s": (_median(setup["setup_s"]), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (_median([r["peak_rss_mb"] for r in ok_runs]), "MB"),
            "test_accuracy": (quality["test_accuracy"], "fraction"),
            "best_dev_accuracy": (quality["best_dev_accuracy"], "fraction"),
        }
        # Quality counters that are legitimately 0 are printed here and
        # carried as per-layer metrics, since end-to-end ones must never be 0.
        print(f"# {'grid_cells_at_baseline':<34} {quality['grid_cells_at_baseline']} count")
        print(f"# {'error_rate':<34} {error_rate:.4f} fraction ({failed} of {attempted} runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>18.6f} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=tuple(catalog.SIZES),
                        help="input size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running worker
    # is killed and waited for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "gendervec", "__init__.py")):
        print(f"error: no gendervec package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".perfbench_work",
                            f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = report(args, *measure(args, work_dir))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
