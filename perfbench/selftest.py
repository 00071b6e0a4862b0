"""Self-test of the benchmark at a tiny input size.

    python3 perfbench/selftest.py

Drives each workload once untraced and once traced. Asserts that each
run passes its checks and prints exactly the metrics ``BENCHMARK.json``
names, and that a traced run leaves its span list.  Also checks that
the benchmark refuses, without printing a result, to run where the
package is missing.
Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402


def run_benchmark(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: metric names or units differ: " + str(
        {"missing": sorted(set(wanted) - set(got)), "extra": sorted(set(got) - set(wanted)),
         "unit": sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])}
    )
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    if trace:
        spans_file = os.path.join(ROOT, ".perfbench_work", f"{workload}-seed0.spans.json")
        with open(spans_file, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        assert spans[0]["name"] == "op" and spans[0]["parent"] == -1, spans[0]
        assert all(s["parent"] < i for i, s in enumerate(spans)), "a span precedes its parent"
    else:
        for name in ("grid_cells_at_baseline", "error_rate"):
            assert f"# {name}" in proc.stdout, f"{workload} does not print {name}"
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, f"{workload}: end-to-end metric {name} is not positive"
    print(f"ok  {workload:<14} trace={trace}  {len(got)} metrics")


def check_refuses_without_package() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_benchmark(bare, catalog.WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark ran without the gendervec package"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the package"
    print("ok  refuses to run without src/gendervec")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    for workload in catalog.WORKLOADS:
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_refuses_without_package()
    return 0


if __name__ == "__main__":
    sys.exit(main())
