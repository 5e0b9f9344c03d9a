"""Smoke check of the benchmark harness at reduced problem sizes.

    python3 perfbench/smoke.py

Runs every workload untraced, then the traced run, all with ``--size
smoke`` (problems small enough to finish in seconds), and checks each
result line against BENCHMARK.json: the right keys, every metric named
there with its unit, ``correct`` true and exit code 0.  Then it copies
BENCHMARK.json and this directory alone into a temporary directory and
checks that the harness fails there without printing a result.
Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, kind, label):
    if proc.returncode != 0:
        sys.exit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        sys.exit(f"{label}: not correct: {result}")
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.exit(f"{label}: metrics {got} != BENCHMARK.json {want}")
    print(f"ok  {label}: {len(got)} metrics, {result['attempted']} problems")
    return result


def main():
    for w in SPEC["workloads"]:
        proc = run(ROOT, "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0", "--size", "smoke")
        check_result(proc, "end_to_end", w["name"])
    proc = run(ROOT, "--workload", SPEC["workloads"][0]["name"], "--seed",
               "1", "--seconds", "1", "--trace", "1", "--size", "smoke")
    layers = check_result(proc, "per_layer", "trace")["metrics"]
    if layers["parallel.bitwise_equal"]["value"] != 1:
        sys.exit("trace: 1- and 2-worker ensembles differ")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "put1d", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            sys.exit(f"bare tree: exit {proc.returncode}, "
                     f"stdout {proc.stdout!r}")
        print(f"ok  bare tree: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
