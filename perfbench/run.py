"""Benchmark harness for lapbs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload put1d --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prices the workload's problems over and over for
``--seconds`` and reports the end-to-end metrics (medians over passes; the
timings are scaled to a reference host speed, see speed.py).
With ``--trace 1`` it replays all three workloads serially with every
layer wrapped and reports the per-layer metrics (``--seconds`` does not
apply).  Every pass checks its
outputs against known accuracy.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the lines
before it record the machine and print each metric with its unit.  The
exit code is 0 only when every check passed.  See README.md beside this
file for the workloads and metrics.
"""

import os
import sys

# One BLAS thread per process, set before numpy loads: the 2-worker pool on
# top of multi-threaded BLAS oversubscribes the CPUs and runs several times
# slower, and unsteadily.  The blas-default probe measures exactly that.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    if "blas-default" in sys.argv:
        os.environ.pop(_var, None)
    else:
        os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170          # a run must end within 180 s
SETUP_PROBES = 9          # set-up is timed in this many fresh processes
MIN_CHECK_S = 0.2         # a shorter accuracy check is timed repeatedly
# The BLAS probes time the pooled 64^2 ensemble 3 to 5 times, stopping
# after BLAS_PROBE_S: with default threading one ensemble can take 10 s.
BLAS_MIN_REPEATS, BLAS_MAX_REPEATS, BLAS_PROBE_S = 3, 5, 20.0


class Deadline(BaseException):
    """Raised by the alarm; not an Exception, so no problem handler eats it."""


def _deadline(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_lapbs():
    """Import the checkout's lapbs and the workloads; never an installed
    copy, so a tree without the sources fails here."""
    if not (SRC / "lapbs" / "__init__.py").is_file():
        fail(f"no lapbs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lapbs
    import workloads
    if Path(lapbs.__file__).resolve().parent != SRC / "lapbs":
        fail(f"imported lapbs from {lapbs.__file__}, not {SRC}")
    return workloads


def timed_setup(workload, seed, size):
    """Import lapbs and build the inputs; returns (workloads module,
    Workload, seconds)."""
    start = time.perf_counter()
    workloads = import_lapbs()
    built = workloads.build(workload, seed, size)
    return workloads, built, time.perf_counter() - start


def run_child(args, timeout):
    """Run this script in a new process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), *args],
                            stdout=subprocess.PIPE, cwd=str(ROOT),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "lapbs").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {
        "cpus": os.cpu_count(), "cpu_model": model or platform.processor(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
    }


def peak_rss_mb():
    """Parent's peak RSS plus the largest reaped child's (a pool worker; no
    other child has run yet).  ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def units(kind):
    """Metric name -> unit, from BENCHMARK.json's ``kind`` list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def timed_pass(workloads, built, speed, sampler):
    return workloads.run_pass(built.problems, probe=speed.probe,
                              pooled=sampler.running,
                              min_check_s=MIN_CHECK_S)


def end_to_end(args):
    workloads, built, setup0 = timed_setup(args.workload, args.seed,
                                           args.size)
    import speed
    # Each CPU's speed swings on its own, so the run is pinned to the CPUs
    # it keeps busy, and speed.py times those: probes around each call on
    # the first CPU, which this process keeps to, and for basket2d a
    # sampler on each of the pool's CPUs while it prices; a fork hook gives
    # the pool workers all of them.  Each set-up runs in a fresh process
    # pinned to the first CPU, between two probes.
    cpus = os.sched_getaffinity(0)
    workers = max(p.workers for p in built.problems)
    run_cpus = sorted(cpus)[:workers]
    sampler = speed.Sampler(run_cpus if workers > 1 else [])
    pool_cpus = []                    # set while the passes run

    def widen_pool_worker():
        if pool_cpus:
            os.sched_setaffinity(0, pool_cpus)

    os.register_at_fork(after_in_child=widen_pool_worker)
    os.sched_setaffinity(0, run_cpus[:1])
    setups, setups_wall = [], []
    try:
        speed.kernel()
        with sampler:
            pool_cpus[:] = run_cpus
            start = time.perf_counter()
            passes = [timed_pass(workloads, built, speed, sampler)]
            # read after one pass: the allocator keeps growing for a few
            # passes, so a later reading would depend on how many passes
            # fit in the run
            rss = peak_rss_mb()
            while time.perf_counter() - start < args.seconds:
                passes.append(timed_pass(workloads, built, speed, sampler))
            elapsed = time.perf_counter() - start
            pool_cpus.clear()

        for _ in range(SETUP_PROBES):
            before = speed.probe()
            wall = run_child(["--probe", "setup", "--workload", args.workload,
                              "--seed", str(args.seed), "--size", args.size],
                             timeout=60)
            setups.append(speed.scaled(wall, before, speed.probe()))
            setups_wall.append(wall)
    finally:
        os.sched_setaffinity(0, cpus)

    def scaled(c):
        if sampler.cpus and c.metric == "price_s":
            return sampler.scaled(c.wall_s, c.start, c.end)
        return speed.scaled(c.wall_s, c.before, c.after)

    def total(p, metric):
        return sum(scaled(c) for c in p.calls if c.metric == metric)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "price_s": statistics.median(total(p, "price_s") for p in passes),
        "verify_s": statistics.median(total(p, "verify_s") for p in passes),
        "err_l2_max": max(p.err_max for p in passes),
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - failed / attempted,
    }
    wall = {
        "setup_s": statistics.median(setups_wall),
        "price_s": statistics.median(p.price_s for p in passes),
        "verify_s": statistics.median(p.verify_s for p in passes),
    }
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({attempted} problems, {failed} failed) in {elapsed:.1f} s; "
          f"set-up timed {len(setups)} times in fresh processes "
          f"(in-process: {setup0:.3f} s)")
    unit = units("end_to_end")
    counts = {"setup_s": len(setups), "price_s": len(passes),
              "verify_s": len(passes)}
    for name, value in metrics.items():
        tail = ""
        if name in counts:
            tail = (f"  median of {counts[name]} at reference speed; "
                    f"wall {wall[name]:.6g}")
        print(f"#   {name:<12} {value:<14.6g} {unit[name]}{tail}")
    print(f"#   fail_frac    {failed / attempted:<14.6g} 1")
    return ({k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
            attempted, failed)


def per_layer(args):
    unit = units("per_layer")
    import_lapbs()
    import layers

    def blas_probe(default_threads):
        probe = "blas-default" if default_threads else "blas"
        return run_child(["--probe", probe, "--size", args.size],
                         timeout=120)

    metrics, attempted, failed = layers.run(args.seed, args.size, blas_probe)
    for name, value in metrics.items():
        print(f"#   {name:<38} {value:<14.6g} {unit[name]}")
    return ({k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
            attempted, failed)


def probe(args):
    """Child-process measurements, printed as one JSON line."""
    if args.probe == "setup":
        print(json.dumps(timed_setup(args.workload, args.seed, args.size)[2]))
        return
    workloads = import_lapbs()
    built = workloads.build("basket2d", 0, args.size)
    problem = next(p for p in built.problems
                   if p.name == "table7_transparent")
    times = []
    start = time.perf_counter()
    while len(times) < BLAS_MIN_REPEATS or (
            len(times) < BLAS_MAX_REPEATS
            and time.perf_counter() - start < BLAS_PROBE_S):
        _, row = workloads.parallel.solve_ensemble(
            problem.spec, problem.contour, workers=workloads.POOL_WORKERS)
        times.append(row.wall_time)
    print(json.dumps(times))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="put1d",
                        choices=("put1d", "basket2d", "cn_march"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced problems, for smoke.py")
    parser.add_argument("--probe", choices=("setup", "blas", "blas-default"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        probe(args)
        return 0

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        if args.trace:
            metrics, attempted, failed = per_layer(args)
        else:
            metrics, attempted, failed = end_to_end(args)
        print("# machine " + json.dumps(machine()))
    except Deadline as exc:
        fail(str(exc))
    finally:
        signal.alarm(0)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
