"""wordseen benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it uses the package in `src/`.  The
workload runs in a fresh worker process with BLAS/OpenMP pinned to one
thread (a closed loop: one job at a time).  Set-up is measured on probe
processes, and the median is reported.  Times are divided by the machine's
speed factor measured around them (calibrate.py).  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the full result (environment,
per-job times and sha256 digests, check problems, layer counts) is written
to .perfbench_out/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

PROBES = 5
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _start(root: Path, argv: list[str], deadline: float):
    """Start a worker; returns it and the seconds until it reported ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=_env(root), cwd=root)
    ready, _, _ = select.select([proc.stdout], [], [], deadline - start)
    line = proc.stdout.readline() if ready else b""
    setup = time.perf_counter() - start
    if line.strip() != b"ready":
        _stop(proc)
        raise BenchError(f"worker did not start: {' '.join(argv)}")
    return proc, setup


def _stop(proc) -> None:
    proc.kill()
    proc.communicate()


def _finish(proc, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median_sum(jobs: list[dict], kind: str, normalize: bool = True) -> float:
    """Sum over jobs of the median time across passes.  Normalized times are
    divided by the machine-speed factor sampled while the job ran, except
    for jobs marked raw_time (see workloads._job)."""
    total = 0.0
    for job in jobs:
        times = job[f"{kind}_s"]
        if normalize and not job["raw_time"]:
            times = [t / f for t, f in zip(times, job[f"{kind}_speed"])]
        if times:
            total += statistics.median(times)
    return total


def run(workload: str, seed: int, seconds: float, trace: int, root: Path,
        tiny: bool = False, corrupt: str | None = None) -> dict:
    """Run one workload and return the full result; raises BenchError."""
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}, expected one of "
                         f"{', '.join(workloads.WORKLOADS)}")
    if not (root / "src" / "wordseen" / "__init__.py").is_file():
        raise BenchError(f"no wordseen package under {root / 'src'}")
    deadline = time.perf_counter() + DEADLINE_S
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    base = ["--workload", workload, "--seed", str(seed), "--out-dir", str(out_dir)]
    if tiny:
        base.append("--tiny")
    setups, setup_speeds = [], []
    before = calibrate.factor()
    for _ in range(PROBES):
        proc, setup = _start(root, base + ["--probe"], deadline)
        _finish(proc, deadline)
        after = calibrate.factor()
        setups.append(setup)
        setup_speeds.append((before + after) / 2)
        before = after
    argv = base + ["--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        argv += ["--corrupt", corrupt]
    proc, worker_setup = _start(root, argv, deadline)
    _finish(proc, deadline)
    with open(out_dir / f"{workload}.worker.json") as fh:
        raw = json.load(fh)
    load_end = os.getloadavg()

    jobs = raw["jobs"]
    for job in jobs:
        kinds = {kind for kind, _ in job["problems"]}
        job["status"] = "error" if "error" in kinds else "defect" if kinds else "ok"
    runs = {j["id"]: len(j["plain_s"]) + len(j["traced_s"]) for j in jobs}
    attempted = sum(runs.values())
    failed = sum(runs[j["id"]] for j in jobs if j["status"] == "error")
    defects = sum(runs[j["id"]] for j in jobs if j["status"] == "defect")
    flags = []

    if trace:
        passes = raw["layers"]
        metrics = {name: passes[0][name] if layers.METRICS[name][0] == "count"
                   else statistics.median(p[name] for p in passes)
                   for name in passes[0]}
        for name in layers.EXACT_COUNTS:
            values = {p[name] for p in passes}
            if len(values) > 1:
                flags.append(f"count {name} differs between traced passes: {sorted(values)}")
        metrics["trace.overhead_s"] = _median_sum(jobs, "traced") - _median_sum(jobs, "plain")
        metrics["failed_frac"] = (failed + defects) / attempted
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
    else:
        metrics = {
            "wall_s": _median_sum(jobs, "plain"),
            "setup_s": statistics.median(s / f for s, f in zip(setups, setup_speeds)),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
            "ok_frac": (attempted - failed - defects) / attempted,
        }
        units = END_TO_END
    nproc = os.cpu_count() or 1
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny,
        "environment": {
            "python": raw["python"], "numpy": raw["numpy"], "wordseen": raw["wordseen"],
            "nproc": nproc, "cpu": _cpu_model(), "git_commit": _git_commit(root),
            "loadavg_start": load_start, "loadavg_end": load_end,
            "overloaded": max(load_start[0], load_end[0]) > nproc,
        },
        "passes": raw["passes"], "pass_s": raw["pass_s"],
        "setup_samples_s": setups, "setup_speeds": setup_speeds, "worker_setup_s": worker_setup,
        "raw_wall_s": _median_sum(jobs, "plain", normalize=False),
        "check_s": raw["check_s"],
        "attempted": attempted, "failed": failed, "known_defects": defects,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "jobs": jobs,
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{workload}-s{seed}" + ("-tiny" if tiny else "")
    path = results_dir / f"{stem}-t{trace}.json"
    for other in (path, results_dir / f"{stem}-t{1 - trace}.json"):
        if other.exists():
            with open(other) as fh:
                flags += compare.differences(json.load(fh), result)
    result["flags"] = flags
    result["correct"] = failed == 0
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def summary_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for this long (whole passes of the job list)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: alternate untraced and traced passes, print per-layer metrics")
    args = ap.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, Path.cwd())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    for job in result["jobs"]:
        for kind, text in job["problems"]:
            print(f"{kind}: {job['id']}: {text}", file=sys.stderr)
    for flag in result["flags"]:
        print(f"flag: {flag}", file=sys.stderr)
    env = result["environment"]
    print(f"# {args.workload} seed={args.seed} passes={result['passes']} "
          f"known_defects={result['known_defects']} overloaded={env['overloaded']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
