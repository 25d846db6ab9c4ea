"""One workload in one fresh process: run.py starts it and reads its result.

The worker imports `wordseen` from the checkout's `src/`, builds the seeded
job list and prints `ready` (the end of set-up).  It then runs the list in
passes, one job at a time, each job an in-process call of
`wordseen.cli.main(argv + ["--format", "json", "--out", FILE])`, until the
next pass would end after `--seconds`.  With `--trace 1` the passes
alternate untraced and traced.  Output checks and digests are computed
outside the timed region.  `--probe` stops after set-up.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate


def _fail(message: str) -> None:
    print(f"worker: {message}", file=sys.stderr)
    sys.exit(2)


def _corrupt(data: bytes) -> bytes:
    """Change the last digit of an output, as a wrong program would."""
    for i in range(len(data) - 1, -1, -1):
        if 48 <= data[i] <= 57:
            return data[:i] + bytes([48 + (data[i] - 47) % 10]) + data[i + 1:]
    return data + b"!"


def run_job(cli, job: dict, path: Path, tracer) -> tuple:
    """Run one job; returns (exit status, seconds, speed factor, output bytes)."""
    argv = job["argv"] + ["--format", "json", "--out", str(path)]
    path.unlink(missing_ok=True)
    gc.collect()
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"job:{job['id']}"):
                    code = cli.main(argv)
        except SystemExit as err:
            code = err.code
        except Exception as err:  # a job that raises is a failed job, not a crash
            code = f"raised {type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start - sampler.spent
    data = path.read_bytes() if path.exists() else b""
    return code, elapsed, sampler.factor(), data


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", help="job id whose output is altered before checking")
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    import numpy
    import wordseen
    import wordseen.cli as cli
    src = (Path.cwd() / "src").resolve()
    if not Path(wordseen.__file__).resolve().is_relative_to(src):
        _fail(f"imported wordseen from {wordseen.__file__}, not from {src}")
    import workloads
    jobs = workloads.build(args.workload, args.seed, tiny=args.tiny)
    print("ready", flush=True)
    if args.probe:
        return

    import checks
    import layers
    job_dir = args.out_dir / "jobs" / args.workload
    job_dir.mkdir(parents=True, exist_ok=True)
    kinds = ("plain", "traced")
    times = {kind: {job["id"]: [] for job in jobs} for kind in kinds}
    speeds = {kind: {job["id"]: [] for job in jobs} for kind in kinds}
    first: dict[str, tuple] = {}
    mismatch: dict[str, int] = {job["id"]: 0 for job in jobs}
    layer_passes, spans = [], []
    pass_seconds: list[float] = []
    begin = time.perf_counter()
    while True:
        tracer = layers.Tracer() if args.trace and len(pass_seconds) % 2 else None
        if tracer is not None:
            tracer.install()
        pass_start = time.perf_counter()
        try:
            for job in jobs:
                code, elapsed, factor, data = run_job(
                    cli, job, job_dir / f"{job['id']}.out", tracer)
                kind = "plain" if tracer is None else "traced"
                times[kind][job["id"]].append(elapsed)
                speeds[kind][job["id"]].append(factor)
                if job["id"] == args.corrupt:
                    data = _corrupt(data)
                digest = hashlib.sha256(data).hexdigest()
                if job["id"] not in first:
                    first[job["id"]] = (code, data, digest)
                else:
                    first_code, _, first_digest = first[job["id"]]
                    mismatch[job["id"]] += (code, digest) != (first_code, first_digest)
        finally:
            if tracer is not None:
                tracer.uninstall()
        pass_seconds.append(time.perf_counter() - pass_start)
        if tracer is not None:
            layer_passes.append(layers.summarize(tracer.spans, tracer.counts, tracer.errors))
            spans.append(tracer.spans)
        elapsed = time.perf_counter() - begin
        if args.trace and len(pass_seconds) < 2:
            continue
        if elapsed + statistics.median(pass_seconds) > args.seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    check_start = time.perf_counter()
    results = []
    for job in jobs:
        code, data, digest = first[job["id"]]
        problems = checks.check(job, code, data)
        if mismatch[job["id"]]:
            problems.append(("error", f"output of {mismatch[job['id']]} later "
                                      f"passes differs from the first"))
        results.append({**job, "exit": code, "digest": digest, "problems": problems,
                        **{f"{k}_s": times[k][job["id"]] for k in kinds},
                        **{f"{k}_speed": speeds[k][job["id"]] for k in kinds}})
    if spans:
        with open(args.out_dir / f"{args.workload}.spans.jsonl", "w") as fh:
            for number, pass_spans in enumerate(spans):
                for span in pass_spans:
                    fh.write(json.dumps([number, *span]) + "\n")
    out = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "wordseen": wordseen.__version__,
        "passes": len(pass_seconds),
        "pass_s": pass_seconds,
        "peak_rss_kb": peak_rss_kb,
        "check_s": time.perf_counter() - check_start,
        "jobs": results,
        "layers": layer_passes,
    }
    with open(args.out_dir / f"{args.workload}.worker.json", "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
