"""Seeded job lists for the four benchmark workloads.

A job is one `wordseen` command line plus the description of the check that
its output must pass.  The seed only picks inputs whose cost is close to
fixed (which letter an alternating word starts with, random words with a
fixed number of runs, two-block splits of a fixed total), so that two seeds
do about the same work.  `tiny=True` gives the same job kinds at sizes that
finish in well under a second, for the harness smoke test.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact", "exhaustive", "simulate", "series")


def _job(label: str, argv: list[str], check: str, raw_time: bool = False,
         **params) -> dict:
    """raw_time: the job's time is spent in numpy array operations, whose
    speed does not follow the interpreter kernel of calibrate.py, so its
    time is reported in raw seconds."""
    return {"label": label, "argv": argv, "check": check, "raw_time": raw_time,
            "params": params}


def alternating(first: int, n: int) -> str:
    return "".join(str((first + i) % 2) for i in range(n))


def random_word(rng: random.Random, n: int, runs: int) -> str:
    """A word of length n with exactly `runs` maximal runs of equal letters.

    Automaton size grows with the number of letter changes, so fixing it
    keeps the cost of a random word near the same value for every seed.
    """
    cuts = sorted(rng.sample(range(1, n), runs - 1))
    letter = rng.randrange(2)
    out, prev = [], 0
    for cut in cuts + [n]:
        out.append(str(letter) * (cut - prev))
        letter ^= 1
        prev = cut
    return "".join(out)


def _exact_job(label: str, word: str, M: int, p: str, oracle: bool = False,
               flag: list[str] | None = None) -> dict:
    argv = ["exact"] + (flag or ["--word", word]) + ["--M", str(M)]
    if p != "1/2":
        argv += ["--p", p]
    if oracle:
        argv.append("--oracle")
    return _job(label, argv, "exact", word=word, M=M, p=p, oracle=oracle)


def _alternating_job(rng: random.Random, n: int, M: int, p: str) -> dict:
    first = rng.randrange(2)
    word = alternating(first, n)
    flag = ["--alternating", str(n)] if first == 1 else None
    return _exact_job(f"alt-M{M}-n{n}", word, M, p, flag=flag)


def _verify_job(suite: str, *flags: str) -> dict:
    return _job(f"verify-{suite}", ["verify", suite, *flags], "verify")


def exact_jobs(rng: random.Random, tiny: bool) -> list[dict]:
    if tiny:
        return [_alternating_job(rng, 6, 3, "1/2"),
                _exact_job("rand-M3-n6", random_word(rng, 6, 3), 3, "1/3")]
    total = 16
    ones = rng.randint(6, 10)
    return [
        _alternating_job(rng, 14, 6, "1/2"),
        _alternating_job(rng, 14, 5, "1/3"),
        _alternating_job(rng, 26, 3, "1/2"),
        _exact_job("twoblock-M6-5-5", "1" * 5 + "0" * 5, 6, "1/3",
                   flag=["--twoblock", "5", "5"]),
        _exact_job(f"twoblock-M4-{ones}-{total - ones}",
                   "1" * ones + "0" * (total - ones), 4, "1/2",
                   flag=["--twoblock", str(ones), str(total - ones)]),
        _exact_job("rand-M6-n10", random_word(rng, 10, 5), 6, "1/2"),
        _exact_job("rand-M4-n14", random_word(rng, 14, 7), 4, "1/3"),
        _exact_job("rand-M3-n18", random_word(rng, 18, 9), 3, "1/2"),
        _exact_job("rand-M5-n11", random_word(rng, 11, 6), 5, "1/3"),
        _verify_job("thm1b", "--n", "6"),
    ]


def exhaustive_jobs(rng: random.Random, tiny: bool) -> list[dict]:
    grid = [(4, 2), (3, 3)] if tiny else [(7, 2), (8, 2), (5, 3), (6, 3), (4, 4)]
    oracle = [(4, 2)] if tiny else [(6, 2), (7, 2), (8, 2), (5, 3), (4, 4), (3, 5)]
    jobs = [_job(f"maxword-n{n}-M{M}", ["maxword", "--n", str(n), "--M", str(M)],
                 "maxword", n=n, M=M) for n, M in grid]
    for n, M in oracle:
        word = random_word(rng, n, max(2, n // 2))
        jobs.append(_exact_job(f"oracle-n{n}-M{M}", word, M, "1/2", oracle=True))
    if tiny:
        return jobs
    return jobs + [_verify_job("thm1a", "--n", "6"), _verify_job("thm3", "--n", "5"),
                   _verify_job("thm4")]


def simulate_jobs(rng: random.Random, tiny: bool, seed: int) -> list[dict]:
    n, M = (6, 2) if tiny else (16, 4)
    trials = 2000 if tiny else 600_000
    word = random_word(rng, n, n // 2)
    cross_n, cross_trials = (4, 2000) if tiny else (8, 200_000)
    p_x, p_y = rng.choice([("1/2", "1/2"), ("2/5", "3/5"), ("3/5", "2/5")])
    p_from, p_to = rng.choice([("9/10", "1/10"), ("1/10", "9/10")])
    s = str(seed)
    jobs = [
        _job(f"simulate-M{M}-n{n}",
             ["simulate", "--word", word, "--M", str(M), "--trials", str(trials),
              "--seed", s], "simulate", raw_time=True,
             word=word, M=M, p="1/2", trials=trials),
        _job(f"cross-M3-n{cross_n}",
             ["simulate", "--p-x", p_x, "--p-y", p_y, "--n", str(cross_n),
              "--M", "3", "--trials", str(cross_trials), "--seed", s],
             "cross", raw_time=True,
             p_x=p_x, p_y=p_y, n=cross_n, M=3, trials=cross_trials),
        _job("couple", ["couple", "--p-x", p_from, "--p-y", p_to, "--n", "32",
                        "--trials", "20" if tiny else "100", "--seed", s],
             "couple", p_x=p_from, p_y=p_to, n=32),
    ]
    if not tiny:
        jobs.append(_verify_job("coupling", "--seed", s))
    return jobs


def series_jobs(rng: random.Random, tiny: bool) -> list[dict]:
    Ms = [2, 3] if tiny else list(range(2, 9))
    jobs = [_job(f"cm-M{M}", ["cm", "--M", str(M)], "cm", M=M, tol=1e-9) for M in Ms]
    N = 20 if tiny else 200
    jobs.append(_job(f"vn-M6-N{N}", ["vn", "--M", "6", "--N", str(N)], "vn", M=6, N=N))
    blocks = [(6, 2)] if tiny else [(10, 2), (8, 3), (6, 4)]
    for total, M in blocks:
        p = rng.randint(1, total - 1)
        jobs.append(_job(f"twoblock-{p}-{total - p}-M{M}",
                         ["twoblock", "--p", str(p), "--q", str(total - p), "--M", str(M)],
                         "twoblock", p=p, q=total - p, M=M))
    if not tiny:
        jobs.append(_verify_job("renewal"))
    jobs.append(_verify_job("lemma43"))
    return jobs


def build(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's job list for this seed; ids are unique and file-safe."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact":
        jobs = exact_jobs(rng, tiny)
    elif workload == "exhaustive":
        jobs = exhaustive_jobs(rng, tiny)
    elif workload == "simulate":
        jobs = simulate_jobs(rng, tiny, seed)
    elif workload == "series":
        jobs = series_jobs(rng, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    for i, job in enumerate(jobs):
        job["id"] = f"{i:02d}-{job['label']}"
    return jobs
