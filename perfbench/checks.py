"""Output checks that do not trust the code under test.

Exact probabilities are recomputed by a small engine of our own: forward
reachability over (prefix length, age) pairs, pruned to the youngest age
per prefix length (an older member can do nothing a younger one cannot),
with integer path weights (b - a, a) at p = a/b.  Growth constants come
from float64 bisection of U(x) = 2 over thousands of series terms.  The
alternating-word values are also compared with the package's
`vn_single_recursion`, which is an independent route to the same numbers.

Each check returns a list of problems.  A problem is ("error", text) or
("defect", text); a defect is a known, documented inaccuracy of the
program and is counted apart from unexpected errors.  The one known defect
is the `by_ratio` column of `cm` (see check_cm).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from wordseen.recursions import vn_single_recursion

from workloads import alternating


@lru_cache(maxsize=None)
def seen_probability(word: str, M: int, p: Fraction) -> Fraction:
    """P(word is M-seen) with P(letter = 1) = p, exactly."""
    n = len(word)
    if n == 0:
        return Fraction(1)
    letters = [int(c) for c in word]
    a, b = p.numerator, p.denominator
    weight = (b - a, a)
    live = {((0, 0),): 1}
    accepted = 0
    for _ in range(n * M):
        accepted *= b
        nxt: dict[tuple, int] = {}
        for state, count in live.items():
            for letter in (0, 1):
                ages: dict[int, int] = {}
                for k, d in state:
                    if d + 1 < M and ages.get(k, M) > d + 1:
                        ages[k] = d + 1
                    if letters[k] == letter:
                        ages[k + 1] = 0
                mass = count * weight[letter]
                if n in ages:
                    accepted += mass
                elif ages:
                    key = tuple(sorted(ages.items()))
                    nxt[key] = nxt.get(key, 0) + mass
        live = nxt
    return Fraction(accepted, b ** (n * M))


@lru_cache(maxsize=None)
def growth_constant(M: int, terms: int = 3000) -> float:
    """c_M = 1/x where U(x) = sum_n u_n x^n = 2, u_n = P(two independent
    walks with uniform {1..M} steps sit at the same point after n steps)."""
    step = np.full(M, 1.0 / M)
    dist = np.ones(1)
    u = np.empty(terms + 1)
    u[0] = 1.0
    for n in range(1, terms + 1):
        dist = np.convolve(dist, step)
        u[n] = dist @ dist
    powers = np.arange(terms + 1)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        xn = mid ** powers
        partial = float(u @ xn)
        tail = u[-1] * mid ** (terms + 1) / (1 - mid)  # u_n is decreasing
        if partial > 2:
            hi = mid
        elif partial + tail < 2:
            lo = mid
        elif tail < 1e-14:
            return 1 / mid  # U(mid) = 2 to within the tail
        else:
            raise ArithmeticError(f"{terms} terms cannot settle U(x) = 2 at x = {mid}")
    return 2 / (lo + hi)


def _vn(M: int, n: int) -> Fraction:
    return vn_single_recursion(M, n)[n]


def _dec(x) -> str:
    return f"{float(x):.12f}"


def _err(problems: list, text: str) -> None:
    problems.append(("error", text))


def _is_alternating(word: str) -> bool:
    return all(a != b for a, b in zip(word, word[1:]))


def check_exact(out: dict, params: dict) -> list:
    problems: list = []
    word, M, p = params["word"], params["M"], Fraction(params["p"])
    if (out.get("word"), out.get("M"), out.get("p")) != (word, M, params["p"]):
        _err(problems, f"echoed inputs {out.get('word')}, {out.get('M')}, {out.get('p')}")
        return problems
    prob = Fraction(out["probability"])
    expect = seen_probability(word, M, p)
    if prob != expect:
        _err(problems, f"probability {prob} != independent value {expect}")
    if out["decimal"] != _dec(prob):
        _err(problems, f"decimal {out['decimal']} does not match {prob}")
    if _is_alternating(word) and p == Fraction(1, 2) and prob != _vn(M, len(word)):
        _err(problems, f"alternating value {prob} != vn_single_recursion {_vn(M, len(word))}")
    if params.get("oracle"):
        if out.get("agrees") is not True:
            _err(problems, f"oracle column says agrees={out.get('agrees')}")
        if Fraction(out.get("oracle", "-1")) != expect:
            _err(problems, f"oracle {out.get('oracle')} != independent value {expect}")
    return problems


def check_maxword(out: dict, params: dict) -> list:
    problems: list = []
    n, M = params["n"], params["M"]
    values = {}
    for y in range(1 << n):
        word = format(y, f"0{n}b")
        values[word] = seen_probability(word, M, Fraction(1, 2))
    best = max(values.values())
    winners = sorted(w for w, v in values.items() if v == best)
    if Fraction(out["probability"]) != best:
        _err(problems, f"maximum {out['probability']} != independent maximum {best}")
    if sorted(out["maximizers"]) != winners:
        _err(problems, f"maximizers {out['maximizers']} != {winners}")
    if M == 2:
        alts = {alternating(0, n), alternating(1, n)}
        if not alts <= set(out["maximizers"]) or Fraction(out["probability"]) != _vn(2, n):
            _err(problems, "at M=2 the alternating words must maximize with value v_n")
    return problems


def _within(estimate: float, exact: float, trials: int, problems: list) -> None:
    sigma = math.sqrt(exact * (1 - exact) / trials)
    if abs(estimate - exact) > 4 * sigma:
        _err(problems, f"estimate {estimate} is more than 4 stderr ({sigma:.3g}) "
                       f"from the exact {exact:.9f}")


def check_simulate(out: dict, params: dict) -> list:
    problems: list = []
    if (out["word"], out["M"], out["trials"]) != (params["word"], params["M"], params["trials"]):
        _err(problems, "echoed inputs differ from the command line")
        return problems
    exact = float(seen_probability(params["word"], params["M"], Fraction(params["p"])))
    _within(out["estimate"], exact, params["trials"], problems)
    est = out["estimate"]
    if not math.isclose(out["stderr"], math.sqrt(est * (1 - est) / params["trials"]),
                        rel_tol=1e-9):
        _err(problems, f"stderr {out['stderr']} is not the binomial stderr of {est}")
    return problems


@lru_cache(maxsize=None)
def cross_probability(p_x: Fraction, p_y: Fraction, n: int, M: int) -> Fraction:
    total = Fraction(0)
    for y in range(1 << n):
        word = format(y, f"0{n}b")
        ones = word.count("1")
        total += p_x ** ones * (1 - p_x) ** (n - ones) * seen_probability(word, M, p_y)
    return total


def check_cross(out: dict, params: dict) -> list:
    problems: list = []
    exact = float(cross_probability(Fraction(params["p_x"]), Fraction(params["p_y"]),
                                    params["n"], params["M"]))
    _within(out["estimate"], exact, params["trials"], problems)
    return problems


def check_couple(out: dict, params: dict) -> list:
    problems: list = []
    p_x, p_y = float(Fraction(params["p_x"])), float(Fraction(params["p_y"]))
    stages = out["stages"]
    if not stages or stages[0][0] != p_x or abs(stages[-1][2] - p_y) > 1e-12:
        _err(problems, f"stage plan does not run from {p_x} to {p_y}")
    for (p_in, p1, p_out), nxt in zip(stages, stages[1:] + [None]):
        if abs(p_in * p_in + 2 * p_in * (1 - p_in) * p1 - p_out) > 1e-12:
            _err(problems, f"stage {p_in} -> {p_out} breaks p_out = p^2 + 2p(1-p)p1")
        if nxt is not None and nxt[0] != p_out:
            _err(problems, "stages do not chain")
    if out["window"] != 3 ** len(stages):
        _err(problems, f"window {out['window']} != 3^{len(stages)}")
    if out["witness_failures"] != 0:
        _err(problems, f"{out['witness_failures']} witness failures")
    letters = out["samples"] * params["n"]
    band = 4 * math.sqrt(p_y * (1 - p_y) / letters)
    if abs(out["empirical"] - p_y) > band:
        _err(problems, f"density {out['empirical']} is more than 4 sigma from {p_y}")
    return problems


def check_twoblock(out: dict, params: dict) -> list:
    problems: list = []
    p, q, M = params["p"], params["q"], params["M"]
    prob, u, v = (Fraction(out[k]) for k in ("probability", "u", "v"))
    expect = seen_probability("1" * p + "0" * q, M, Fraction(1, 2))
    if prob != expect:
        _err(problems, f"probability {prob} != independent value {expect}")
    if v != _vn(M, p + q):
        _err(problems, f"v {v} != vn_single_recursion {_vn(M, p + q)}")
    if out["sandwich"] is not True or not prob <= u <= v:
        _err(problems, f"sandwich fails: {prob} <= {u} <= {v} is {prob <= u <= v}, "
                       f"printed {out['sandwich']}")
    return problems


def check_cm(out: dict, params: dict) -> list:
    problems: list = []
    M, tol = params["M"], params["tol"]
    c = growth_constant(M)
    for column in ("c", "by_bisection", "by_ratio"):
        miss = abs(float(out[column]) - c)
        if miss > tol:
            # growth_constant's ratio route stops once successive ratios differ
            # by less than tol/10, which does not bound its error: a known defect.
            kind = "defect" if column == "by_ratio" else "error"
            problems.append((kind, f"{column} {out[column]} misses c_{M} = {c:.12f} "
                                   f"by {miss:.2g} > tol {tol:g}"))
    return problems


def check_vn(out: dict, params: dict) -> list:
    problems: list = []
    M, N = params["M"], params["N"]
    vs = vn_single_recursion(M, N)
    rows = out["rows"]
    if [r["n"] for r in rows] != list(range(N + 1)):
        _err(problems, "rows are not n = 0..N")
        return problems
    for row in rows:
        n = row["n"]
        if Fraction(row["vn"]) != vs[n]:
            _err(problems, f"v_{n} {row['vn']} != vn_single_recursion {vs[n]}")
            break
        if n <= 8 and vs[n] != seen_probability(alternating(1, n), M, Fraction(1, 2)):
            _err(problems, f"v_{n} disagrees with the independent engine")
            break
    return problems


def check_verify(text: str) -> list:
    lines = text.rstrip("\n").split("\n")
    return [] if lines[-1] == "PASS" else [("error", f"suite ended with {lines[-1]!r}")]


CHECKS = {
    "exact": check_exact, "maxword": check_maxword, "simulate": check_simulate,
    "cross": check_cross, "couple": check_couple, "twoblock": check_twoblock,
    "cm": check_cm, "vn": check_vn,
}


def check(job: dict, exit_code, data: bytes) -> list:
    """All problems with one job's exit status and output bytes."""
    if exit_code != 0:
        return [("error", f"exit status {exit_code}")]
    try:
        text = data.decode()
        if job["check"] == "verify":
            return check_verify(text)
        return CHECKS[job["check"]](json.loads(text), job["params"])
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return [("error", f"unreadable output: {type(err).__name__}: {err}")]
