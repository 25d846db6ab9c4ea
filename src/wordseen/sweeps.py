"""Verification sweeps: each one checks a family of exact statements at desk
scale and reports pass/fail with a counterexample when something breaks.
Shared by the command line `verify` subcommand and the acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, sqrt

import numpy as np

from .core import (
    BinaryWord,
    SequencePrefix,
    _prefix_blocks,
    alternating_seen_by_spacings,
    batch_seen,
    constant_seen_by_spacings,
    hitting_times,
    is_m_seen,
    s_sequence,
)
from .exactprob import exact_seen_probability, max_word_probability
from .moments import (
    embedding_count_moments,
    expected_embeddings,
    renewal_table,
    second_moment_exact,
    growth_constant,
    random_word_second_moment,
    visits_moment_bruteforce,
)
from .montecarlo import (
    RngConfig,
    admissible_path_exists,
    coupling_F,
    coupling_chain_demo,
    coupling_witness,
    plan_parameter_path,
    red_grid,
)
from .recursions import (
    AlphaBeta,
    char_poly,
    delta_operator,
    pq_polynomials,
    sigma_generating_identity,
    u_table,
    verify_suffix_bounds_m2,
    vn_pair_recursion,
    vn_single_recursion,
)


@dataclass
class SweepResult:
    name: str
    ok: bool = True
    details: list[str] = field(default_factory=list)
    counterexample: str | None = None

    def fail(self, message: str) -> None:
        self.ok = False
        if self.counterexample is None:
            self.counterexample = message
        self.details.append("FAIL: " + message)

    def note(self, message: str) -> None:
        self.details.append(message)


# ---------------------------------------------------------------------------
# thm1a: alternating word maximizes (window 2: assert; wider: report)
# ---------------------------------------------------------------------------

def sweep_max_word(M: int = 2, n_max: int = 8) -> SweepResult:
    res = SweepResult(f"max-word sweep M={M}, n <= {n_max}")
    vtab = vn_pair_recursion(M, n_max + 1)
    for n in range(1, n_max + 1):
        out = max_word_probability(n, M)
        alt = {BinaryWord.alternating(1, n), BinaryWord.alternating(0, n)}
        if M == 2:
            if out.probability != vtab.v[n]:
                res.fail(f"n={n}: max {out.probability} != v_n {vtab.v[n]}")
            if not alt <= set(out.words):
                res.fail(f"n={n}: alternating words not among maximizers "
                         f"{[str(w) for w in out.words]}")
        else:
            mark = "=" if out.probability == vtab.v[n] else "!="
            res.note(f"n={n}: max {out.probability} {mark} v_n {vtab.v[n]}, "
                     f"argmax {[str(w) for w in out.words]} (report only)")
    if M == 2:
        target = float(char_poly(2).root_large)
        gaps = [abs(float(vtab.ratio(n)) - target) for n in range(1, n_max + 1)]
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            res.fail(f"v_n ratio does not close in on the larger root: {gaps}")
        if n_max >= 6 and gaps[-1] > 1e-3:
            res.fail(f"v_{n_max + 1}/v_{n_max} still {gaps[-1]} away from "
                     f"the larger root {target}")
        res.note(f"v ratio after n={n_max}: {float(vtab.ratio(n_max)):.7f} "
                 f"-> {target:.7f}")
        # start-position split behind the maximality proof: every word up to
        # length 6, the alternating word beyond
        for n in range(1, 7):
            for letters in product((0, 1), repeat=n):
                report = verify_suffix_bounds_m2(BinaryWord(letters))
                if not report.ok:
                    res.fail(f"suffix bounds break for word "
                             f"{BinaryWord(letters)}")
        for n in range(7, n_max + 1):
            if not verify_suffix_bounds_m2(BinaryWord.alternating(1, n)).ok:
                res.fail(f"suffix bounds break for the alternating word, n={n}")
        res.note(f"max = v_n with alternating maximizers for all n <= {n_max}; "
                 f"start-position bounds hold")
    return res


# ---------------------------------------------------------------------------
# thm1b: two-block sandwich P(seen) <= u_{p,q} <= v_{p+q}
# ---------------------------------------------------------------------------

def sweep_two_block_chain(total_max: int = 10) -> SweepResult:
    res = SweepResult(f"two-block chain M in (2, 3, 4, 5), p+q <= {total_max}")
    for M in (2, 3, 4, 5):
        ab = AlphaBeta.for_window(M)
        try:
            table = u_table(M, total_max, total_max, check_oracle_upto=8)
        except AssertionError as err:
            res.fail(f"M={M}: {err}")
            continue
        vs = vn_single_recursion(M, 2 * total_max)
        for p in range(total_max + 1):
            for q in range(total_max + 1 - p):
                if table.delta[p][q] < 0:
                    res.fail(f"M={M}, p={p}, q={q}: u={table.u[p][q]} "
                             f"exceeds v={vs[p + q]}")
                if p + q == 0:
                    continue
                word = BinaryWord.two_block(p, q)
                exact = exact_seen_probability(word, M)
                if exact > table.u[p][q]:
                    res.fail(f"M={M}, p={p}, q={q}: P(seen)={exact} "
                             f"exceeds u={table.u[p][q]}")
        # induction step behind the sandwich: delta grows by at least M*beta
        for p in range(total_max):
            for q in range(total_max + 1):
                lhs = table.delta[p + 1][q]
                rhs = M * ab.beta * table.delta[p][q]
                if lhs < rhs:
                    res.fail(f"M={M}, p={p}, q={q}: delta step "
                             f"{lhs} < M*beta*{table.delta[p][q]}")
        res.note(f"M={M}: sandwich and delta induction hold on the grid")
    return res


# ---------------------------------------------------------------------------
# thm3: spacing characterizations vs the embedding engine, exhaustively
# ---------------------------------------------------------------------------

def _agree(res: SweepResult, what: str, verdict: np.ndarray, seen: np.ndarray,
           ys: np.ndarray) -> None:
    if not (verdict == seen).all():
        row = ys[int(np.argmax(verdict != seen))]
        res.fail(f"{what} disagrees at prefix {''.join(map(str, row.tolist()))}")


def sweep_spacing_equivalences(n_max: int = 6) -> SweepResult:
    """Every spacing criterion of core against batch_seen, on every prefix."""
    res = SweepResult(f"spacing characterizations M in (2, 3), n <= {n_max}")
    # planned up front, so an n_max over the prefix budget fails before any scan
    blocks = {(M, n): _prefix_blocks(n * M) for M in (2, 3) for n in range(1, n_max + 1)}
    for M in (2, 3):
        ab = AlphaBeta.for_window(M)
        vs = vn_single_recursion(M, n_max)
        for n in range(1, n_max + 1):
            hits = np.zeros((2, 2), dtype=np.int64)  # [first letter, constant/alternating]
            for ys in blocks[M, n]:
                # tail guarantees every letter keeps being hit past the horizon
                tail = np.broadcast_to(np.uint8([1, 0] * (n + 2)), (len(ys), 2 * n + 4))
                ys_ext = np.concatenate([ys, tail], axis=1)
                for first in (1, 0):
                    const = BinaryWord.constant(first, n)
                    seen = batch_seen(np.uint8([const.letters]), ys, M)
                    hits[first, 0] += seen.sum()
                    T = hitting_times(const, ys_ext)
                    _agree(res, f"M={M}, n={n}, constant({first}): spacing test",
                           constant_seen_by_spacings(T, M), seen, ys)

                    alt = BinaryWord.alternating(first, n)
                    seen = batch_seen(np.uint8([alt.letters]), ys, M)
                    hits[first, 1] += seen.sum()
                    # n + 1 hitting times: the deadlines look one letter ahead
                    T = hitting_times(BinaryWord.alternating(first, n + 1), ys_ext)
                    tag = f"M={M}, n={n}, alternating({first})"
                    _agree(res, f"{tag}: window criterion",
                           alternating_seen_by_spacings(T[:, :n], M), seen, ys)
                    _agree(res, f"{tag}: deadline criterion",
                           (T[:, :n] <= s_sequence(T, M)[:, 1:]).all(axis=1), seen, ys)
                    # small spacings see every word
                    if (constant_seen_by_spacings(T[:, :n], M) & ~seen).any():
                        res.fail(f"{tag}: small spacings yet unseen")
            if Fraction(int(hits[1, 0]), 1 << n * M) != ab.alpha ** n:
                res.fail(f"M={M}, n={n}: constant count != alpha^n")
            if Fraction(int(hits[1, 1]), 1 << n * M) != vs[n]:
                res.fail(f"M={M}, n={n}: alternating count != v_n")
        res.note(f"M={M}: all spacing forms match the engine up to n={n_max}")
    return res


def worked_four_letter_example() -> SweepResult:
    """The worked W=(1,1,0,0), M=2 example: spacings (1,1,1,3) after 110110
    and the two-letter extensions that decide visibility."""
    res = SweepResult("four-letter worked example")
    word = BinaryWord.from_string("1100")
    tau = tuple(np.diff(hitting_times(word, "110110")[0], prepend=0).tolist())
    if tau != (1, 1, 1, 3):
        res.fail(f"spacings {tau} != (1, 1, 1, 3)")
    for ext, expect in (("00", True), ("01", True), ("10", True), ("11", False)):
        got = is_m_seen(word, "110110" + ext, 2)
        if got != expect:
            res.fail(f"extension {ext}: seen={got}, expected {expect}")
    if not res.details:
        res.note("spacings and both extensions behave as computed by hand")
    return res


# ---------------------------------------------------------------------------
# thm4: second moments
# ---------------------------------------------------------------------------

def sweep_second_moment() -> SweepResult:
    n_oracle, Ms, n_avg = 4, (2, 3), 6
    res = SweepResult(f"second moments: oracle n <= {n_oracle}, M in {Ms}; "
                      f"random-word identity n <= {n_avg}")
    for M in Ms:
        for n in range(1, n_oracle + 1):
            for letters in product((0, 1), repeat=n):
                w = BinaryWord(letters)
                exact = second_moment_exact(w, M)
                mean, oracle = embedding_count_moments(w, M)
                if exact != oracle:
                    res.fail(f"M={M}, word {w}: walk value {exact} != "
                             f"enumeration {oracle}")
                if mean != expected_embeddings(M, n):
                    res.fail(f"M={M}, word {w}: mean embedding count != "
                             f"(M/2)^n")
    table = renewal_table(2, n_avg)
    for n in range(1, n_avg + 1):
        for M in Ms:
            values = {}
            for letters in product((0, 1), repeat=n):
                w = BinaryWord(letters)
                values[w] = second_moment_exact(w, M)
            if M == 2:
                mean = sum(values.values(), Fraction(0)) / 2 ** n
                expect = random_word_second_moment(2, n, table)
                if mean != expect:
                    res.fail(f"n={n}: word-average {mean} != renewal value {expect}")
            top = max(values.values())
            winners = {w for w, val in values.items() if val == top}
            consts = {BinaryWord.constant(1, n), BinaryWord.constant(0, n)}
            if not consts <= winners:
                res.fail(f"M={M}, n={n}: constant words do not maximize the "
                         f"second moment")
    if res.ok:
        res.note("walk DP = enumeration oracle; renewal identity and constant "
                 "maximizer confirmed")
    return res


# ---------------------------------------------------------------------------
# lemma43: polynomial certificates
# ---------------------------------------------------------------------------

def sweep_polynomial_certificates() -> SweepResult:
    M_coeff_max, grid = 20, 10
    res = SweepResult(f"polynomial certificates: Q >= 0 for M <= {M_coeff_max}, "
                      f"difference grids p,q <= {grid}")
    for M in range(2, M_coeff_max + 1):
        poly = pq_polynomials(M)
        bad = [i for i, c in enumerate(poly.q_coeffs) if c < 0]
        if bad:
            res.fail(f"M={M}: negative cofactor coefficients at {bad}")
    for M in (2, 3, 4, 5):
        ab = AlphaBeta.for_window(M)
        table = u_table(M, grid + 1, grid + 1)
        powers = [[ab.alpha ** p for _ in range(grid + 2)] for p in range(grid + 2)]
        for p in range(grid + 1):
            for q in range(grid + 1):
                if delta_operator(M, powers, p, q) != 0:
                    res.fail(f"M={M}, p={p}, q={q}: difference of alpha^p not zero")
                du = delta_operator(M, table.u, p, q)
                dw = delta_operator(M, table.w, p, q)
                if du > 0:
                    res.fail(f"M={M}, p={p}, q={q}: u difference {du} positive")
                if dw < 0:
                    res.fail(f"M={M}, p={p}, q={q}: w difference {dw} negative")
                if du != -ab.beta * dw:
                    res.fail(f"M={M}, p={p}, q={q}: u and w differences not "
                             f"proportional")
    for M in range(2, 5):
        for p in range(5):
            if not sigma_generating_identity(M, p, 12):
                res.fail(f"M={M}, p={p}: generating identity broken by order 12")
    if res.ok:
        res.note("all certificates hold")
    return res


# ---------------------------------------------------------------------------
# renewal: walk-pair surplus facts
# ---------------------------------------------------------------------------

def sweep_renewal_facts(M_max: int = 6, N: int = 100) -> SweepResult:
    c_tol = 1e-7
    res = SweepResult(f"renewal facts M <= {M_max}, n <= {N}")
    for M in range(1, M_max + 1):
        table = renewal_table(M, N)
        if table.u[1] != Fraction(1, M):
            res.fail(f"M={M}: u_1 = {table.u[1]} != 1/M")
        for n in range(1, N):
            if table.u[n + 1] > table.u[n]:
                res.fail(f"M={M}, n={n}: u not decreasing")
                break
        for n in range(1, N):
            if table.V[n] ** 2 < table.V[n + 1] * table.V[n - 1]:
                res.fail(f"M={M}, n={n}: V log-concavity broken")
                break
        if M == 2:
            for n in range(1, N + 1):
                if table.u[n] != Fraction(comb(2 * n, n), 4 ** n):
                    res.fail(f"M=2, n={n}: u_n != central binomial / 4^n")
                    break
            for n in range(min(50, N)):
                # V_{n+1}/V_n >= 4/3, i.e. V_n (4/3)^-n keeps increasing
                if 3 * table.V[n + 1] < 4 * table.V[n]:
                    res.fail(f"M=2, n={n}: V ratio dropped below 4/3")
                    break
    for M in (2, 3):
        for n in range(1, 6):
            brute = visits_moment_bruteforce(M, n)
            expect = renewal_table(M, n).V[n]
            if brute != expect:
                res.fail(f"M={M}, n={n}: surplus moment {brute} != V_n {expect}")
    c2 = growth_constant(2, tol=1e-9)
    for label, val in (("bisection", c2.by_bisection), ("ratio", c2.by_ratio)):
        if abs(val - 4 / 3) > 1e-9:
            res.fail(f"c_2 by {label} = {val!r} misses 4/3 by more than 1e-9")
    c1 = growth_constant(1, tol=1e-9)
    if abs(c1.by_bisection - 2) > 1e-9:
        res.fail(f"c_1 = {c1.by_bisection!r} misses 2 by more than 1e-9")
    for M in range(2, M_max + 1):
        c = growth_constant(M, tol=c_tol)
        if not c.by_bisection > 1:
            res.fail(f"M={M}: growth constant {c.by_bisection} not above 1")
        if abs(c.by_bisection - c.by_ratio) > 10 * c_tol:
            res.fail(f"M={M}: growth constant methods disagree: "
                     f"{c.by_bisection} vs {c.by_ratio}")
        res.note(f"M={M}: c = {c.by_bisection:.9f}")
    return res


# ---------------------------------------------------------------------------
# coupling: block merges and chains
# ---------------------------------------------------------------------------

def sweep_couplings(samples: int = 10 ** 4, seed: int = 20240817) -> SweepResult:
    res = SweepResult(f"couplings on {samples} seeded samples")
    rng = RngConfig(seed)
    combos = ((0.5, 0.5), (0.3, 0.2), (0.8, 0.9), (0.5, 0.0), (0.5, 1.0))
    for case, (p, p1) in enumerate(combos):
        gen = rng.stream(10, case)
        x_bits = (gen.random(2 * samples) < p).astype(np.uint8)
        x = SequencePrefix(x_bits.tolist())
        out = coupling_F(x, p1, gen)
        try:
            positions = coupling_witness(x, out)
        except ValueError as err:
            res.fail(f"p={p}, p1={p1}: witness failed: {err}")
            continue
        gaps = np.diff(np.concatenate([[0], positions]))
        if not ((1 <= gaps) & (gaps <= 3)).all():
            res.fail(f"p={p}, p1={p1}: witness gaps leave [1, 3]")
        p_out = p * p + 2 * p * (1 - p) * p1
        if 0 < p_out < 1:
            band = 4 * sqrt(p_out * (1 - p_out) / samples)
            emp = float(np.mean(out.bits))
            if abs(emp - p_out) > band:
                res.fail(f"p={p}, p1={p1}: empirical density {emp} misses "
                         f"{p_out} by more than {band}")
        res.note(f"p={p}, p1={p1}: witness holds on all {samples} blocks")

    for p_from, p_to in ((0.5, 0.25), (0.9, 0.1), (0.3, 0.7)):
        stages = plan_parameter_path(p_from, p_to)
        if stages and abs(stages[-1].p_out - p_to) > 1e-12:
            res.fail(f"path {p_from}->{p_to} ends at {stages[-1].p_out}")
        report = coupling_chain_demo(p_from, p_to, length=32, samples=200,
                                     rng=RngConfig(seed + 1))
        if report.witness_failures:
            res.fail(f"chain {p_from}->{p_to}: {report.witness_failures} "
                     f"witness failures")
        if abs(report.empirical - p_to) > report.tolerance:
            res.fail(f"chain {p_from}->{p_to}: density {report.empirical} "
                     f"outside 4 sigma of {p_to}")
        res.note(f"chain {p_from}->{p_to}: {len(stages)} stages, window "
                 f"{report.window}, density {report.empirical:.4f}")
    return res


# ---------------------------------------------------------------------------
# Monte Carlo calibration panel
# ---------------------------------------------------------------------------

PANEL = (
    ("constant", "1111", 2, Fraction(1, 2)),
    ("constant", "000000", 2, Fraction(1, 2)),
    ("constant", "11111", 3, Fraction(1, 2)),
    ("alternating", "1010", 2, Fraction(1, 2)),
    ("alternating", "010101", 2, Fraction(1, 2)),
    ("alternating", "10101010", 2, Fraction(1, 2)),
    ("alternating", "10101", 3, Fraction(1, 2)),
    ("two-block", "1100", 2, Fraction(1, 2)),
    ("two-block", "11100", 2, Fraction(1, 2)),
    ("two-block", "11000", 3, Fraction(1, 2)),
    ("explicit", "1101", 2, Fraction(1, 2)),
    ("explicit", "10010", 2, Fraction(1, 2)),
    ("explicit", "11010", 3, Fraction(1, 2)),
    ("explicit", "101101", 2, Fraction(1, 2)),
    ("constant", "1111", 2, Fraction(1, 3)),
    ("alternating", "1010", 2, Fraction(1, 3)),
    ("alternating", "101010", 2, Fraction(2, 3)),
    ("two-block", "1100", 3, Fraction(1, 3)),
    ("explicit", "1100", 2, Fraction(3, 5)),
    ("explicit", "1001", 4, Fraction(1, 2)),
)


def mc_panel() -> SweepResult:
    from .montecarlo import estimate_seen_probability
    trials, seed = 10 ** 5, 20240818
    res = SweepResult(f"Monte Carlo panel, {trials} trials per case")
    passing = 0
    for case, (family, bits, M, p) in enumerate(PANEL):
        word = BinaryWord.from_string(bits)
        exact = float(exact_seen_probability(word, M, p))
        est = estimate_seen_probability(word, M, float(p), trials,
                                        RngConfig(seed + case))
        band = 4 * sqrt(exact * (1 - exact) / trials)
        hit = abs(est.estimate - exact) <= band
        passing += hit
        mark = "ok" if hit else "MISS"
        res.note(f"{family} {bits} M={M} p={p}: exact {exact:.6f} "
                 f"estimate {est.estimate:.6f} [{mark}]")
    if passing < 19:
        res.fail(f"only {passing}/{len(PANEL)} cases within 4 standard errors")
    else:
        res.note(f"{passing}/{len(PANEL)} cases within 4 standard errors")
    return res


def red_grid_equivalence() -> SweepResult:
    cases = 1000
    res = SweepResult(f"red-grid path existence vs the engine on {cases} cases")
    gen = RngConfig(20240819).stream(42)
    for _ in range(cases):
        n = int(gen.integers(1, 7))
        M = int(gen.integers(2, 4))
        word = BinaryWord(tuple(int(b) for b in gen.integers(0, 2, n)))
        seq = SequencePrefix(tuple(int(b) for b in gen.integers(0, 2, n * M)))
        by_grid = admissible_path_exists(red_grid(word, seq), M)
        by_engine = is_m_seen(word, seq, M)
        if by_grid != by_engine:
            res.fail(f"word {word}, sequence {seq}, M={M}: grid says "
                     f"{by_grid}, engine says {by_engine}")
            break
    if res.ok:
        res.note("grid paths and the engine agree everywhere")
    return res


def _thm3_combined(n_max: int | None = None) -> SweepResult:
    if n_max is None:
        first = sweep_spacing_equivalences()
        merged = SweepResult("spacing characterizations + worked example")
    else:
        first = sweep_spacing_equivalences(n_max=n_max)
        merged = SweepResult(f"spacing characterizations n <= {n_max}")
    second = worked_four_letter_example()
    merged.ok = first.ok and second.ok
    merged.details = first.details + second.details
    merged.counterexample = first.counterexample or second.counterexample
    return merged


# suite name -> (function name, {flag: keyword argument}) for `wordseen
# verify`; a flag missing from a suite's map is one that suite does not take.
# Functions are looked up by name when a suite runs, so a wrapper rebound to
# the module attribute (perfbench's tracer, a test's monkeypatch) is called.
SUITES = {
    "thm1a": ("sweep_max_word", {"M": "M", "n": "n_max"}),
    "thm1b": ("sweep_two_block_chain", {"n": "total_max"}),
    "thm3": ("_thm3_combined", {"n": "n_max"}),
    "thm4": ("sweep_second_moment", {}),
    "lemma43": ("sweep_polynomial_certificates", {}),
    "renewal": ("sweep_renewal_facts", {"M": "M_max", "N": "N"}),
    "coupling": ("sweep_couplings", {"trials": "samples", "seed": "seed"}),
}


def run_suite(name: str, **flags) -> SweepResult:
    """Run a suite with the given flags; a flag it does not take is an error."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}, expected one of {sorted(SUITES)}")
    fn_name, accepted = SUITES[name]
    extra = sorted(set(flags) - set(accepted))
    if extra:
        raise ValueError(f"suite {name} does not take "
                         + ", ".join(f"--{flag}" for flag in extra))
    return globals()[fn_name](**{accepted[flag]: value
                                 for flag, value in flags.items()})
