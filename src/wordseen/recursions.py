"""Exact recursions and certificates for alternating-word and two-block probabilities.

Notation fixed throughout: alpha = 1 - 2^-M, beta = 2^-M; v_n is the exact
probability that the alternating word of length n is M-seen, v_n' the
probability that its leftmost embedding needs the full window on the first
step (equivalently, starts at position M).  sigma_{p,j} and the u/w/delta
grids support the sandwich P(two-block seen) <= u_{p,q} <= v_{p+q}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, sqrt
from typing import Iterable

import numpy as np

from .core import BinaryWord, WordLike, as_word
from .exactprob import exact_seen_probability

# v_n has n*M bits of denominator, so a table to N holds about N^2*M/2 bits
# and costs as many bit operations: the v_n tables refuse N^2*M over this.
_VN_BUDGET = 1 << 24
# Largest p or q of a two-block grid.
_GRID_MAX = 40


def _certify(holds: bool, what: str) -> None:
    """Raise AssertionError naming a certificate that fails; unlike assert, it
    also runs under python -O."""
    if not holds:
        raise AssertionError(f"certificate fails: {what}")


def _inv_beta(M: int) -> int:
    """1/beta = 2^M for a window M >= 2, where alpha - M*beta > 0 (2^M > 1 + M),
    which everything in this module needs."""
    if M < 2:
        raise ValueError(f"window M must be >= 2, got {M}")
    return 1 << M


def alpha_beta(M: int) -> tuple[Fraction, Fraction]:
    """The pair alpha = 1 - 2^-M, beta = 2^-M for a window M >= 2."""
    beta = Fraction(1, _inv_beta(M))
    return 1 - beta, beta


def _check_n(M: int, N: int) -> None:
    """Refuse a negative table size, or a table to N over _VN_BUDGET, before
    _inv_beta builds 2^M."""
    if N < 0:
        raise ValueError(f"table size must be >= 0, got {N}")
    if N * N * M > _VN_BUDGET:
        raise ValueError(f"v_n table to n = {N} at M = {M} is over the budget: "
                         f"N^2*M = {N * N * M} > {_VN_BUDGET}")


@dataclass(frozen=True)
class VnTable:
    """v_n and v_n', n = 0..N."""

    v: tuple[Fraction, ...]
    vprime: tuple[Fraction, ...]

    def ratio(self, n: int) -> Fraction:
        """v_{n+1} / v_n."""
        return self.v[n + 1] / self.v[n]


def _dyadic(numerators, M: int) -> list[Fraction]:
    """The n-th numerator over 2^(M*n), for n = 0, 1, 2, ..."""
    return [Fraction(x, 1 << M * n) for n, x in enumerate(numerators)]


def vn_pair_recursion(M: int, N: int) -> VnTable:
    """Fill v/v' by the coupled two-term recursion:

    v_n = alpha*v_{n-1} + (alpha - M*beta)*v'_{n-1}
    v'_n = beta*v_{n-1} + (M-1)*beta*v'_{n-1}

    run on the integers V_n = v_n 2^(Mn) and V'_n = v'_n 2^(Mn).
    """
    _check_n(M, N)
    A = _inv_beta(M)
    V, Vp = [1], [0]
    for _ in range(N):
        V.append((A - 1) * V[-1] + (A - 1 - M) * Vp[-1])
        Vp.append(V[-2] + (M - 1) * Vp[-1])
    return VnTable(tuple(_dyadic(V, M)), tuple(_dyadic(Vp, M)))


def _vn_numerators(M: int, N: int) -> list[int]:
    """V_n = v_n 2^(Mn), n = 0..N, by the single recursion times 2^(M(n+1)):
    V_{n+1} = (2^M + M - 2) V_n - (M 2^M - 2^(M+1) + 2) V_{n-1}."""
    _check_n(M, N)
    A = _inv_beta(M)
    V = [1, A - 1]
    while len(V) < N + 1:
        V.append((A + M - 2) * V[-1] - (M * A - 2 * A + 2) * V[-2])
    return V[:N + 1]


def vn_single_recursion(M: int, N: int) -> list[Fraction]:
    """Same v_n by the uncoupled second-order recursion
    v_{n+1} = (alpha + (M-1)*beta)*v_n - beta*(M - 2*alpha)*v_{n-1}."""
    return _dyadic(_vn_numerators(M, N), M)


@dataclass(frozen=True)
class CharPoly:
    """lambda^2 + b*lambda + c annihilating the v_n recursion, with its two
    real roots isolated in (0, M*beta) and (alpha, 1)."""

    b: Fraction
    c: Fraction
    root_small: float
    root_large: float


def char_poly(M: int) -> CharPoly:
    """Characteristic polynomial of the single recursion; the sign pattern
    f(0) > 0 > f(M*beta), f(alpha) < 0 < f(1) = 2*beta^2 pins one root below
    M*beta and one in (alpha, 1)."""
    alpha, beta = alpha_beta(M)
    b = -(alpha + (M - 1) * beta)
    c = beta * (M - 2 * alpha)
    f = lambda x: x * x + b * x + c
    _certify(f(Fraction(0)) > 0, f"M={M}: f(0) > 0")
    _certify(f(M * beta) < 0, f"M={M}: f(M*beta) < 0")
    _certify(f(alpha) < 0, f"M={M}: f(alpha) < 0")
    _certify(f(Fraction(1)) == 2 * beta ** 2 > 0, f"M={M}: f(1) = 2*beta^2 > 0")
    # -b > 0, so the larger root adds two positives; Vieta gives the smaller
    large = (-float(b) + sqrt(b * b - 4 * c)) / 2
    return CharPoly(b, c, float(c) / large, large)


# ---------------------------------------------------------------------------
# two-block machinery: sigma, u, w, delta
# ---------------------------------------------------------------------------

def _sigma_row(M: int, p: int, J: int) -> list[int]:
    """2^(Mp) sigma_closed_form(M, p, j) for j = 0..J, an integer, its inner
    sums running in j."""
    _inv_beta(M)  # checks the window
    if p < 0 or J < 0:
        raise ValueError(f"indices must be >= 0, got ({p}, {J})")
    inner = [sum(comb(i * M, l) for l in range(p)) for i in range(p + 1)]
    row = []
    for j in range(J + 1):
        row.append(sum((-1) ** (p - i) * comb(p, i) * s for i, s in enumerate(inner)))
        inner = [s + comb(i * M, p + j) for i, s in enumerate(inner)]
    return row


def sigma_closed_form(M: int, p: int, j: int) -> Fraction:
    """P(first p spacings all <= M and T_{p+j} > p*M), in closed form:
    beta^p * sum_i sum_l (-1)^(p-i) C(p,i) C(i*M, l), l < p + j."""
    return Fraction(_sigma_row(M, p, j)[j], 1 << M * p)


def sigma_oracle(M: int, p: int, j: int) -> tuple[Fraction, Fraction]:
    """Oracle: (sigma, sigma') by exact dynamic programming over the
    spacing chain; cross-checks sigma_closed_form (the two-block sweep
    compares them for p + j <= 8).

    Walks T_1..T_{p+j} with iid geometric(1/2) spacings; the first p steps
    are conditioned on spacing <= M by dropping violating mass, later steps
    keep an overflow bucket for T > p*M.  Spacing paths are counted in
    integers: a path to T = t weighs 2^-t, and one that overflows weighs
    2^-(p*M) in total.  Independent of the closed form.
    """
    _inv_beta(M)  # checks the window
    if p < 0 or j < 0:
        raise ValueError(f"indices must be >= 0, got ({p}, {j})")
    horizon = p * M
    paths = {0: 1}  # T -> number of spacing paths that reach it
    over = 0
    for step in range(1, p + j + 1):
        nxt: dict[int, int] = {}
        for t, count in paths.items():
            # tau <= M keeps T within p*M in the first p steps: no overflow
            top = M if step <= p else horizon - t
            for new in range(t + 1, t + top + 1):
                nxt[new] = nxt.get(new, 0) + count
            if step > p:
                over += count
        paths = nxt
    scale = 1 << horizon
    sigma_prime = sum(count << (horizon - t) for t, count in paths.items())
    return Fraction(over, scale), Fraction(sigma_prime, scale)


@dataclass(frozen=True)
class TwoBlockTable:
    """Grids sigma, sigma', u, w, delta for p <= P, j (or q) <= Q.

    u[p][q] bounds the seen probability of the word with p ones then q zeros
    from above; delta[p][q] = v_{p+q} - u[p][q] is its distance below the
    alternating-word value.
    """

    P: int
    Q: int
    sigma: tuple[tuple[Fraction, ...], ...]
    sigma_prime: tuple[tuple[Fraction, ...], ...]
    u: tuple[tuple[Fraction, ...], ...]
    w: tuple[tuple[Fraction, ...], ...]
    delta: tuple[tuple[Fraction, ...], ...]


def _two_block_grids(M: int, P: int, Q: int) -> tuple[list[list[int]], ...]:
    """sigma, sigma', u, w and delta of u_table, each entry an integer over
    the one denominator 2^(M(P+Q)).

    Entry (p, q) of each grid is a multiple of 2^-(M(p+q)), so every
    alpha*x = x - (x >> M) and beta*x = x >> M below drops only zero bits.
    """
    A = _inv_beta(M)
    if P < 0 or Q < 0:
        raise ValueError(f"grid bounds must be >= 0, got ({P}, {Q})")
    if max(P, Q) > _GRID_MAX:
        raise ValueError(f"grid bound {max(P, Q)} exceeds the desk-scale budget")
    K = P + Q
    alpha_p = [(A - 1) ** p << M * (K - p) for p in range(P + 1)]
    sigma = [[s << M * (K - p) for s in _sigma_row(M, p, Q)] for p in range(P + 1)]
    sigma_prime = [[a - s for s in row] for a, row in zip(alpha_p, sigma)]

    u, w = [], []
    for p in range(P + 1):
        # alpha^(p+q) + beta*sum_j alpha^(q-j) sigma'_{p,j} and
        # w = sum_j alpha^(q-j) sigma_{p,j} over j = 1..q, one step in q at a time
        from_prime, w_val = alpha_p[p], 0
        u_row, w_row = [], []
        for q in range(Q + 1):
            if q:
                from_prime += (sigma_prime[p][q] >> M) - (from_prime >> M)
                w_val += sigma[p][q] - (w_val >> M)
            from_sigma = alpha_p[p] - (w_val >> M)
            _certify(from_prime == from_sigma, f"u expressions agree at M={M}, p={p}, q={q}")
            u_row.append(from_sigma)
            w_row.append(w_val)
        u.append(u_row)
        w.append(w_row)

    V = _vn_numerators(M, K)
    delta = [[(V[p + q] << M * (K - p - q)) - u[p][q] for q in range(Q + 1)]
             for p in range(P + 1)]
    return sigma, sigma_prime, u, w, delta


def u_table(M: int, P: int, Q: int) -> TwoBlockTable:
    """Build the two-block grids from the sigma closed form.

    sigma' is the exact complement alpha^p - sigma; u is computed through
    both of its series expressions (one in sigma', one in sigma) and the two
    must agree entry by entry.
    """
    grids = _two_block_grids(M, P, Q)
    D = 1 << M * (P + Q)
    return TwoBlockTable(P, Q, *(tuple(tuple(Fraction(x, D) for x in row) for row in grid)
                                 for grid in grids))


def delta_operator(M: int, grid, p: int, q: int):
    """2^(2M) times the mixed difference f_{p+1,q+1} - M*beta*f_{p,q+1}
    - (alpha-beta)*f_{p+1,q} + beta*(M-2*alpha)*f_{p,q} on any grid: the
    scale makes every coefficient an integer and keeps signs and zeros."""
    A = _inv_beta(M)
    if p < 0 or q < 0 or p + 1 >= len(grid) or q + 1 >= len(grid[p + 1]):
        raise ValueError(f"grid too small for the difference at ({p}, {q})")
    return (A * A * grid[p + 1][q + 1] - M * A * grid[p][q + 1]
            - A * (A - 2) * grid[p + 1][q] + (M * A - 2 * A + 2) * grid[p][q])


@dataclass(frozen=True)
class PolyPQ:
    """Certificate pair: P with P(1) = 0 and vanishing low-order terms, and
    Q = P / (1 - x) whose coefficients are the partial sums of P's."""

    p_coeffs: tuple[Fraction, ...]
    q_coeffs: tuple[Fraction, ...]


def pq_polynomials(M: int) -> PolyPQ:
    """P(x) = (1+x)^M [1-(alpha-beta)x] - 1 - (M+beta-alpha)x + x^2(M-2alpha)
    and its cofactor Q, with the structural identities certified on the
    integer coefficients of 2^M P and 2^M Q."""
    A = _inv_beta(M)
    binom = [comb(M, k) for k in range(M + 1)] + [0]
    # (1+x)^M [2^M - (2^M - 2)x], as 2^M (alpha - beta) = 2^M - 2
    p_coeffs = [A * c - (A - 2) * prev for prev, c in zip([0] + binom, binom)]
    p_coeffs[0] -= A
    p_coeffs[1] -= M * A - A + 2
    p_coeffs[2] += M * A - 2 * A + 2

    _certify(sum(p_coeffs) == 0, f"M={M}: P(1) = 0")  # 2^M (1 - alpha + beta) - 2
    _certify(p_coeffs[0] == 0 and p_coeffs[1] == 0, f"M={M}: P's x^0 and x^1 terms vanish")
    _certify(p_coeffs[2] == A * binom[2] - 2 * (A - 1 - M), f"M={M}: P's x^2 term")
    for k in range(3, M + 2):
        _certify(p_coeffs[k] == A * binom[k] - (A - 2) * binom[k - 1], f"M={M}: P's x^{k} term")

    q_coeffs = list(accumulate(p_coeffs[:-1]))
    _certify(q_coeffs[-1] + p_coeffs[-1] == 0, f"M={M}: (1 - x) divides P")
    # partial-sum identity: for 2 <= l <= M the coefficient of x^l in Q is
    # C(M,l) - 2*beta*sum_{k=l}^M C(M,k), equal to 1 - 2*beta at l = M
    for l in range(2, M + 1):
        _certify(q_coeffs[l] == A * binom[l] - 2 * sum(binom[l:]), f"M={M}: Q's x^{l} term")
    _certify(q_coeffs[M] == A - 2, f"M={M}: Q's x^M term is 1 - 2*beta")
    return PolyPQ(tuple(Fraction(c, A) for c in p_coeffs),
                  tuple(Fraction(c, A) for c in q_coeffs))


def sigma_generating_identity(M: int, p: int, order: int) -> bool:
    """Compare (1-x) * sum_j sigma_{p,j} x^(j-1) with
    beta^p x^-p [(1+x)^M - 1]^p coefficient by coefficient up to the order,
    both sides times 2^(Mp)."""
    _inv_beta(M)  # checks the window
    if p < 0 or order < 0:
        raise ValueError(f"indices must be >= 0, got p={p}, order={order}")

    base = np.array([comb(M, k) for k in range(M + 1)], dtype=object)
    base[0] -= 1  # (1+x)^M - 1
    power = np.ones(1, dtype=object)  # object dtype: exact
    for _ in range(p):
        power = np.convolve(power, base)
    rhs = list(power[p:]) + [0] * (order + 1)  # zero past the degree

    sig = _sigma_row(M, p, order + 1)
    return all(c == 0 for c in power[:p]) and all(  # divisible by x^p, then equal
        (sig[1] if t == 0 else sig[t + 1] - sig[t]) == rhs[t] for t in range(order + 1))


# ---------------------------------------------------------------------------
# window-2 suffix bounds behind the exact maximality proof
# ---------------------------------------------------------------------------

def verify_suffix_bounds_m2(words: Iterable[WordLike]) -> list[BinaryWord]:
    """Exact suffix bookkeeping for window 2: the words whose row breaks,
    shortest first, among the given words and all their suffixes.

    Split P(u) = P(u is 2-seen) by where the leftmost embedding starts, and
    let r be u without its first letter: the start at 1, P1(u), halves P(r)
    exactly (the first letter either matches at position 1 or it does not),
    while the start at 2, P(u) - P1(u), only obeys the one-sided quarter
    bound; together these force P(u) <= v_|u|.  At p = 1/2 a word and its
    complement share P and P1, so each pair is computed once, from the
    member starting with 0, against one v_n table.
    """
    M = 2
    rows = {w.suffix(m) for w in map(as_word, words) for m in range(1, w.n + 1)}
    vtab = vn_pair_recursion(M, max((u.n for u in rows), default=0))
    P = {BinaryWord(()): Fraction(1)}
    P1 = {}
    for u in {u if u.letters[0] == 0 else u.complement() for u in rows}:
        P[u] = P[u.complement()] = exact_seen_probability(u, M)
        P1[u] = P1[u.complement()] = exact_seen_probability(u, M, first_gap=1)

    def holds(u: BinaryWord) -> bool:
        r = u.suffix(u.n - 1)
        start2 = P[u] - P1[u]
        if u.n == 1:
            quarter = start2 == Fraction(1, 4)
        else:
            quarter = start2 <= (P[r] - P1[r]) / 4 + P[r] / 4
        return P1[u] == P[r] / 2 and quarter and P[u] <= vtab.v[u.n]

    return [u for u in sorted(rows, key=lambda u: (u.n, u.letters)) if not holds(u)]
