"""Embedding-count moments and the growth constant of the pair-walk surplus.

N_n counts admissible embeddings of a length-n word.  Its mean is (M/2)^n
for every word; the second moment couples two embedding walks and pays a
factor 2 * [letters agree] at every index pair where they coincide.  For a
uniformly random word the coincidence surplus collapses to a renewal
sequence whose growth constant c_M > 1 solves E(c^-tau) = 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

import numpy as np

from .core import WordLike, as_word, count_embeddings_packed, _check_window


def expected_embeddings(M: int, n: int) -> Fraction:
    """E(N_n) = (M/2)^n, independent of the word."""
    _check_window(M)
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    return Fraction(M, 2) ** n


def second_moment_exact(word: WordLike, M: int) -> Fraction:
    """E(N_n^2) by a frontier walk over the two embedding position sequences.

    The state is (r, s, lead): J has placed r letters, K has placed s, and
    lead = K_s - J_r >= 0.  J, the walk behind, always takes the next step;
    when it overtakes K the two walks swap names, which changes no weight
    because the pair weight is symmetric.  Landing on lead = 0 registers the
    coincidence: factor 2 if the word letters agree, prune if they differ.
    A branch that can no longer coincide after t steps counts once for each
    of the M^(2n-t) ways to finish, and the pair sum is divided by 4^n once.
    """
    w = as_word(word)
    _check_window(M)
    n = w.n
    letters = w.letters
    level = {(0, 0, 0): 1}
    done = 0
    for t in range(2 * n + 1):
        nxt: dict[tuple[int, int, int], int] = {}
        for (r, s, lead), count in level.items():
            if r == n or (lead == 0 and s == n):
                done += count * M ** (2 * n - t)
                continue
            for a in range(1, M + 1):
                new, piece = lead - a, count
                if new < 0:
                    key = (s, r + 1, -new)
                elif new > 0:
                    key = (r + 1, s, new)
                elif letters[r] == letters[s - 1]:
                    key, piece = (r + 1, s, 0), 2 * count
                else:
                    continue
                nxt[key] = nxt.get(key, 0) + piece
        level = nxt
    return Fraction(done, 4 ** n)


def second_moment_pairsum(word: WordLike, M: int) -> Fraction:
    """Direct sum over all M^(2n) pairs of admissible position sequences:
    each pair weighs (1/2)^(2n - shared) when every coincident index pair
    carries equal letters, else 0.  Oracle-sized only."""
    w = as_word(word)
    _check_window(M)
    n = w.n
    if n == 0:
        return Fraction(1)
    if M ** (2 * n) > 4 * 10 ** 6:
        raise ValueError(f"pair enumeration M^(2n) = {M ** (2 * n)} exceeds the budget")
    walks = []
    for gaps in product(range(1, M + 1), repeat=n):
        pos, acc = [], 0
        for g in gaps:
            acc += g
            pos.append(acc)
        walks.append(tuple(pos))
    total = Fraction(0)
    for j_pos in walks:
        for k_pos in walks:
            k_set = {m: s for s, m in enumerate(k_pos)}
            shared = 0
            ok = True
            for r, m in enumerate(j_pos):
                s = k_set.get(m)
                if s is None:
                    continue
                if w.letters[r] != w.letters[s]:
                    ok = False
                    break
                shared += 1
            if ok:
                total += Fraction(1, 2 ** (2 * n - shared))
    return total


def second_moment_oracle(word: WordLike, M: int, max_bits: int = 20) -> Fraction:
    """Average N_n^2 over all 2^(n*M) equally likely prefixes."""
    w = as_word(word)
    _check_window(M)
    L = w.n * M
    if L > max_bits:
        raise ValueError(f"exhaustive sweep over 2^{L} prefixes exceeds the "
                         f"{max_bits}-bit budget")
    total = 0
    for y in range(1 << L):
        total += count_embeddings_packed(w.letters, y, L, M) ** 2
    return Fraction(total, 1 << L)


# ---------------------------------------------------------------------------
# random word: renewal collapse of the coincidence surplus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RenewalTable:
    """u_n = P(the two walks meet at step n), the renewal sequence r_n it
    drives, and the partial sums V_n = sum_{k<=n} r_k."""

    M: int
    u: tuple[Fraction, ...]   # u[0] unused placeholder 1, meaningful from 1
    r: tuple[Fraction, ...]
    V: tuple[Fraction, ...]

    @property
    def N(self) -> int:
        return len(self.r) - 1


def _walk_rows(M: int, step):
    """Rows n = 0, 1, 2, ...: row[l] weighs the n-step walks with steps in
    {1..M} that sum to l.  step=1 counts them in integers (numpy object
    arrays); step=1.0/M gives their probabilities as float64.

    Each row is built by M shift-adds, s = M down to 1, so every cell adds
    its terms row[l] * step with l ascending; the float rows, and with them
    the growth-constant digits, are pinned to that order bit for bit."""
    dtype = object if isinstance(step, int) else np.float64
    row = np.ones(1, dtype=dtype)
    while True:
        yield row
        nxt = np.zeros(len(row) + M, dtype=dtype)
        term = row * step
        for s in range(M, 0, -1):
            nxt[s:s + len(row)] += term
        row = nxt


def _left_sum(terms: np.ndarray):
    """terms[0] + terms[1] + ... added left to right, as sum() does; np.sum
    and np.dot add pairwise and would change the last bits."""
    return np.cumsum(terms)[-1]


def renewal_table(M: int, N: int) -> RenewalTable:
    """Exact u, r, V up to index N:
    u_n = sum_l P(J_n = l)^2, r_n = sum_{k=1}^n u_k r_{n-k}, r_0 = 1.

    Runs on the integers U_n = u_n M^(2n) and R_n = r_n M^(2n), for which
    the renewal convolution reads R_n = sum_k U_k R_(n-k)."""
    _check_window(M)
    if N < 0:
        raise ValueError(f"table size must be >= 0, got {N}")
    U = [_left_sum(row * row) for row in islice(_walk_rows(M, 1), N + 1)]
    R = [1]
    for n in range(1, N + 1):
        R.append(sum(U[k] * R[n - k] for k in range(1, n + 1)))
    u, r, V = [], [], []
    W = 0  # V_n M^(2n)
    for n in range(N + 1):
        W = W * M * M + R[n]
        scale = M ** (2 * n)
        u.append(Fraction(U[n], scale))
        r.append(Fraction(R[n], scale))
        V.append(Fraction(W, scale))
    return RenewalTable(M, tuple(u), tuple(r), tuple(V))


def random_word_second_moment(M: int, n: int, table: RenewalTable | None = None) -> Fraction:
    """E(N_n(X)^2) for a uniformly random word X: (M/2)^(2n) * V_n."""
    if table is None:
        table = renewal_table(M, n)
    if table.M != M or table.N < n:
        raise ValueError(f"renewal table (M={table.M}, N={table.N}) does not cover "
                         f"M={M}, n={n}")
    return Fraction(M, 2) ** (2 * n) * table.V[n]


def visits_moment_bruteforce(M: int, n: int) -> Fraction:
    """E(2^Z_n) over all M^(2n) walk pairs, Z_n = coincidences by step n.
    The renewal identity says this equals V_n."""
    _check_window(M)
    if n < 0:
        raise ValueError(f"walk length must be >= 0, got {n}")
    if M ** (2 * n) > 4 * 10 ** 6:
        raise ValueError(f"enumeration M^(2n) = {M ** (2 * n)} exceeds the budget")
    total = 0
    for a_steps in product(range(1, M + 1), repeat=n):
        a_pos = []
        acc = 0
        for g in a_steps:
            acc += g
            a_pos.append(acc)
        for b_steps in product(range(1, M + 1), repeat=n):
            z = 0
            acc = 0
            for i, g in enumerate(b_steps):
                acc += g
                if acc == a_pos[i]:
                    z += 1
            total += 2 ** z
    return Fraction(total, M ** (2 * n))


# ---------------------------------------------------------------------------
# growth constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthConstant:
    """c_M > 1 with E(c^-tau) = 1/2, tau the meeting-time of the two walks.

    by_bisection solves U(x) = sum u_n x^n = 2 (the first-meeting generating
    function is F = 1 - 1/U, so U(1/c) = 2 is the same equation) and is the
    value to use; by_ratio tracks the decreasing ratios V_{n+1}/V_n to the
    same limit and adds their geometric tail.
    """

    M: int
    by_bisection: float
    by_ratio: float
    tol: float


def growth_constant(M: int, tol: float = 1e-9, max_terms: int = 200_000) -> GrowthConstant:
    """Locate c_M two independent ways and package both values.

    Bisection brackets U(x) = 2 rigorously: the partial sum is a certain
    lower bound for U(x) and adding the geometric tail u_1 x^(N+1)/(1-x)
    (u_n is decreasing) gives an upper bound; N grows until every verdict
    is unambiguous.  The ratio route iterates V_{n+1}/V_n, whose steps
    Delta_n shrink geometrically, until the tail estimate
    |Delta_n| q/(1-q) with q = Delta_n/Delta_(n-1) drops below tol/10, and
    reports the ratio plus that tail.
    """
    _check_window(M)
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tol}")

    rows = _walk_rows(M, 1.0 / M)
    u: list[float] = []

    def extend(size: int) -> None:
        while len(u) < size:
            row = next(rows)
            u.append(float(_left_sum(row * row)))

    extend(257)
    u1 = u[1]

    def verdict(x: float) -> int:
        # +1 if U(x) > 2, -1 if U(x) < 2, growing the series as needed
        while True:
            partial = 0.0
            xn = 1.0
            for val in u:
                partial += val * xn
                xn *= x
            tail = u1 * xn / (1.0 - x)
            if partial > 2.0:
                return 1
            if partial + tail < 2.0:
                return -1
            if 2 * len(u) > max_terms:
                raise RuntimeError(
                    f"series for U(x) at x={x} did not settle within "
                    f"{max_terms} terms")
            extend(2 * len(u) + 1)

    lo, hi = 0.0, 1.0 - 1e-12  # U(lo) = 1 < 2; U(x) -> infinity as x -> 1
    while verdict(hi) < 0:
        hi = (1.0 + hi) / 2  # defensive; cannot run away since U diverges
    while (1.0 / lo if lo else float("inf")) - 1.0 / hi > tol / 4:
        mid = (lo + hi) / 2
        if verdict(mid) > 0:
            hi = mid
        else:
            lo = mid
    by_bisection = 2.0 / (lo + hi)

    # ratio route: V_{n+1}/V_n decreases to c_M with geometric steps
    r = [1.0]
    V = [1.0]
    ratio = delta = None
    by_ratio = None
    n = 0
    while by_ratio is None:
        n += 1
        if n > max_terms:
            raise RuntimeError(f"ratio iteration did not settle within {max_terms} steps")
        extend(n + 1)
        r.append(float(_left_sum(np.array(u[1:n + 1]) * r[n - 1::-1])))
        V.append(V[-1] + r[-1])
        prev_ratio, ratio = ratio, V[-1] / V[-2]
        if prev_ratio is None:
            continue
        prev_delta, delta = delta, ratio - prev_ratio
        if prev_delta is None:
            continue
        q = delta / prev_delta if prev_delta else 0.0
        if 0 <= q < 1 and abs(delta) * q / (1 - q) < tol / 10:
            by_ratio = ratio + delta * q / (1 - q)

    out = GrowthConstant(M, by_bisection, by_ratio, tol)
    assert out.by_bisection > 1
    return out
