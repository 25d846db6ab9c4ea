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
from itertools import accumulate, islice, product

import numpy as np

from .core import WordLike, _check_window, _prefix_blocks, as_word, count_embeddings

# Walk pairs M^(2n) the pair enumerations may visit.
_PAIR_BUDGET = 4 * 10 ** 6
# Cells (walk pair, step) visits_moment_bruteforce compares at a time.
_BLOCK_CELLS = 1 << 20
# Series terms, and ratio steps, growth_constant may take before giving up.
_MAX_TERMS = 200_000
# The float series starts at _FIRST_TERMS terms and grows _MORE_TERMS at a
# time until every verdict settles: term n costs about n*M^2 flops, so a step
# that doubled the series could build twice the terms it reads.
_FIRST_TERMS = 65
_MORE_TERMS = 32
# Largest window growth_constant takes.  The terms it needs grow with M, so
# the series costs about N^2 M^2: M = 24 builds 3,457 rows in about 2.4 s.
_GROWTH_MAX_M = 24


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


def _walk_positions(M: int, n: int) -> list[tuple[int, ...]]:
    """The M^n position sequences of an n-step walk with steps in 1..M, for
    the oracles that pair them up: n*M^n positions over _BLOCK_CELLS or M^(2n)
    pairs over _PAIR_BUDGET are refused before any walk is built."""
    if n * M ** min(n, 21) > _BLOCK_CELLS:  # M^21 > _BLOCK_CELLS once M >= 2
        raise ValueError(f"{M}^{n} walks of {n} positions exceed {_BLOCK_CELLS} cells")
    if M ** (2 * n) > _PAIR_BUDGET:
        raise ValueError(f"pair enumeration M^(2n) = {M ** (2 * n)} exceeds the budget")
    return [tuple(accumulate(gaps)) for gaps in product(range(1, M + 1), repeat=n)]


def second_moment_pairsum(word: WordLike, M: int) -> Fraction:
    """Oracle: E(N_n^2) as a direct sum over all M^(2n) pairs of admissible
    position sequences, the walk-side cross-check of second_moment_exact.
    Each pair weighs 2^shared / 4^n when every coincident index pair
    carries equal letters, else 0."""
    w = as_word(word)
    _check_window(M)
    n = w.n
    walks = _walk_positions(M, n)
    index_at = [{m: s for s, m in enumerate(pos)} for pos in walks]
    total = 0
    for j_pos in walks:
        for k_set in index_at:
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
                total += 1 << shared
    return Fraction(total, 4 ** n)


def embedding_count_moments(word: WordLike, M: int) -> tuple[Fraction, Fraction]:
    """Oracle: (E N_n, E N_n^2) averaged over all 2^(n*M) equally likely
    prefixes, counting a block of prefixes at a time with count_embeddings.
    The thm4 sweep holds the first against (M/2)^n and the second against
    second_moment_exact."""
    w = as_word(word)
    _check_window(M)
    L = w.n * M
    total = square = 0
    for ys in _prefix_blocks(L):
        # N <= M^n <= 2^(nM) <= 2^20 under the prefix budget, so the int64
        # sums stay below 2^60
        count = count_embeddings(w.letters, ys, M)
        total += int(count.sum())
        square += int((count * count).sum())
    return Fraction(total, 1 << L), Fraction(square, 1 << L)


def second_moment_oracle(word: WordLike, M: int) -> Fraction:
    """Oracle: E(N_n^2) over all 2^(n*M) prefixes, cross-checking second_moment_exact."""
    return embedding_count_moments(word, M)[1]


# ---------------------------------------------------------------------------
# random word: renewal collapse of the coincidence surplus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RenewalTable:
    """u_n = P(the two walks meet at step n), the renewal sequence r_n it
    drives, and the partial sums V_n = sum_{k<=n} r_k."""

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
    """terms[0] + terms[1] + ... in left-to-right order, pinned: np.sum and
    np.dot add pairwise, and float sum() compensates from Python 3.12, so
    either would change the last bits."""
    return terms.cumsum()[-1]


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
    W = accumulate(R, lambda w, x: w * M * M + x)  # V_n M^(2n)
    scales = [M ** (2 * n) for n in range(N + 1)]
    return RenewalTable(*(tuple(map(Fraction, xs, scales)) for xs in (U, R, W)))


def random_word_second_moment(M: int, n: int) -> Fraction:
    """E(N_n(X)^2) for a uniformly random word X: (M/2)^(2n) * V_n."""
    return Fraction(M, 2) ** (2 * n) * renewal_table(M, n).V[n]


def visits_moment_bruteforce(M: int, n: int) -> Fraction:
    """Oracle: E(2^Z_n) over all M^(2n) walk pairs, Z_n = coincidences by
    step n.  The renewal identity says this equals V_n, so it cross-checks
    renewal_table."""
    _check_window(M)
    if n < 0:
        raise ValueError(f"walk length must be >= 0, got {n}")
    walks = np.array(_walk_positions(M, n))
    rows = max(1, _BLOCK_CELLS // max(walks.size, 1))
    total = 0
    for start in range(0, len(walks), rows):
        # coincidences of a block of walks with every walk
        z = (walks[start:start + rows, None, :] == walks[None, :, :]).sum(axis=2)
        total += sum(int(count) << k for k, count in enumerate(np.bincount(z.ravel())))
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
    same limit and adds their geometric tail.  Both read the same float u_n,
    so their agreement checks the ratio route's tail, not the series.
    """

    by_bisection: float
    by_ratio: float


def growth_constant(M: int, tol: float = 1e-9) -> GrowthConstant:
    """Locate c_M two ways from one float series u_n and package both values.

    Bisection brackets U(x) = 2 rigorously: the partial sum over the N terms
    built is a certain lower bound for U(x), and adding the geometric tail
    u_(N-1) x^N/(1-x) gives an upper bound, because u_n is nonincreasing:
    u_n = ||P(J_n = .)||_2^2 and convolving with the step law cannot raise
    the l2 norm (Young's inequality).  N grows until every verdict is
    unambiguous.  The ratio route iterates V_{n+1}/V_n, whose steps
    Delta_n shrink geometrically, until the tail estimate
    |Delta_n| q/(1-q) with q = Delta_n/Delta_(n-1) drops below tol/10, and
    reports the ratio plus that tail.
    """
    _check_window(M)
    if M > _GROWTH_MAX_M:
        raise ValueError(f"growth constant for M = {M} is over the budget "
                         f"of M <= {_GROWTH_MAX_M}")
    # below 1e-12 the bisection cannot split adjacent floats near x = 1/c_M
    if not 1e-12 <= tol < 1:
        raise ValueError(f"tolerance must be in [1e-12, 1), got {tol}")

    terms = (float(_left_sum(row * row)) for row in _walk_rows(M, 1.0 / M))
    u = list(islice(terms, _FIRST_TERMS))

    def verdict(x: float) -> int:
        # +1 if U(x) > 2, -1 if U(x) < 2, growing the series as needed
        while True:
            partial = 0.0
            xn = 1.0
            for val in u:
                partial += val * xn
                xn *= x
            tail = u[-1] * xn / (1.0 - x)
            if partial > 2.0:
                return 1
            if partial + tail < 2.0:
                return -1
            if len(u) + _MORE_TERMS > _MAX_TERMS:
                raise RuntimeError(
                    f"series for U(x) at x={x} did not settle within "
                    f"{_MAX_TERMS} terms")
            u.extend(islice(terms, _MORE_TERMS))

    lo, hi = 0.0, 1.0 - 1e-12  # U(lo) = 1 < 2 < U(hi), since U diverges as x -> 1
    while (1.0 / lo if lo else float("inf")) - 1.0 / hi > tol / 4:
        mid = (lo + hi) / 2
        if verdict(mid) > 0:
            hi = mid
        else:
            lo = mid
    by_bisection = 2.0 / (lo + hi)

    # ratio route: V_{n+1}/V_n decreases to c_M with geometric steps
    u, r, V, ratios = np.array(u), np.ones(len(u)), [1.0], []
    for n in range(1, _MAX_TERMS + 1):
        if len(u) == n:
            u, r = np.append(u, next(terms)), np.append(r, 1.0)
        r[n] = r_n = float(_left_sum(u[1:n + 1] * r[n - 1::-1]))
        V.append(V[-1] + r_n)
        ratios.append(V[-1] / V[-2])
        if n >= 3:
            delta, prev_delta = ratios[-1] - ratios[-2], ratios[-2] - ratios[-3]
            q = delta / prev_delta if prev_delta else 0.0
            if 0 <= q < 1 and abs(delta) * q / (1 - q) < tol / 10:
                by_ratio = ratios[-1] + delta * q / (1 - q)
                break
    else:
        raise RuntimeError(f"ratio iteration did not settle within {_MAX_TERMS} steps")

    return GrowthConstant(by_bisection, by_ratio)
