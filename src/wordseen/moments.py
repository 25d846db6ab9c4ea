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
from itertools import product

from .core import WordLike, as_word, count_embeddings_packed, _check_window


def expected_embeddings(M: int, n: int) -> Fraction:
    """E(N_n) = (M/2)^n, independent of the word."""
    _check_window(M)
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    return Fraction(M, 2) ** n


def second_moment_exact(word: WordLike, M: int) -> Fraction:
    """E(N_n^2) by a frontier walk over the two embedding position sequences.

    The two walks are merged in sorted order; the state is (r, s, lead) with
    lead = J_r - K_s confined to |lead| < M while both walks are live.  A
    transition landing on lead = 0 registers the coincidence (r, s): factor
    2 if the word letters agree, prune if they differ.  Branches that can no
    longer coincide flush their weight.
    """
    w = as_word(word)
    _check_window(M)
    n = w.n
    if n == 0:
        return Fraction(1)
    letters = w.letters
    step_w = Fraction(1, M)
    both_w = step_w * step_w

    levels: list[dict[tuple[int, int, int], Fraction]] = [dict() for _ in range(2 * n + 1)]
    levels[0][(0, 0, 0)] = Fraction(1)
    done = Fraction(0)
    for total in range(2 * n + 1):
        for (r, s, lead), mass in levels[total].items():
            if lead == 0:
                if r == n or s == n:
                    done += mass
                    continue
                bucket = levels[total + 2]
                for a in range(1, M + 1):
                    for b in range(1, M + 1):
                        piece = mass * both_w
                        if a == b:
                            if letters[r] != letters[s]:
                                continue
                            piece *= 2
                        key = (r + 1, s + 1, a - b)
                        bucket[key] = bucket.get(key, Fraction(0)) + piece
            elif lead < 0:
                if r == n:
                    done += mass
                    continue
                bucket = levels[total + 1]
                for a in range(1, M + 1):
                    piece = mass * step_w
                    new = lead + a
                    if new == 0:
                        if letters[r] != letters[s - 1]:
                            continue
                        piece *= 2
                    key = (r + 1, s, new)
                    bucket[key] = bucket.get(key, Fraction(0)) + piece
            else:
                if s == n:
                    done += mass
                    continue
                bucket = levels[total + 1]
                for b in range(1, M + 1):
                    piece = mass * step_w
                    new = lead - b
                    if new == 0:
                        if letters[r - 1] != letters[s]:
                            continue
                        piece *= 2
                    key = (r, s + 1, new)
                    bucket[key] = bucket.get(key, Fraction(0)) + piece
    return Fraction(M, 2) ** (2 * n) * done


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


def second_moment_oracle(word: WordLike, M: int, max_bits: int = 24) -> Fraction:
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


def _walk_distribution(M: int, n: int) -> list[list[int]]:
    """counts[k][l] = number of k-step walks with uniform {1..M} steps
    summing to l (integer counts; divide by M^k for probabilities)."""
    counts = [[1]]
    cur = [1]
    for _ in range(n):
        nxt = [0] * (len(cur) + M)
        for l, c in enumerate(cur):
            if c:
                for step in range(1, M + 1):
                    nxt[l + step] += c
        cur = nxt
        counts.append(cur)
    return counts


def renewal_table(M: int, N: int) -> RenewalTable:
    """Exact u, r, V up to index N:
    u_n = sum_l P(J_n = l)^2, r_n = sum_{k=1}^n u_k r_{n-k}, r_0 = 1."""
    _check_window(M)
    if N < 0:
        raise ValueError(f"table size must be >= 0, got {N}")
    counts = _walk_distribution(M, N)
    u = [Fraction(1)]
    for n in range(1, N + 1):
        u.append(Fraction(sum(c * c for c in counts[n]), M ** (2 * n)))
    r = [Fraction(1)]
    for n in range(1, N + 1):
        r.append(sum((u[k] * r[n - k] for k in range(1, n + 1)), Fraction(0)))
    V = []
    acc = Fraction(0)
    for val in r:
        acc += val
        V.append(acc)
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
    same limit.
    """

    M: int
    by_bisection: float
    by_ratio: float
    tol: float


def _u_floats(M: int, N: int) -> list[float]:
    dist = [1.0]
    out = [1.0]
    step = 1.0 / M
    for _ in range(N):
        nxt = [0.0] * (len(dist) + M)
        for l, mass in enumerate(dist):
            if mass:
                for s in range(1, M + 1):
                    nxt[l + s] += mass * step
        dist = nxt
        out.append(sum(mass * mass for mass in dist))
    return out


def growth_constant(M: int, tol: float = 1e-9, max_terms: int = 200_000) -> GrowthConstant:
    """Locate c_M two independent ways and package both values.

    Bisection brackets U(x) = 2 rigorously: the partial sum is a certain
    lower bound for U(x) and adding the geometric tail u_1 x^(N+1)/(1-x)
    (u_n is decreasing) gives an upper bound; N grows until every verdict
    is unambiguous.  The ratio route iterates V_{n+1}/V_n until successive
    ratios settle within tol/10.
    """
    _check_window(M)
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tol}")

    u = _u_floats(M, 256)
    u1 = u[1]

    def verdict(x: float) -> int:
        # +1 if U(x) > 2, -1 if U(x) < 2, growing the series as needed
        nonlocal u
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
            u = _u_floats(M, 2 * len(u))

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

    # ratio route: V_{n+1}/V_n is decreasing with geometric convergence
    u_full = u
    r = [1.0]
    V = [1.0]
    ratio_prev = None
    by_ratio = None
    n = 0
    while by_ratio is None:
        n += 1
        if n >= len(u_full):
            u_full = _u_floats(M, 2 * len(u_full))
        r.append(sum(u_full[k] * r[n - k] for k in range(1, n + 1)))
        V.append(V[-1] + r[-1])
        ratio = V[-1] / V[-2]
        if ratio_prev is not None and abs(ratio_prev - ratio) < tol / 10:
            by_ratio = ratio
        ratio_prev = ratio
        if n > max_terms:
            raise RuntimeError(f"ratio iteration did not settle within {max_terms} steps")

    out = GrowthConstant(M, by_bisection, by_ratio, tol)
    assert out.by_bisection > 1
    return out
