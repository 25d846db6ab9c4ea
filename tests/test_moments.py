import itertools
from fractions import Fraction
from itertools import islice
from math import comb

import pytest

from wordseen.core import BinaryWord
from wordseen.moments import (
    _walk_rows,
    expected_embeddings,
    growth_constant,
    random_word_second_moment,
    renewal_table,
    second_moment_exact,
    second_moment_oracle,
    second_moment_pairsum,
    visits_moment_bruteforce,
)


def test_expected_embeddings():
    assert expected_embeddings(2, 0) == 1
    assert expected_embeddings(2, 5) == 1
    assert expected_embeddings(3, 2) == Fraction(9, 4)
    assert expected_embeddings(4, 3) == Fraction(8)


def test_single_letter_second_moment():
    # N counts ones among the first two letters: E(N^2) = 1/2 + 4/4
    assert second_moment_exact(BinaryWord.from_string("1"), 2) == Fraction(3, 2)
    assert second_moment_oracle(BinaryWord.from_string("1"), 2) == Fraction(3, 2)


@pytest.mark.parametrize("M", [2, 3, 4])
def test_walk_dp_equals_pairsum(M):
    for n in range(1, 4):
        for letters in itertools.product((0, 1), repeat=n):
            w = BinaryWord(letters)
            assert second_moment_exact(w, M) == second_moment_pairsum(w, M)


def test_second_moment_at_least_mean_square():
    for M in (2, 3):
        for n in range(1, 5):
            w = BinaryWord.alternating(1, n)
            assert second_moment_exact(w, M) >= expected_embeddings(M, n) ** 2


def test_constant_word_wins():
    n = 4
    vals = {w: second_moment_exact(BinaryWord(w), 2)
            for w in itertools.product((0, 1), repeat=n)}
    top = max(vals.values())
    assert vals[(1,) * n] == top and vals[(0,) * n] == top


# ---------------------------------------------------------------------------
# renewal side
# ---------------------------------------------------------------------------

def test_renewal_first_values():
    t = renewal_table(2, 4)
    assert t.u[1] == Fraction(1, 2)
    assert t.u[2] == Fraction(3, 8)
    assert t.r[1] == Fraction(1, 2)
    assert t.r[2] == Fraction(5, 8)
    assert t.V[1] == Fraction(3, 2)
    assert t.V[2] == Fraction(17, 8)


def test_u_is_collision_probability():
    # two independent walks with steps uniform on {1..M} meet at step n
    # with probability sum_l P(J_n = l)^2; for M = 2 that is C(2n,n)/4^n
    t = renewal_table(2, 30)
    for n in range(1, 31):
        assert t.u[n] == Fraction(comb(2 * n, n), 4 ** n)


def test_random_word_identity():
    t = renewal_table(2, 6)
    for n in range(1, 7):
        total = sum(second_moment_exact(BinaryWord(w), 2)
                    for w in itertools.product((0, 1), repeat=n))
        assert total / 2 ** n == random_word_second_moment(2, n, t)
        assert random_word_second_moment(2, n, t) == t.V[n]


@pytest.mark.parametrize("M,n", [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4)])
def test_surplus_moment_bruteforce(M, n):
    assert visits_moment_bruteforce(M, n) == renewal_table(M, n).V[n]


def scalar_walk_rows(M, step):
    # reference loop: every cell adds its terms with l ascending, the
    # order the float rows must keep
    row = [1]
    while True:
        yield row
        nxt = [0] * (len(row) + M)
        for l, mass in enumerate(row):
            if mass:
                for s in range(1, M + 1):
                    nxt[l + s] += mass * step
        row = nxt


@pytest.mark.parametrize("M", range(1, 9))
def test_walk_rows_match_scalar_loop(M):
    for step in (1, 1.0 / M):
        pairs = zip(islice(_walk_rows(M, step), 61), scalar_walk_rows(M, step))
        for fast, slow in pairs:
            assert fast.tolist() == slow  # ==, bit for bit, not approx


# reprs computed with the rows of scalar_walk_rows
PINNED_GROWTH = {
    (1, 1e-9): ("1.9999999998855849", "2.0"),
    (2, 1e-9): ("1.3333333332311865", "1.3333333333335025"),
    (3, 1e-9): ("1.1761255981154608", "1.17612559813126"),
    (4, 1e-9): ("1.1108117438895326", "1.1108117439265799"),
    (5, 1e-9): ("1.0766977252668644", "1.0766977252603176"),
    (6, 1e-9): ("1.056436597239613", "1.0564365971832295"),
    (7, 1e-9): ("1.0433527806707705", "1.0433527806816607"),
    (8, 1e-9): ("1.0343868893900898", "1.0343868894707258"),
    (1, 1e-7): ("1.9999999925514196", "2.0"),
    (2, 1e-7): ("1.3333333267119285", "1.3333333333571222"),
    (3, 1e-7): ("1.1761255991621817", "1.1761255981550436"),
    (4, 1e-7): ("1.1108117354862894", "1.1108117439516747"),
    (5, 1e-7): ("1.076697721015696", "1.0766977252867822"),
    (6, 1e-7): ("1.0564365897688517", "1.0564365972103642"),
    (7, 1e-7): ("1.043352788464541", "1.0433527807108887"),
    (8, 1e-7): ("1.0343868867743446", "1.034386889500823"),
}


@pytest.mark.parametrize("M,tol", sorted(PINNED_GROWTH))
def test_growth_constant_bits_pinned(M, tol):
    c = growth_constant(M, tol)
    assert (repr(c.by_bisection), repr(c.by_ratio)) == PINNED_GROWTH[M, tol]


def test_growth_constants():
    c2 = growth_constant(2, tol=1e-9)
    assert abs(c2.by_bisection - 4 / 3) < 1e-9
    assert abs(c2.by_ratio - 4 / 3) < 1e-9
    c1 = growth_constant(1, tol=1e-9)
    assert abs(c1.by_bisection - 2) < 1e-9
    for M in (3, 4):
        c = growth_constant(M, tol=1e-7)
        assert 1 < c.by_bisection < c2.by_bisection
        assert abs(c.by_bisection - c.by_ratio) < 1e-6
    # c_8 from an independent float64 bisection of U(x) = 2 over 3000 terms
    c8 = growth_constant(8, tol=1e-9)
    assert abs(c8.by_ratio - 1.0343868894706) < 1e-9
    assert abs(c8.by_bisection - c8.by_ratio) < 1e-9
    # c_16 from an independent float64 bisection of U(x) = 2 over 4000 terms
    # of np.convolve walk distributions (x^4000 < 1e-17 at x = 1/c_16)
    c16 = growth_constant(16, tol=1e-9)
    assert abs(c16.by_ratio - 1.0098819099011236) < 1e-9
    assert abs(c16.by_bisection - 1.0098819099011236) < 1e-9


def test_growth_constant_bounds_vn_growth():
    # V_n c^-n increasing: equivalently V_{n+1} >= c V_n
    t = renewal_table(2, 50)
    for n in range(50):
        assert 3 * t.V[n + 1] >= 4 * t.V[n]


def test_log_concavity_window_six():
    for M in range(1, 7):
        t = renewal_table(M, 40)
        for n in range(1, 40):
            assert t.V[n] ** 2 >= t.V[n + 1] * t.V[n - 1]
            assert t.u[n + 1] <= t.u[n]
