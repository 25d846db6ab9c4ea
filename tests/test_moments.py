import itertools
from fractions import Fraction
from math import comb

import pytest

from wordseen.core import BinaryWord
from wordseen.moments import (
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
