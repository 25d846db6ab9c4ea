import ast
import itertools
import math
import pathlib
from fractions import Fraction

import pytest

from wordseen import exactprob, recursions, sweeps
from wordseen.core import BinaryWord
from wordseen.exactprob import exact_seen_probability
from wordseen.recursions import (
    alpha_beta,
    char_poly,
    delta_operator,
    pq_polynomials,
    sigma_closed_form,
    sigma_generating_identity,
    sigma_oracle,
    u_table,
    verify_suffix_bounds_m2,
    vn_pair_recursion,
    vn_single_recursion,
)


def test_alpha_beta():
    assert alpha_beta(2) == (Fraction(3, 4), Fraction(1, 4))
    assert alpha_beta(5)[1] == Fraction(1, 32)
    with pytest.raises(ValueError):
        alpha_beta(0)


def test_pair_recursion_first_values():
    t = vn_pair_recursion(2, 6)
    assert t.v[:4] == (1, Fraction(3, 4), Fraction(5, 8), Fraction(17, 32))
    assert t.vprime[1:4] == (Fraction(1, 4), Fraction(1, 4), Fraction(7, 32))
    assert t.v[6] == Fraction(169, 512)


@pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
def test_single_equals_pair(M):
    N = 60
    single = vn_single_recursion(M, N)
    pair = vn_pair_recursion(M, N)
    assert tuple(single) == pair.v


@pytest.mark.parametrize("M", [2, 3])
def test_by_start_rows(M):
    """The share of v_n whose leftmost embedding starts at position 1 is
    v_{n-1}/2, the automaton value with the first hit pinned to position 1."""
    t = vn_pair_recursion(M, 5)
    for n in range(1, 6):
        w = BinaryWord.alternating(1, n)
        assert t.v[n - 1] / 2 == exact_seen_probability(w, M, first_gap=1)


@pytest.mark.parametrize("M, n_max", [(2, 12), (3, 12), (4, 12), (5, 8)])
def test_vprime_is_the_share_starting_at_the_window_end(M, n_max):
    """v'_n is the probability that the leftmost embedding starts at
    position M: v_n less the automaton value with the first hit capped at
    M - 1."""
    t = vn_pair_recursion(M, n_max)
    for n in range(n_max + 1):
        w = BinaryWord.alternating(1, n)
        assert t.vprime[n] == t.v[n] - exact_seen_probability(w, M, first_gap=M - 1)


def test_recursion_matches_engine():
    for M in (2, 3, 4):
        t = vn_pair_recursion(M, 6)
        for n in range(7):
            w = BinaryWord.alternating(1, n)
            assert exact_seen_probability(w, M) == t.v[n]


def test_char_poly_roots():
    cp2 = char_poly(2)
    assert abs(cp2.root_small - 0.14644660940672624) < 1e-10
    assert abs(cp2.root_large - 0.8535533905932737) < 1e-10
    assert abs(char_poly(5).root_large - 0.99784) < 5e-6
    # f(1) = 2 beta^2 exactly
    for M in (2, 3, 4, 5):
        cp = char_poly(M)
        _, beta = alpha_beta(M)
        assert 1 + cp.b + cp.c == 2 * beta ** 2


def test_ratio_converges_to_larger_root():
    t = vn_pair_recursion(2, 40)
    assert abs(float(t.ratio(39)) - char_poly(2).root_large) < 1e-12


@pytest.mark.parametrize("M", range(2, 13))
def test_larger_root_is_the_ratio_limit(M):
    # the smaller root's share of v_n has decayed by (M*beta)^60 at n = 60
    t = vn_pair_recursion(M, 61)
    assert abs(float(t.ratio(60)) - char_poly(M).root_large) < 1e-14


@pytest.mark.parametrize("M", range(2, 41))
def test_smaller_root_brackets_a_sign_change(M):
    cp = char_poly(M)
    f = lambda x: x * x + cp.b * x + cp.c
    step = 4 * math.ulp(cp.root_small)
    lo, hi = Fraction(cp.root_small - step), Fraction(cp.root_small + step)
    assert f(lo) > 0 > f(hi)


# ---------------------------------------------------------------------------
# two-block machinery
# ---------------------------------------------------------------------------

def test_sigma_hand_values():
    assert sigma_closed_form(2, 1, 1) == Fraction(1, 2)
    assert sigma_closed_form(2, 1, 2) == Fraction(3, 4)
    got, comp = sigma_oracle(2, 1, 1)
    assert got == Fraction(1, 2)
    # the two events partition the all-spacings-small event
    assert got + comp == alpha_beta(2)[0]


@pytest.mark.parametrize("M", [2, 3, 4])
def test_sigma_closed_form_vs_oracle(M):
    for p in range(1, 5):
        for j in range(0, 5 - p + 1):
            assert sigma_closed_form(M, p, j) == sigma_oracle(M, p, j)[0]


@pytest.mark.parametrize("M", [2, 3, 5])
def test_sigma_running_sums_equal_the_double_sum(M):
    """u_table's rows and sigma_closed_form keep the inner sums running in j;
    they equal the double sum of the docstring, summed afresh for each j."""
    beta = alpha_beta(M)[1]
    table = u_table(M, 8, 8)
    for p in range(9):
        for j in range(9):
            fresh = beta ** p * sum(
                (-1) ** (p - i) * math.comb(p, i) * sum(math.comb(i * M, l) for l in range(p + j))
                for i in range(p + 1))
            assert table.sigma[p][j] == sigma_closed_form(M, p, j) == fresh


def test_u_table_sandwich_small():
    t = u_table(2, 4, 4)
    vs = vn_single_recursion(2, 8)
    for p in range(5):
        for q in range(5):
            assert 0 <= t.delta[p][q] == vs[p + q] - t.u[p][q]
            if p + q:
                word = BinaryWord.two_block(p, q)
                assert exact_seen_probability(word, 2) <= t.u[p][q]
    # hand value: alpha^4 + beta*(alpha*5/16 + 1/16) = 100/256
    assert t.u[2][2] == Fraction(25, 64)


@pytest.mark.parametrize("M", [2, 3, 5])
def test_u_table_equals_the_defining_sums(M):
    alpha, beta = alpha_beta(M)
    t = u_table(M, 8, 8)
    for p, q in itertools.product(range(9), repeat=2):
        w = sum(alpha ** (q - j) * sigma_closed_form(M, p, j) for j in range(1, q + 1))
        assert t.w[p][q] == w
        assert t.u[p][q] == alpha ** p - beta * w


def test_u_oracle_crosscheck():
    t = u_table(3, 4, 4)
    for p, j in itertools.product(range(5), repeat=2):
        if p + j <= 5:
            assert sigma_oracle(3, p, j) == (t.sigma[p][j], t.sigma_prime[p][j])


def test_delta_operator_kills_alpha_powers():
    for M in (2, 3, 5):
        alpha, _ = alpha_beta(M)
        grid = [[alpha ** p] * 6 for p in range(6)]
        for p in range(4):
            for q in range(4):
                assert delta_operator(M, grid, p, q) == 0


@pytest.mark.parametrize("M", [2, 3, 4, 5])
def test_delta_operator_on_integer_grids(M):
    """On the integer u and w grids over 2^(M(P+Q)), delta_operator is
    2^(2M) times the mixed difference of the Fraction grids."""
    alpha, beta = alpha_beta(M)
    t = u_table(M, 11, 11)
    _, _, u, w, _ = recursions._two_block_grids(M, 11, 11)
    scale = 2 ** (2 * M) * 2 ** (M * 22)
    for grid, frac in ((u, t.u), (w, t.w)):
        for p, q in itertools.product(range(11), repeat=2):
            diff = (frac[p + 1][q + 1] - M * beta * frac[p][q + 1]
                    - (alpha - beta) * frac[p + 1][q] + beta * (M - 2 * alpha) * frac[p][q])
            assert delta_operator(M, grid, p, q) == scale * diff


def test_pq_polynomials_window_two():
    poly = pq_polynomials(2)
    assert poly.p_coeffs == (0, 0, Fraction(1, 2), Fraction(-1, 2))
    assert poly.q_coeffs == (0, 0, Fraction(1, 2))


def test_pq_polynomials_structure():
    for M in (3, 7, 12):
        poly = pq_polynomials(M)
        assert poly.p_coeffs[0] == poly.p_coeffs[1] == 0
        assert sum(poly.p_coeffs) == 0           # P(1) = 0
        assert all(c >= 0 for c in poly.q_coeffs)
        assert poly.q_coeffs[M] == 1 - Fraction(2, 2 ** M)


@pytest.mark.parametrize("M,p", [(2, 0), (2, 3), (3, 2), (4, 1)])
def test_generating_identity(M, p):
    assert sigma_generating_identity(M, p, order=12)


# ---------------------------------------------------------------------------
# start-position bounds at window 2
# ---------------------------------------------------------------------------

def test_suffix_bounds_alternating():
    assert verify_suffix_bounds_m2([BinaryWord.alternating(1, 6)]) == []
    # the first row, word 0: P = 3/4 splits into 1/2 from start 1 and 1/4
    # from start 2
    total = exact_seen_probability("0", 2)
    start1 = exact_seen_probability("0", 2, first_gap=1)
    assert (total, start1, total - start1) == (
        Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))


def test_suffix_bounds_every_short_word():
    words = [BinaryWord(letters) for n in range(1, 5)
             for letters in itertools.product((0, 1), repeat=n)]
    assert verify_suffix_bounds_m2(words) == []
    assert verify_suffix_bounds_m2([]) == []


@pytest.mark.parametrize("bits,gap", [("011010", 1), ("010000", None)])
def test_suffix_bounds_name_the_broken_word(monkeypatch, bits, gap):
    """Raising one value of one 6-letter word breaks one condition of its
    row: the start-1 value its halving, the total (whose quarter bound is
    tight) its quarter bound.  Its complement shares the values, so its row
    breaks too; no longer word is checked, so no other row reads them, and
    the bound check and the thm1a sweep name the broken word first."""
    broken = BinaryWord(bits)

    def perturbed(word, M, first_gap=None):
        value = exact_seen_probability(word, M, first_gap=first_gap)
        if word == broken and first_gap == gap:
            value += Fraction(1, 2 ** 20)
        return value

    monkeypatch.setattr(recursions, "exact_seen_probability", perturbed)
    words = [BinaryWord(letters) for n in range(1, 7)
             for letters in itertools.product((0, 1), repeat=n)]
    assert verify_suffix_bounds_m2(words) == [broken, broken.complement()]
    res = sweeps.sweep_max_word(2, 4)
    assert not res.ok
    assert res.counterexample == f"suffix bounds break for word {bits}"


def test_thm1a_builds_each_suffix_automaton_once(monkeypatch):
    """sweep_max_word(2, 6) builds 43 automata in its one maximizing-word
    walk (the alternating word's bound, the empty word, then the trie nodes
    not pruned), and the bounds build each of the 63 words of length <= 6
    starting with 0 twice, with and without first_gap, their complements
    sharing the values: 43 + 126 = 169."""
    calls = []
    build = exactprob.build_automaton

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(exactprob, "build_automaton", counting)
    assert sweeps.sweep_max_word(2, 6).ok
    assert len(calls) == 169


def test_no_check_rests_on_assert():
    """python -O drops assert statements, so the package uses none."""
    src = pathlib.Path(recursions.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
