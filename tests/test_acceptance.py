"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``[criterion N] PASS``/``FAIL`` line on the real
stdout so the summary survives output capture, and enforces the stated time
budget where one applies.
"""

import time
from fractions import Fraction

import pytest

from wordseen.core import BinaryWord
from wordseen.exactprob import exact_seen_probability
from wordseen.recursions import alpha_beta, vn_pair_recursion, vn_single_recursion
from wordseen import sweeps


@pytest.fixture
def verdict(capsys, request):
    marker = request.node.get_closest_marker("criterion")
    number = marker.args[0]
    outcome = {"ok": False}
    yield outcome
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if outcome['ok'] else 'FAIL'}")


def _assert_sweep(res, outcome):
    assert res.ok, res.counterexample or "\n".join(res.details)
    outcome["ok"] = True


@pytest.mark.criterion(1)
def test_recursions_agree_everywhere(verdict):
    start = time.monotonic()
    for M in range(2, 7):
        pair = vn_pair_recursion(M, 200)
        single = vn_single_recursion(M, 200)
        assert pair.v == tuple(single), f"recursions split at M={M}"
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"took {elapsed:.1f}s, budget 5s"
    verdict["ok"] = True


@pytest.mark.criterion(2)
def test_engine_reproduces_recursion_values(verdict):
    start = time.monotonic()
    for M in (2, 3, 4):
        table = vn_pair_recursion(M, 12)
        alpha, _ = alpha_beta(M)
        for n in range(13):
            alt = exact_seen_probability(BinaryWord.alternating(1, n), M)
            assert alt == table.v[n], f"M={M}, n={n}: engine != v_n"
            const = exact_seen_probability(BinaryWord.constant(1, n), M)
            assert const == alpha ** n, f"M={M}, n={n}: engine != alpha^n"
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
    verdict["ok"] = True


@pytest.mark.criterion(3)
def test_alternating_maximizes_window_two(verdict):
    start = time.monotonic()
    res = sweeps.sweep_max_word(M=2, n_max=10)
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"took {elapsed:.1f}s, budget 600s"
    _assert_sweep(res, verdict)


@pytest.mark.criterion(4)
def test_two_block_sandwich(verdict):
    start = time.monotonic()
    res = sweeps.sweep_two_block_chain(total_max=10)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.1f}s, budget 300s"
    _assert_sweep(res, verdict)


@pytest.mark.criterion(5)
def test_polynomial_certificates(verdict):
    res = sweeps.sweep_polynomial_certificates()
    _assert_sweep(res, verdict)


@pytest.mark.criterion(6)
def test_spacing_characterizations(verdict):
    res = sweeps.sweep_spacing_equivalences(n_max=6)
    assert res.ok, res.counterexample
    assert res.details[-1] == "spacings and both extensions behave as computed by hand"
    verdict["ok"] = True


@pytest.mark.criterion(7)
def test_second_moments(verdict):
    res = sweeps.sweep_second_moment()
    _assert_sweep(res, verdict)


@pytest.mark.criterion(8)
def test_renewal_facts(verdict):
    res = sweeps.sweep_renewal_facts(M_max=6, N=100)
    _assert_sweep(res, verdict)


@pytest.mark.criterion(9)
def test_couplings(verdict):
    res = sweeps.sweep_couplings(samples=10 ** 4)
    _assert_sweep(res, verdict)


@pytest.mark.criterion(10)
def test_monte_carlo_calibration(verdict):
    res = sweeps.mc_panel()
    assert res.ok, res.counterexample
    res2 = sweeps.red_grid_equivalence()
    assert res2.ok, res2.counterexample
    verdict["ok"] = True
