"""The thm3 sweep on core's prefix blocks, the seeded streams of the
coupling and red-grid sweeps, and the suite table."""

import tracemalloc

import pytest

from wordseen import cli, core, sweeps
from wordseen.montecarlo import RngConfig, coupling_F, sample_sequence


def test_spacing_sweep_over_small_blocks(monkeypatch):
    """Blocks of 5 rows split every scan, the last block partial; the seen
    counts summed over blocks still give alpha^n and v_n; the worked
    four-letter example reports last."""
    monkeypatch.setattr(core, "_BLOCK_ROWS", 5)
    res = sweeps.sweep_spacing_equivalences(n_max=3)
    assert res.ok
    assert res.name == "spacing characterizations n <= 3"
    assert res.details == ["M=2: all spacing forms match the engine up to n=3",
                           "M=3: all spacing forms match the engine up to n=3",
                           "spacings and both extensions behave as computed by hand"]


def test_spacing_sweep_memory_is_bounded():
    """thm3 --n 5 scans 2^15 prefixes at M = 3 in blocks of 2^12 rows; the
    traced peak stays near one block's letters, not the whole scan's."""
    tracemalloc.start()
    try:
        assert sweeps.sweep_spacing_equivalences(n_max=5).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def test_spacing_sweep_names_the_failing_prefix(monkeypatch):
    """A constant criterion that wants spacings < M instead of <= M first
    fails for the word 0 on the prefix 10: row 1, alone in its 1-row block,
    so only its letters identify it."""
    monkeypatch.setattr(core, "_BLOCK_ROWS", 1)
    exact = sweeps.constant_seen_by_spacings
    monkeypatch.setattr(sweeps, "constant_seen_by_spacings",
                        lambda T, M: exact(T, M - 1))
    res = sweeps.sweep_spacing_equivalences(n_max=1)
    assert not res.ok
    assert res.counterexample == ("M=2, n=1, constant(0): spacing test "
                                  "disagrees at prefix 10")


def test_spacing_sweep_counts_both_first_letters(monkeypatch):
    """Only the words of 0s see the all-zeros prefix: a scan whose first
    block drops it passes every criterion, and fails the count of 0."""
    blocks = sweeps._prefix_blocks

    def without_zeros(L):
        first, *rest = blocks(L)
        return [first[1:], *rest]

    monkeypatch.setattr(sweeps, "_prefix_blocks", without_zeros)
    res = sweeps.sweep_spacing_equivalences(n_max=3)
    assert not res.ok
    assert res.counterexample == "M=2, n=1: constant(0) count != alpha^n"
    assert all("(0) count" in line for line in res.details if "FAIL" in line)


def test_spacing_sweep_reports_a_failing_worked_example(monkeypatch):
    """The worked example runs last inside the thm3 sweep; its failure fails
    the sweep and becomes the counterexample when the scans pass."""
    broken = sweeps.SweepResult("four-letter worked example")
    broken.fail("spacings (1, 1, 1, 2) != (1, 1, 1, 3)")
    monkeypatch.setattr(sweeps, "worked_four_letter_example", lambda: broken)
    res = sweeps.sweep_spacing_equivalences(n_max=1)
    assert not res.ok
    assert res.counterexample == "spacings (1, 1, 1, 2) != (1, 1, 1, 3)"
    assert res.details[-1] == "FAIL: spacings (1, 1, 1, 2) != (1, 1, 1, 3)"


def test_coupling_sweep_details_are_pinned():
    """The default-seed report, recorded before prefixes became arrays: any
    change in draw order moves a chain density."""
    res = sweeps.sweep_couplings(samples=10 ** 4)
    assert res.ok
    assert res.details == [
        "p=0.5, p1=0.5: witness holds on all 10000 blocks",
        "p=0.3, p1=0.2: witness holds on all 10000 blocks",
        "p=0.8, p1=0.9: witness holds on all 10000 blocks",
        "p=0.5, p1=0.0: witness holds on all 10000 blocks",
        "p=0.5, p1=1.0: witness holds on all 10000 blocks",
        "chain 0.5->0.25: 1 stages, window 3, density 0.2486",
        "chain 0.9->0.1: 5 stages, window 243, density 0.1048",
        "chain 0.3->0.7: 2 stages, window 9, density 0.7180",
    ]


def test_coupling_sweep_block_streams_are_pinned():
    """The block merges of sweep_couplings at its default seed: input and
    output letter counts per case, recorded before prefixes became arrays."""
    combos = ((0.5, 0.5), (0.3, 0.2), (0.8, 0.9), (0.5, 0.0), (0.5, 1.0))
    counts = []
    for case, (p, p1) in enumerate(combos):
        gen = RngConfig(20240817).stream(10, case)
        x = sample_sequence(p, 2 * 10 ** 4, gen)
        counts.append((int(x.sum()), int(coupling_F(x, p1, gen).sum())))
    assert counts == [(9978, 4963), (6013, 1715), (16004, 9281),
                      (10025, 2533), (10014, 7506)]


def test_red_grid_sweep_prints_prefixes_as_bits(monkeypatch):
    monkeypatch.setattr(sweeps, "admissible_path_exists", lambda red, M: None)
    res = sweeps.red_grid_equivalence()
    assert not res.ok
    assert res.counterexample == ("word 000110, sequence 000110010110110101, "
                                  "M=3: grid says None, engine says True")


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(ValueError, match=r"unknown suite 'nope'.*'thm1a'"):
        sweeps.run_suite("nope")


def test_verify_renewal_builds_each_table_once(monkeypatch, capsys):
    """verify renewal builds one renewal table for each window M = 1..6 and
    holds the brute-force surplus moments for M = 2, 3 against the V_1..V_5
    of those tables: 6 tables, not one per (M, n)."""
    calls = []
    build = sweeps.renewal_table

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(sweeps, "renewal_table", counting)
    assert cli.main(["verify", "renewal"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert calls == [(M, 100) for M in range(1, 7)]


def test_thm1b_builds_one_automaton_per_window_and_block(monkeypatch):
    """sweep_two_block_chain(6) reads every 1^p 0^q from the prefix vector of
    1^p 0^(6-p): one automaton for each M = 2..5 and p = 0..6, 28 in all,
    not one per (M, p, q)."""
    calls = []
    build = sweeps.build_automaton

    def counting(word, M):
        calls.append((word.letters, M))
        return build(word, M)

    monkeypatch.setattr(sweeps, "build_automaton", counting)
    assert sweeps.sweep_two_block_chain(6).ok
    assert calls == [((1,) * p + (0,) * (6 - p), M) for M in range(2, 6) for p in range(7)]


def test_lemma43_fails_on_a_perturbed_u_numerator(monkeypatch):
    """One unit added to one integer u numerator, after the grid builder's
    own check, breaks the proportionality of the u and w differences."""
    build = sweeps._two_block_grids

    def perturbed(M, P, Q):
        sigma, sigma_prime, u, w, delta = build(M, P, Q)
        u[3][4] += 1
        return sigma, sigma_prime, u, w, delta

    monkeypatch.setattr(sweeps, "_two_block_grids", perturbed)
    assert not sweeps.run_suite("lemma43").ok
