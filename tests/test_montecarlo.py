import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordseen import core, montecarlo
from wordseen.core import BinaryWord, SequencePrefix, is_m_seen, seen_within
from wordseen.exactprob import exact_seen_probability
from wordseen.montecarlo import (
    ChainDemoReport,
    CouplingStage,
    RngConfig,
    admissible_path_exists,
    batch_seen,
    coupling_F,
    coupling_chain_demo,
    coupling_witness,
    estimate_seen_probability,
    estimate_x_seen_in_y,
    plan_parameter_path,
    red_grid,
    sample_sequence,
)


def test_streams_are_stable():
    a = RngConfig(7).stream(1, 2).random(4)
    b = RngConfig(7).stream(1, 2).random(4)
    c = RngConfig(7).stream(1, 3).random(4)
    assert (a == b).all()
    assert (a != c).any()


def test_estimate_reproducible_and_calibrated():
    w = BinaryWord.alternating(1, 4)
    one = estimate_seen_probability(w, 2, 0.5, 40000, RngConfig(11))
    two = estimate_seen_probability(w, 2, 0.5, 40000, RngConfig(11))
    assert one == two
    exact = float(exact_seen_probability(w, 2))
    assert abs(one.estimate - exact) < 5 * math.sqrt(exact * (1 - exact) / 40000)
    assert one.stderr == pytest.approx(
        math.sqrt(one.estimate * (1 - one.estimate) / 40000))
    assert dataclasses.asdict(one)["word"] == "1010"


def test_cross_estimate_decreases_with_length():
    vals = [estimate_x_seen_in_y(2, 0.5, 0.5, n, 30000, RngConfig(3)).estimate
            for n in (1, 3, 6)]
    assert vals[0] > vals[1] > vals[2]


def test_chunked_draws_match_one_shot(monkeypatch):
    """Trials drawn over many chunks score as one draw of all rows."""
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 50)
    w = BinaryWord.from_string("1101")
    trials, M = 1003, 3
    got = estimate_seen_probability(w, M, 0.4, trials, RngConfig(17))
    ys = (RngConfig(17).stream(0).random((trials, w.n * M)) < 0.4).astype(np.uint8)
    words = np.tile(np.array(w.letters, dtype=np.uint8), (trials, 1))
    assert got.estimate == int(batch_seen(words, ys, M).sum()) / trials

    n = 5
    cross = estimate_x_seen_in_y(M, 0.3, 0.6, n, trials, RngConfig(17))
    words = (RngConfig(17).stream(1).random((trials, n)) < 0.3).astype(np.uint8)
    ys = (RngConfig(17).stream(2).random((trials, n * M)) < 0.6).astype(np.uint8)
    assert cross.estimate == int(batch_seen(words, ys, M).sum()) / trials


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(1, 7), st.integers(1, 8), st.data())
def test_batch_seen_rows_match_scalar(n, M, R, data):
    """One word per row, each row decided independently by the kernel."""
    words = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=R, max_size=R)), dtype=np.uint8).reshape(R, n)
    ys = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n * M, max_size=n * M),
        min_size=R, max_size=R)), dtype=np.uint8).reshape(R, n * M)
    got = batch_seen(words, ys, M)
    for r in range(R):
        assert bool(got[r]) == is_m_seen(tuple(words[r]), tuple(ys[r]), M)


@pytest.mark.parametrize("R", [1, 63, 64, 65, 128, 129])
def test_batch_seen_across_lane_boundaries(R):
    """Row counts at and past multiples of 64, where rows share uint64 lanes
    with padding bits that must never count as seen."""
    gen = np.random.default_rng(R)

    def check(words, ys, M):
        got = batch_seen(words, ys, M)
        assert got.dtype == bool and got.shape == (R,)
        for r in range(R):
            assert bool(got[r]) == is_m_seen(tuple(words[r]), tuple(ys[r]), M)
        return got

    for n, M in ((0, 1), (0, 7), (3, 1), (4, 2), (2, 7), (5, 3)):
        L = n * M
        zeros = np.zeros((R, n), dtype=np.uint8)
        assert (check(zeros, np.ones((R, L), dtype=np.uint8), M) == (n == 0)).all()
        assert check(zeros, np.zeros((R, L), dtype=np.uint8), M).all()
        mixed = gen.integers(0, 2, (R, n), dtype=np.uint8)
        check(mixed, gen.integers(0, 2, (R, L), dtype=np.uint8), M)
        check(mixed, (gen.random((R, L)) < 0.8).astype(np.uint8), M)
        # one (1, n) word row stands for that word in every row
        for word in (zeros[:1], np.ones((1, n), dtype=np.uint8), mixed[:1]):
            ys = gen.integers(0, 2, (R, L), dtype=np.uint8)
            assert (batch_seen(word, ys, M) == check(np.tile(word, (R, 1)), ys, M)).all()


def test_batch_seen_is_cores_kernel():
    """One kernel object: the benchmark's tracer rebinds every alias of it."""
    assert montecarlo.batch_seen is core.batch_seen


def test_seeded_estimates_pinned():
    """Seeded streams and estimates, pinned to the values of the unpacked
    bool kernel; the first draws its trials in two chunks."""
    assert estimate_seen_probability("1100011101001010", 4, 0.5, 100_000,
                                     RngConfig(1)).estimate == 0.76625
    assert estimate_x_seen_in_y(3, 0.4, 0.6, 8, 100_000,
                                RngConfig(1)).estimate == 0.42573


def test_sample_sequence_density():
    gen = RngConfig(5).stream(0)
    seq = sample_sequence(0.2, 50000, gen)
    assert abs(sum(seq.bits) / 50000 - 0.2) < 0.01


# ---------------------------------------------------------------------------
# red grids
# ---------------------------------------------------------------------------

def test_red_grid_shape_and_exports():
    red = red_grid("11", "1100")
    assert red.shape == (3, 5) and red.dtype == bool
    assert red[0, 0] and not red[0, 1] and not red[1, 0]
    assert red[1, 1] and not red[1, 3]


@pytest.mark.parametrize("M", [2, 3])
def test_path_existence_matches_engine(M):
    gen = RngConfig(99).stream(1)
    for _ in range(300):
        n = int(gen.integers(1, 5))
        x = BinaryWord(tuple(int(b) for b in gen.integers(0, 2, n)))
        y = SequencePrefix(tuple(int(b) for b in gen.integers(0, 2, n * M)))
        assert admissible_path_exists(red_grid(x, y), M) == is_m_seen(x, y, M)


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

def test_coupling_blocks_by_hand():
    gen = RngConfig(1).stream(0)
    out = coupling_F("1100", 0.5, gen)
    assert out.bits == (1, 0)
    assert coupling_witness("1100", out) == (1, 3)
    with pytest.raises(ValueError):
        coupling_F("110", 0.5, gen)
    with pytest.raises(ValueError):
        coupling_witness("1100", "11")
    # the first block whose letters both differ from its output letter is named
    assert coupling_witness("100111", "011") == (2, 4, 5)
    with pytest.raises(ValueError, match="^output letter 2 matches neither source letter$"):
        coupling_witness("100011", "110")


def test_witness_positions_always_admissible():
    gen = RngConfig(2).stream(0)
    x = sample_sequence(0.6, 400, gen)
    out = coupling_F(x, 0.3, gen)
    positions = coupling_witness(x, out)
    prev = 0
    for k, m in enumerate(positions, start=1):
        assert m in (2 * k - 1, 2 * k)
        assert 1 <= m - prev <= 3
        assert x.bits[m - 1] == out.bits[k - 1]
        prev = m
    assert seen_within(BinaryWord(out.bits), x, 3)


def test_stage_validation():
    CouplingStage(0.5, 0.0, 0.25)
    with pytest.raises(ValueError):
        CouplingStage(0.5, 0.0, 0.1)   # below p^2


def test_parameter_paths_frozen():
    down = plan_parameter_path(0.5, 0.25)
    assert [(s.p_in, s.p_out) for s in down] == [(0.5, 0.25)]
    assert down[0].p1 == 0.0

    up = plan_parameter_path(0.3, 0.7)
    assert len(up) == 2
    assert up[0].p_out == pytest.approx(0.51)
    assert up[0].p1 == pytest.approx(1.0)
    assert up[1].p_out == pytest.approx(0.7)

    far = plan_parameter_path(0.9, 0.1)
    assert [round(s.p_in, 8) for s in far] == [0.9, 0.81, 0.6561, 0.43046721,
                                               0.18530202]
    assert far[-1].p_out == pytest.approx(0.1)

    assert plan_parameter_path(0.4, 0.4) == []


def test_chain_demo_report():
    report = coupling_chain_demo(0.5, 0.25, length=16, samples=50,
                                 rng=RngConfig(21))
    assert isinstance(report, ChainDemoReport)
    assert report.window == 3
    assert report.witness_failures == 0
    assert report.ok
    again = coupling_chain_demo(0.5, 0.25, length=16, samples=50,
                                rng=RngConfig(21))
    assert report == again
    payload = report.to_json_dict()
    assert payload["ok"] is True and payload["window"] == 3


def test_chain_demo_letter_budget(monkeypatch):
    # 0.9 -> 0.1 plans five stages: 32*2^5 letters per sample
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 32 * 2 ** 5)
    assert coupling_chain_demo(0.9, 0.1, length=32, samples=2,
                               rng=RngConfig(1)).window == 3 ** 5
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 32 * 2 ** 5 - 1)

    def no_draw(*args):
        raise AssertionError("drew a sample over the budget")

    monkeypatch.setattr(montecarlo, "sample_sequence", no_draw)
    with pytest.raises(ValueError, match="letters per sample"):
        coupling_chain_demo(0.9, 0.1, length=32, samples=2, rng=RngConfig(1))
