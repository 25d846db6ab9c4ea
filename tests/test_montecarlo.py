import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordseen import core, montecarlo
from wordseen.core import BinaryWord, is_m_seen, seen_within
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
    """Trials drawn over many buffer pieces and batches score as one draw of
    all rows.  Batch sizes of 7, 50 and 64 letters split a trial's row
    across pieces and trials across batch_seen calls."""
    w = BinaryWord("1101")
    trials, M, n = 1003, 3, 5
    ys = (RngConfig(17).stream(0).random((trials, w.n * M)) < 0.4).astype(np.uint8)
    words = np.tile(np.array(w.letters, dtype=np.uint8), (trials, 1))
    word_hits = int(batch_seen(words, ys, M).sum())
    xs = (RngConfig(17).stream(1).random((trials, n)) < 0.3).astype(np.uint8)
    ys = (RngConfig(17).stream(2).random((trials, n * M)) < 0.6).astype(np.uint8)
    cross_hits = int(batch_seen(xs, ys, M).sum())
    for cells in (7, 50, 64):
        monkeypatch.setattr(montecarlo, "_BATCH_CELLS", cells)
        got = estimate_seen_probability(w, M, 0.4, trials, RngConfig(17))
        assert got.estimate == word_hits / trials
        cross = estimate_x_seen_in_y(M, 0.3, 0.6, n, trials, RngConfig(17))
        assert cross.estimate == cross_hits / trials
        for length in (0, 1, cells - 1, cells, cells + 1, 3 * cells + 2):
            seq = sample_sequence(0.45, length, RngConfig(5).stream(length))
            want = RngConfig(5).stream(length).random(length) < 0.45
            assert seq.dtype == np.uint8 and (seq == want).all()


def test_draw_ahead_under_frequent_thread_switches(monkeypatch):
    """With the interpreter switching threads every microsecond, 400 batches
    of 5 trials drawn one batch ahead score as one draw of all rows: no
    batch is overwritten while it is scored."""
    w, trials, M = BinaryWord("1101"), 2000, 3
    ys = (RngConfig(23).stream(0).random((trials, w.n * M)) < 0.4).astype(np.uint8)
    want = int(batch_seen(np.uint8([w.letters]), ys, M).sum()) / trials
    monkeypatch.setattr(montecarlo, "_BATCH_CELLS", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert estimate_seen_probability(w, M, 0.4, trials, RngConfig(23)).estimate == want
    finally:
        sys.setswitchinterval(interval)


def test_estimate_memory_is_bounded():
    """Letters are drawn through a cache-sized buffer and scored in small
    batches: the traced peak does not grow with `trials`, and one trial of
    2^20 letters, or of the 2^22-letter cap, holds about its two letter
    buffers, packed lanes and reach array.  A 2^22-letter sample_sequence
    holds its letters and one 512 KB piece of uniforms."""
    cases = (
        (8, lambda: estimate_seen_probability("1100011101001010", 4, 0.5,
                                              200_000, RngConfig(1))),
        (8, lambda: estimate_x_seen_in_y(3, 0.4, 0.6, 8, 200_000, RngConfig(1))),
        (40, lambda: estimate_seen_probability("1", 2 ** 20, 0.5, 2, RngConfig(1))),
        (24, lambda: estimate_seen_probability("1", 2 ** 22, 0.5, 1, RngConfig(1))),
        (5, lambda: sample_sequence(0.5, 2 ** 22, RngConfig(1).stream(0))),
    )
    for limit_mb, estimate in cases:
        tracemalloc.start()
        try:
            estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb << 20


def test_estimate_peak_does_not_grow_with_trials():
    """The next batch is drawn into one of two preallocated buffer sets, one
    batch ahead: 600,000 trials hold what 200,000 do, where drawing every
    batch ahead at once would hold all their letters."""
    estimate_seen_probability("1100011101001010", 4, 0.5, 2, RngConfig(1))  # warm up
    peaks = []
    for trials in (200_000, 600_000):
        tracemalloc.start()
        try:
            estimate_seen_probability("1100011101001010", 4, 0.5, trials, RngConfig(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


class _CountingGen:
    """A generator that records the thread of each draw and raises `error`
    once `limit` uniforms have been drawn."""

    def __init__(self, gen, limit, error):
        self.gen, self.left, self.error, self.threads = gen, limit, error, set()

    def random(self, out):
        self.threads.add(threading.current_thread())
        if self.left < out.size:
            raise self.error
        self.left -= out.size
        return self.gen.random(out=out)


@pytest.fixture
def gens(monkeypatch):
    """Every stream the estimates open, as a _CountingGen with no limit."""
    made, real = [], RngConfig.stream
    monkeypatch.setattr(RngConfig, "stream", lambda self, *key: made.append(
        _CountingGen(real(self, *key), 10 ** 9, None)) or made[-1])
    return made


# Both estimates, with the sequence letters of one trial (12, and 15 in cross
# mode), at 64-letter batches (8 batches of up to 5 trials, or 10 of up to 4)
# and at 8-letter batches, below one trial (37 batches of one trial).
ESTIMATES = [
    pytest.param(estimate, width, cells, id=name + suffix)
    for cells, suffix in ((64, ""), (8, "-one-trial"))
    for name, estimate, width in (
        ("word", lambda rng: estimate_seen_probability("1101", 3, 0.4, 37, rng), 12),
        ("cross", lambda rng: estimate_x_seen_in_y(3, 0.3, 0.6, 5, 37, rng), 15))
]


@pytest.mark.parametrize("estimate, width, cells", ESTIMATES)
def test_a_failed_draw_reraises_and_ends_the_worker(monkeypatch, estimate, width, cells):
    """The sequence stream fails on the third batch, with an Exception or a
    KeyboardInterrupt (a BaseException only): the same exception comes out
    of the estimate after two batches were scored, and the worker thread is
    gone."""
    rows = max(1, cells // width)
    monkeypatch.setattr(montecarlo, "_BATCH_CELLS", cells)
    real = RngConfig.stream
    for error in (RuntimeError("no more uniforms"), KeyboardInterrupt()):
        monkeypatch.setattr(RngConfig, "stream", lambda self, *key, error=error: _CountingGen(
            real(self, *key), 10 ** 9 if key == (1,) else 2 * rows * width, error))
        scored = []
        monkeypatch.setattr(montecarlo, "batch_seen",
                            lambda *args: scored.append(len(args[-2])) or batch_seen(*args))
        before = threading.active_count()
        with pytest.raises(type(error)) as info:
            estimate(RngConfig(5))
        assert info.value is error
        assert scored == [rows, rows]
        assert threading.active_count() == before


@pytest.mark.parametrize("estimate, width, cells", ESTIMATES)
def test_a_failed_score_reraises_and_ends_the_worker(monkeypatch, gens, estimate, width,
                                                     cells):
    """batch_seen fails on the second batch, with an Exception or a
    KeyboardInterrupt: the same exception comes out of the estimate, the
    worker is joined, and it drew no batch past the third."""
    rows = max(1, cells // width)
    monkeypatch.setattr(montecarlo, "_BATCH_CELLS", cells)
    for error in (RuntimeError("scoring failed"), KeyboardInterrupt()):
        gens.clear()
        scored = []

        def score(*args, error=error):
            scored.append(len(args[-2]))
            if len(scored) == 2:
                raise error
            return batch_seen(*args)

        monkeypatch.setattr(montecarlo, "batch_seen", score)
        before = threading.active_count()
        with pytest.raises(type(error)) as info:
            estimate(RngConfig(5))
        assert info.value is error
        assert scored == [rows, rows]
        assert threading.active_count() == before
        assert 10 ** 9 - gens[-1].left <= 3 * rows * width


@pytest.mark.parametrize("estimate, width, cells", ESTIMATES)
def test_batches_are_scored_on_the_calling_thread(monkeypatch, gens, estimate, width,
                                                  cells):
    """batch_seen runs only on the caller's thread (perfbench's tracer keeps
    one span stack) and the generators are drawn only on the worker, also
    when a batch is one trial; the estimate is that of unsplit batches, and
    the worker is gone when it returns."""
    want = estimate(RngConfig(5))
    gens.clear()
    threads = []
    monkeypatch.setattr(montecarlo, "batch_seen",
                        lambda *args: threads.append(threading.current_thread())
                        or batch_seen(*args))
    monkeypatch.setattr(montecarlo, "_BATCH_CELLS", cells)
    before = threading.active_count()
    assert estimate(RngConfig(5)) == want
    assert threading.active_count() == before
    assert len(threads) == -(-37 // max(1, cells // width))
    assert set(threads) == {threading.current_thread()}
    drawn_on = set().union(*(gen.threads for gen in gens))
    assert len(drawn_on) == 1 and threading.current_thread() not in drawn_on


def test_chain_demo_memory_is_bounded():
    """The chain runs its samples in blocks of at most _BATCH_CELLS input
    letters (256 samples of 1,024 letters here), so the traced peak does not
    grow with `samples`; one array of every sample would hold 5,000 x 1,024
    letters at N = 5,000, 25 times the N = 200 block."""
    coupling_chain_demo(0.9, 0.1, 32, samples=2, rng=RngConfig(1))  # warm up
    peaks = []
    for samples in (200, 5000):
        tracemalloc.start()
        try:
            coupling_chain_demo(0.9, 0.1, 32, samples=samples, rng=RngConfig(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


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


def test_lanes_match_a_bit_loop():
    """Lanes are the fewest bytes of 1, 2, 4 or 8 that hold ceil(R/8); with B
    lane bits, row r is bit r % B of lane r // B, padding bits are zero, and
    a batch of at most 64 rows packs into one lane per column."""
    gen = np.random.default_rng(9)
    for R, width in ((1, 1), (7, 1), (8, 1), (9, 2), (16, 2), (17, 4), (33, 8),
                     (63, 8), (64, 8), (65, 8), (130, 8)):
        rows = gen.integers(0, 2, (R, 11), dtype=np.uint8)
        B = 8 * width
        want = np.zeros((11, -(-R // B)), dtype=np.uint64)
        for r in range(R):
            for c in range(11):
                want[c, r // B] |= np.uint64(rows[r, c]) << np.uint64(r % B)
        got = core._lanes(rows)
        assert got.dtype == np.dtype(f"<u{width}") and got.shape == want.shape
        assert (got == want).all()


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
    assert seq.dtype == np.uint8 and seq.shape == (50000,)
    assert abs(seq.sum() / 50000 - 0.2) < 0.01


def test_sample_sequence_letter_budget(monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 8)
    assert len(sample_sequence(0.5, 8, RngConfig(5).stream(0))) == 8
    with pytest.raises(ValueError, match="^a prefix of 9 letters is over the budget of 8$"):
        sample_sequence(0.5, 9, RngConfig(5).stream(0))


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
        x = BinaryWord(gen.integers(0, 2, n))
        y = gen.integers(0, 2, n * M)
        assert admissible_path_exists(red_grid(x, y), M) == is_m_seen(x, y, M)


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

def test_coupling_blocks_by_hand():
    gen = RngConfig(1).stream(0)
    out = coupling_F("1100", 0.5, gen)
    assert out.dtype == np.uint8 and out.tolist() == [1, 0]
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
        assert x[m - 1] == out[k - 1]
        prev = m
    assert seen_within(BinaryWord(out), x, 3)


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
    # recorded before prefixes became arrays: a change in draw order moves it
    assert report.empirical == 0.245
    again = coupling_chain_demo(0.5, 0.25, length=16, samples=50,
                                rng=RngConfig(21))
    assert report == again
    payload = report.to_json_dict()
    assert payload["ok"] is True and payload["window"] == 3


# (p, p_target, length, seed) -> {samples: (witness_failures, empirical,
# tolerance)}, recorded while the chain still ran one sample at a time
# through coupling_F, coupling_witness and seen_within
CHAIN_PINS = {
    (0.9, 0.1, 32, 3): {1: (0, 0.125, 0.21213203435596428),
                        7: (0, 0.14285714285714285, 0.08017837257372731),
                        65: (0, 0.11442307692307692, 0.026311740579210877),
                        200: (0, 0.105625, 0.015000000000000001)},
    (0.1, 0.9, 16, 5): {1: (0, 1.0, 0.3),
                        7: (0, 0.875, 0.11338934190276816),
                        65: (0, 0.9028846153846154, 0.03721042037676253),
                        200: (0, 0.903125, 0.021213203435596423)},
    (0.5, 0.05, 8, 6): {1: (0, 0.0, 0.3082207001484488),
                        7: (0, 0.017857142857142856, 0.1164964745021435),
                        65: (0, 0.04230769230769231, 0.038230072737812856),
                        200: (0, 0.05125, 0.021794494717703367)},
}


@pytest.mark.parametrize("plan", sorted(CHAIN_PINS), ids=lambda plan: f"{plan[0]}->{plan[1]}")
def test_chain_demo_reports_pinned(monkeypatch, plan):
    """Every report field is bit-identical to the one-sample-at-a-time chain,
    also when a small _BATCH_CELLS splits the samples over many blocks."""
    p, p_target, length, seed = plan
    stages = tuple(plan_parameter_path(p, p_target))
    want = {samples: ChainDemoReport(p, p_target, stages, 3 ** len(stages), length,
                                     samples, *pinned, seed)
            for samples, pinned in CHAIN_PINS[plan].items()}
    for samples, report in want.items():
        assert coupling_chain_demo(p, p_target, length, samples, RngConfig(seed)) == report
    # three samples per block: 65 samples in 22 blocks
    monkeypatch.setattr(montecarlo, "_BATCH_CELLS", 3 * length * 2 ** len(stages) + 1)
    assert coupling_chain_demo(p, p_target, length, 65, RngConfig(seed)) == want[65]


def test_chain_demo_catches_a_flipped_letter(monkeypatch):
    """A merge that breaks the witness for one sample at one stage costs that
    sample: one witness failure, no seen check, and its letters from before
    the broken stage pooled in `empirical`."""
    p, p_target, length, samples, rng = 0.9, 0.1, 32, 10, RngConfig(4)
    stages = plan_parameter_path(p, p_target)
    clean = coupling_chain_demo(p, p_target, length, samples, rng)
    assert clean.ok
    # sample 4 on its own, through the stage before the broken one and to the end
    gen = rng.stream(3, 4)
    cur = sample_sequence(p, length * 2 ** len(stages), gen)
    for stage in stages[:2]:
        cur = coupling_F(cur, stage.p1, gen)
    kept = int(cur.sum())
    for stage in stages[2:]:
        cur = coupling_F(cur, stage.p1, gen)
    final = int(cur.sum())

    merge = montecarlo._merge
    calls = []

    def faulty(x, p1, gens):
        out = merge(x, p1, gens)
        calls.append(len(x))
        if len(calls) == 3:  # the third stage: flip sample 4's first unmixed pair
            pair = int(np.flatnonzero(x[4, 0::2] == x[4, 1::2])[0])
            out[4, pair] ^= 1
        return out

    monkeypatch.setattr(montecarlo, "_merge", faulty)
    broken = coupling_chain_demo(p, p_target, length, samples, rng)
    assert calls == [10, 10, 10, 9, 9]
    assert broken.witness_failures == 1 and not broken.ok
    letters = samples * length
    assert broken.empirical == (round(clean.empirical * letters) - final + kept) / letters


def test_chain_demo_letter_budget(monkeypatch):
    # 0.9 -> 0.1 plans five stages: 32*2^5 letters per sample
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 32 * 2 ** 5)
    assert coupling_chain_demo(0.9, 0.1, length=32, samples=2,
                               rng=RngConfig(1)).window == 3 ** 5
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 32 * 2 ** 5 - 1)

    class NoDraw:
        def random(self, *args):
            raise AssertionError("drew a sample over the budget")

    monkeypatch.setattr(RngConfig, "stream", lambda self, *key: NoDraw())
    with pytest.raises(ValueError,
                       match="^a prefix of 1024 letters is over the budget of 1023$"):
        coupling_chain_demo(0.9, 0.1, length=32, samples=2, rng=RngConfig(1))
