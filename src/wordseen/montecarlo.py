"""Seeded simulation: seen-probability estimates, red grids, and couplings.

All randomness flows through RngConfig so identical configurations replay
identical sample streams.  Estimation draws trials as rows of numpy 0/1
arrays (row i is trial i, so per-trial draws stay addressable) and decides
them with core's lane-packed batch_seen in batches of at most _BATCH_CELLS
letters while a worker thread draws the next batch, each 0/1 draw through
one 512 KB piece of uniforms (_fill): a few MB at any `trials`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    PrefixLike,
    WordLike,
    _check_prob,
    _check_window,
    as_prefix,
    as_word,
    batch_seen,
)

# Letter budget: the widest single trial an estimate may draw, and the
# longest sample_sequence.  Wider requests are refused before any draw.
_CHUNK_CELLS = 1 << 22

# Sequence letters an estimate draws and scores per batch_seen call (one
# trial at least); a quarter of it is the uniforms per draw piece (512 KB of
# float64, which fits in cache).  Generator.random fills in order, so the
# stream and every estimate are the same as for one draw of all letters.
_BATCH_CELLS = 1 << 18

# Stages plan_parameter_path may plan before giving up.
_MAX_STAGES = 64


@dataclass(frozen=True)
class RngConfig:
    """Root seed of a PCG64 family; substreams fork off by integer keys."""

    seed: int

    def stream(self, *key: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(key))
        return np.random.Generator(np.random.PCG64(ss))


def _fill(gen: np.random.Generator, p: float, flat: np.ndarray, buf: np.ndarray) -> None:
    """flat[:] = gen.random(flat.size) < p, drawn in order through buf."""
    for start in range(0, flat.size, buf.size):
        np.less(gen.random(out=buf[:flat.size - start]), p, out=flat[start:start + buf.size])


def _draw(gen: np.random.Generator, shape: tuple[int, ...], p: float) -> np.ndarray:
    """0/1 uint8 letters of the given shape, 1 with chance p: the letters of
    (gen.random(shape) < p), drawn through one buffer of at most
    _BATCH_CELLS // 4 uniforms."""
    flat = np.empty(math.prod(shape), dtype=bool)
    _fill(gen, p, flat, np.empty(max(1, min(flat.size, _BATCH_CELLS // 4))))
    return flat.view(np.uint8).reshape(shape)


def sample_sequence(p: float, length: int, gen: np.random.Generator) -> np.ndarray:
    """One iid 0/1 prefix with P(letter = 1) = p, as a uint8 array.  A length
    over _CHUNK_CELLS is refused before the draw."""
    _check_prob(float(p))
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if length > _CHUNK_CELLS:
        raise ValueError(f"a prefix of {length} letters is over the budget "
                         f"of {_CHUNK_CELLS}")
    return _draw(gen, (length,), p)


def _estimate_hits(trials: int, M: int, fixed: tuple, draws: list) -> tuple[float, float]:
    """Seen rate and its binomial standard error over `trials` trials, each
    batch_seen(*fixed, *rows, M) with a row per (gen, p, cols) of `draws`, the last
    of sequence letters: at most _BATCH_CELLS per batch (one trial at least).  A
    worker thread draws batch k + 1 through one _fill piece into the other of two
    buffer sets while this thread scores batch k.  A trial wider than
    _CHUNK_CELLS is refused first."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    width = draws[-1][2]
    if width == 0:  # the empty word is seen in every trial; nothing is drawn
        return 1.0, 0.0
    if width > _CHUNK_CELLS:
        raise ValueError(f"one trial draws {width} letters, over the budget "
                         f"of {_CHUNK_CELLS}")
    step = min(trials, max(1, _BATCH_CELLS // width))
    sets = [[np.empty((step, cols), dtype=bool) for *_, cols in draws] for _ in "ab"]
    buf = np.empty(max(1, min(step * width, _BATCH_CELLS // 4)))
    barrier, errors, hits = threading.Barrier(2), {}, 0

    def work() -> None:
        try:
            for k, start in enumerate(range(0, trials, step)):
                try:
                    for (gen, p, _), out in zip(draws, sets[k % 2]):
                        _fill(gen, p, out[:trials - start].reshape(-1), buf)
                except BaseException as exc:  # re-raised at batch k
                    errors[k] = exc
                barrier.wait()
        except threading.BrokenBarrierError:  # the caller has stopped
            pass

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    try:
        for k, start in enumerate(range(0, trials, step)):
            barrier.wait()
            if k in errors:
                raise errors[k]
            rows = [out[:trials - start].view(np.uint8) for out in sets[k % 2]]
            hits += int(batch_seen(*fixed, *rows, M).sum())
    finally:
        barrier.abort()
        worker.join()
    est = hits / trials
    return est, math.sqrt(est * (1 - est) / trials)


@dataclass(frozen=True)
class SeenEstimate:
    """Monte Carlo estimate with its binomial standard error.  The field
    order is the column order of `wordseen simulate`."""

    word: str
    M: int
    p: float
    trials: int
    estimate: float
    stderr: float
    seed: int


def estimate_seen_probability(word: WordLike, M: int, p: float, trials: int,
                              rng: RngConfig) -> SeenEstimate:
    """Estimate P(word is M-seen) from `trials` independent prefixes."""
    w = as_word(word)
    _check_window(M)
    _check_prob(float(p))
    est, stderr = _estimate_hits(trials, M, (np.uint8([w.letters]),),
                                 [(rng.stream(0), p, w.n * M)])
    return SeenEstimate(str(w), M, float(p), trials, est, stderr, rng.seed)


@dataclass(frozen=True)
class CrossEstimate:
    """The same for a random word inside a random sequence."""

    M: int
    p_x: float
    p_y: float
    n: int
    trials: int
    estimate: float
    stderr: float
    seed: int


def estimate_x_seen_in_y(M: int, p_x: float, p_y: float, n: int, trials: int,
                         rng: RngConfig) -> CrossEstimate:
    """Estimate P(a random length-n word drawn at p_x is M-seen in an
    independent sequence drawn at p_y)."""
    _check_window(M)
    _check_prob(float(p_x), "p_x")
    _check_prob(float(p_y), "p_y")
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    est, stderr = _estimate_hits(trials, M, (), [(rng.stream(1), p_x, n),
                                                 (rng.stream(2), p_y, n * M)])
    return CrossEstimate(M, float(p_x), float(p_y), n, trials, est, stderr, rng.seed)


# ---------------------------------------------------------------------------
# red grids
# ---------------------------------------------------------------------------

def red_grid(x: WordLike, y: PrefixLike) -> np.ndarray:
    """Match grid of shape (n + 1, L + 1): red[i, j] iff X_i = Y_j, with row
    0 and column 0 holding only the red origin."""
    w = as_word(x)
    seq = as_prefix(y)
    red = np.zeros((w.n + 1, len(seq) + 1), dtype=bool)
    red[0, 0] = True
    red[1:, 1:] = np.uint8(w.letters)[:, None] == seq
    return red


def admissible_path_exists(red: np.ndarray, M: int) -> bool:
    """Oracle: is there a red path (0,0), (1,m_1), ..., (n,m_n) with column
    gaps in [1, M]?  Equivalent to the word being M-seen in the sequence
    when the grid is wide enough to decide it; a numpy row scan kept apart
    from seen_packed so the two can be checked against each other."""
    _check_window(M)
    n, L = red.shape[0] - 1, red.shape[1] - 1
    reach = np.zeros(L + 1, dtype=bool)
    reach[0] = True
    for i in range(1, n + 1):
        spread = np.zeros(L + 1, dtype=bool)
        for g in range(1, M + 1):
            spread[g:] |= reach[:-g or None]
        reach = spread & red[i]
        if not reach.any():
            return False
    return bool(reach.any())


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingStage:
    """One block-merge stage: input density p_in, mixed-block win chance p1,
    output density p_out = p_in^2 + 2 p_in (1 - p_in) p1."""

    p_in: float
    p1: float
    p_out: float

    def __post_init__(self) -> None:
        lo = self.p_in ** 2
        hi = 1 - (1 - self.p_in) ** 2
        if not lo - 1e-12 <= self.p_out <= hi + 1e-12:
            raise ValueError(f"p_out={self.p_out} outside attainable "
                             f"[{lo}, {hi}] for p_in={self.p_in}")


def _merge(x: np.ndarray, p1: float, gens: list) -> np.ndarray:
    """coupling_F of each row of x (R, 2m), the coins of row r from gens[r]."""
    out = x[:, 0::2] & x[:, 1::2]
    mixed = x[:, 0::2] != x[:, 1::2]
    if mixed.any():
        out[mixed] = np.concatenate([_draw(gen, (int(count),), p1)
                                     for gen, count in zip(gens, mixed.sum(1))])
    return out


def _witness(x: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Is each letter of out (..., m) the first of its pair in x, or neither?"""
    first = x[..., 0::2] == out
    return first, ~first & (x[..., 1::2] != out)


def coupling_F(x: PrefixLike, p1: float, gen: np.random.Generator) -> np.ndarray:
    """Merge consecutive letter pairs: 00 -> 0, 11 -> 1, and a mixed pair
    flips a p1-coin for 1.  Every output letter equals one of its two source
    letters, so the output is always 3-seen in the input."""
    seq = as_prefix(x)
    if len(seq) % 2:
        raise ValueError(f"input length must be even, got {len(seq)}")
    if not 0 <= p1 <= 1:
        raise ValueError(f"p1 must be in [0, 1], got {p1}")
    return _merge(seq[None], p1, [gen])[0]


def coupling_witness(x: PrefixLike, out: PrefixLike) -> tuple[int, ...]:
    """Positions m_k in {2k-1, 2k} with x_{m_k} = out_k; the gaps are then
    automatically in {1, 2, 3}.  Raises if some output letter matches
    neither source letter of its block."""
    xs, os = as_prefix(x), as_prefix(out)
    if len(xs) != 2 * len(os):
        raise ValueError(f"length mismatch: {len(xs)} input letters for "
                         f"{len(os)} output letters")
    first, neither = _witness(xs, os)
    if neither.any():
        raise ValueError(f"output letter {int(neither.argmax()) + 1} matches "
                         f"neither source letter")
    return tuple((2 * np.arange(1, len(os) + 1) - first).tolist())


def plan_parameter_path(p: float, p_target: float) -> list[CouplingStage]:
    """Greedy stage plan from density p to p_target.

    Each stage reaches [p^2, 1 - (1-p)^2]; while the target lies outside,
    jump to the nearest endpoint, then finish with one exact stage.  The
    word window after k stages is 3^k.
    """
    _check_prob(float(p))
    _check_prob(float(p_target), "p_target")
    stages: list[CouplingStage] = []
    cur = p
    for _ in range(_MAX_STAGES):
        if math.isclose(cur, p_target, rel_tol=0, abs_tol=1e-15):
            return stages
        lo, hi = cur ** 2, 1 - (1 - cur) ** 2
        if not lo < hi:
            raise ValueError(f"density {cur} is too close to 0 or 1 for a "
                             f"coupling stage: [{lo}, {hi}] is empty in floats")
        nxt = min(max(p_target, lo), hi)
        p1 = (nxt - lo) / (2 * cur * (1 - cur))
        p1 = min(max(p1, 0.0), 1.0)
        stages.append(CouplingStage(cur, p1, nxt))
        cur = nxt
    raise RuntimeError(f"no stage plan from {p} to {p_target} within "
                       f"{_MAX_STAGES} stages")


@dataclass(frozen=True)
class ChainDemoReport:
    """Seeded end-to-end run of a stage plan with per-sample certificates."""

    p: float
    p_target: float
    stages: tuple[CouplingStage, ...]
    window: int          # 3^k
    length: int          # letters in the final sequence
    samples: int
    witness_failures: int
    empirical: float     # mean letter of the final sequences
    tolerance: float     # 4 sigma band around p_target
    seed: int

    @property
    def ok(self) -> bool:
        return (self.witness_failures == 0
                and abs(self.empirical - self.p_target) <= self.tolerance)

    def to_json_dict(self) -> dict:
        return dict(asdict(self), ok=self.ok,
                    stages=[[s.p_in, s.p1, s.p_out] for s in self.stages])


def coupling_chain_demo(p: float, p_target: float, length: int, samples: int,
                        rng: RngConfig) -> ChainDemoReport:
    """Run the full chain on seeded samples and certify every step.

    Sample i draws an iid input at density p of length length * 2^k from
    rng.stream(3, i), pushes it through the k stages, checks the per-stage
    positional witness (a failure pools the letters from before that stage)
    and that the final word sits 3^k-seen in the input, and pools the final
    letters for the density check; samples run as rows of _BATCH_CELLS-letter
    blocks.  sample_sequence refuses an input over _CHUNK_CELLS letters first.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    stages = plan_parameter_path(p, p_target)
    k, width = len(stages), length * 2 ** len(stages)
    step = max(1, _BATCH_CELLS // width)
    failures = total = 0
    for start in range(0, samples, step):
        gens = [rng.stream(3, i) for i in range(start, min(start + step, samples))]
        cur = seq = np.stack([sample_sequence(p, width, gen) for gen in gens])
        for stage in stages:
            nxt = _merge(cur, stage.p1, gens)
            bad = _witness(cur, nxt)[1].any(1)
            failures += int(bad.sum())
            total += int(cur[bad].sum())
            seq, cur = seq[~bad], nxt[~bad]
            gens = [gen for gen, b in zip(gens, bad) if not b]
        if k and len(cur):
            failures += int((~batch_seen(cur, seq, min(3 ** k, width))).sum())
        total += int(cur.sum())
    letters = samples * length
    tolerance = 4 * math.sqrt(p_target * (1 - p_target) / letters)
    return ChainDemoReport(float(p), float(p_target), tuple(stages), 3 ** k,
                           length, samples, failures, total / letters, tolerance,
                           rng.seed)
