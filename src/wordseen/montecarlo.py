"""Seeded simulation: seen-probability estimates, red grids, and couplings.

All randomness flows through RngConfig so identical configurations replay
identical sample streams.  Estimation draws trials as rows of numpy 0/1
arrays (row i is trial i, so per-trial draws stay addressable) and decides
them with core's lane-packed batch_seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import (
    BinaryWord,
    SequencePrefix,
    WordLike,
    _check_window,
    as_prefix,
    as_word,
    batch_seen,
    seen_within,
)

# Sequence letters drawn and scored per batch.  Estimates draw their trials
# in row chunks of at most this many letters, so memory stays bounded
# whatever `trials` is; Generator.random fills rows in order, so the stream
# and every estimate are the same as for one draw of all rows.
_CHUNK_CELLS = 1 << 22

# Stages plan_parameter_path may plan before giving up.
_MAX_STAGES = 64


@dataclass(frozen=True)
class RngConfig:
    """Root seed of a PCG64 family; substreams fork off by integer keys."""

    seed: int

    def stream(self, *key: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(key))
        return np.random.Generator(np.random.PCG64(ss))


def _check_p(p: float, name: str = "p") -> float:
    p = float(p)
    if not 0 < p < 1:
        raise ValueError(f"{name} must be strictly between 0 and 1, got {p}")
    return p


def sample_sequence(p: float, length: int, gen: np.random.Generator) -> SequencePrefix:
    """One iid 0/1 prefix with P(letter = 1) = p."""
    _check_p(p)
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    bits = (gen.random(length) < p).astype(np.uint8)
    return SequencePrefix(bits.tolist())


def _estimate_hits(trials: int, M: int, width: int, draw: Callable) -> tuple[float, float]:
    """Seen rate and its binomial standard error over `trials` trials of
    `width` sequence letters; draw(rows) gives the next rows' (words, ys) in
    chunks of at most _CHUNK_CELLS letters, refusing a wider trial first."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if width == 0:  # the empty word is seen in every trial; nothing is drawn
        return 1.0, 0.0
    if width > _CHUNK_CELLS:
        raise ValueError(f"one trial draws {width} letters, over the budget "
                         f"of {_CHUNK_CELLS}")
    step = _CHUNK_CELLS // width
    hits = 0
    for start in range(0, trials, step):
        hits += int(batch_seen(*draw(min(step, trials - start)), M).sum())
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
    _check_p(p)
    gen = rng.stream(0)

    def draw(rows: int) -> tuple[np.ndarray, np.ndarray]:
        return np.uint8([w.letters]), (gen.random((rows, w.n * M)) < p).astype(np.uint8)

    est, stderr = _estimate_hits(trials, M, w.n * M, draw)
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
    _check_p(p_x, "p_x")
    _check_p(p_y, "p_y")
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    gen_x = rng.stream(1)
    gen_y = rng.stream(2)

    def draw(rows: int) -> tuple[np.ndarray, np.ndarray]:
        return ((gen_x.random((rows, n)) < p_x).astype(np.uint8),
                (gen_y.random((rows, n * M)) < p_y).astype(np.uint8))

    est, stderr = _estimate_hits(trials, M, n * M, draw)
    return CrossEstimate(M, float(p_x), float(p_y), n, trials, est, stderr, rng.seed)


# ---------------------------------------------------------------------------
# red grids
# ---------------------------------------------------------------------------

def red_grid(x: WordLike, y: Union[SequencePrefix, str, Sequence[int]]) -> np.ndarray:
    """Match grid of shape (n + 1, L + 1): red[i, j] iff X_i = Y_j, with row
    0 and column 0 holding only the red origin."""
    w = as_word(x)
    seq = as_prefix(y)
    n, L = w.n, len(seq)
    red = np.zeros((n + 1, L + 1), dtype=bool)
    red[0, 0] = True
    if n and L:
        wv = np.array(w.letters, dtype=np.uint8)[:, None]
        yv = np.array(seq.bits, dtype=np.uint8)[None, :]
        red[1:, 1:] = wv == yv
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


def coupling_F(x: Union[SequencePrefix, str, Sequence[int]],
               p1: float, gen: np.random.Generator) -> SequencePrefix:
    """Merge consecutive letter pairs: 00 -> 0, 11 -> 1, and a mixed pair
    flips a p1-coin for 1.  Every output letter equals one of its two source
    letters, so the output is always 3-seen in the input."""
    seq = as_prefix(x)
    if len(seq) % 2:
        raise ValueError(f"input length must be even, got {len(seq)}")
    if not 0 <= p1 <= 1:
        raise ValueError(f"p1 must be in [0, 1], got {p1}")
    arr = np.array(seq.bits, dtype=np.uint8).reshape(-1, 2)
    sums = arr.sum(axis=1)
    out = (sums == 2).astype(np.uint8)
    mixed = sums == 1
    if mixed.any():
        out[mixed] = (gen.random(int(mixed.sum())) < p1).astype(np.uint8)
    return SequencePrefix(out.tolist())


def coupling_witness(x: Union[SequencePrefix, str, Sequence[int]],
                     out: Union[SequencePrefix, str, Sequence[int]]) -> tuple[int, ...]:
    """Positions m_k in {2k-1, 2k} with x_{m_k} = out_k; the gaps are then
    automatically in {1, 2, 3}.  Raises if some output letter matches
    neither source letter of its block."""
    xs = as_prefix(x)
    os = as_prefix(out)
    if len(xs) != 2 * len(os):
        raise ValueError(f"length mismatch: {len(xs)} input letters for "
                         f"{len(os)} output letters")
    letters = np.frombuffer(bytes(os.bits), dtype=np.uint8)
    blocks = np.frombuffer(bytes(xs.bits), dtype=np.uint8).reshape(-1, 2)
    first = blocks[:, 0] == letters
    neither = ~first & (blocks[:, 1] != letters)
    if neither.any():
        raise ValueError(f"output letter {int(neither.argmax()) + 1} matches "
                         f"neither source letter")
    return tuple((2 * np.arange(1, len(letters) + 1) - first).tolist())


def plan_parameter_path(p: float, p_target: float) -> list[CouplingStage]:
    """Greedy stage plan from density p to p_target.

    Each stage reaches [p^2, 1 - (1-p)^2]; while the target lies outside,
    jump to the nearest endpoint, then finish with one exact stage.  The
    word window after k stages is 3^k.
    """
    _check_p(p)
    _check_p(p_target, "p_target")
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
        return {
            "p": self.p, "p_target": self.p_target,
            "stages": [[s.p_in, s.p1, s.p_out] for s in self.stages],
            "window": self.window, "length": self.length,
            "samples": self.samples, "witness_failures": self.witness_failures,
            "empirical": self.empirical, "tolerance": self.tolerance,
            "seed": self.seed, "ok": self.ok,
        }


def coupling_chain_demo(p: float, p_target: float, length: int, samples: int,
                        rng: RngConfig) -> ChainDemoReport:
    """Run the full chain on seeded samples and certify every step.

    Each sample draws an iid input at density p of length length * 2^k,
    pushes it through the k stages, checks the per-stage positional witness
    and that the final word sits 3^k-seen inside the original input, and
    pools the final letters for the density check.  A plan whose input
    exceeds _CHUNK_CELLS letters per sample is refused before any draw.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    stages = plan_parameter_path(p, p_target)
    k = len(stages)
    if length * 2 ** k > _CHUNK_CELLS:
        raise ValueError(f"{k} stages draw {length}*2^{k} letters per sample, "
                         f"over the budget of {_CHUNK_CELLS}")
    window = 3 ** k
    failures = 0
    total = 0
    for i in range(samples):
        gen = rng.stream(3, i)
        seq = sample_sequence(p, length * 2 ** k, gen)
        cur = seq
        ok = True
        for stage in stages:
            nxt = coupling_F(cur, stage.p1, gen)
            try:
                coupling_witness(cur, nxt)
            except ValueError:
                ok = False
                break
            cur = nxt
        if ok and k and not seen_within(BinaryWord(cur.bits), seq, window):
            ok = False
        if not ok:
            failures += 1
        total += sum(cur.bits)
    letters = samples * length
    empirical = total / letters
    tolerance = 4 * math.sqrt(p_target * (1 - p_target) / letters)
    return ChainDemoReport(float(p), float(p_target), tuple(stages), window,
                           length, samples, failures, empirical, tolerance,
                           rng.seed)
