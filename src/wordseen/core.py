"""Words, sequence prefixes, and the window-constrained embedding engine.

A word (w_1, ..., w_n) is *M-seen* in a 0/1 sequence (Y_1, Y_2, ...) when
there are positions m_1 < ... < m_n with Y_{m_i} = w_i and every gap
m_i - m_{i-1} between 1 and M, with m_0 = 0 by convention.  The event is
decided by the first n*M letters of the sequence, so everything here is
exact and finite.

The decision has one scalar kernel (seen_packed) and one batched kernel
(batch_seen, 64 rows to a uint64 lane); the exhaustive scans take their
prefixes from _prefix_blocks, under one bit budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

Bits = tuple[int, ...]


def _coerce_bits(raw: Union[str, Iterable[int]], what: str) -> Bits:
    if isinstance(raw, str):
        raw = (int(ch) for ch in raw)
    bits = tuple(int(b) for b in raw)
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"{what} letters must be 0 or 1, got {b!r}")
    return bits


@dataclass(frozen=True)
class BinaryWord:
    """Finite 0/1 word; ``letters[i]`` is w_{i+1} in 1-indexed notation."""

    letters: Bits

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", _coerce_bits(self.letters, "word"))

    @classmethod
    def constant(cls, letter: int, n: int) -> "BinaryWord":
        if n < 0:
            raise ValueError(f"word length must be >= 0, got {n}")
        return cls((letter,) * n)

    @classmethod
    def alternating(cls, first: int, n: int) -> "BinaryWord":
        if n < 0:
            raise ValueError(f"word length must be >= 0, got {n}")
        if first not in (0, 1):
            raise ValueError(f"first letter must be 0 or 1, got {first!r}")
        return cls(tuple((first + i) % 2 for i in range(n)))

    @classmethod
    def two_block(cls, p: int, q: int) -> "BinaryWord":
        """p ones followed by q zeros."""
        if p < 0 or q < 0:
            raise ValueError(f"block lengths must be >= 0, got ({p}, {q})")
        return cls((1,) * p + (0,) * q)

    @classmethod
    def from_string(cls, s: str) -> "BinaryWord":
        return cls(_coerce_bits(s, "word"))

    @property
    def n(self) -> int:
        return len(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.letters)

    def complement(self) -> "BinaryWord":
        return BinaryWord(tuple(1 - b for b in self.letters))

    def suffix(self, m: int) -> "BinaryWord":
        """The last m letters, a word in its own right."""
        if not 0 <= m <= self.n:
            raise ValueError(f"suffix length {m} out of range for word of length {self.n}")
        return BinaryWord(self.letters[self.n - m:])


@dataclass(frozen=True)
class SequencePrefix:
    """A finite 0/1 sequence prefix, drawn at any bias; ``bits[i]`` is Y_{i+1}."""

    bits: Bits

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _coerce_bits(self.bits, "sequence"))

    @classmethod
    def from_string(cls, s: str) -> "SequencePrefix":
        return cls(_coerce_bits(s, "sequence"))

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


WordLike = Union[BinaryWord, str, Sequence[int]]
PrefixLike = Union[SequencePrefix, str, Sequence[int]]


def as_word(w: WordLike) -> BinaryWord:
    if isinstance(w, BinaryWord):
        return w
    return BinaryWord(_coerce_bits(w, "word"))


def as_prefix(y: PrefixLike) -> SequencePrefix:
    if isinstance(y, SequencePrefix):
        return y
    return SequencePrefix(_coerce_bits(y, "sequence"))


def _check_window(M: int) -> None:
    if M < 1:
        raise ValueError(f"window M must be >= 1, got {M}")


# The exhaustive scans (both oracles, the thm3 sweep) read all 2^L prefixes of
# L = n*M letters, _BLOCK_ROWS at a time, so memory stays bounded at the budget.
_PREFIX_BITS = 20
_BLOCK_ROWS = 1 << 16


def _prefix_blocks(L: int) -> Iterator[np.ndarray]:
    """All 2^L prefixes of length L as (rows, L) 0/1 uint8 rows, in blocks of
    at most _BLOCK_ROWS rows: bit m-1 of a row's number is Y_m.  An L over
    the _PREFIX_BITS budget is refused when called, before any block."""
    if L > _PREFIX_BITS:
        raise ValueError(f"exhaustive sweep over 2^{L} prefixes exceeds the "
                         f"{_PREFIX_BITS}-bit budget")

    def block(start: int) -> np.ndarray:
        idx = np.arange(start, min(start + _BLOCK_ROWS, 1 << L), dtype=np.uint32)
        rows = np.empty((len(idx), L), dtype=np.uint8)
        for m in range(L):
            rows[:, m] = (idx >> m) & 1
        return rows

    return map(block, range(0, 1 << L, _BLOCK_ROWS))


@dataclass(frozen=True)
class Embedding:
    """Admissible positions m_1 < ... < m_n with gaps in [1, M] from m_0 = 0."""

    positions: tuple[int, ...]
    M: int

    def __post_init__(self) -> None:
        _check_window(self.M)
        prev = 0
        for m in self.positions:
            gap = m - prev
            if not 1 <= gap <= self.M:
                raise ValueError(
                    f"gap {gap} at position {m} outside [1, {self.M}]")
            prev = m

    def __len__(self) -> int:
        return len(self.positions)


# ---------------------------------------------------------------------------
# the seen decision
# ---------------------------------------------------------------------------

def _advance(members: frozenset[tuple[int, int]], letter: int, letters: Bits,
             M: int, origin_cap: int) -> frozenset[tuple[int, int]]:
    # member (k, d): the length-k prefix can end d letters back; d < cap keeps
    # it attachable (gap d+1 <= cap for the next letter).  Only the youngest
    # age per k is kept: an older end can do nothing a younger one cannot.
    n = len(letters)
    ages: dict[int, int] = {}
    for k, d in members:
        cap = origin_cap if k == 0 else M
        if d + 1 < min(cap, ages.get(k, cap)):
            ages[k] = d + 1
        if k < n and letters[k] == letter:
            ages[k + 1] = 0
    return frozenset(ages.items())


def _pack(bits: Bits) -> int:
    """A prefix as the integer seen_packed takes (bit m-1 = Y_m)."""
    return int("".join(map(str, reversed(bits))) or "0", 2)


def _letter_masks(y: int, L: int) -> tuple[int, int]:
    """Bitsets of the positions m in 1..L (bit m) where Y_m = 0 and Y_m = 1."""
    full = (1 << (L + 1)) - 2
    ones = (y << 1) & full
    return ones ^ full, ones


def _smear_steps(M: int) -> list[int]:
    """Shifts whose successive `x |= x << s` make x cover offsets 0..M-1.

    Each step doubles the covered width until the last one tops it up to M,
    so there are O(log M) of them.
    """
    steps = []
    width = 1
    while width < M:
        step = min(width, M - width)
        steps.append(step)
        width += step
    return steps


def seen_packed(letters: Bits, y: int, L: int, M: int) -> bool:
    """Does the word embed inside a prefix packed as an integer (bit m-1 = Y_m)?

    The package's one scalar reachability kernel.  After k letters, bit m of
    `reach` says the length-k prefix of the word can end at position m (bit
    0 is the origin); the next letter smears it over the M positions after
    each set bit and keeps the positions that show that letter.
    """
    masks = _letter_masks(y, L)
    steps = _smear_steps(M)
    reach = 1
    for letter in letters:
        for s in steps:
            reach |= reach << s
        reach = (reach << 1) & masks[letter]
        if not reach:
            return False
    return True


def _lanes(rows: np.ndarray) -> np.ndarray:
    """(R, k) 0/1 rows -> (k, ceil(R/64)) uint64: row r is bit r % 64 of lane
    r // 64.  The bits past row R are zero."""
    R, k = rows.shape
    if R % 64:
        rows = np.concatenate([rows, np.zeros((-R % 64, k), dtype=rows.dtype)])
    # byte b of a lane row ORs rows 8b..8b+7, row 8b+j shifted to bit j
    g = rows.reshape(len(rows) // 8, 8, k)
    acc = g[:, 0].copy()
    for j in range(1, 8):
        acc |= g[:, j] << j
    return np.ascontiguousarray(acc.T).view(np.uint64)


def batch_seen(words: np.ndarray, ys: np.ndarray, M: int) -> np.ndarray:
    """Reachability over rows: words against ys (R, L), one bool per row.

    words is (R, n), one word per row, or (1, n), one word for every row.
    The bitset kernel of seen_packed turned on its side: bit r % 64 of
    reach[m, r // 64] says row r's word prefix can end at position m, so
    each letter costs O(log M) doubling shifts of whole (L + 1, R/64) arrays.
    Padding bits past row R are cut off at the end.
    """
    R, L = ys.shape
    Y = _lanes(ys)
    # a single word row turns each letter into an all-0 or an all-1 lane
    W = (np.where(words[0] == 1, ~np.uint64(0), np.uint64(0)) if len(words) == 1
         else _lanes(words))
    reach = np.zeros((L + 1, Y.shape[1]), dtype=np.uint64)
    reach[0] = ~np.uint64(0)
    steps = _smear_steps(M)
    for letter in W:
        for s in steps:
            reach[s:] |= reach[:-s]
        reach[1:] = reach[:-1] & ~(Y ^ letter)
        reach[0] = 0
        if not reach.any():
            break
    seen = np.bitwise_or.reduce(reach, axis=0)
    return np.unpackbits(seen.view(np.uint8), bitorder="little")[:R].astype(bool)


def seen_within(word: WordLike, prefix: PrefixLike, M: int) -> bool:
    """Does the word have an admissible embedding inside this prefix?

    No horizon requirement: a True answer certifies an embedding, a False
    answer only says there is none within the letters given.  Runs the
    bitset kernel seen_packed: n letters of O(log M) shifts on (L + M)-bit
    integers, so it stays usable for the very wide windows the coupling
    chain produces.
    """
    w = as_word(word)
    y = as_prefix(prefix)
    _check_window(M)
    return seen_packed(w.letters, _pack(y.bits), len(y), M)


def is_m_seen(word: WordLike, prefix: PrefixLike, M: int) -> bool:
    """Decide the M-seen event.  Requires len(prefix) >= n*M so the answer
    is the same for every extension of the prefix."""
    w = as_word(word)
    y = as_prefix(prefix)
    _check_window(M)
    if len(y) < w.n * M:
        raise ValueError(
            f"prefix of length {len(y)} cannot decide a word of length {w.n} "
            f"with window {M}; need at least {w.n * M} letters")
    horizon = SequencePrefix(y.bits[:w.n * M])
    return seen_within(w, horizon, M)


def standard_embedding(word: WordLike, prefix: PrefixLike, M: int) -> Embedding | None:
    """The lexicographically least admissible embedding, or None if not seen.

    Computed by a backward feasibility pass (which endpoints can still be
    completed) followed by a forward earliest-feasible choice.  Plain greedy
    earliest matching is wrong: it can paint itself into a corner that a
    later first step would avoid.
    """
    w = as_word(word)
    y = as_prefix(prefix)
    _check_window(M)
    if len(y) < w.n * M:
        raise ValueError(
            f"prefix of length {len(y)} cannot decide a word of length {w.n} "
            f"with window {M}; need at least {w.n * M} letters")
    masks = _letter_masks(_pack(y.bits), len(y))
    steps = _smear_steps(M)

    # feas[k-1], bit m: prefix w_1..w_k can end at m and the rest of the word
    # still embeds after m.  The right-shift smear mirrors seen_packed's.
    feas = [masks[letter] for letter in w.letters]
    for k in range(w.n - 2, -1, -1):
        later = feas[k + 1] >> 1
        for s in steps:
            later |= later >> s
        feas[k] &= later

    positions = []
    cur = 0
    for bits in feas:
        window = bits & (((1 << M) - 1) << (cur + 1))
        if not window:
            return None
        cur = (window & -window).bit_length() - 1
        positions.append(cur)
    return Embedding(tuple(positions), M)


def enumerate_embeddings(word: WordLike, prefix: PrefixLike, M: int) -> Iterator[tuple[int, ...]]:
    """Oracle: yield every admissible embedding inside the prefix, in
    lexicographic order.

    Brute-force recursion that shares no code with seen_packed; the tests
    check the kernel and standard_embedding against it at small sizes.
    """
    w = as_word(word)
    y = as_prefix(prefix)
    _check_window(M)
    n, L = w.n, len(y)

    def extend(k: int, cur: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(acc)
            return
        for m in range(cur + 1, min(cur + M, L) + 1):
            if y.bits[m - 1] == w.letters[k]:
                acc.append(m)
                yield from extend(k + 1, m, acc)
                acc.pop()

    return extend(0, 0, [])


# ---------------------------------------------------------------------------
# hitting times and the spacing criteria on them
#
# The criteria take hitting times T with k on the last axis, one row per
# prefix (a single row of shape (n,) works too), and return one verdict or
# one row of deadlines per prefix.
# ---------------------------------------------------------------------------

def hitting_times(word: WordLike, ys: Union[PrefixLike, np.ndarray]) -> np.ndarray:
    """Hitting times T_1 < ... < T_n of the word's letters read left to right:
    T_k is the first position after T_(k-1) (T_0 = 0) showing w_k.

    ys is one prefix or a 0/1 array of prefixes, shape (R, L); row r of the
    (R, n) result belongs to prefix r, and np.diff(T, prepend=0) gives the
    spacings.  Raises ValueError if some letter is never hit; callers that
    need all of T_1..T_n on exhaustive prefixes extend them with an
    alternating tail first (the seen decision is unaffected past its horizon).
    """
    w = as_word(word)
    if not isinstance(ys, np.ndarray):
        ys = np.array([as_prefix(ys).bits], dtype=np.uint8)
    R, L = ys.shape
    cols = np.arange(1, L + 1)
    T = np.zeros((R, w.n), dtype=np.int64)
    prev = np.zeros((R, 1), dtype=np.int64)
    for k, letter in enumerate(w.letters):
        match = (ys == letter) & (cols > prev)
        hit = match.any(axis=1)
        if not hit.all():
            r = int(np.argmin(hit))
            raise ValueError(
                f"letter w_{k + 1}={letter} not hit after position {prev[r, 0]} "
                f"within prefix #{r} of length {L}")
        T[:, k] = match.argmax(axis=1) + 1
        prev = T[:, k:k + 1]
    return T


def constant_seen_by_spacings(T: np.ndarray, M: int) -> np.ndarray:
    """For a constant word of length n = T.shape[-1]: seen iff every spacing
    T_k - T_(k-1) is at most M."""
    _check_window(M)
    return (np.diff(T, axis=-1, prepend=0) <= M).all(axis=-1)


def alternating_seen_by_spacings(T: np.ndarray, M: int) -> np.ndarray:
    """For the alternating word of length n = T.shape[-1]: seen iff T_k <= k*M
    for all k and T_k - T_j < (k - j + 1)*M for all 0 <= j < k <= n."""
    _check_window(M)
    # with A_k = T_k - k*M the window condition reads A_k - A_j < M, so
    # each k only has to clear the smallest A_j before it
    A = np.insert(T, 0, 0, axis=-1) - M * np.arange(np.shape(T)[-1] + 1)
    lowest = np.minimum.accumulate(A[..., :-1], axis=-1)
    return ((A[..., 1:] <= 0) & (A[..., 1:] - lowest < M)).all(axis=-1)


def s_sequence(T: np.ndarray, M: int) -> np.ndarray:
    """Deadlines S_0 = 0, S_k = min(T_(k+1) - 1, S_(k-1) + M), as many per
    row as T has hitting times since S_k looks one hitting time ahead.

    The alternating word of length n is M-seen iff T_k <= S_k for all
    1 <= k <= n (with n + 1 hitting times).
    """
    _check_window(M)
    S = np.zeros(np.shape(T), dtype=np.int64)
    for k in range(1, S.shape[-1]):
        S[..., k] = np.minimum(T[..., k] - 1, S[..., k - 1] + M)
    return S


# ---------------------------------------------------------------------------
# embedding counts for exhaustive sweeps
# ---------------------------------------------------------------------------

def count_embeddings(letters: Bits, ys: np.ndarray, M: int) -> np.ndarray:
    """Number of admissible embeddings inside each 0/1 row of ys (R, L),
    one int64 per row.

    counts[:, m] holds the embeddings of the word's first k letters that
    end at position m (column 0 is the origin).  The next letter sums the
    M columns before each position, as differences of one cumsum, and keeps
    the positions that show it.  An embedding is a set of positions, so a
    count is at most 2^L and int64 is exact for L < 63.
    """
    R, L = ys.shape
    counts = np.zeros((R, L + 1), dtype=np.int64)
    counts[:, 0] = 1
    for letter in letters:
        c = np.cumsum(counts, axis=1)
        window = c[:, :L]
        if M < L:
            window[:, M:] -= c[:, :L - M]
        counts[:, 0] = 0
        np.multiply(window, ys == letter, out=counts[:, 1:])
    return counts.sum(axis=1)


def count_embeddings_packed(letters: Bits, y: int, L: int, M: int) -> int:
    """Number of admissible embeddings inside a packed prefix (bit m-1 =
    Y_m): one row of count_embeddings."""
    row = np.array([[(y >> m) & 1 for m in range(L)]], dtype=np.uint8)
    return int(count_embeddings(letters, row, M)[0])
