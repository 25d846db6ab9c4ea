"""Words, sequence prefixes, and the window-constrained embedding engine.

A word (w_1, ..., w_n) is *M-seen* in a 0/1 sequence (Y_1, Y_2, ...) when
there are positions m_1 < ... < m_n with Y_{m_i} = w_i and every gap
m_i - m_{i-1} between 1 and M, with m_0 = 0 by convention.  The event is
decided by the first n*M letters of the sequence, so everything here is
exact and finite.

The decision has one scalar kernel (seen_packed) and one batched kernel
(batch_seen, up to 64 rows to a lane); the exhaustive scans take their
prefixes from _prefix_blocks, under one bit budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

Bits = tuple[int, ...]


def _coerce_bits(raw: Union[str, Iterable[int]]) -> Bits:
    # each raw letter is checked before int() could truncate it: 1.0 passes, 0.5 does not
    letters = tuple(raw)
    allowed = ("0", "1") if isinstance(raw, str) else (0, 1)
    for b in letters:
        if b not in allowed:
            raise ValueError(f"word letters must be 0 or 1, got {b!r}")
    return tuple(map(int, letters))


def _check_prob(p, name: str = "p"):
    """Refuse a letter probability outside (0, 1); return it unchanged."""
    if not 0 < p < 1:
        raise ValueError(f"{name} must be strictly between 0 and 1, got {p}")
    return p


@dataclass(frozen=True)
class BinaryWord:
    """Finite 0/1 word; ``letters[i]`` is w_{i+1} in 1-indexed notation."""

    letters: Bits

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", _coerce_bits(self.letters))

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


WordLike = Union[BinaryWord, str, Sequence[int]]
PrefixLike = Union[str, Sequence[int], np.ndarray]


def as_word(w: WordLike) -> BinaryWord:
    if isinstance(w, BinaryWord):
        return w
    return BinaryWord(w)


def as_prefix(y: PrefixLike) -> np.ndarray:
    """A prefix in the package's one format, a 1-D 0/1 uint8 array whose entry
    i is Y_{i+1}, from a string of 0s and 1s, a sequence or an array.  A
    letter that is not exactly 0 or 1, or an input that is not 1-D, is refused."""
    text = isinstance(y, str)
    arr = np.array(list(y), dtype="U1") if text else np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"a sequence prefix must be 1-D, got shape {arr.shape}")
    zero, one = ("0", "1") if text else (0, 1)
    ones = arr == one
    if np.count_nonzero(ones) + np.count_nonzero(arr == zero) < arr.size:
        bad = (arr != zero) & ~ones
        raise ValueError(f"sequence letters must be 0 or 1, got {arr[bad].tolist()[0]!r}")
    return ones.view(np.uint8)


def _check_window(M: int) -> None:
    if M < 1:
        raise ValueError(f"window M must be >= 1, got {M}")


# The exhaustive scans (both oracles, the thm3 sweep) read all 2^L prefixes of
# L = n*M letters, _BLOCK_ROWS at a time, so memory stays bounded at the budget.
_PREFIX_BITS = 20
_BLOCK_ROWS = 1 << 12


def _prefix_blocks(L: int) -> Iterator[np.ndarray]:
    """All 2^L prefixes of length L as (rows, L) 0/1 uint8 rows, in blocks of
    at most _BLOCK_ROWS rows: bit m-1 of a row's number is Y_m.  An L over
    the _PREFIX_BITS budget is refused when called, before any block."""
    if L > _PREFIX_BITS:
        raise ValueError(f"exhaustive sweep over 2^{L} prefixes exceeds the "
                         f"{_PREFIX_BITS}-bit budget")

    def block(start: int) -> np.ndarray:
        idx = np.arange(start, min(start + _BLOCK_ROWS, 1 << L), dtype="<u4")
        return np.unpackbits(idx.view(np.uint8).reshape(-1, 4), axis=1,
                             count=L, bitorder="little")

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


# ---------------------------------------------------------------------------
# the seen decision
# ---------------------------------------------------------------------------

def _frontier_tables(letters: Bits) -> tuple[tuple[int, int], Callable[[int], int]]:
    """_step's tables for one word: match[c] has bit k (1 <= k <= n) where
    w_k = c, and cover(mask), memoized for this word alone, has bit k < k2 for
    a bit k2 of mask where w[k2:] is a prefix of w[k:], so the rest of the
    word from k2 embeds wherever that from k does."""
    n = len(letters)
    word = sum(c << j for j, c in enumerate(letters))  # bit j = w[j]
    # that is, shift s = k2 - k has no mismatch w[j] != w[j + s] at j >= k:
    # s joins, as bit n - s, from k2 = s + 1 + its last mismatch on
    joins = [0] * (n + 1)
    for s in range(1, n + 1):
        joins[s + ((word ^ (word >> s)) & ((1 << (n - s)) - 1)).bit_length()] |= 1 << (n - s)
    rows = [x >> (n - k2) for k2, x in enumerate(accumulate(joins, or_))]
    cover = cache(lambda mask: reduce(or_, (r for k, r in enumerate(rows) if mask >> k & 1), 0))
    return (((1 << (n + 1)) - 2) & ~(word << 1), word << 1), cover


def _group(d: int, mask: int, M: int) -> int:
    """A frontier's age group as one int: mask above M.bit_length() bits of age d."""
    return mask << M.bit_length() | d


def _held(state: tuple, M: int) -> int:
    """One more than the longest prefix length a nonempty frontier holds."""
    return (max(state) >> M.bit_length()).bit_length()


def _step(state: tuple, match: tuple[int, int], cover: Callable[[int], int], M: int) -> tuple:
    """One letter of the frontier behind the exact automaton: both successors,
    on 0 and on 1, from one union.  A state lists its age groups (_group), ages
    ascending, masks nonzero: bit k of mask says the length-k prefix has its
    youngest end d letters back, with slack M - d for its next gap (a capped
    origin starts at age M - cap).  Every member attaches the letter, giving the
    new age-0 group; the older groups age by one, dropping ages >= M.  Walking
    from the youngest group, a k already kept goes, and so does (k, d) when some
    (k2, d2) with d2 <= d dominates it.  By transitivity a group's members
    dominate nothing that the ones it keeps do not, so one cover(m) per group
    suffices; it never holds m's top bit, so a group with members left keeps one.
    Bit n alone in the youngest group says the word is seen, () that it never is."""
    A = M.bit_length()
    low = (1 << A) - 1
    union = reduce(or_, state, 0) >> A << 1
    if state and state[-1] & low == M - 1:  # only the oldest group can reach age M
        state = state[:-1]
    hit0, hit1 = union & match[0], union & match[1]
    gone0, gone1 = cover(hit0), cover(hit1)
    out0 = [(hit0 & ~gone0) << A] if hit0 else []
    out1 = [(hit1 & ~gone1) << A] if hit1 else []
    gone0, gone1 = gone0 | hit0, gone1 | hit1  # the older, disjoint groups keep none
    for g in state:
        mask, d = g >> A, (g & low) + 1
        if m := mask & ~gone0:
            out0.append((m & ~(c := cover(m))) << A | d)
            gone0 |= c
        if m := mask & ~gone1:
            out1.append((m & ~(c := cover(m))) << A | d)
            gone1 |= c
    return tuple(out0), tuple(out1)


def _pack(y: np.ndarray) -> int:
    """A prefix as the integer seen_packed takes (bit m-1 = Y_m)."""
    return int.from_bytes(np.packbits(y, bitorder="little").tobytes(), "little")


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
    """(R, k) 0/1 rows -> (k, lanes) little-endian lanes of the fewest bytes of
    1, 2, 4 or 8 that hold ceil(R/8): with B lane bits, row r is bit r % B of
    lane r // B.  The bits past row R are zero."""
    R, k = rows.shape
    width = min(8, 1 << (max(-(-R // 8), 1) - 1).bit_length())  # bytes per lane
    packed = np.packbits(np.ascontiguousarray(rows.T), axis=1, bitorder="little")
    if packed.shape[1] % width:
        packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % width)))
    return packed.view(f"<u{width}")


def batch_seen(words: np.ndarray, ys: np.ndarray, M: int) -> np.ndarray:
    """Reachability over rows: words against ys (R, L), one bool per row.

    words is (R, n), one word per row, or (1, n), one word for every row.
    The bitset kernel of seen_packed turned on its side: with the B-bit
    lanes of _lanes, bit r % B of reach[m, r // B] says row r's word prefix
    can end at position m, so each letter costs O(log M) doubling shifts of
    whole (L + 1, R/B) arrays.  Padding bits past row R are cut off at the end.
    """
    R, L = ys.shape
    Y = _lanes(ys)
    zero = Y.dtype.type(0)
    # a single word row turns each letter into an all-0 or an all-1 lane
    W = np.where(words[0] == 1, ~zero, zero) if len(words) == 1 else _lanes(words)
    reach = np.zeros((L + 1, Y.shape[1]), dtype=Y.dtype)
    reach[0] = ~zero
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
    bitset kernel seen_packed with the window capped at the prefix length L
    (no gap inside L letters is longer than L): n letters of O(log L)
    shifts on integers of at most 2L bits.
    """
    w = as_word(word)
    y = as_prefix(prefix)
    _check_window(M)
    return seen_packed(w.letters, _pack(y), len(y), min(M, len(y)))


def is_m_seen(word: WordLike, prefix: PrefixLike, M: int) -> bool:
    """Decide the M-seen event.  Requires len(prefix) >= n*M so the answer
    is the same for every extension of the prefix."""
    w, y = _decidable(word, prefix, M)
    return seen_within(w, y[:w.n * M], M)


def _decidable(word: WordLike, prefix: PrefixLike, M: int) -> tuple[BinaryWord, np.ndarray]:
    """Coerce the word and the prefix, refusing a prefix shorter than the
    n*M letters that decide the seen event."""
    w = as_word(word)
    y = as_prefix(prefix)
    _check_window(M)
    if len(y) < w.n * M:
        raise ValueError(
            f"prefix of length {len(y)} cannot decide a word of length {w.n} "
            f"with window {M}; need at least {w.n * M} letters")
    return w, y


def standard_embedding(word: WordLike, prefix: PrefixLike, M: int) -> Embedding | None:
    """The lexicographically least admissible embedding, or None if not seen.

    Computed by a backward feasibility pass (which endpoints can still be
    completed) followed by a forward earliest-feasible choice.  Plain greedy
    earliest matching is wrong: it can paint itself into a corner that a
    later first step would avoid.
    """
    w, y = _decidable(word, prefix, M)
    masks = _letter_masks(_pack(y), len(y))
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
            if y[m - 1] == w.letters[k]:
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

def hitting_times(word: WordLike, ys: PrefixLike) -> np.ndarray:
    """Hitting times T_1 < ... < T_n of the word's letters read left to right:
    T_k is the first position after T_(k-1) (T_0 = 0) showing w_k.

    ys is one prefix or a 2-D 0/1 array of prefixes, shape (R, L); row r of the
    (R, n) result belongs to prefix r, and np.diff(T, prepend=0) gives the
    spacings.  Rows are packed once into uint64 words, and T_k is the lowest
    set bit of w_k's mask above T_(k-1).  Raises ValueError if some letter is
    never hit; callers that need all of T_1..T_n on exhaustive prefixes extend
    them with an alternating tail first (the seen decision is unaffected past
    its horizon).
    """
    w = as_word(word)
    block = isinstance(ys, np.ndarray) and ys.ndim == 2  # checked as one long prefix
    ones = as_prefix(ys.ravel() if block else ys).view(bool).reshape(ys.shape if block else (1, -1))
    R, L = ones.shape
    nbytes, words = -(-L // 8), -(-L // 64)
    # bit m-1 = Y_m; rows padded to whole bytes pack in one flat call, then to words
    bits = np.zeros((R, 8 * nbytes), dtype=bool)
    bits[:, :L] = ones
    packed = np.zeros((R, 8 * words), dtype=np.uint8)
    packed[:, :nbytes] = np.packbits(bits, bitorder="little").reshape(R, nbytes)
    one_bits = packed.view("<u8")
    in_prefix = np.array([(1 << min(64, L - 64 * j)) - 1 for j in range(words)], dtype=np.uint64)
    masks = (~one_bits & in_prefix, one_bits)
    T = np.zeros((R, w.n), dtype=np.int64)
    prev = np.zeros(R, dtype=np.int64)
    for k, letter in enumerate(w.letters):
        hit = np.zeros(R, dtype=np.int64)
        # bit b of word j is position 64j + b + 1: clear those up to T_(k-1) (a
        # numpy shift by 64 gives 0); the lowest word with a hit writes last
        for j in reversed(range(words)):
            done = np.clip(prev - 64 * j, 0, 64).astype(np.uint64)
            x = masks[letter][:, j] & (~np.uint64(0) << done)
            x &= ~x + np.uint64(1)
            hit = np.where(x != 0, 64 * j + np.frexp(x.astype(np.float64))[1], hit)
        if not hit.all():
            r = int(np.argmin(hit))
            raise ValueError(
                f"letter w_{k + 1}={letter} not hit after position {prev[r]} "
                f"within prefix #{r} of length {L}")
        T[:, k] = prev = hit
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

    The counts run position-major, a row per position and a column per
    prefix.  The first k letters can only end at positions k..min(k*M, L), so
    only that band is kept: the next letter's band is at most M shifted adds
    of the last one times the rows that show the letter, and it empties once
    k passes L.  An embedding is a set of positions and a choice of n gaps,
    so every count is at most min(2^L, M^n); int64 is exact up to 2^62, and
    inputs whose counts could pass that are refused.
    """
    R, L = ys.shape
    if min(L, len(letters) * (M - 1).bit_length()) > 62:
        raise ValueError(f"embedding counts of a word of length {len(letters)} in "
                         f"{L} letters at M = {M} may overflow int64")
    rows = np.ascontiguousarray(ys.T)
    band = np.ones((1, R), dtype=np.int64)  # the empty prefix ends at position 0
    for k, letter in enumerate(letters):
        top = min((k + 1) * M, L)
        nxt = np.zeros((max(top - k, 0), R), dtype=np.int64)
        for a in range(min(M, top - k)):
            part = band[:top - k - a]
            nxt[a:a + len(part)] += part
        nxt *= rows[k:top] == letter
        band = nxt
    return band.sum(axis=0)


def count_embeddings_packed(letters: Bits, y: int, L: int, M: int) -> int:
    """Number of admissible embeddings inside a packed prefix (bit m-1 =
    Y_m): one row of count_embeddings."""
    row = np.array([[(y >> m) & 1 for m in range(L)]], dtype=np.uint8)
    return int(count_embeddings(letters, row, M)[0])
