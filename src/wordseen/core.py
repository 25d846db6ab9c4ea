"""Words, sequence prefixes, and the window-constrained embedding engine.

A word (w_1, ..., w_n) is *M-seen* in a 0/1 sequence (Y_1, Y_2, ...) when
there are positions m_1 < ... < m_n with Y_{m_i} = w_i and every gap
m_i - m_{i-1} between 1 and M, with m_0 = 0 by convention.  The event is
decided by the first n*M letters of the sequence, so everything here is
exact and finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

Bits = tuple[int, ...]

WORD_KINDS = ("constant", "alternating", "two_block", "explicit")


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


def make_word(kind: str, n: int | None = None, *, letter: int = 1, first: int = 1,
              p: int | None = None, q: int | None = None,
              bits: Union[str, Iterable[int], None] = None) -> BinaryWord:
    """Build a word from one of the stock families or an explicit letter list.

    kind="constant" uses `letter` and `n`; "alternating" uses `first` and `n`;
    "two_block" uses block lengths `p`, `q` (n, if given, must equal p+q);
    "explicit" uses `bits`.
    """
    if kind == "constant":
        if n is None:
            raise ValueError("constant word needs a length n")
        if letter not in (0, 1):
            raise ValueError(f"letter must be 0 or 1, got {letter!r}")
        return BinaryWord.constant(letter, n)
    if kind == "alternating":
        if n is None:
            raise ValueError("alternating word needs a length n")
        return BinaryWord.alternating(first, n)
    if kind == "two_block":
        if p is None or q is None:
            raise ValueError("two_block word needs block lengths p and q")
        word = BinaryWord.two_block(p, q)
        if n is not None and n != word.n:
            raise ValueError(f"length mismatch: n={n} but p+q={word.n}")
        return word
    if kind == "explicit":
        if bits is None:
            raise ValueError("explicit word needs bits")
        word = BinaryWord(_coerce_bits(bits, "word"))
        if n is not None and n != word.n:
            raise ValueError(f"length mismatch: n={n} but {word.n} letters given")
        return word
    raise ValueError(f"unknown word kind {kind!r}, expected one of {WORD_KINDS}")


@dataclass(frozen=True)
class SequencePrefix:
    """A finite even-odds 0/1 sequence prefix; ``bits[i]`` is Y_{i+1}."""

    bits: Bits

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _coerce_bits(self.bits, "sequence"))

    @classmethod
    def from_string(cls, s: str) -> "SequencePrefix":
        return cls(_coerce_bits(s, "sequence"))

    @property
    def length(self) -> int:
        return len(self.bits)

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


@dataclass(frozen=True)
class SpacingProfile:
    """Hitting times T_1 < T_2 < ... of successive word letters (T_0 = 0).

    T_{k+1} is the first index after T_k where the sequence shows letter
    w_{k+1}; tau_k = T_k - T_{k-1} are the spacings.
    """

    T: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 0
        for t in self.T:
            if t <= prev:
                raise ValueError(f"hitting times must increase, got {self.T}")
            prev = t

    @property
    def tau(self) -> tuple[int, ...]:
        prev = 0
        out = []
        for t in self.T:
            out.append(t - prev)
            prev = t
        return tuple(out)

    @classmethod
    def from_tau(cls, tau: Iterable[int]) -> "SpacingProfile":
        total = 0
        T = []
        for t in tau:
            total += t
            T.append(total)
        return cls(tuple(T))

    def __len__(self) -> int:
        return len(self.T)


# ---------------------------------------------------------------------------
# the seen decision
# ---------------------------------------------------------------------------

def _advance(members: frozenset[tuple[int, int]], letter: int, letters: Bits,
             M: int, origin_cap: int) -> frozenset[tuple[int, int]]:
    # member (k, d): the length-k prefix can end d letters back; d < cap keeps
    # it attachable (gap d+1 <= cap for the next letter).
    n = len(letters)
    out = set()
    for k, d in members:
        cap = origin_cap if k == 0 else M
        if d + 1 < cap:
            out.add((k, d + 1))
        if k < n and letters[k] == letter:
            out.add((k + 1, 0))
    return frozenset(out)


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
# spacing-variable characterizations
# ---------------------------------------------------------------------------

def spacing_profile(word: WordLike, prefix: PrefixLike) -> SpacingProfile:
    """Hitting times of the word's letters read left to right.

    Errors if some letter is never hit within the prefix; callers that need
    all of T_1..T_n on exhaustive prefixes usually extend the prefix with an
    alternating tail first (the seen decision is unaffected past its horizon).
    """
    w = as_word(word)
    y = as_prefix(prefix)
    T = []
    cur = 0
    for k, letter in enumerate(w.letters, start=1):
        hit = None
        for i in range(cur + 1, len(y) + 1):
            if y.bits[i - 1] == letter:
                hit = i
                break
        if hit is None:
            raise ValueError(
                f"letter w_{k}={letter} not hit after position {cur} "
                f"within prefix of length {len(y)}")
        T.append(hit)
        cur = hit
    return SpacingProfile(tuple(T))


def constant_seen_by_spacings(profile: SpacingProfile, M: int, n: int) -> bool:
    """For a constant word of length n: seen iff every spacing is at most M."""
    _check_window(M)
    if len(profile) < n:
        raise ValueError(f"profile has {len(profile)} entries, need {n}")
    return all(t <= M for t in profile.tau[:n])


def alternating_seen_by_spacings(profile: SpacingProfile, M: int, n: int) -> bool:
    """For the alternating word of length n: seen iff T_k <= k*M for all k
    and T_k - T_j < (k - j + 1)*M for all 0 <= j < k <= n."""
    _check_window(M)
    if len(profile) < n:
        raise ValueError(f"profile has {len(profile)} entries, need {n}")
    T = (0,) + profile.T[:n]
    for k in range(1, n + 1):
        if T[k] > k * M:
            return False
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            if T[k] - T[j] >= (k - j + 1) * M:
                return False
    return True


def s_sequence(profile: SpacingProfile, M: int) -> list[int]:
    """Deadlines S_0 = 0, S_k = min(T_{k+1} - 1, S_{k-1} + M).

    Defined for k up to len(profile) - 1 since S_k looks one hitting time
    ahead.  The alternating word of length n is M-seen iff T_k <= S_k for
    all 1 <= k <= n (with a profile of n + 1 hitting times).
    """
    _check_window(M)
    S = [0]
    for k in range(1, len(profile)):
        S.append(min(profile.T[k] - 1, S[k - 1] + M))
    return S


# ---------------------------------------------------------------------------
# embedding counts for exhaustive sweeps
# ---------------------------------------------------------------------------

def count_embeddings_packed(letters: Bits, y: int, L: int, M: int) -> int:
    """Number of admissible embeddings inside a packed prefix."""
    n = len(letters)
    if n == 0:
        return 1
    counts = [1] + [0] * L
    for k in range(n):
        target = letters[k]
        new = [0] * (L + 1)
        window = 0
        for m in range(1, L + 1):
            window += counts[m - 1]
            if m - M - 1 >= 0:
                window -= counts[m - M - 1]
            if (y >> (m - 1)) & 1 == target:
                new[m] = window
        counts = new
    return sum(counts)
