import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordseen.core import (
    BinaryWord,
    Embedding,
    _frontier_tables,
    _group,
    _pack,
    _prefix_blocks,
    _step,
    alternating_seen_by_spacings,
    as_prefix,
    constant_seen_by_spacings,
    count_embeddings,
    count_embeddings_packed,
    enumerate_embeddings,
    hitting_times,
    is_m_seen,
    s_sequence,
    seen_packed,
    seen_within,
    standard_embedding,
)
from wordseen.montecarlo import red_grid


bits = st.lists(st.integers(0, 1), min_size=0, max_size=6)
windows = st.integers(1, 7)


def pack(y):
    return sum(b << i for i, b in enumerate(y))


# ---------------------------------------------------------------------------
# word constructors
# ---------------------------------------------------------------------------

def test_word_families():
    assert str(BinaryWord.constant(1, 4)) == "1111"
    assert str(BinaryWord.constant(0, 3)) == "000"
    assert str(BinaryWord.alternating(1, 5)) == "10101"
    assert str(BinaryWord.alternating(0, 4)) == "0101"
    assert str(BinaryWord.two_block(3, 2)) == "11100"
    assert str(BinaryWord("1100").complement()) == "0011"
    assert BinaryWord("110100").suffix(3) == BinaryWord("100")
    assert len(BinaryWord.two_block(0, 0)) == 0
    with pytest.raises(ValueError):
        BinaryWord("012")


def test_word_letters_must_be_exactly_zero_or_one():
    # each raw letter is checked before int(): 1.0 and True are letters,
    # 0.5 and 1.9 are not truncated into them
    assert str(BinaryWord((1.0, True, 0, np.uint8(1)))) == "1101"
    with pytest.raises(ValueError, match="^word letters must be 0 or 1, got 0.5$"):
        BinaryWord((0.5, 1.9))
    with pytest.raises(ValueError, match="got '2'"):
        BinaryWord("012")
    with pytest.raises(ValueError, match="got 2"):
        BinaryWord((0, 2))


def test_embedding_validation():
    Embedding((1, 3, 5), 2)
    with pytest.raises(ValueError):
        Embedding((1, 4), 2)      # gap 3 > M
    with pytest.raises(ValueError):
        Embedding((2,), 1)        # first gap 2 > M
    with pytest.raises(ValueError):
        Embedding((1, 1), 3)      # not increasing


# ---------------------------------------------------------------------------
# the seen decision
# ---------------------------------------------------------------------------

def test_two_letter_extensions_decide():
    """After 110110 the word 1100 is still open: any extension with a zero
    settles it, a double one kills it."""
    w = BinaryWord("1100")
    assert np.diff(hitting_times(w, "110110"), prepend=0).tolist() == [[1, 1, 1, 3]]
    assert is_m_seen(w, "11011000", 2)
    assert is_m_seen(w, "11011001", 2)
    assert is_m_seen(w, "11011010", 2)
    assert not is_m_seen(w, "11011011", 2)


def test_is_m_seen_needs_full_horizon():
    with pytest.raises(ValueError):
        is_m_seen("11", "110", 2)
    assert is_m_seen("11", "1100", 2)


def test_standard_embedding_earliest():
    got = standard_embedding("1100", "11011010", 2)
    assert got is not None and got.positions == (2, 4, 6, 8)
    assert list(enumerate_embeddings("1100", "11011010", 2)) == [(2, 4, 6, 8)]
    assert standard_embedding("11", "1000", 2) is None


def test_empty_word_always_seen():
    w = BinaryWord(())
    assert is_m_seen(w, "", 3)
    assert seen_within(w, "0101", 2)
    assert standard_embedding(w, "", 2).positions == ()


@settings(max_examples=300, deadline=None)
@given(bits, st.data(), windows)
def test_standard_embedding_is_lex_least(wbits, data, M):
    w = BinaryWord(tuple(wbits))
    y = data.draw(st.lists(st.integers(0, 1), min_size=len(wbits) * M,
                           max_size=len(wbits) * M))
    all_embs = list(enumerate_embeddings(w, y, M))
    got = standard_embedding(w, y, M)
    if all_embs:
        assert got is not None and got.positions == min(all_embs)
    else:
        assert got is None


@settings(max_examples=300, deadline=None)
@given(bits, st.data(), windows)
def test_seen_matches_enumeration(wbits, data, M):
    w = BinaryWord(tuple(wbits))
    y = data.draw(st.lists(st.integers(0, 1), min_size=len(wbits) * M,
                           max_size=len(wbits) * M + 3))
    assert is_m_seen(w, y, M) == bool(list(enumerate_embeddings(
        w, y[:len(wbits) * M], M)))


@settings(max_examples=200, deadline=None)
@given(bits, st.data(), windows)
def test_seen_determined_within_horizon(wbits, data, M):
    """Letters beyond n*M never matter."""
    w = BinaryWord(tuple(wbits))
    L = len(wbits) * M
    y = data.draw(st.lists(st.integers(0, 1), min_size=L, max_size=L))
    extra = data.draw(st.lists(st.integers(0, 1), min_size=0, max_size=4))
    assert seen_within(w, y, M) == seen_within(w, y + extra, M)


@settings(max_examples=200, deadline=None)
@given(bits, st.data(), windows)
def test_complement_symmetry(wbits, data, M):
    w = BinaryWord(tuple(wbits))
    L = len(wbits) * M
    y = data.draw(st.lists(st.integers(0, 1), min_size=L, max_size=L))
    flipped = [1 - b for b in y]
    assert is_m_seen(w, y, M) == is_m_seen(w.complement(), flipped, M)


@settings(max_examples=200, deadline=None)
@given(bits, st.data(), st.integers(2, 3))
def test_seen_monotone_in_window(wbits, data, M):
    w = BinaryWord(tuple(wbits))
    L = len(wbits) * (M + 1)
    y = data.draw(st.lists(st.integers(0, 1), min_size=L, max_size=L))
    if seen_within(w, y, M):
        assert seen_within(w, y, M + 1)


@settings(max_examples=200, deadline=None)
@given(bits, st.lists(st.integers(0, 1), min_size=0, max_size=8), st.integers(1, 30))
def test_seen_within_caps_window_at_prefix_length(wbits, y, M):
    """A window wider than the prefix decides as the full-width kernel does."""
    assert seen_within(wbits, y, M) == seen_packed(tuple(wbits), pack(y), len(y), M)


def test_seen_within_wide_window_stays_small():
    """At a window of 3^17 on a 2^17-letter prefix the verdict is the one at
    window L, and the kernel's integers stay near L bits, not L + M."""
    L, M = 2 ** 17, 3 ** 17
    y = np.random.default_rng(5).integers(0, 2, L, dtype=np.uint8)
    zeros = np.zeros(L, dtype=np.uint8)
    for word, prefix, expect in (("110100", y, True), ("01", zeros, False)):
        tracemalloc.start()
        try:
            got = seen_within(word, prefix, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == seen_within(word, prefix, L) == expect
        assert peak < 2 * 2 ** 20


# ---------------------------------------------------------------------------
# packed fast paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("M", [2, 3])
def test_packed_matches_scalar_exhaustively(M):
    for n in range(0, 4):
        # prefixes one letter short of the horizon, at it, and one past it
        for L in range(max(n * M - 1, 0), n * M + 2):
            for letters in itertools.product((0, 1), repeat=n):
                w = BinaryWord(letters)
                ys = np.concatenate(list(_prefix_blocks(L)))
                counts = count_embeddings(letters, ys, M)
                for val in range(1 << L):
                    y = [(val >> i) & 1 for i in range(L)]
                    embeddings = list(enumerate_embeddings(w, y, M))
                    assert counts[val] == len(embeddings)
                    if L == n * M:
                        assert seen_packed(letters, val, L, M) == bool(embeddings)
                        assert count_embeddings_packed(letters, val, L, M) == len(
                            embeddings)


@pytest.mark.parametrize("M", [1, 4, 5])
def test_count_band_matches_enumeration(M):
    """The banded counts at the window's edges and at lengths where the band
    empties before the word ends (L < n, and M > L)."""
    for n in range(0, 4):
        if n * M > 12:
            continue
        for L in sorted({0, max(n - 1, 0), max(n * M - 1, 0), n * M, n * M + 1}):
            ys = np.concatenate(list(_prefix_blocks(L)))
            before = ys.copy()
            for letters in itertools.product((0, 1), repeat=n):
                counts = count_embeddings(letters, ys, M)
                assert counts.dtype == np.int64 and counts.shape == (1 << L,)
                for val in range(1 << L):
                    y = [(val >> i) & 1 for i in range(L)]
                    assert counts[val] == len(list(enumerate_embeddings(letters, y, M)))
            assert np.array_equal(ys, before)


def test_frontier_walkthrough():
    """The automaton step: age groups of embeddable prefix lengths, each one
    int with its mask above M.bit_length() bits of age, and both successors
    from one call."""
    match, cover = _frontier_tables((1, 1))
    assert _group(0, 0b1, 2) == 0b100 and _group(1, 0b10, 2) == 0b1001
    start = (0b100,)                          # the origin (age 0, mask 0b1), slack M
    on0, on1 = _step(start, match, cover, 2)
    assert on0 == (_group(1, 0b1, 2),)        # the origin, one letter older
    # a hit at position 1 dominates the origin: w[1:] = 1 is a prefix of
    # w[0:] = 11, and the hit is younger
    assert on1 == (_group(0, 0b10, 2),)
    f = _step(on0, match, cover, 2)[1]        # hit at position 2
    assert f == (_group(0, 0b10, 2),)
    f = _step(f, match, cover, 2)[1]
    assert f == (_group(0, 0b100, 2),)        # the whole word is embedded
    assert _step((_group(0, 0b1, 1),), match, cover, 1)[0] == ()
    # an origin capped at gap 1 starts at age M - 1 and dies after one miss
    assert _step((_group(1, 0b1, 2),), match, cover, 2)[0] == ()


def test_dominated_matches_its_definition():
    for n in range(9):
        for letters in itertools.product((0, 1), repeat=n):
            match, cover = _frontier_tables(letters)
            assert match[1] == sum(1 << k for k in range(1, n + 1) if letters[k - 1])
            assert match[0] | match[1] == (1 << (n + 1)) - 2
            assert [cover(1 << k2) for k2 in range(n + 1)] == [
                sum(1 << k for k in range(k2) if letters[k2:] == letters[k:k + n - k2])
                for k2 in range(n + 1)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6), windows, st.data())
def test_step_antichain_decides_seen(letters, M, data):
    """_step keeps one age per prefix length, and streaming n*M letters
    through it reaches a full-word member exactly when seen_packed says seen."""
    letters = tuple(letters)
    n = len(letters)
    y = data.draw(st.lists(st.integers(0, 1), min_size=n * M, max_size=n * M))
    match, cover = _frontier_tables(letters)
    A = M.bit_length()
    state = (_group(0, 1, M),)
    accepted = False
    for letter in y:
        state = _step(state, match, cover, M)[letter]
        ages = [g & ((1 << A) - 1) for g in state]
        assert ages == sorted(set(ages)) and all(d < M for d in ages)
        ks = [k for g in state for k in range(n + 1) if g >> (A + k) & 1]
        assert len(ks) == len(set(ks))
        if n in ks:
            assert state == (_group(0, 1 << n, M),)
            accepted = True
            break
    assert accepted == seen_packed(letters, pack(y), n * M, M)


# ---------------------------------------------------------------------------
# spacing criteria on hand-checked cases
# ---------------------------------------------------------------------------

def test_constant_criterion():
    assert constant_seen_by_spacings(hitting_times("111", "1011010"), 2).tolist() == [True]
    assert constant_seen_by_spacings(hitting_times("11", "100100"), 2).tolist() == [False]


def test_alternating_criterion_catches_window_sum():
    """T_k <= k*M everywhere and adjacent pairs fine, but T_4 - T_2 >= 3*M:
    only the non-adjacent window rules this one out."""
    T = np.array([1, 2, 5, 8])
    assert all(T[k - 1] <= k * 2 for k in range(1, 5))
    assert all(T[k + 1] - T[k] < 2 * 2 for k in range(3))
    assert not alternating_seen_by_spacings(T, 2)
    # the sequence realizing these hitting times truly fails
    assert hitting_times("1010", "10001110").tolist() == [T.tolist()]
    assert not is_m_seen("1010", "10001110", 2)


def test_s_sequence_deadlines():
    # T = (1, 2, 3, 6, 7): S_1 = min(T_2 - 1, 0 + 2) = 1, and so on
    T = np.cumsum([1, 1, 1, 3, 1])
    assert s_sequence(T, 2).tolist() == [0, 1, 2, 4, 6]


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criteria_on_all_prefixes_match_each_prefix(n, M):
    """One call on all 2^(n*M) prefixes gives, row by row, what a call on
    that prefix alone gives; an alternating tail keeps every letter hit."""
    tail = (1, 0) * (n + 1)
    ys = np.array([y + tail for y in itertools.product((0, 1), repeat=n * M)])
    for word in (BinaryWord.constant(1, n), BinaryWord.alternating(0, n + 1)):
        T = hitting_times(word, ys)
        assert T.shape == (len(ys), word.n)
        batch = [constant_seen_by_spacings(T, M), alternating_seen_by_spacings(T, M),
                 s_sequence(T, M)]
        for r, y in enumerate(ys):
            alone = hitting_times(word, tuple(y))
            assert alone.tolist() == [T[r].tolist()]
            for criterion, rows in zip((constant_seen_by_spacings,
                                        alternating_seen_by_spacings, s_sequence),
                                       batch):
                assert criterion(alone, M).tolist() == [rows[r].tolist()]


def test_hitting_times_raise_on_a_letter_never_hit():
    with pytest.raises(ValueError, match="w_2=1 not hit after position 1"):
        hitting_times("11", "100")
    with pytest.raises(ValueError, match="prefix #1"):
        hitting_times("01", np.array([[0, 1], [1, 1]]))
    assert hitting_times("", "").shape == (1, 0)


def hitting_times_oracle(word, ys):
    """Oracle: one scan of the whole (R, L) block per letter, sharing no code
    with the packed kernel of hitting_times."""
    w = BinaryWord(word) if isinstance(word, str) else word
    if not (isinstance(ys, np.ndarray) and ys.ndim == 2):
        ys = as_prefix(ys)[None]
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


def hits_or_error(fn, word, ys):
    try:
        return fn(word, ys).tolist()
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("L", [0, 1, 62, 63, 64, 65, 127, 128, 200])
def test_hitting_times_match_the_row_scan(L):
    """Packed kernel against the oracle on seeded blocks, dense and skewed
    (so that some rows miss a letter), never-hit messages included, and on
    each row alone as a 1-D prefix."""
    rng = np.random.default_rng(L)
    outcomes = set()
    for density in (0.5, 0.1, 0.9):
        ys = (rng.random((30, L)) < density).astype(np.uint8)
        for n in (1, L // 8 + 1, L // 2 + 1):
            for word in (BinaryWord(tuple(rng.integers(0, 2, n).tolist())),
                         BinaryWord.constant(1, n)):
                expect = hits_or_error(hitting_times_oracle, word, ys)
                assert hits_or_error(hitting_times, word, ys) == expect
                outcomes.add(isinstance(expect, str))
                for y in ys[:3]:
                    assert (hits_or_error(hitting_times, word, y)
                            == hits_or_error(hitting_times_oracle, word, y))
        for word in ("", "0", "10"):
            empty = np.zeros((0, L), dtype=np.uint8)
            assert hitting_times(word, empty).shape == (0, len(word))
            assert (hits_or_error(hitting_times, word, ys[:, :0])
                    == hits_or_error(hitting_times_oracle, word, ys[:, :0]))
    assert outcomes == ({True} if L <= 1 else {False, True})


def test_hitting_times_check_block_letters():
    # a 2-D block is checked as as_prefix checks one prefix, not read as 0/1
    with pytest.raises(ValueError, match="^sequence letters must be 0 or 1, got 2$"):
        hitting_times("1", np.array([[0, 1], [2, 1]]))
    with pytest.raises(ValueError, match="got 0.5"):
        hitting_times("0", np.array([[0.0, 1.0], [1.0, 0.5]]))
    assert hitting_times("10", np.array([[True, False], [True, False]])).tolist() == [[1, 2]] * 2


PREFIX_FORMS = {
    "str": lambda bits: "".join(map(str, bits)),
    "list": list,
    "tuple": tuple,
    "bool": lambda bits: np.array(bits, dtype=bool),
    "int64": lambda bits: np.array(bits, dtype=np.int64),
    "uint8": lambda bits: np.array(bits, dtype=np.uint8),
}


def test_sequence_prefix_coercions():
    for form in PREFIX_FORMS.values():
        y = as_prefix(form([0, 1, 1, 0]))
        assert y.dtype == np.uint8 and y.shape == (4,)
        assert y.tolist() == [0, 1, 1, 0]
        empty = as_prefix(form([]))
        assert empty.dtype == np.uint8 and empty.shape == (0,)
    assert as_prefix([1.0, True, 0]).tolist() == [1, 1, 0]
    with pytest.raises(ValueError, match="^sequence letters must be 0 or 1, got 0.7$"):
        as_prefix([0.7, 1.0])
    with pytest.raises(ValueError, match="got '2'"):
        as_prefix("0120")
    with pytest.raises(ValueError, match="got 2"):
        as_prefix(np.array([0, 2], dtype=np.int64))
    with pytest.raises(ValueError, match="1-D"):
        as_prefix(np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="1-D"):
        as_prefix([[0, 1], [1, 0]])
    # a letter that is not exactly 0 or 1 is refused, not truncated into one
    with pytest.raises(ValueError):
        is_m_seen("1", [0.7, 1.0], 2)


def test_pack_puts_y_m_at_bit_m_minus_one():
    for L in range(18):
        for bits in ([1] * L, [0] * L, [(m * 5 + 3) % 7 % 2 for m in range(L)],
                     [int(m == L - 1) for m in range(L)]):
            old = int("".join(map(str, reversed(bits))) or "0", 2)
            assert _pack(as_prefix(bits)) == old


@pytest.mark.parametrize("form", PREFIX_FORMS, ids=str)
def test_every_prefix_form_gives_the_same_answers(form):
    y = PREFIX_FORMS[form]([1, 1, 0, 1, 1, 0, 1, 0])
    assert seen_within("1100", y, 2)
    assert is_m_seen("1100", y, 2)
    assert not is_m_seen("0000", y, 2)
    assert standard_embedding("1100", y, 2).positions == (2, 4, 6, 8)
    assert red_grid("10", y)[1:, 1:].tolist() == [[1, 1, 0, 1, 1, 0, 1, 0],
                                                  [0, 0, 1, 0, 0, 1, 0, 1]]
    assert hitting_times("1100", y).tolist() == [[1, 2, 3, 6]]


def test_counts_int64_cannot_hold_are_refused():
    """A count is at most min(2^L, M^n): 0^62 in 124 zeros has all 2^62 gap
    choices, and one letter more could pass int64, so it is refused."""
    assert count_embeddings((0,) * 62, np.zeros((1, 124), np.uint8), 2).tolist() == [2 ** 62]
    for n in (63, 70):  # 2^63 and 2^70 read -2^63 and 0 in int64
        with pytest.raises(ValueError, match="overflow int64"):
            count_embeddings((0,) * n, np.zeros((1, 2 * n), np.uint8), 2)
    with pytest.raises(ValueError, match="overflow int64"):
        count_embeddings_packed((0,) * 63, 0, 126, 2)
