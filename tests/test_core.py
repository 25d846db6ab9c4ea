import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordseen.core import (
    BinaryWord,
    Embedding,
    SequencePrefix,
    _advance,
    _prefix_blocks,
    alternating_seen_by_spacings,
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
    assert str(BinaryWord.from_string("1100").complement()) == "0011"
    assert BinaryWord.from_string("110100").suffix(3) == BinaryWord.from_string("100")
    assert len(BinaryWord.two_block(0, 0)) == 0
    with pytest.raises(ValueError):
        BinaryWord.from_string("012")


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
    w = BinaryWord.from_string("1100")
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


def test_frontier_walkthrough():
    """The automaton step: members (k, age) of embeddable prefixes."""
    start = frozenset({(0, 0)})
    f = _advance(start, 0, (1, 1), 2, 2)
    assert f == {(0, 1)}
    f = _advance(f, 1, (1, 1), 2, 2)     # hit at position 2
    assert f == {(1, 0)}
    f = _advance(f, 1, (1, 1), 2, 2)
    assert (2, 0) in f                   # the whole word is embedded
    assert not _advance(start, 0, (1, 1), 1, 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6), windows, st.data())
def test_advance_antichain_decides_seen(letters, M, data):
    """_advance keeps one age per prefix length, and streaming n*M letters
    through it reaches a full-word member exactly when seen_packed says seen."""
    letters = tuple(letters)
    n = len(letters)
    y = data.draw(st.lists(st.integers(0, 1), min_size=n * M, max_size=n * M))
    members = frozenset({(0, 0)})
    accepted = False
    for letter in y:
        members = _advance(members, letter, letters, M, M)
        ks = [k for k, _ in members]
        assert len(ks) == len(set(ks))
        if n in ks:
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


def test_sequence_prefix_coercions():
    assert SequencePrefix.from_string("0110").bits == (0, 1, 1, 0)
    assert len(SequencePrefix(())) == 0
    assert str(SequencePrefix((1, 0))) == "10"
