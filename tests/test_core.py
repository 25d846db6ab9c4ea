import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wordseen.core import (
    BinaryWord,
    Embedding,
    SequencePrefix,
    SpacingProfile,
    _advance,
    alternating_seen_by_spacings,
    constant_seen_by_spacings,
    count_embeddings_packed,
    enumerate_embeddings,
    is_m_seen,
    make_word,
    s_sequence,
    seen_packed,
    seen_within,
    spacing_profile,
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


def test_make_word_dispatch():
    assert make_word("constant", 3) == BinaryWord.constant(1, 3)
    assert make_word("constant", 3, letter=0) == BinaryWord.constant(0, 3)
    assert make_word("alternating", 4, first=0) == BinaryWord.alternating(0, 4)
    assert make_word("two_block", p=2, q=1) == BinaryWord.from_string("110")
    assert make_word("explicit", bits="011") == BinaryWord.from_string("011")
    with pytest.raises(ValueError):
        make_word("constant")
    with pytest.raises(ValueError):
        make_word("explicit", 3)
    with pytest.raises(ValueError):
        make_word("palindrome", 3)
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


def test_spacing_profile_roundtrip():
    prof = SpacingProfile.from_tau((1, 2, 1))
    assert prof.T == (1, 3, 4)
    assert prof.tau == (1, 2, 1)
    with pytest.raises(ValueError):
        SpacingProfile((2, 2))


# ---------------------------------------------------------------------------
# the seen decision
# ---------------------------------------------------------------------------

def test_two_letter_extensions_decide():
    """After 110110 the word 1100 is still open: any extension with a zero
    settles it, a double one kills it."""
    w = BinaryWord.from_string("1100")
    assert spacing_profile(w, "110110").tau == (1, 1, 1, 3)
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
        L = n * M
        for letters in itertools.product((0, 1), repeat=n):
            w = BinaryWord(letters)
            for val in range(1 << L):
                y = [(val >> i) & 1 for i in range(L)]
                embeddings = list(enumerate_embeddings(w, y, M))
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


# ---------------------------------------------------------------------------
# spacing criteria on hand-checked cases
# ---------------------------------------------------------------------------

def test_constant_criterion():
    prof = spacing_profile("111", "1011010")
    assert constant_seen_by_spacings(prof, 2, 3)
    prof2 = spacing_profile("11", "100100")
    assert not constant_seen_by_spacings(prof2, 2, 2)


def test_alternating_criterion_catches_window_sum():
    """T_k <= k*M everywhere and adjacent pairs fine, but T_4 - T_2 >= 3*M:
    only the non-adjacent window rules this one out."""
    prof = SpacingProfile((1, 2, 5, 8))
    assert all(prof.T[k - 1] <= k * 2 for k in range(1, 5))
    assert all(prof.T[k + 1] - prof.T[k] < 2 * 2 for k in range(3))
    assert not alternating_seen_by_spacings(prof, 2, 4)
    # the sequence realizing these hitting times truly fails
    assert not is_m_seen("1010", "10001110", 2)


def test_s_sequence_deadlines():
    # T = (1, 2, 3, 6, 7): S_1 = min(T_2 - 1, 0 + 2) = 1, and so on
    prof = SpacingProfile.from_tau((1, 1, 1, 3, 1))
    assert s_sequence(prof, 2) == [0, 1, 2, 4, 6]


def test_sequence_prefix_coercions():
    assert SequencePrefix.from_string("0110").bits == (0, 1, 1, 0)
    assert len(SequencePrefix(())) == 0
    assert str(SequencePrefix((1, 0))) == "10"
