import hashlib
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from wordseen import core, exactprob
from wordseen.core import BinaryWord
from wordseen.exactprob import (
    ACCEPT,
    DEAD,
    ProbAutomaton,
    StateCapExceeded,
    build_automaton,
    exact_seen_probability,
    exhaustive_seen_probability,
    max_word_probability,
)
from wordseen.moments import (embedding_count_moments, expected_embeddings,
                              second_moment_exact, second_moment_oracle)
from wordseen.recursions import vn_pair_recursion, vn_single_recursion


def test_alternating_values_window_two():
    vals = [exact_seen_probability(BinaryWord.alternating(1, n), 2)
            for n in range(4)]
    assert vals == [1, Fraction(3, 4), Fraction(5, 8), Fraction(17, 32)]


def test_constant_word_alpha_power():
    # alpha = 3/4 at window 2
    assert exact_seen_probability(BinaryWord.constant(1, 2), 2) == Fraction(9, 16)
    assert exact_seen_probability(BinaryWord.constant(0, 2), 2) == Fraction(9, 16)
    for M in (2, 3, 4):
        alpha = 1 - Fraction(1, 2 ** M)
        for n in range(5):
            w = BinaryWord.constant(1, n)
            assert exact_seen_probability(w, M) == alpha ** n


def test_general_bias():
    # single letter 1: P = 1 - (1-p)^M
    p = Fraction(1, 3)
    for M in (1, 2, 3):
        got = exact_seen_probability(BinaryWord("1"), M, p)
        assert got == 1 - (1 - p) ** M
    # complement symmetry in p
    w = BinaryWord("1101")
    assert exact_seen_probability(w, 2, p) == exact_seen_probability(
        w.complement(), 2, 1 - p)
    # at p = 1/2 a word and its complement tie, with or without the first
    # gap capped at 1: the word search and the suffix bounds rely on it
    for M in (1, 2, 3, 4):
        for n in range(8):
            for letters in itertools.product((0, 1), repeat=n):
                w = BinaryWord(letters)
                for gap in (None, 1):
                    assert (exact_seen_probability(w, M, first_gap=gap)
                            == exact_seen_probability(w.complement(), M, first_gap=gap))


def test_probability_validation():
    with pytest.raises(ValueError):
        exact_seen_probability("11", 2, Fraction(0))
    with pytest.raises(ValueError):
        exact_seen_probability("11", 2, Fraction(3, 2))
    with pytest.raises(ValueError):
        exact_seen_probability("11", 0)


@pytest.mark.parametrize("M", [2, 3, 4])
def test_engine_matches_enumeration(M):
    # every word with n*M <= 12, at p = 1/2 and two biased p
    for n in range(12 // M + 1):
        for letters in itertools.product((0, 1), repeat=n):
            w = BinaryWord(letters)
            for p in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 5)):
                assert exact_seen_probability(w, M, p) == exhaustive_seen_probability(w, M, p)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6), st.integers(1, 4),
       st.sampled_from([Fraction(1, 3), Fraction(3, 5)]))
def test_engine_matches_biased_enumeration(wbits, M, p):
    # 2^(nM) oracle scans; nM <= 16 keeps each example under a second
    assume(len(wbits) * M <= 16)
    w = BinaryWord(tuple(wbits))
    assert exact_seen_probability(w, M, p) == exhaustive_seen_probability(w, M, p)


@pytest.mark.parametrize("rows", [8, 6])
def test_oracle_blocks_match_one_block(monkeypatch, rows):
    """Oracles scanning their prefixes in blocks of a few rows, the last one
    partial when rows = 6, give the values of one block of all prefixes."""
    cases = [("1011", 2), ("10110", 2), ("101100", 2), ("110", 3), ("1101", 3),
             ("10", 4), ("011", 4)]
    whole = [(exhaustive_seen_probability(w, M, Fraction(1, 3)),
              embedding_count_moments(w, M)) for w, M in cases]
    monkeypatch.setattr(core, "_BLOCK_ROWS", rows)
    for (w, M), (seen, moments) in zip(cases, whole):
        assert 8 <= len(w) * M <= 12
        assert exhaustive_seen_probability(w, M, Fraction(1, 3)) == seen
        assert seen == exact_seen_probability(w, M, Fraction(1, 3))
        assert embedding_count_moments(w, M) == moments
        assert moments == (expected_embeddings(M, len(w)), second_moment_exact(w, M))


def test_enumeration_budget():
    with pytest.raises(ValueError):
        exhaustive_seen_probability(BinaryWord.constant(1, 9), 3)  # 27 bits
    # both exhaustive oracles refuse n*M = 21 through core's one check,
    # before any of the 2^21 prefixes is scanned
    for oracle in (exhaustive_seen_probability, second_moment_oracle):
        with pytest.raises(ValueError) as err:
            oracle(BinaryWord.constant(1, 7), 3)
        assert str(err.value) == ("exhaustive sweep over 2^21 prefixes exceeds "
                                  "the 20-bit budget")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=5), st.integers(2, 3),
       st.fractions(min_value="1/10", max_value="9/10"))
def test_seen_probability_in_unit_interval(wbits, M, p):
    val = exact_seen_probability(BinaryWord(tuple(wbits)), M, p)
    assert 0 < val < 1
    # wider windows only help
    assert val <= exact_seen_probability(BinaryWord(tuple(wbits)), M + 1, p)


# ---------------------------------------------------------------------------
# automaton structure
# ---------------------------------------------------------------------------

def test_automaton_absorbing_states():
    auto = build_automaton("11", 2)
    assert ACCEPT in auto.states and DEAD in auto.states
    for sentinel in (ACCEPT, DEAD):
        i = auto.states.index(sentinel)
        assert auto.transitions[i] == (i, i)
    assert auto.states[0] != ACCEPT and auto.states[0] != DEAD


def test_exact_values_pinned():
    """One sha256 over every exact value for n <= 6, M <= 4, every first_gap
    and three biases, recorded with the unpruned frontier and the forward
    path-counting DP: the pruned automaton must reproduce them bit for bit."""
    lines = []
    for n in range(7):
        for letters in itertools.product((0, 1), repeat=n):
            w = "".join(map(str, letters))
            for M in range(1, 5):
                for gap in [None, *range(1, M + 1)]:
                    for p in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 5)):
                        value = exact_seen_probability(w, M, p, first_gap=gap)
                        lines.append(f"{w} {M} {gap} {p} {value}\n")
    assert len(lines) == 5334
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "66cae39d521891ffca346fcaa06eadf8ce7569044a36f64e29bc397fdef10319")


@pytest.mark.parametrize("word, M, size", [
    (BinaryWord.alternating(1, 32), 8, 475),
    (BinaryWord("10" * 11), 12, 497),
    (BinaryWord.constant(1, 1), 15000, 15002),
])
def test_pruned_automaton_sizes(word, M, size):
    """Dominance pruning keeps these automata small (22,458 and 24,917
    states for the first two without it), and the constant word at a very
    wide window builds and values in well under a second."""
    start = time.perf_counter()
    auto = build_automaton(word, M)
    auto.seen_probability(Fraction(1, 2))
    assert auto.size == size
    assert time.perf_counter() - start < 1


def test_long_alternating_word_equals_recursion():
    """One automaton of the alternating word, n = 128 at M = 8, gives v_128
    and, as its prefix vector, the whole table v_0..v_128."""
    auto = build_automaton(BinaryWord.alternating(1, 128), 8)
    assert auto.seen_probability(Fraction(1, 2)) == vn_single_recursion(8, 128)[128]
    assert auto.prefix_probabilities(Fraction(1, 2)) == vn_pair_recursion(8, 128).v


def test_prefix_probabilities_equal_each_prefix():
    """The prefix vector of each length-8 word equals the per-word value of
    each of its prefixes, so every word with n <= 8 is checked, at M <= 3
    and three biases."""
    for M, p in itertools.product((1, 2, 3), map(Fraction, ("1/2", "1/3", "3/4"))):
        per_word = {bits: exact_seen_probability(BinaryWord(bits), M, p)
                    for n in range(9) for bits in itertools.product((0, 1), repeat=n)}
        for bits in itertools.product((0, 1), repeat=8):
            vector = build_automaton(BinaryWord(bits), M).prefix_probabilities(p)
            assert vector == tuple(per_word[bits[:j]] for j in range(9)), (bits, M, p)


def test_backward_pass_refuses_a_cycle():
    states = ("a", "b", ACCEPT, DEAD)
    transitions = ((1, 2), (0, 3), (2, 2), (3, 3))
    auto = ProbAutomaton(BinaryWord("1"), 2, states, transitions)
    with pytest.raises(ValueError, match="cycle"):
        auto.seen_probability(Fraction(1, 2))
    with pytest.raises(ValueError, match="cycle"):
        auto.prefix_probabilities(Fraction(1, 2))


def test_state_cap(monkeypatch):
    monkeypatch.setattr(exactprob, "_STATE_CAP", 5)
    with pytest.raises(StateCapExceeded, match="exceeded 5 states"):
        build_automaton(BinaryWord.alternating(1, 8), 3)


def test_origin_over_the_state_cap_is_refused_before_any_step(monkeypatch):
    """A nonempty word's origin alone has origin_cap ages, then DEAD."""
    def no_step(*args):
        raise AssertionError("_step ran")

    monkeypatch.setattr(exactprob, "_STATE_CAP", 5)
    monkeypatch.setattr(exactprob, "_step", no_step)
    for M, first_gap in ((5, None), (9, 5), (9, 7)):
        with pytest.raises(StateCapExceeded, match="exceeded 5 states"):
            build_automaton("1", M, first_gap=first_gap)
    assert build_automaton("", 9).states == (ACCEPT,)


def test_value_bits_are_refused_before_the_pass(monkeypatch):
    """size * n*M * bit_length(b) over _VALUE_BITS is refused up front."""
    aut = build_automaton("101", 2)
    bits = aut.size * 6 * 2  # p = 1/2: b = 2 has 2 bits
    monkeypatch.setattr(exactprob, "_VALUE_BITS", bits)
    assert aut.seen_probability(Fraction(1, 2)) == Fraction(17, 32)
    with pytest.raises(StateCapExceeded, match=f"exceeds {bits} bits"):
        aut.seen_probability(Fraction(1, 5))  # b = 5 has 3 bits
    monkeypatch.setattr(exactprob, "_VALUE_BITS", bits - 1)
    with pytest.raises(StateCapExceeded, match=f"exceeds {bits - 1} bits"):
        aut.seen_probability(Fraction(1, 2))


def _reference_step(state, letter, match, cover, M):
    """core._step with its earlier per-member pruning: each member not yet
    gone, highest first, adds what it dominates to gone."""
    union = 0
    for _, mask in state:
        union |= mask
    out, gone = [], 0
    for d, mask in ((-1, (union << 1) & match[letter]), *state):
        d += 1
        if d >= M:
            break
        bits = mask = mask & ~gone
        while bits:
            k = bits.bit_length() - 1
            gone |= cover(1 << k)
            bits &= ~(gone | 1 << k)
        if mask := mask & ~gone:
            out.append((d, mask))
            gone |= mask
    return tuple(out)


def _reference_automaton(monkeypatch, word, M, first_gap=None):
    with monkeypatch.context() as m:
        m.setattr(exactprob, "_step", _reference_step)
        aut = build_automaton(word, M, first_gap=first_gap)
    return aut.states, aut.transitions


def test_memoized_cover_matches_per_member_pruning(monkeypatch):
    for n in range(9):
        for letters in itertools.product((0, 1), repeat=n):
            for M in range(1, 5):
                for first_gap in (None, *range(1, M + 1)):
                    aut = build_automaton(letters, M, first_gap=first_gap)
                    assert (aut.states, aut.transitions) == _reference_automaton(
                        monkeypatch, letters, M, first_gap)


def test_no_cover_is_shared_across_words(monkeypatch):
    """Dominance depends on the word, so words whose frontiers share masks
    give their own automata however their builds interleave."""
    words = ["10", "11", "0110", "0101", "1101", "1011"]
    want = {w: _reference_automaton(monkeypatch, w, 3) for w in words}
    for a, b in itertools.permutations(words, 2):
        for w in (a, b, a, b):
            aut = build_automaton(w, 3)
            assert (aut.states, aut.transitions) == want[w]


def test_first_gap_split():
    """Restricting the first hit to land at position 1 vs anywhere splits the
    total probability."""
    w = BinaryWord.alternating(1, 4)
    total = exact_seen_probability(w, 2)
    start1 = exact_seen_probability(w, 2, first_gap=1)
    assert 0 < start1 < total
    with pytest.raises(ValueError):
        build_automaton(w, 2, first_gap=3)


# ---------------------------------------------------------------------------
# maximizing words of every length up to n
# ---------------------------------------------------------------------------

def full_sweep_maximizers(n, M):
    """Oracle: the exact value of every word of length n, then the maximum
    and every word that reaches it, in lex order."""
    values = {BinaryWord(letters): exact_seen_probability(BinaryWord(letters), M)
              for letters in itertools.product((0, 1), repeat=n)}
    top = max(values.values())
    return [w for w, value in values.items() if value == top], top


@pytest.mark.parametrize("M,n_max", [(1, 8), (2, 10), (3, 8), (4, 8)])
def test_search_matches_full_sweep(M, n_max):
    """One walk returns the full sweep's maximum and maximizers for every
    length up to n_max; at M = 1 every word of a length ties, so nothing is
    pruned and all 2^n words of each length come back."""
    results = max_word_probability(n_max, M)
    assert len(results) == n_max + 1
    for n, res in enumerate(results):
        words, top = full_sweep_maximizers(n, M)
        assert (list(res.words), res.probability) == (words, top), (M, n)


def test_sweep_order_and_count(monkeypatch):
    """The walk to length 3 computes the alternating bound, the empty word
    and words starting with 0 only, and adds each maximizer's complement;
    at length 0 the empty word is returned alone."""
    computed = []

    def recording(word, M):
        computed.append(str(word))
        return exact_seen_probability(word, M)

    monkeypatch.setattr(exactprob, "exact_seen_probability", recording)
    results = max_word_probability(3, 2)
    assert [([str(w) for w in res.words], res.probability) for res in results] == [
        ([""], 1), (["0", "1"], Fraction(3, 4)), (["01", "10"], Fraction(5, 8)),
        (["010", "101"], Fraction(17, 32))]
    assert computed[:2] == ["010", ""]  # the starting bound, then the root
    # "00" (9/16) and "01" (5/8) both beat 17/32, so every leaf is tried
    assert sorted(computed[2:]) == ["0", "00", "000", "001", "01", "010", "011"]
    assert max_word_probability(0, 2) == (exactprob.MaxWordResult((BinaryWord(()),), 1),)


def test_max_word_small_cases():
    res = max_word_probability(1, 2)[-1]
    assert res.probability == Fraction(3, 4)
    assert {str(w) for w in res.words} == {"0", "1"}
    res4 = max_word_probability(4, 2)[-1]
    assert res4.probability == vn_single_recursion(2, 4)[4]
    assert {str(w) for w in res4.words} == {"0101", "1010"}


def test_sweep_budget(monkeypatch):
    monkeypatch.setattr(exactprob, "exact_seen_probability", None)  # never reached
    with pytest.raises(ValueError, match=r"sweep over 2\^21 words exceeds the enumeration budget"):
        max_word_probability(21, 2)


def test_prefix_passes_share_the_value_bits_budget(monkeypatch):
    """prefix_probabilities holds n + 1 values per state, so its budget is
    n + 1 times seen_probability's."""
    aut = build_automaton("101", 2)
    bits = aut.size * 4 * 6 * 2  # n + 1 = 4 values of 6 letters at b = 2
    monkeypatch.setattr(exactprob, "_VALUE_BITS", bits)
    assert aut.prefix_probabilities(Fraction(1, 2))[-1] == Fraction(17, 32)
    monkeypatch.setattr(exactprob, "_VALUE_BITS", bits - 1)
    with pytest.raises(StateCapExceeded, match=f"exceeds {bits - 1} bits"):
        aut.prefix_probabilities(Fraction(1, 2))
    assert aut.seen_probability(Fraction(1, 2)) == Fraction(17, 32)
    monkeypatch.undo()
    # 46,002 states of 2 values over 46,000 letters: about 2^33 bits
    with pytest.raises(StateCapExceeded, match="exceeds 4294967296 bits"):
        build_automaton("1", 46000).prefix_probabilities(Fraction(1, 2))
