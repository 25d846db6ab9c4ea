"""Exact seen probabilities via a determinized reachability automaton.

The streaming frontier of core (sets of (prefix-length, age) pairs) takes
finitely many values, so the seen event is a finite automaton over sequence
letters.  Subset states are discovered by worklist search, ACCEPT and DEAD
absorb, and the probability is read off by counting weighted letter paths
into ACCEPT in integers over n*M steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Union

import numpy as np

from .core import (BinaryWord, WordLike, _advance, _check_window, _prefix_blocks,
                   as_word, batch_seen)

Rational = Union[Fraction, int, str]

ACCEPT = "ACCEPT"
DEAD = "DEAD"

# Subset states one automaton may discover.
_STATE_CAP = 10 ** 6


class StateCapExceeded(RuntimeError):
    """Raised when subset-state discovery outgrows _STATE_CAP."""


def _check_prob(p: Fraction) -> Fraction:
    if not 0 < p < 1:
        raise ValueError(f"letter probability must be strictly between 0 and 1, got {p}")
    return p


def _normalize(members: frozenset[tuple[int, int]], n: int):
    if any(k == n for k, _ in members):
        return ACCEPT
    if not members:
        return DEAD
    return members


@dataclass(frozen=True)
class ProbAutomaton:
    """Determinized seen automaton for one word and window.

    states[i] is either a frozenset of (k, age) pairs or one of the
    absorbing sentinels ACCEPT / DEAD; transitions[i] = (on0, on1) as state
    indices.  State 0 is the start state.
    """

    word: BinaryWord
    M: int
    states: tuple
    transitions: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.states)

    def seen_probability(self, p: Rational) -> Fraction:
        """Count the letter paths of length n*M that end in ACCEPT, weighing
        each letter (b - a, a) at p = a/b, and divide once by b^(n*M)."""
        prob = _check_prob(Fraction(p))
        b = prob.denominator
        w0, w1 = b - prob.numerator, prob.numerator
        steps = self.word.n * self.M
        live = {0: 1}
        for _ in range(steps):
            nxt: dict[int, int] = {}
            for i, count in live.items():
                on0, on1 = self.transitions[i]
                nxt[on0] = nxt.get(on0, 0) + count * w0
                nxt[on1] = nxt.get(on1, 0) + count * w1
            live = nxt
        accepted = sum(count for i, count in live.items() if self.states[i] == ACCEPT)
        return Fraction(accepted, b ** steps)


def build_automaton(word: WordLike, M: int, first_gap: int | None = None) -> ProbAutomaton:
    """Worklist subset construction from the initial frontier {(0, 0)}.

    first_gap, if given, caps the first embedding position at that value
    instead of M (used to split on where the leftmost embedding starts).
    """
    w = as_word(word)
    _check_window(M)
    origin_cap = M if first_gap is None else first_gap
    if not 1 <= origin_cap <= M:
        raise ValueError(f"first gap cap must be in [1, {M}], got {origin_cap}")
    n = w.n
    start = _normalize(frozenset({(0, 0)}), n)
    states = [start]
    index = {start: 0}
    transitions: list[tuple[int, int] | None] = [None]
    queue = [0]
    while queue:
        i = queue.pop()
        state = states[i]
        if state in (ACCEPT, DEAD):
            transitions[i] = (i, i)
            continue
        row = []
        for letter in (0, 1):
            nxt = _normalize(_advance(state, letter, w.letters, M, origin_cap), n)
            j = index.get(nxt)
            if j is None:
                j = len(states)
                if j >= _STATE_CAP:
                    raise StateCapExceeded(
                        f"automaton for word of length {n}, M={M} exceeded "
                        f"{_STATE_CAP} states")
                index[nxt] = j
                states.append(nxt)
                transitions.append(None)
                queue.append(j)
            row.append(j)
        transitions[i] = (row[0], row[1])
    return ProbAutomaton(w, M, tuple(states), tuple(transitions))  # type: ignore[arg-type]


def exact_seen_probability(word: WordLike, M: int, p: Rational = Fraction(1, 2),
                           first_gap: int | None = None) -> Fraction:
    """P(word is M-seen) for iid letters with P(letter = 1) = p, exactly."""
    return build_automaton(word, M, first_gap=first_gap).seen_probability(p)


def exhaustive_seen_probability(word: WordLike, M: int,
                                p: Rational = Fraction(1, 2)) -> Fraction:
    """Oracle: weigh the seen indicator of each of the 2^(n*M) prefixes by
    p^ones (1-p)^zeros, deciding a block of prefixes at a time with the
    lane-packed batch_seen.  Hits are tallied by their number of ones; it
    shares no code with the automaton it cross-checks."""
    w = as_word(word)
    _check_window(M)
    prob = _check_prob(Fraction(p))
    a, b = prob.numerator, prob.denominator
    L = w.n * M
    hits = np.zeros(L + 1, dtype=np.int64)
    for ys in _prefix_blocks(L):
        seen = batch_seen(np.uint8([w.letters]), ys, M)
        hits += np.bincount(ys[seen].sum(axis=1, dtype=np.int64), minlength=L + 1)
    total = sum(h * a ** ones * (b - a) ** (L - ones)
                for ones, h in enumerate(hits.tolist()))
    return Fraction(total, b ** L)


def word_probability_sweep(n: int, M: int,
                           p: Rational = Fraction(1, 2)) -> Iterator[tuple[BinaryWord, Fraction]]:
    """(word, exact seen probability) for every word of length n, lex order."""
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    if n > 20:
        raise ValueError(f"sweep over 2^{n} words exceeds the enumeration budget")
    prob = Fraction(p)
    for letters in product((0, 1), repeat=n):
        w = BinaryWord(letters)
        yield w, exact_seen_probability(w, M, prob)


@dataclass(frozen=True)
class MaxWordResult:
    """All maximizing words (lex order) and the shared maximum probability."""

    words: tuple[BinaryWord, ...]
    probability: Fraction


def max_word_probability(n: int, M: int, p: Rational = Fraction(1, 2)) -> MaxWordResult:
    """Maximize the exact seen probability over all words of length n.

    Ties are real (complementation preserves the probability at p = 1/2),
    so every maximizer is reported.
    """
    best: Fraction | None = None
    winners: list[BinaryWord] = []
    for w, value in word_probability_sweep(n, M, p):
        if best is None or value > best:
            best = value
            winners = [w]
        elif value == best:
            winners.append(w)
    assert best is not None
    return MaxWordResult(tuple(winners), best)
