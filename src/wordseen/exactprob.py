"""Exact seen probabilities via a determinized reachability automaton.

The streaming frontier of core._step (the youngest age of each prefix length
that can still be completed, pruned to the members no other member dominates)
takes finitely many values, so the seen event is a finite automaton over
sequence letters.  Subset states are discovered by worklist search, ACCEPT
and DEAD absorb, and the rest of the automaton is acyclic, so one post-order
pass on an explicit stack (ProbAutomaton._valuate; a cycle raises) values
every state once, in integers, for the word and for all its prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .core import (BinaryWord, WordLike, _check_prob, _check_window, _frontier_tables,
                   _prefix_blocks, _step, as_word, batch_seen)

Rational = Union[Fraction, int, str]

ACCEPT = "ACCEPT"
DEAD = "DEAD"

# Subset states one automaton may discover.
_STATE_CAP = 10 ** 6

# Bits a valuation may hold, over all its integers (see _value_ratio).
_VALUE_BITS = 1 << 32


# Word length up to which max_word_probability searches the 2^n words.
_WORD_BITS = 20


class StateCapExceeded(RuntimeError):
    """Raised when subset-state discovery outgrows _STATE_CAP, or valuing the
    automaton outgrows _VALUE_BITS."""


@dataclass(frozen=True)
class ProbAutomaton:
    """Determinized seen automaton for one word and window.

    states[i] is either a frontier of core._step, pruned to the members no
    other member dominates, or one of the absorbing sentinels ACCEPT / DEAD;
    transitions[i] = (on0, on1) as state indices.  State 0 is the start
    state.  Every embedding ends by letter n*M, so apart from the sentinels'
    self-loops the automaton is acyclic.
    """

    word: BinaryWord
    M: int
    states: tuple
    transitions: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.states)

    def _valuate(self, leaf, combine):
        """Post-order from the start on an explicit stack: leaf(state) values ACCEPT
        and DEAD, combine(state, value on 0, value on 1) the rest; returns the start's
        value.  A state met again while still open closes a cycle and raises."""
        value = [leaf(s) if s in (ACCEPT, DEAD) else None for s in self.states]
        opened, stack = [False] * self.size, [0]
        while stack:
            i = stack.pop()
            if value[i] is not None:
                continue
            on0, on1 = self.transitions[i]
            if value[on0] is None or value[on1] is None:
                if opened[i]:
                    raise ValueError(f"automaton has a cycle through state {i}")
                opened[i] = True
                stack += [i] + [j for j in (on0, on1) if value[j] is None]
                continue
            value[i] = combine(self.states[i], value[on0], value[on1])
        return value[0]

    def seen_probability(self, p: Rational) -> Fraction:
        """At p = a/b a state is worth A / b^e: ACCEPT (1, 0), DEAD (0, 0), and a
        state with letter weights (b - a, a) into (A0, e0) and (A1, e1) has
        e = 1 + max(e0, e1), A = (b - a)*A0*b^(e-1-e0) + a*A1*b^(e-1-e1).
        Every state is ACCEPT or DEAD by letter n*M, so A < b^e with e <= n*M,
        and an automaton whose values may outgrow _VALUE_BITS is refused."""
        a, b = _value_ratio(self.size, self.word.n * self.M, p)
        w0, powers = b - a, [1]  # powers[k] = b^k
        def combine(_, v0, v1):
            (A0, e0), (A1, e1) = v0, v1
            e = 1 + max(e0, e1)
            if len(powers) < e:
                powers.append(powers[-1] * b)
            return w0 * A0 * powers[e - 1 - e0] + a * A1 * powers[e - 1 - e1], e
        A, e = self._valuate(lambda s: (int(s == ACCEPT), 0), combine)
        return Fraction(A, b ** e)

    def prefix_probabilities(self, p: Rational) -> tuple[Fraction, ...]:
        """P(word[:j] is M-seen) for j = 0..n: pruning never changes whether a
        prefix is reached, so this one automaton decides each.  Entry j of a
        state is b^e if it holds some k >= j (ACCEPT holds n, DEAD none), else
        the sum of its successors' entries j weighed as in seen_probability:
        n + 1 integers per state, each as large as seen_probability's."""
        a, b = _value_ratio(self.size * (self.word.n + 1), self.word.n * self.M, p)
        def combine(state, v0, v1):
            (A0, e0), (A1, e1) = v0, v1
            e = 1 + max(e0, e1)
            s0, s1 = (b - a) * b ** (e - 1 - e0), a * b ** (e - 1 - e1)
            held = max(mask for _, mask in state).bit_length()  # some k >= j for j < held
            return [b ** e] * held + [s0 * x + s1 * y for x, y in zip(A0[held:], A1[held:])], e
        A, e = self._valuate(lambda s: ([int(s == ACCEPT)] * (self.word.n + 1), 0), combine)
        return tuple(Fraction(x, b ** e) for x in A)


def _value_ratio(values: int, letters: int, p: Rational) -> tuple[int, int]:
    """p as a/b, after refusing a valuation of that many integers, each below
    b^letters, when their bits may outgrow _VALUE_BITS."""
    a, b = _check_prob(Fraction(p)).as_integer_ratio()
    if values * letters * b.bit_length() > _VALUE_BITS:
        raise StateCapExceeded(f"valuing {values} integers over {letters} letters "
                               f"at p = {a}/{b} exceeds {_VALUE_BITS} bits")
    return a, b


def _over_cap(n: int, M: int) -> StateCapExceeded:
    return StateCapExceeded(f"automaton for word of length {n}, M={M} exceeded {_STATE_CAP} states")


def _origin_cap(n: int, M: int, first_gap: int | None) -> int:
    """The origin's slack, first_gap or else M, after refusing a bad window or
    cap and a nonempty word whose origin's ages and DEAD pass _STATE_CAP."""
    _check_window(M)
    origin_cap = M if first_gap is None else first_gap
    if not 1 <= origin_cap <= M:
        raise ValueError(f"first gap cap must be in [1, {M}], got {origin_cap}")
    if n and origin_cap + 1 > _STATE_CAP:
        raise _over_cap(n, M)
    return origin_cap


def build_automaton(word: WordLike, M: int, first_gap: int | None = None) -> ProbAutomaton:
    """Worklist subset construction over core._step, from the origin alone.

    first_gap, if given, caps the first embedding position at that value
    instead of M (used to split on where the leftmost embedding starts): the
    origin starts at age M - first_gap, so its slack is first_gap.
    """
    w = as_word(word)
    n = w.n
    origin_cap = _origin_cap(n, M, first_gap)
    match, cover = _frontier_tables(w.letters)
    states: list = []
    index: dict = {}

    def number(state) -> int:
        # _step leaves bit n alone in the youngest group: the word is seen
        state = ACCEPT if state and state[0][1] >> n else state or DEAD
        i = index.setdefault(state, len(states))
        if i == len(states):
            if i >= _STATE_CAP:
                raise _over_cap(n, M)
            states.append(state)
        return i

    number(((M - origin_cap, 1),))
    transitions = []
    for i, state in enumerate(states):  # states grows as the loop finds them
        transitions.append((i, i) if state in (ACCEPT, DEAD) else (
            number(_step(state, 0, match, cover, M)),
            number(_step(state, 1, match, cover, M))))
    return ProbAutomaton(w, M, tuple(states), tuple(transitions))


def exact_seen_probability(word: WordLike, M: int, p: Rational = Fraction(1, 2),
                           first_gap: int | None = None) -> Fraction:
    """P(word is M-seen) for iid letters with P(letter = 1) = p, exactly.  A
    nonempty word's automaton holds the origin's ages and DEAD at least, so a
    valuation over _VALUE_BITS for that many states is refused before the build."""
    w = as_word(word)
    _value_ratio(_origin_cap(w.n, M, first_gap) + 1, w.n * M, p)
    return build_automaton(w, M, first_gap=first_gap).seen_probability(p)


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


@dataclass(frozen=True)
class MaxWordResult:
    """All maximizing words (lex order) and the shared maximum probability."""

    words: tuple[BinaryWord, ...]
    probability: Fraction


def _check_word_length(n: int) -> None:
    """Refuse a negative word length, or one over the budget of the
    maximizing-word search."""
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    if n > _WORD_BITS:
        raise ValueError(f"sweep over 2^{n} words exceeds the enumeration budget")


def max_word_probability(n: int, M: int) -> tuple[MaxWordResult, ...]:
    """Maximize the exact seen probability at p = 1/2 over the words of each
    length 0..n, by one depth-first walk of the word trie; entry k of the
    result is the maximum over length k.

    A word is seen only if each of its prefixes is, so P(prefix) bounds
    every word below it, and the maximum over length k is never below the
    maximum over length n.  The walk fixes the first letter to 0, starts the
    length-n bound at the alternating word's value and drops a node only when
    its value is strictly below the best length-n value so far, so every
    maximizer of every length survives, ties included: each is reported
    with its complement, which is equally likely at p = 1/2."""
    _check_word_length(n)
    best = [Fraction(0)] * n + [exact_seen_probability(BinaryWord.alternating(0, n), M)]
    winners: list[list[BinaryWord]] = [[] for _ in range(n + 1)]
    stack = [BinaryWord(())]
    while stack:
        w = stack.pop()
        value = exact_seen_probability(w, M)
        if value < best[n]:
            continue
        if value > best[w.n]:
            best[w.n], winners[w.n] = value, [w]
        elif value == best[w.n]:
            winners[w.n].append(w)
        if w.n < n:
            stack += [BinaryWord(w.letters + (c,)) for c in ((1, 0) if w.n else (0,))]
    return tuple(MaxWordResult(tuple(sorted(set(ws) | {w.complement() for w in ws},
                                            key=lambda w: w.letters)), top)
                 for ws, top in zip(winners, best))
