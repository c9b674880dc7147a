"""Probabilistic and support-level automata over finite words, with exact arithmetic.

Every probability in this module is a ``fractions.Fraction``; nothing here ever
rounds. Floats appear only in :func:`monte_carlo_accept`, which is an estimator
by design. States and letters are plain strings, and the declaration order of
``states`` / ``alphabet`` is the canonical enumeration used everywhere an order
matters.

Automata are total: every (state, letter) pair must carry a distribution (or a
support set, for :class:`NumberlessAutomaton`). Partial transition tables can
be closed off with :func:`complete_with_sink`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    DomainError,
    InconsistentSupport,
    NotADistribution,
    NotSimple,
    UnknownLetter,
    UnknownState,
    ValidationError,
)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into a Fraction. Raises DomainError on junk."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r} ({exc})") from None


class Distribution:
    """A finitely supported exact probability distribution over state ids.

    Zero entries are dropped on construction; the stored entries are strictly
    positive and sum to exactly one. Entries iterate in sorted state order, so
    equal distributions are indistinguishable however they were built.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Fraction | int]):
        kept: dict[str, Fraction] = {}
        total = ZERO
        for state in sorted(entries):
            p = Fraction(entries[state])
            if p < 0:
                raise NotADistribution(f"negative mass {p} on state {state!r}")
            if p == 0:
                continue
            kept[state] = p
            total += p
        if total != 1:
            raise NotADistribution(f"entries sum to {total}, expected 1")
        self._entries = kept

    def support(self) -> frozenset[str]:
        return frozenset(self._entries)

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple(self._entries.items())

    def mass(self, states: Iterable[str]) -> Fraction:
        states = states if isinstance(states, (set, frozenset)) else frozenset(states)
        return sum((p for s, p in self._entries.items() if s in states), ZERO)

    def __getitem__(self, state: str) -> Fraction:
        return self._entries.get(state, ZERO)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self._entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}: {p}" for s, p in self._entries.items())
        return f"Distribution({{{inner}}})"


def dirac(state: str) -> Distribution:
    """The point distribution on one state."""
    return Distribution({state: ONE})


def _check_ids(kind: str, ids: Sequence[str]) -> None:
    if not ids:
        raise ValidationError(f"automaton needs at least one {kind}")
    if len(set(ids)) != len(ids):
        dupe = next(x for i, x in enumerate(ids) if x in ids[:i])
        raise ValidationError(f"duplicate {kind} id {dupe!r}")
    for x in ids:
        if not isinstance(x, str) or not x:
            raise ValidationError(f"{kind} ids must be nonempty strings, got {x!r}")


@dataclass(frozen=True)
class ProbAutomaton:
    """A complete probabilistic automaton over finite words.

    ``delta`` maps every (state, letter) pair to a Distribution; ``final`` is
    the accepting set. Instances are treated as immutable after construction.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    delta: Mapping[tuple[str, str], Distribution]
    final: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "delta", dict(self.delta))
        object.__setattr__(self, "final", frozenset(self.final))
        _check_ids("state", self.states)
        _check_ids("letter", self.alphabet)
        state_set = frozenset(self.states)
        letter_set = frozenset(self.alphabet)
        if self.initial not in state_set:
            raise ValidationError(f"initial state {self.initial!r} not among states")
        bad_final = self.final - state_set
        if bad_final:
            raise ValidationError(f"final states {sorted(bad_final)} not among states")
        for s in self.states:
            for a in self.alphabet:
                d = self.delta.get((s, a))
                if d is None:
                    raise ValidationError(f"missing distribution for ({s!r}, {a!r})")
                if not isinstance(d, Distribution):
                    raise ValidationError(f"delta[({s!r}, {a!r})] is not a Distribution")
                if not state_set.issuperset(d):
                    stray = d.support() - state_set
                    raise ValidationError(
                        f"delta[({s!r}, {a!r})] targets unknown states {sorted(stray)}"
                    )
        # Every declared pair is present, so a larger table has extra pairs.
        if len(self.delta) != len(self.states) * len(self.alphabet):
            extra = set(self.delta) - {(s, a) for s in self.states for a in self.alphabet}
            raise ValidationError(f"delta has entries for unknown pairs {sorted(extra)}")
        object.__setattr__(self, "_state_set", state_set)
        object.__setattr__(self, "_letter_set", letter_set)

    def state_set(self) -> frozenset[str]:
        return self._state_set  # type: ignore[attr-defined]

    def letter_set(self) -> frozenset[str]:
        return self._letter_set  # type: ignore[attr-defined]


@dataclass(frozen=True)
class NumberlessAutomaton:
    """A support-level automaton: who can go where, with the numbers erased.

    ``support`` is a set of (state, letter, target) triples. Totality is
    required: every (state, letter) pair has at least one target.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    support: frozenset[tuple[str, str, str]]
    final: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "support", frozenset(self.support))
        object.__setattr__(self, "final", frozenset(self.final))
        _check_ids("state", self.states)
        _check_ids("letter", self.alphabet)
        state_set = frozenset(self.states)
        if self.initial not in state_set:
            raise ValidationError(f"initial state {self.initial!r} not among states")
        if self.final - state_set:
            raise ValidationError(f"final states {sorted(self.final - state_set)} not among states")
        letter_set = frozenset(self.alphabet)
        grouped: dict[tuple[str, str], list[str]] = {}
        for (s, a, t) in self.support:
            if s not in state_set or t not in state_set:
                raise ValidationError(f"support triple ({s!r}, {a!r}, {t!r}) uses unknown state")
            if a not in letter_set:
                raise ValidationError(f"support triple ({s!r}, {a!r}, {t!r}) uses unknown letter")
            grouped.setdefault((s, a), []).append(t)
        for s in self.states:
            for a in self.alphabet:
                if (s, a) not in grouped:
                    raise ValidationError(f"no support for ({s!r}, {a!r}); automata must be total")
        order = {s: i for i, s in enumerate(self.states)}
        target_map = {
            key: tuple(sorted(hits, key=order.__getitem__)) for key, hits in grouped.items()
        }
        object.__setattr__(self, "_state_set", state_set)
        object.__setattr__(self, "_target_map", target_map)

    def targets(self, state: str, letter: str) -> tuple[str, ...]:
        """Targets of (state, letter), in state declaration order."""
        try:
            return self._target_map[(state, letter)]  # type: ignore[attr-defined]
        except KeyError:
            if state not in self._state_set:  # type: ignore[attr-defined]
                raise UnknownState(f"unknown state {state!r}") from None
            raise UnknownLetter(f"unknown letter {letter!r}") from None


@dataclass(frozen=True)
class WordEvalTrace:
    """Evaluation trace: the distribution after every prefix of a word."""

    word: tuple[str, ...]
    distributions: tuple[Distribution, ...]
    acceptance: Fraction


def complete_with_sink(
    states: Sequence[str],
    alphabet: Sequence[str],
    initial: str,
    delta: Mapping[tuple[str, str], Distribution],
    final: Iterable[str],
    sink: str = "sink",
) -> ProbAutomaton:
    """Close off a partial transition table by routing missing pairs to a rejecting sink.

    The sink is only added when some pair is missing; its name gets primes
    appended until it is fresh.
    """
    states = list(states)
    missing = [(s, a) for s in states for a in alphabet if (s, a) not in delta]
    full = dict(delta)
    if missing:
        while sink in states:
            sink = sink + "'"
        states.append(sink)
        bottom = dirac(sink)
        for pair in missing:
            full[pair] = bottom
        for a in alphabet:
            full[(sink, a)] = bottom
    return ProbAutomaton(tuple(states), tuple(alphabet), initial, full, frozenset(final))


def _require_letters(pa: ProbAutomaton, word: Sequence[str]) -> None:
    letters = pa.letter_set()
    for a in word:
        if a not in letters:
            raise UnknownLetter(f"letter {a!r} not in alphabet {list(pa.alphabet)}")


def step(pa: ProbAutomaton, d: Distribution, letter: str) -> Distribution:
    """One synchronous step: push the whole distribution through ``letter``."""
    if letter not in pa.letter_set():
        raise UnknownLetter(f"letter {letter!r} not in alphabet {list(pa.alphabet)}")
    states = pa.state_set()
    acc: dict[str, Fraction] = {}
    for s, p in d.items():
        if s not in states:
            raise UnknownState(f"distribution mentions unknown state {s!r}")
        for t, q in pa.delta[(s, letter)].items():
            acc[t] = acc.get(t, ZERO) + p * q
    return Distribution(acc)  # re-validates mass 1 after every step


def distribution_after(pa: ProbAutomaton, word: Sequence[str]) -> Distribution:
    """The state distribution after reading ``word`` from the initial state."""
    _require_letters(pa, word)
    d = dirac(pa.initial)
    for a in word:
        d = step(pa, d, a)
    return d


def accept_prob(pa: ProbAutomaton, word: Sequence[str]) -> Fraction:
    """Exact probability that ``word`` ends in the accepting set."""
    return distribution_after(pa, word).mass(pa.final)


def trace_word(pa: ProbAutomaton, word: Sequence[str]) -> WordEvalTrace:
    """Like accept_prob, but keeps the distribution after every prefix."""
    _require_letters(pa, word)
    d = dirac(pa.initial)
    dists = [d]
    for a in word:
        d = step(pa, d, a)
        dists.append(d)
    return WordEvalTrace(tuple(word), tuple(dists), d.mass(pa.final))


def reach_prob(
    pa: ProbAutomaton, source: str, word: Sequence[str], targets: Iterable[str]
) -> Fraction:
    """Exact probability of ending inside ``targets`` after reading ``word`` from ``source``."""
    states = pa.state_set()
    if source not in states:
        raise UnknownState(f"unknown source state {source!r}")
    targets = frozenset(targets)
    bad = targets - states
    if bad:
        raise UnknownState(f"unknown target states {sorted(bad)}")
    _require_letters(pa, word)
    d = dirac(source)
    for a in word:
        d = step(pa, d, a)
    return d.mass(targets)


def is_simple(pa: ProbAutomaton) -> bool:
    """True iff every transition probability lies in {0, 1/2, 1}."""
    for dist in pa.delta.values():
        items = dist.items()
        if len(items) == 1 and items[0][1] == ONE:
            continue
        if len(items) == 2 and items[0][1] == HALF and items[1][1] == HALF:
            continue
        return False
    return True


def require_simple(pa: ProbAutomaton) -> ProbAutomaton:
    """Return ``pa`` unchanged, or raise NotSimple naming an offending pair."""
    for (s, a), dist in sorted(pa.delta.items()):
        probs = sorted(p for _, p in dist.items())
        if probs not in ([ONE], [HALF, HALF]):
            raise NotSimple(f"({s!r}, {a!r}) has probabilities {probs}, not in {{1/2, 1}}")
    return pa


def support_abstraction(pa: ProbAutomaton) -> NumberlessAutomaton:
    """Erase the numbers: keep exactly the positive-probability triples."""
    triples = frozenset(
        (s, a, t) for (s, a), dist in pa.delta.items() for t in dist.support()
    )
    return NumberlessAutomaton(pa.states, pa.alphabet, pa.initial, triples, pa.final)


def instantiate(
    npa: NumberlessAutomaton, delta_spec: Mapping[tuple[str, str], Distribution]
) -> ProbAutomaton:
    """Give numbers back to a support automaton.

    Succeeds iff ``delta_spec`` puts positive mass on exactly the support
    triples; the first violation is reported with its direction (missing mass
    on a support triple vs. extra mass outside the support).
    """
    pairs = {(s, a) for s in npa.states for a in npa.alphabet}
    stray = set(delta_spec) - pairs
    if stray:
        s, a = sorted(stray)[0]
        raise InconsistentSupport(f"distribution given for unknown pair ({s!r}, {a!r})")
    for s in npa.states:
        for a in npa.alphabet:
            dist = delta_spec.get((s, a))
            if dist is None:
                raise InconsistentSupport(f"missing: no distribution for ({s!r}, {a!r})")
            wanted = frozenset(npa.targets(s, a))
            got = dist.support()
            for t in sorted(wanted - got):
                raise InconsistentSupport(
                    f"missing: ({s!r}, {a!r}, {t!r}) is in the support but got zero mass"
                )
            for t in sorted(got - wanted):
                raise InconsistentSupport(
                    f"extra: ({s!r}, {a!r}, {t!r}) got mass {dist[t]} outside the support"
                )
    return ProbAutomaton(npa.states, npa.alphabet, npa.initial, delta_spec, npa.final)


def monte_carlo_accept(
    pa: ProbAutomaton, word: Sequence[str], samples: int, seed: int
) -> float:
    """Estimate accept_prob by sampling runs. Deterministic for a fixed seed.

    Sampling is exact per step: a uniform integer below the distribution's
    common denominator decides the branch, so the only approximation is the
    Monte Carlo error itself.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    _require_letters(pa, word)
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        state = pa.initial
        for a in word:
            dist = pa.delta[(state, a)]
            items = dist.items()
            if len(items) == 1:
                state = items[0][0]
                continue
            den = math.lcm(*(p.denominator for _, p in items))
            r = rng.randrange(den)
            cum = 0
            for t, p in items:
                cum += p.numerator * (den // p.denominator)
                if r < cum:
                    state = t
                    break
        if state in pa.final:
            hits += 1
    return hits / samples
