"""Probabilistic and support-level automata over finite words, with exact arithmetic.

Every probability in this module is a ``fractions.Fraction``; nothing here ever
rounds. Floats appear only in :func:`monte_carlo_accept`, which is an estimator
by design. States and letters are plain strings, and the declaration order of
``states`` / ``alphabet`` is the canonical enumeration used everywhere an order
matters.

Automata are total: every (state, letter) pair must carry a distribution (or a
support set, for :class:`NumberlessAutomaton`). Partial transition tables can
be closed off with :func:`complete_with_sink`. Validation happens once, where a
table enters the library; evaluation never re-checks it. A caller's table is
checked by the constructor it is handed to: ``ProbAutomaton`` compiles a
per-pair table of distributions, ``NumberlessAutomaton`` compiles triples or
a per-pair table of targets and checks a raw :class:`TargetTable`'s rows, and
:func:`instantiate` checks a spec against the support. What the library
builds itself is passed on as a trusted view and not checked again: a
``_SkeletonDelta`` to ``ProbAutomaton``, a :class:`SupportTriples` to
``NumberlessAutomaton``, and to ``_instance`` the split distributions its
callers have checked or built from checked parameters.

Evaluation runs on a compiled integer form of the automaton, built the first
time the automaton is evaluated and cached on it (automata that are only
built, serialized or exported never compile). States become indices in
declaration order. Each letter gets a list over source states whose entry is
either a bare target index (a Dirac row) or a tuple of (target index, integer
numerator) pairs over the letter's common denominator. A belief is a dict of
integer masses over state indices plus one integer scale: reading a letter
multiplies the scale by the letter's denominator only when the belief touches
one of its non-Dirac rows, so deterministic moves never multiply. One loop,
:func:`_advance`, serves :func:`step`, :func:`distribution_after`,
:func:`trace_word`, :func:`accept_prob`, :func:`reach_prob` and all of
:mod:`pfakit.analysis`; exact ``Fraction`` results are built only where they
are returned, so they are the same canonical fractions a Fraction-by-Fraction
evaluation gives. (:func:`step`, for callers holding a :class:`Distribution`,
is not called inside the library.)

Word matrices come from the same loop: :func:`word_matrix` pushes every basis
state through a word's compiled rows and returns the rows as integers over one
denominator. Such a matrix (or a power of it) can stand in for its word as a
single step of :func:`word_matrix` and :func:`accept_steps`, which is how long
parametric words are evaluated without reading every letter.

Every automaton keeps its transitions in one store, a :class:`TargetTable`:
per letter, a list over source states holding the index of the first target in
state order, plus the targets of the pairs with several. A
:class:`NumberlessAutomaton`'s support is such a table; a
:class:`ProbAutomaton`'s ``delta`` is a read-only view of one plus the
distributions of exactly its multi-target pairs. One writer, ``_write_rows``,
turns per-pair input into rows: per-pair tables of distributions or of
targets, triple sets and documents each read their own input into each pair's
first target or its targets, and hand them over, as the coin support of
:func:`~pfakit.constructions.fair_coin` does. :func:`instantiate` gives its
result the support automaton's own table (so does ``fair_coin``, whose
result is an instance of that support), :func:`support_abstraction` gives back
the probabilistic automaton's, and
:func:`~pfakit.constructions.build_simulation` writes its rows directly.
"""

from __future__ import annotations

import math
import random
import sys
from collections.abc import Mapping, Set
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, product
from typing import Iterable, NoReturn, Sequence

from .errors import (
    DomainError,
    InconsistentSupport,
    NotADistribution,
    NotSimple,
    UnknownLetter,
    UnknownState,
    ValidationError,
)

IntMatrix = list[list[int]]
# One step of a run: a letter, or an integer matrix (ints, den) whose row i is
# the distribution ints[i] / den from state i.
Step = str | tuple[IntMatrix, int]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# Largest decimal exponent a rational literal may carry: Python's own limit on
# the digits of an integer literal, so "1e-4300" is the smallest step.
MAX_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', 'p' or a decimal like '0.25' / '1e-3' into a Fraction.

    Raises DomainError on junk and on decimal exponents beyond
    ``MAX_EXPONENT``, which would build numbers of unbounded size.
    """
    _mantissa, e, exponent = text.strip().lower().partition("e")
    if e:
        try:
            too_big = abs(int(exponent)) > MAX_EXPONENT
        except ValueError:
            too_big = False  # not an exponent; Fraction reports the junk
        if too_big:
            raise DomainError(
                f"not a rational: {text!r} (exponent beyond +-{MAX_EXPONENT})"
            )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r} ({exc})") from None


class Distribution:
    """A finitely supported exact probability distribution over state ids.

    Zero entries are dropped on construction; the stored entries are strictly
    positive and sum to exactly one. Masses must be exact: ints, Fractions or
    rational strings, never floats or bools. Entries iterate in sorted state
    order, so equal distributions are indistinguishable however they were built.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Fraction | int]):
        kept: dict[str, Fraction] = {}
        total = ZERO
        for state in sorted(entries):
            p = entries[state]
            if isinstance(p, (float, bool)):
                raise NotADistribution(
                    f"mass {p!r} on state {state!r} is a {type(p).__name__}, not an exact rational"
                )
            p = Fraction(p)
            if p < 0:
                raise NotADistribution(f"negative mass {_show(p)} on state {state!r}")
            if p == 0:
                continue
            kept[state] = p
            total += p
        if total != 1:
            raise NotADistribution(f"entries sum to {_show(total)}, expected 1")
        self._entries = kept

    @classmethod
    def _exact(cls, items: Iterable[tuple[str, Fraction]]) -> Distribution:
        """Wrap positive entries in sorted state order that sum to one."""
        d = cls.__new__(cls)
        d._entries = dict(items)
        return d

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


def _show(p: Fraction, render=str) -> str:
    """``render(p)`` for a message, or a note where ``p`` has more digits than Python renders."""
    try:
        return render(p)
    except ValueError:
        return "a fraction too long to print"


def _exact(p: Fraction) -> str:
    """``str(p)`` at any size, for output: Python's int-to-str digit limit is lifted
    only while rendering, so flags and documents are still parsed under it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(p)
    finally:
        sys.set_int_max_str_digits(limit)


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
    ``delta`` is always a read-only view of a :class:`TargetTable` plus the
    distributions of that table's multi-target pairs: a caller's table is
    compiled into one, and a view, validated where it was made, is kept.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    delta: Mapping[tuple[str, str], Distribution]
    final: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
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
        delta = self.delta
        if not isinstance(delta, _SkeletonDelta):
            object.__setattr__(self, "delta", _compile_delta(self, state_set, dict(delta)))
        elif (self.states, self.alphabet) != (delta.table.states, delta.table.alphabet):
            raise ValidationError("delta is a skeleton view over other states or letters")
        object.__setattr__(self, "_state_set", state_set)
        object.__setattr__(self, "_letter_set", letter_set)

    def state_set(self) -> frozenset[str]:
        return self._state_set  # type: ignore[attr-defined]

    def letter_set(self) -> frozenset[str]:
        return self._letter_set  # type: ignore[attr-defined]


def _compile_delta(pa: ProbAutomaton | NumberlessAutomaton, state_set,
                   delta: Mapping) -> _SkeletonDelta:
    """The rows view of a caller's per-pair table over ``pa``'s states and
    letters. Each distinct Distribution object is checked once (tables share
    their Diracs); the table is walked only when that check fails, to name
    the first offender."""
    dists = list(map(delta.get, product(pa.states, pa.alphabet)))
    ids = list(map(id, dists))
    distinct = dict(zip(ids, dists))
    if len(delta) != len(dists) or not all(
            isinstance(d, Distribution) and state_set.issuperset(d._entries) for d in distinct.values()):
        _check_delta(pa.states, pa.alphabet, state_set, delta)
    index = {s: i for i, s in enumerate(pa.states)}
    # Each Dirac object's target; the writer ranks the split ones.
    first = {key: index[next(iter(d._entries))] for key, d in distinct.items() if len(d._entries) == 1}
    split = distinct.keys() - first.keys()
    odd = {k: dists[k] for k in compress(range(len(ids)), map(split.__contains__, ids))}
    return _SkeletonDelta(*_write_rows(pa.states, pa.alphabet, index, list(map(first.get, ids)), odd))


def _check_delta(states, alphabet, state_set, delta) -> NoReturn:
    """Raise ValidationError naming the first offending pair in states x
    alphabet order, or else the pairs outside them."""
    for s in states:
        for a in alphabet:
            d = delta.get((s, a))
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
    extra = set(delta) - {(s, a) for s in states for a in alphabet}
    raise ValidationError(f"delta has entries for unknown pairs {sorted(extra)}")


class TargetTable(Mapping):
    """Each (state, letter) pair's targets, stored as integer rows.

    ``rows[letter][i]`` is the index of the first target, in state order, of
    ``(states[i], letter)``; ``multi`` maps each pair with more than one
    target to all of them, in state order. As a mapping it is read-only and
    lists the pairs in states x alphabet order. The table itself checks
    nothing: ``NumberlessAutomaton`` runs :meth:`rows_fit` on a table handed
    over raw, and trusts one wrapped in :class:`SupportTriples`, which only
    the library's own writers do.

    A ``ProbAutomaton``'s ``delta`` is a view of such a table, whose
    ``multi`` pairs are exactly those with a split distribution.
    """

    def __init__(self, states: Sequence[str], alphabet: Sequence[str],
                 rows: dict[str, list[int]], multi: dict[tuple[str, str], tuple[str, ...]],
                 *, index: dict[str, int] | None = None):
        self.states, self.alphabet = tuple(states), tuple(alphabet)
        self.rows, self.multi = rows, multi
        self.index = index or {s: i for i, s in enumerate(self.states)}
        self.singles = [(s,) for s in self.states]  # shared single-target tuples

    def __getitem__(self, key) -> tuple[str, ...]:
        try:
            hits = self.multi.get(key)
            if hits is not None:
                return hits
            s, a = key
            return self.singles[self.rows[a][self.index[s]]]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None

    def __iter__(self):
        return product(self.states, self.alphabet)

    def __len__(self) -> int:
        return len(self.states) * len(self.alphabet)

    @cached_property
    def diracs(self) -> list[Distribution]:
        """Each state's Dirac, built on first use: evaluation never reads them."""
        return [Distribution._exact(((s, ONE),)) for s in self.states]

    def ordered(self) -> list[tuple[str, ...]]:
        """Every pair's targets in states x alphabet order, read from the rows."""
        return _pair_order(self.index, self.alphabet, self.rows, self.singles, self.multi)

    def rows_fit(self) -> bool:
        """True iff every row holds one int in range(n) per state and every
        multi-target pair is a known pair with its targets in state order,
        the first of them in its row."""
        n, index, rows = len(self.states), self.index, self.rows
        in_range = frozenset(range(n))
        if not (rows.keys() == set(self.alphabet)
                and all(r.__class__ is list and len(r) == n for r in rows.values())
                and all(map(in_range.issuperset, rows.values()))
                and set(map(type, chain.from_iterable(rows.values()))) == {int}):
            return False
        for (s, a), hits in self.multi.items():
            at = [index.get(t) for t in hits]
            if not (hits.__class__ is tuple and len(at) > 1 and None not in at
                    and at == sorted(set(at)) and s in index and a in rows
                    and rows[a][index[s]] == at[0]):
                return False
        return True


def _pair_order(index, alphabet, rows, values, overrides) -> list:
    """``values[rows[a][index[s]]]`` for every pair (s, a) in states x alphabet
    order, with the pairs of ``overrides`` taking its values instead."""
    per_state = zip(*(rows[a] for a in alphabet))  # each state's targets
    out = list(map(values.__getitem__, chain.from_iterable(per_state)))
    letter = {a: j for j, a in enumerate(alphabet)}
    for (s, a), v in overrides.items():
        out[index[s] * len(letter) + letter[a]] = v
    return out


def _write_rows(states, alphabet, index: dict[str, int], firsts: list,
                odd: dict[int, Iterable[str]]) -> tuple[TargetTable, dict]:
    """The one writer of :class:`TargetTable` rows from per-pair input: ``firsts``
    holds each pair's first target index in states x alphabet order, and ``odd``
    the targets (or Distribution) of the pair at each position without exactly
    one, which overwrite its entry. Each distinct object of ``odd`` is sorted
    once. Also returns the object of each multi-target pair, in position order."""
    m = len(alphabet)
    ranked: dict[int, tuple[str, ...]] = {}  # by the object's id
    multi, objects = {}, {}
    for k, hits in odd.items():
        hit_list = ranked.get(id(hits))
        if hit_list is None:
            unique = hits._entries if hits.__class__ is Distribution else set(hits)
            hit_list = ranked[id(hits)] = tuple(sorted(unique, key=index.__getitem__))
        firsts[k] = index[hit_list[0]]
        if len(hit_list) > 1:
            pair = (states[k // m], alphabet[k % m])
            multi[pair], objects[pair] = hit_list, hits
    rows = {a: firsts[j::m] for j, a in enumerate(alphabet)}
    return TargetTable(states, alphabet, rows, multi, index=index), objects


def _compile_targets(states, alphabet, table: Mapping) -> TargetTable:
    """The :class:`TargetTable` of a caller's per-pair table, validated. Entries
    without targets are dropped; the table is walked, in its own order, to name
    the first unknown id only when the row build stops on one."""
    index = {s: i for i, s in enumerate(states)}
    letter_at = {a: j for j, a in enumerate(alphabet)}
    m = len(alphabet)
    firsts: list = [None] * (len(states) * m)
    try:
        odd = {index[s] * m + letter_at[a]: hits for (s, a), hits in table.items() if hits}
        compiled, _ = _write_rows(states, alphabet, index, firsts, odd)
    except KeyError:
        for (s, a), hits in table.items():
            for t in hits:
                if s not in index or t not in index or a not in letter_at:
                    bad = "letter" if s in index and t in index else "state"
                    raise ValidationError(
                        f"support triple {(s, a, t)!r} uses unknown {bad}") from None
        raise
    if None in firsts:
        s, a = list(product(states, alphabet))[firsts.index(None)]
        raise ValidationError(f"no support for ({s!r}, {a!r}); automata must be total")
    return compiled


class SupportTriples(Set):
    """The (state, letter, target) triples of a :class:`TargetTable`, as a read-only set."""

    __slots__ = ("table", "size")
    __hash__ = Set._hash

    def __init__(self, table: TargetTable):
        self.table = table
        self.size = len(table) + sum(len(hits) - 1 for hits in table.multi.values())

    def __contains__(self, triple) -> bool:
        return (isinstance(triple, tuple) and len(triple) == 3
                and triple[2] in self.table.get(triple[:2], ()))

    def __iter__(self):
        table = self.table
        return ((s, a, t) for (s, a), hits in zip(table, table.ordered()) for t in hits)

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class NumberlessAutomaton:
    """A support-level automaton: who can go where, with the numbers erased.

    ``support`` is a set of (state, letter, target) triples, or a per-pair
    table of targets, kept as the :class:`SupportTriples` of a
    :class:`TargetTable`. A ``SupportTriples`` over the same states and
    letters is the library's own view and is kept as it is, unchecked; a raw
    ``TargetTable`` over them is kept once :meth:`TargetTable.rows_fit`
    passes, and anything else is compiled and checked. Totality is required:
    every (state, letter) pair has at least one target.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    support: Set
    final: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "final", frozenset(self.final))
        _check_ids("state", self.states)
        _check_ids("letter", self.alphabet)
        if self.initial not in self.states:
            raise ValidationError(f"initial state {self.initial!r} not among states")
        if stray := self.final - frozenset(self.states):
            raise ValidationError(f"final states {sorted(stray)} not among states")
        table = self.support  # a view, triples, or a per-pair table
        if isinstance(table, SupportTriples):
            table = table.table
            if (table.states, table.alphabet) == (self.states, self.alphabet):
                return  # the library's own view, kept as it is
        elif not isinstance(table, Mapping):
            table = {}
            for s, a, t in self.support:
                table.setdefault((s, a), []).append(t)
        if not isinstance(table, TargetTable) or (table.states, table.alphabet) != (
                self.states, self.alphabet):
            table = _compile_targets(self.states, self.alphabet, table)
        elif not table.rows_fit():
            raise ValidationError("support rows need one state index per state and letter")
        object.__setattr__(self, "support", SupportTriples(table))

    def targets(self, state: str, letter: str) -> tuple[str, ...]:
        """Targets of (state, letter), in state declaration order."""
        try:
            return self.support.table[(state, letter)]  # type: ignore[attr-defined]
        except KeyError:
            if state not in self.states:
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


# --- the rows view of every ProbAutomaton.delta ----------------------------------


class _SkeletonDelta(Mapping):
    """Every ``ProbAutomaton.delta``: a :class:`TargetTable`'s rows, plus
    ``spec``, the distributions of exactly that table's ``multi`` pairs. The
    other pairs are answered with the Diracs of their rows."""

    __slots__ = ("table", "spec")

    def __init__(self, table: TargetTable, spec: dict[tuple[str, str], Distribution]):
        self.table = table
        self.spec = spec

    def __getitem__(self, key):
        try:
            d = self.spec.get(key)
            if d is not None:
                return d
            table = self.table
            return table.diracs[table.rows[key[1]][table.index[key[0]]]]
        except (KeyError, TypeError, IndexError):
            raise KeyError(key) from None

    def __iter__(self):
        return iter(self.table)

    def __len__(self) -> int:
        return len(self.table)


def _table_and_split(automaton: ProbAutomaton | NumberlessAutomaton) -> tuple[TargetTable, Mapping]:
    """The rows of ``automaton`` and its split pairs: each multi-target pair's
    targets for a support automaton, its distribution for a probabilistic one."""
    if isinstance(automaton, NumberlessAutomaton):
        table = automaton.support.table  # type: ignore[attr-defined]
        return table, table.multi
    return automaton.delta.table, automaton.delta.spec


# --- the compiled integer kernel -------------------------------------------------


class _Kernel:
    """The compiled form of one automaton (see the module docstring).

    ``rows[letter]`` is ``(den, row, split)``: ``split`` is the frozenset of
    source indices whose row is a tuple of (target, numerator over den) pairs,
    every other entry of ``row`` is a target index, and ``den`` is 1 when
    ``split`` is empty. ``draws`` is None until :func:`monte_carlo_accept`
    first needs it (see :func:`_draws`), so exact evaluation never builds it.
    """

    __slots__ = ("states", "alphabet", "index", "rows", "draws", "final")

    def __init__(self, pa: ProbAutomaton):
        table = pa.delta.table
        self.states, self.alphabet = pa.states, pa.alphabet
        self.index = index = table.index
        split: dict[str, list[tuple[int, Distribution]]] = {}
        for (s, a), d in pa.delta.spec.items():
            split.setdefault(a, []).append((index[s], d))
        self.rows: dict[str, tuple[int, list, frozenset[int]]] = {}
        self.draws: dict[str, list] | None = None
        for a in pa.alphabet:
            self._compile_letter(a, table.rows[a], split.get(a, ()))
        self.final = frozenset(index[s] for s in pa.final)

    def _compile_letter(self, a: str, base: list[int], split) -> None:
        if not split:
            self.rows[a] = (1, base, frozenset())
            return
        index = self.index
        den = math.lcm(*(p.denominator for _, d in split for _, p in d.items()))
        row = list(base)
        for i, d in split:
            row[i] = tuple((index[t], p.numerator * (den // p.denominator)) for t, p in d.items())
        self.rows[a] = (den, row, frozenset(i for i, _ in split))

    def lookup(self, table: dict[str, list], word: Sequence[str]) -> list:
        """The entries of ``table`` (``rows`` or ``draws``) for each letter of
        ``word``, in order."""
        try:
            return [table[a] for a in word]
        except KeyError as exc:
            raise UnknownLetter(
                f"letter {exc.args[0]!r} not in alphabet {list(self.alphabet)}"
            ) from None

    def compile_steps(self, steps: Iterable[Step]) -> list:
        """The compiled rows of each step, in order: a letter's rows, or an
        integer matrix as one step over its ``den`` whose every row is split."""
        out = []
        n = len(self.states)
        for item in steps:
            if isinstance(item, str):
                out += self.lookup(self.rows, (item,))
                continue
            ints, den = item
            if den < 1 or len(ints) != n or any(
                len(r) != n or min(r) < 0 or sum(r) != den for r in ints
            ):
                raise ValidationError(f"a step is not a stochastic {n}x{n} integer matrix")
            row = [tuple((j, q) for j, q in enumerate(r) if q) for r in ints]
            out.append((den, row, frozenset(range(n))))
        return out

    def distribution(self, belief: dict[int, int], scale: int) -> Distribution:
        states = self.states
        return Distribution._exact(
            sorted((states[i], Fraction(m, scale)) for i, m in belief.items())
        )


def _kernel(pa: ProbAutomaton) -> _Kernel:
    """The automaton's compiled form, built on first use and cached on it."""
    k = pa.__dict__.get("_kernel")
    if k is None:
        k = _Kernel(pa)
        object.__setattr__(pa, "_kernel", k)
    return k


def _advance(rows: Iterable[tuple], belief: dict[int, int], scale: int):
    """Push the belief ``belief / scale`` through the letters whose compiled
    rows are ``rows``; returns the new (belief, scale)."""
    for den, row, split in rows:
        nxt: dict[int, int] = {}
        if belief.keys().isdisjoint(split):
            for s, m in belief.items():
                t = row[s]
                nxt[t] = nxt.get(t, 0) + m
        else:
            scale *= den
            for s, m in belief.items():
                r = row[s]
                if r.__class__ is int:
                    nxt[r] = nxt.get(r, 0) + m * den
                else:
                    for t, q in r:
                        nxt[t] = nxt.get(t, 0) + m * q
        belief = nxt
    return belief, scale


def _start(k: _Kernel, state: str) -> dict[int, int]:
    try:
        return {k.index[state]: 1}
    except KeyError:
        raise UnknownState(f"unknown source state {state!r}") from None


def step(pa: ProbAutomaton, d: Distribution, letter: str) -> Distribution:
    """One synchronous step: push the whole distribution through ``letter``."""
    k = _kernel(pa)
    (rows,) = k.lookup(k.rows, (letter,))
    scale = math.lcm(*(p.denominator for _, p in d.items()))
    belief: dict[int, int] = {}
    for s, p in d.items():
        i = k.index.get(s)
        if i is None:
            raise UnknownState(f"distribution mentions unknown state {s!r}")
        belief[i] = p.numerator * (scale // p.denominator)
    return k.distribution(*_advance((rows,), belief, scale))


def distribution_after(pa: ProbAutomaton, word: Sequence[str]) -> Distribution:
    """The state distribution after reading ``word`` from the initial state."""
    k = _kernel(pa)
    return k.distribution(*_advance(k.lookup(k.rows, word), _start(k, pa.initial), 1))


def _mass(belief: dict[int, int], scale: int, targets: frozenset[int]) -> Fraction:
    return Fraction(sum(m for i, m in belief.items() if i in targets), scale)


def accept_prob(pa: ProbAutomaton, word: Sequence[str]) -> Fraction:
    """Exact probability that ``word`` ends in the accepting set."""
    k = _kernel(pa)
    belief, scale = _advance(k.lookup(k.rows, word), _start(k, pa.initial), 1)
    return _mass(belief, scale, k.final)


def trace_word(pa: ProbAutomaton, word: Sequence[str]) -> WordEvalTrace:
    """Like accept_prob, but keeps the distribution after every prefix."""
    k = _kernel(pa)
    belief, scale = _start(k, pa.initial), 1
    dists = [k.distribution(belief, scale)]
    for rows in k.lookup(k.rows, word):
        belief, scale = _advance((rows,), belief, scale)
        dists.append(k.distribution(belief, scale))
    return WordEvalTrace(tuple(word), tuple(dists), _mass(belief, scale, k.final))


def reach_prob(
    pa: ProbAutomaton, source: str, word: Sequence[str], targets: Iterable[str]
) -> Fraction:
    """Exact probability of ending inside ``targets`` after reading ``word`` from ``source``."""
    k = _kernel(pa)
    start = _start(k, source)
    targets = frozenset(targets)
    bad = targets - pa.state_set()
    if bad:
        raise UnknownState(f"unknown target states {sorted(bad)}")
    belief, scale = _advance(k.lookup(k.rows, word), start, 1)
    return _mass(belief, scale, frozenset(k.index[t] for t in targets))


def word_matrix(pa: ProbAutomaton, steps: Sequence[Step]) -> tuple[IntMatrix, int]:
    """The matrix of reading ``steps`` from every state, as ``(ints, den)``.

    Row i is the distribution after ``steps`` from ``pa.states[i]``, as
    ``ints[i] / den``; ``ints`` and ``den`` share no common factor. A step is
    a letter or such an integer matrix (a power of an earlier result, say),
    applied in one step. Every basis state is pushed through the compiled
    rows, and the rows are brought to one denominator, then reduced.
    """
    k = _kernel(pa)
    rows = k.compile_steps(steps)
    n = len(pa.states)
    pushed = [_advance(rows, {i: 1}, 1) for i in range(n)]
    den = math.lcm(*(scale for _, scale in pushed))
    ints = [[0] * n for _ in range(n)]
    for out, (belief, scale) in zip(ints, pushed):
        for j, m in belief.items():
            out[j] = m * (den // scale)
    g = math.gcd(den, *(x for out in ints for x in out))
    return [[x // g for x in out] for out in ints], den // g


def accept_steps(pa: ProbAutomaton, steps: Sequence[Step]) -> Fraction:
    """Exact acceptance after reading ``steps`` (letters or integer matrices,
    as in :func:`word_matrix`) from the initial state."""
    k = _kernel(pa)
    belief, scale = _advance(k.compile_steps(steps), _start(k, pa.initial), 1)
    return _mass(belief, scale, k.final)


def _is_simple_row(dist: Distribution) -> bool:
    return sorted(p for _, p in dist.items()) in ([ONE], [HALF, HALF])


def is_simple(pa: ProbAutomaton) -> bool:
    """True iff every transition probability lies in {0, 1/2, 1} (Diracs do)."""
    return all(map(_is_simple_row, pa.delta.spec.values()))


def require_simple(pa: ProbAutomaton) -> ProbAutomaton:
    """Return ``pa`` unchanged, or raise NotSimple naming the first offending pair."""
    for (s, a), dist in sorted(pa.delta.spec.items()):
        if not _is_simple_row(dist):
            probs = ", ".join(_show(p, repr) for p in sorted(p for _, p in dist.items()))
            raise NotSimple(f"({s!r}, {a!r}) has probabilities [{probs}], not in {{1/2, 1}}")
    return pa


def support_abstraction(pa: ProbAutomaton) -> NumberlessAutomaton:
    """Erase the numbers: the support automaton on ``pa``'s own table."""
    return NumberlessAutomaton(pa.states, pa.alphabet, pa.initial,
                               SupportTriples(pa.delta.table), pa.final)


def _check_support(s: str, a: str, wanted: frozenset[str], dist) -> None:
    """Raise unless ``dist`` is a Distribution with positive mass on exactly ``wanted``."""
    if dist is None:
        raise InconsistentSupport(f"missing: no distribution for ({s!r}, {a!r})")
    if not isinstance(dist, Distribution):
        raise ValidationError(f"delta[({s!r}, {a!r})] is not a Distribution")
    got = dist.support()
    for t in sorted(wanted - got):
        raise InconsistentSupport(
            f"missing: ({s!r}, {a!r}, {t!r}) is in the support but got zero mass"
        )
    for t in sorted(got - wanted):
        raise InconsistentSupport(
            f"extra: ({s!r}, {a!r}, {t!r}) got mass {dist[t]} outside the support"
        )


def instantiate(
    npa: NumberlessAutomaton, delta_spec: Mapping[tuple[str, str], Distribution]
) -> ProbAutomaton:
    """Give numbers back to a support automaton.

    Succeeds iff ``delta_spec`` puts positive mass on exactly the support
    triples; the first violation is reported with its direction (missing mass
    on a support triple vs. extra mass outside the support). This is where a
    spec is checked: it is compiled into rows as ``ProbAutomaton`` compiles
    a table, each distinct Distribution object once, and must give the
    support's own rows and multi-target pairs. The pairs are walked only
    when it does not, to name the first violation. The result's ``delta`` is
    a view of ``npa``'s own table.
    """
    table = npa.support.table  # type: ignore[attr-defined]
    try:
        compiled = _compile_delta(npa, frozenset(npa.states), delta_spec).table
    except ValidationError:
        compiled = None
    if compiled is None or (compiled.rows, compiled.multi) != (table.rows, table.multi):
        for s, a in sorted(pair for pair in delta_spec if pair not in table):
            raise InconsistentSupport(f"distribution given for unknown pair ({s!r}, {a!r})")
        for s in npa.states:
            for a in npa.alphabet:
                _check_support(s, a, frozenset(npa.targets(s, a)), delta_spec.get((s, a)))
        raise AssertionError("a spec failed its bulk check but has no offender")
    return _instance(npa, delta_spec)


def _instance(npa: NumberlessAutomaton, split: Mapping[tuple[str, str], Distribution]
              ) -> ProbAutomaton:
    """The automaton on ``npa``'s own table whose multi-target pairs carry
    ``split``'s distributions; every other pair is its row's Dirac.

    Nothing is checked here. ``split`` must hold, for each multi-target pair,
    a Distribution with positive mass on exactly its targets; other pairs
    are ignored. The callers own that check: :func:`instantiate` checks the
    whole spec, ``instantiate_simulation`` its one coin toss, and
    ``fair_coin`` and ``noisy_sweep`` build their splits from parameters
    they have checked.
    """
    table = npa.support.table  # type: ignore[attr-defined]
    view = _SkeletonDelta(table, {pair: split[pair] for pair in table.multi})
    return ProbAutomaton(npa.states, npa.alphabet, npa.initial, view, npa.final)


def _draws(k: _Kernel) -> dict[str, list]:
    """Each letter's row for sampling, built on first use and cached on ``k``.

    It is the letter's compiled row with each split entry replaced by
    ``(den, den.bit_length(), ((target, cumulative numerator), ...))`` in
    sorted state order, where ``den`` is the lcm of the row's denominators;
    Dirac-only letters share the compiled row. The width is the one
    ``random.Random.randrange(den)`` draws with, bit for bit.
    """
    if k.draws is None:
        k.draws = {}
        for a, (den, row, split) in k.rows.items():
            draw = list(row) if split else row
            for i in split:
                g = math.gcd(den, *(q for _, q in row[i]))
                cum, table = 0, []
                for t, q in row[i]:
                    cum += q // g
                    table.append((t, cum))
                draw[i] = (den // g, (den // g).bit_length(), tuple(table))
            k.draws[a] = draw
    return k.draws


# Most sampled steps (samples x letters, or samples for the empty word) that
# one monte_carlo_accept call may take.
MAX_MC_STEPS = 10_000_000


def monte_carlo_accept(
    pa: ProbAutomaton, word: Sequence[str], samples: int, seed: int
) -> float:
    """Estimate accept_prob by sampling runs. Deterministic for a fixed seed.

    Sampling is exact per step: at a state with several targets, a uniform
    integer below the lcm of that row's denominators picks the branch from the
    row's cumulative integer numerators, so the only approximation is the
    Monte Carlo error itself. The draw tables are built on the first call and
    cached with the compiled form on ``pa``.

    Between two draws a run only follows Dirac rows, and where it goes is
    fixed by where it starts. So one call keeps a memo from each (position,
    state) at a Dirac row that a draw has led to, to the next split row that
    run meets, or to the end of the word and whether it accepts there. The
    samples fill it as they go; a sample then pays one draw per split row it
    meets, plus one dict lookup when the draw lands on a Dirac row, not one
    step per letter. The draws are the same, in number, range and order, as a
    letter-by-letter walk with ``randrange`` makes, so every estimate is too:
    each is ``randrange``'s own rejection loop, ``getrandbits(den.bit_length())``
    again while it is at least ``den``, without its argument checks. The memo
    lives for one call and stops growing at len(word) + len(pa.states)
    entries, the size of its inputs; runs it does not hold are walked letter
    by letter.
    More than ``MAX_MC_STEPS`` samples x letters raise DomainError before any work.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if samples * max(1, len(word)) > MAX_MC_STEPS:
        raise DomainError(f"{samples} samples of a {len(word)}-letter word is more than"
                          f" {MAX_MC_STEPS} steps")
    k = _kernel(pa)
    path = k.lookup(_draws(k), word)
    n = len(k.states)
    path.append([i in k.final for i in range(n)])  # bools end a run
    memo: dict[int, tuple] = {}
    room = len(word) + n

    def jump(pos: int, state: int) -> tuple:
        """``(position, entry)`` of the first split row, or of the end, that
        a run in ``state`` before letter ``pos`` meets."""
        key = pos * n + state
        while (entry := path[pos][state]).__class__ is int:
            state = entry
            pos += 1
        if len(memo) < room:
            memo[key] = (pos, entry)
        return pos, entry

    getrandbits = random.Random(seed).getrandbits
    get = memo.get
    first = jump(0, k.index[pa.initial])
    hits = 0
    for _ in range(samples):
        pos, entry = first
        while entry.__class__ is tuple:
            den, bits, table = entry
            r = getrandbits(bits)
            while r >= den:
                r = getrandbits(bits)
            for t, cum in table:
                if r < cum:
                    break
            pos += 1
            entry = path[pos][t]
            if entry.__class__ is int:  # a Dirac row: jump to the next split
                pos, entry = get(pos * n + t) or jump(pos, t)
        hits += entry
    return hits / samples
