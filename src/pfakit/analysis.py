"""Search and evaluation over exact automata.

* :func:`value_lower_bound` searches for high-acceptance words by breadth-first
  exploration of belief states (distributions over automaton states), with
  exact deduplication, a sound reachability prune, and an optional beam.
* :func:`family_eval` evaluates parametric word families such as
  (i a^n f)^m exactly: small exponents letter by letter on the compiled
  kernel, big ones as integer powers of word matrices built by that kernel.
* :func:`lasso_prob` computes the probability that an ultimately periodic
  input satisfies the repeated-acceptance condition of a
  :class:`~pfakit.constructions.BuchiAutomaton`.
* :func:`noisy_sweep` re-runs the word search across a grid of perturbed
  instantiations of a support automaton.

All of them run on the compiled kernel of :mod:`pfakit.core`: beliefs are
its integer ``(belief, scale)`` pairs, pushed through integer rows by
``_advance``, and a ``Fraction`` is built only where a result is returned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (
    Distribution,
    NumberlessAutomaton,
    ProbAutomaton,
    Step,
    ZERO,
    _advance,
    _instance,
    _kernel,
    _show,
    _start,
    accept_steps,
    instantiate,
    word_matrix,
)
from .constructions import BuchiAutomaton
from .errors import BudgetExceeded, DomainError, EmptyCycle
from .matrices import int_mat_pow, solve_sparse


# Most distinct beliefs a search may hold when its budget sets no cap of its
# own. The bundled tests and benchmark stay under 6000.
MAX_SEARCH_BELIEFS = 100_000


@dataclass(frozen=True)
class SearchBudget:
    """Limits for :func:`value_lower_bound`.

    ``beam_width`` 0 means exhaustive (no beam). Exceeding
    ``max_distribution_states`` distinct beliefs raises
    :class:`BudgetExceeded`; 0 means the cap is ``MAX_SEARCH_BELIEFS``.
    """

    max_word_length: int
    beam_width: int = 0
    max_distribution_states: int = 0

    def __post_init__(self):
        for name in ("max_word_length", "beam_width", "max_distribution_states"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")


def states_reaching(pa: ProbAutomaton, targets: Iterable[str]) -> frozenset[str]:
    """States from which some target is reachable in the support graph
    (including the targets themselves)."""
    pred: dict[str, set[str]] = {s: set() for s in pa.states}
    for (s, _c), d in pa.delta.items():
        for t in d.support():
            pred[t].add(s)
    found = set(targets) & pa.state_set()
    stack = list(found)
    while stack:
        t = stack.pop()
        for s in pred[t]:
            if s not in found:
                found.add(s)
                stack.append(s)
    return frozenset(found)


def value_lower_bound(
    pa: ProbAutomaton, budget: SearchBudget
) -> tuple[tuple[str, ...], Fraction]:
    """Best acceptance probability found within the budget, with a witness word.

    Breadth-first over belief states. Beliefs already seen are skipped (the
    future depends only on the belief), beliefs whose mass on states that can
    still reach a final state does not exceed the incumbent are cut, and with
    a nonzero beam width only the most promising beliefs survive each level
    (ranked by current acceptance plus reachable mass, ties kept in
    exploration order). The result is exact but, under a beam, possibly not
    the optimum over words of the given length.

    Beliefs are gcd-reduced integer ``(belief, scale)`` pairs, so equal ones
    share a key. A :class:`BudgetExceeded` error keeps the incumbent.
    """
    cap = budget.max_distribution_states or MAX_SEARCH_BELIEFS
    k = _kernel(pa)
    letters = list(zip(pa.alphabet, k.lookup(k.rows, pa.alphabet)))
    live = frozenset(k.index[s] for s in states_reaching(pa, pa.final))
    start = {k.index[pa.initial]: 1}
    best_word: tuple[str, ...] = ()
    best, best_scale = int(pa.initial in pa.final), 1
    seen = {(1, tuple(start.items()))}
    # (score numerator, scale, belief, word); the score is acceptance plus live mass.
    frontier: list[tuple[int, int, dict[int, int], tuple[str, ...]]] = [(0, 1, start, ())]
    for _depth in range(budget.max_word_length):
        if not frontier:
            break
        scored: list[tuple[int, int, dict[int, int], tuple[str, ...]]] = []
        for _score, scale, belief, word in frontier:
            for c, rows in letters:
                after, sc = _advance((rows,), belief, scale)
                g = math.gcd(sc, *after.values())
                after, sc = {i: m // g for i, m in after.items()}, sc // g
                key = (sc, tuple(sorted(after.items())))
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > cap:
                    raise BudgetExceeded(
                        f"more than {cap} distinct beliefs",
                        word=best_word,
                        value=Fraction(best, best_scale),
                    )
                acc = sum(m for i, m in after.items() if i in k.final)
                potential = sum(m for i, m in after.items() if i in live)
                if potential * best_scale <= best * sc:
                    continue
                if acc * best_scale > best * sc:
                    best, best_scale = acc, sc
                    best_word = word + (c,)
                scored.append((acc + potential, sc, after, word + (c,)))
        if budget.beam_width and len(scored) > budget.beam_width:
            scored.sort(key=lambda item: Fraction(item[0], item[1]), reverse=True)
            del scored[budget.beam_width :]
        frontier = scored
    return best_word, Fraction(best, best_scale)


@dataclass(frozen=True)
class FamilyTemplate:
    """A parametric word (w1^e1 w2^e2 ...)^r.

    Each segment pairs a word with an exponent; exponents and the outer
    repeat are ints or parameter names resolved at evaluation time.
    """

    segments: tuple[tuple[tuple[str, ...], int | str], ...]
    repeat: int | str = 1

    def __post_init__(self):
        object.__setattr__(
            self,
            "segments",
            tuple((tuple(w), e) for w, e in self.segments),
        )


def _resolve(e: int | str, binding: Mapping[str, int]) -> int:
    if isinstance(e, str):
        if e not in binding:
            raise DomainError(f"unbound exponent parameter {e!r}")
        e = binding[e]
    if e < 0:
        raise DomainError(f"exponents must be >= 0, got {e}")
    return e


def expand_template(
    template: FamilyTemplate, binding: Mapping[str, int] | None = None
) -> list[str]:
    """The concrete word the template denotes under the binding."""
    binding = binding or {}
    body: list[str] = []
    for word, e in template.segments:
        body += list(word) * _resolve(e, binding)
    return body * _resolve(template.repeat, binding)


_FOLD_LIMIT = 64  # exponents up to this are cheaper letter by letter


def family_eval(
    pa: ProbAutomaton,
    template: FamilyTemplate,
    binding: Mapping[str, int] | None = None,
) -> Fraction:
    """Exact acceptance probability of the template's word.

    Equals accept_prob(pa, expand_template(template, binding)). A segment whose
    exponent is above ``_FOLD_LIMIT`` is read in one step, as the integer power
    of its word matrix; so is the whole pass when the repeat is. Word matrices
    come from the compiled kernel, so bindings in the thousands stay fast.
    """
    binding = binding or {}
    repeat = _resolve(template.repeat, binding)
    one_pass: list[Step] = []
    for word, e in template.segments:
        e = _resolve(e, binding)
        if e <= _FOLD_LIMIT:
            one_pass += list(word) * e
        elif word and repeat:
            one_pass.append(int_mat_pow(*word_matrix(pa, word), e))
    if repeat <= _FOLD_LIMIT:
        return accept_steps(pa, one_pass * repeat)
    return accept_steps(pa, [int_mat_pow(*word_matrix(pa, one_pass), repeat)])


@dataclass(frozen=True)
class LassoWord:
    """An ultimately periodic word: ``stem`` then ``cycle`` forever."""

    stem: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "stem", tuple(self.stem))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise EmptyCycle("lasso cycle must be nonempty")


def _sccs(n: int, succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components, iterative, in discovery order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(pi, len(succ[v])):
                w = succ[v][j]
                if index[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def _flagged_rows(rows: tuple, n: int, accepting: frozenset[int]) -> tuple:
    """A letter's compiled rows over ``2 n`` nodes: node ``i`` is state ``i``
    before any accepting state was visited in this cycle traversal, node
    ``i + n`` the same state after one was. A move into an accepting state
    lands on its flagged copy; a flagged node stays flagged."""
    den, row, split = rows
    lifts = ([t + n if t in accepting else t for t in range(n)], [t + n for t in range(n)])
    flagged = [
        lift[e] if e.__class__ is int else tuple((lift[t], q) for t, q in e)
        for lift in lifts
        for e in row
    ]
    return den, flagged, split | {i + n for i in split}


def lasso_prob(buchi: BuchiAutomaton, lasso: LassoWord) -> Fraction:
    """Probability that the infinite run visits accepting states forever.

    The run reads stem then cycle^omega. Per cycle traversal we track the end
    state and whether an accepting state was visited along the way: a Markov
    chain over (state, flag) nodes, explored from the distribution after the
    stem. The answer is the probability of absorption into a bottom component
    holding a flagged node, solved over the transient nodes as sparse integer
    rows (:func:`~pfakit.matrices.solve_sparse`).
    """
    pa = buchi.automaton
    k = _kernel(pa)
    after_stem, stem_scale = _advance(k.lookup(k.rows, lasso.stem), _start(k, pa.initial), 1)
    n = len(pa.states)
    accepting = frozenset(k.index[s] for s in buchi.accepting)
    cycle = [_flagged_rows(rows, n, accepting) for rows in k.lookup(k.rows, lasso.cycle)]

    # out_of[s] is one cycle traversal from state s. A node with no successors
    # is unexplored (every row has mass); unreached ones are never solved for.
    out_of: dict[int, tuple[dict[int, int], int]] = {}
    succ: list[list[int]] = [[] for _ in range(2 * n)]
    todo = list(after_stem)
    while todo:
        v = todo.pop()
        if v % n not in out_of:
            out_of[v % n] = _advance(cycle, {v % n: 1}, 1)
        succ[v] = list(out_of[v % n][0])
        todo += [w for w in succ[v] if not succ[w]]

    # Absorption value of each node: 0 or 1 in a bottom component, else unknown.
    value: list[Fraction | int | None] = [None] * (2 * n)
    for comp in _sccs(2 * n, succ):
        members = set(comp)
        if all(w in members for v in comp for w in succ[v]):
            good = int(any(v >= n for v in comp))
            for v in comp:
                value[v] = good
    transient = [v for v, known in enumerate(value) if known is None]
    col = {v: j for j, v in enumerate(transient)}
    rows, rhs = [], []
    for v in transient:
        belief, scale = out_of[v % n]
        row, b = {col[v]: scale}, 0
        for w, q in belief.items():
            if value[w] is None:
                row[col[w]] = row.get(col[w], 0) - q
            else:
                b += q * value[w]
        rows.append(row)
        rhs.append(b)
    for v, (num, den) in zip(transient, solve_sparse(rows, rhs)):
        value[v] = Fraction(num, den)
    return sum((Fraction(q, stem_scale) * value[s] for s, q in after_stem.items()), ZERO)


@dataclass(frozen=True)
class SweepPoint:
    """One perturbed instantiation: its full transition table (the
    instance's read-only ``delta`` view), the nonzero offsets that produced
    it, the best word the search found there, and that word's acceptance
    probability."""

    delta: Mapping[tuple[str, str], Distribution]
    offsets: tuple[tuple[str, str, str, Fraction], ...]
    word: tuple[str, ...]
    value: Fraction


# Most grid points one sweep may enumerate; checked before any point is built.
MAX_SWEEP_POINTS = 10_000


def _offset_grid(eps: Fraction, grid: int) -> list[Fraction]:
    if grid == 1:
        return [ZERO]
    span = 2 * eps
    return [-eps + span * j / (grid - 1) for j in range(grid)]


def noisy_sweep(
    npa: NumberlessAutomaton,
    center: Mapping[tuple[str, str], Distribution],
    eps: Fraction,
    grid: int,
    budget: SearchBudget | None = None,
) -> list[SweepPoint]:
    """Word search across a grid of perturbations of the center instantiation.

    Every transition distribution with several targets contributes free
    coordinates: its first k-1 targets (sorted by state id) each take an
    offset from an evenly spaced grid on [-eps, +eps], the last target absorbs
    the negated sum. Combinations that would leave the eps-ball in sup norm or
    drive some probability to zero or below are dropped, every surviving
    combination is instantiated exactly on ``npa``'s own table, with only the
    free pairs checked and stored, and :func:`value_lower_bound` runs with the
    given budget. Points come back in grid order. A grid of more
    than ``MAX_SWEEP_POINTS`` combinations raises :class:`BudgetExceeded`
    before any of them is built.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise DomainError(f"eps must be >= 0, got {_show(eps)}")
    if grid < 1:
        raise DomainError(f"grid must be >= 1, got {grid}")
    if budget is None:
        budget = SearchBudget(max_word_length=8)
    instantiate(npa, center)  # the center's one validation

    free_pairs = [
        (s, c) for s in npa.states for c in npa.alphabet if len(npa.targets(s, c)) > 1
    ]
    axes = [(s, c, t) for s, c in free_pairs for t, _p in center[(s, c)].items()[:-1]]
    points = grid ** len(axes)
    if points > MAX_SWEEP_POINTS:
        raise BudgetExceeded(
            f"{grid}^{len(axes)} = {points} grid points, more than {MAX_SWEEP_POINTS}"
        )
    steps = _offset_grid(eps, grid) if axes else []  # no axes: one point, the center

    out: list[SweepPoint] = []
    for combo in itertools.product(steps, repeat=len(axes)):
        shifted = {pair: dict(center[pair].items()) for pair in free_pairs}
        for (s, c, t), off in zip(axes, combo):
            shifted[(s, c)][t] += off
            shifted[(s, c)][center[(s, c)].items()[-1][0]] -= off
        # Only a last target can leave the eps-ball; none may reach zero.
        moved = [(p, p - center[pair][t]) for pair, d in shifted.items() for t, p in d.items()]
        if any(p <= 0 or abs(off) > eps for p, off in moved):
            continue
        pa = _instance(npa, {pair: Distribution(d) for pair, d in shifted.items()})
        word, value = value_lower_bound(pa, budget)
        offsets = tuple(
            (s, c, t, off) for (s, c, t), off in zip(axes, combo) if off
        )
        out.append(SweepPoint(pa.delta, offsets, word, value))
    return out
