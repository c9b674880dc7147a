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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (
    Distribution,
    NumberlessAutomaton,
    ProbAutomaton,
    Step,
    ZERO,
    accept_steps,
    dirac,
    distribution_after,
    instantiate,
    step,
    word_matrix,
)
from .constructions import BuchiAutomaton
from .errors import BudgetExceeded, DomainError, EmptyCycle, UnknownLetter
from .matrices import Matrix, int_mat_pow, solve_linear


@dataclass(frozen=True)
class SearchBudget:
    """Limits for :func:`value_lower_bound`.

    ``beam_width`` 0 means exhaustive (no beam); ``max_distribution_states``
    0 means no cap, otherwise exceeding this many distinct beliefs raises
    :class:`BudgetExceeded`.
    """

    max_word_length: int
    beam_width: int = 0
    max_distribution_states: int = 0

    def __post_init__(self):
        if self.max_word_length < 0:
            raise DomainError("max_word_length must be >= 0")
        if self.beam_width < 0:
            raise DomainError("beam_width must be >= 0")
        if self.max_distribution_states < 0:
            raise DomainError("max_distribution_states must be >= 0")


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
    """
    live = states_reaching(pa, pa.final)
    start = dirac(pa.initial)
    best_word: tuple[str, ...] = ()
    best = start.mass(pa.final)
    seen: set[Distribution] = {start}
    frontier: list[tuple[Distribution, tuple[str, ...]]] = [(start, ())]
    for _depth in range(budget.max_word_length):
        if not frontier:
            break
        scored: list[tuple[Fraction, Distribution, tuple[str, ...]]] = []
        for belief, word in frontier:
            for c in pa.alphabet:
                after = step(pa, belief, c)
                if after in seen:
                    continue
                seen.add(after)
                if budget.max_distribution_states and len(seen) > budget.max_distribution_states:
                    raise BudgetExceeded(
                        f"more than {budget.max_distribution_states} distinct beliefs"
                    )
                acc = after.mass(pa.final)
                potential = after.mass(live)
                if potential <= best:
                    continue
                if acc > best:
                    best = acc
                    best_word = word + (c,)
                scored.append((acc + potential, after, word + (c,)))
        if budget.beam_width and len(scored) > budget.beam_width:
            scored.sort(key=lambda item: item[0], reverse=True)
            del scored[budget.beam_width :]
        frontier = [(belief, word) for _score, belief, word in scored]
    return best_word, best


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


def lasso_prob(buchi: BuchiAutomaton, lasso: LassoWord) -> Fraction:
    """Probability that the infinite run visits accepting states forever.

    The run reads stem then cycle^omega. Per cycle traversal we track the end
    state and whether an accepting state was visited along the way, giving a
    finite Markov chain over (state, flag) pairs; the answer is the exact
    probability of absorption into a bottom component containing a flagged
    pair, by Gaussian elimination on the transient part.
    """
    pa = buchi.automaton
    letters = pa.letter_set()
    for c in lasso.stem + lasso.cycle:
        if c not in letters:
            raise UnknownLetter(f"letter {c!r} not in the alphabet")
    states = pa.states
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    accepting = buchi.accepting

    # One cycle from state s: distribution over (end state, visited-flag).
    rows: list[dict[tuple[int, int], Fraction]] = []
    for s in states:
        cur: dict[tuple[str, bool], Fraction] = {(s, False): Fraction(1)}
        for c in lasso.cycle:
            nxt: dict[tuple[str, bool], Fraction] = {}
            for (r, flag), p in cur.items():
                for t, q in pa.delta[(r, c)].items():
                    key = (t, flag or t in accepting)
                    nxt[key] = nxt.get(key, ZERO) + p * q
            cur = nxt
        rows.append(
            {(index[t], int(flag)): p for (t, flag), p in cur.items() if p}
        )

    # Pair-chain nodes 2*i + flag; flag does not affect outgoing moves.
    m = 2 * n
    succ: list[list[int]] = [[] for _ in range(m)]
    for i in range(n):
        targets = sorted(2 * j + f for (j, f) in rows[i])
        succ[2 * i] = targets
        succ[2 * i + 1] = targets

    comps = _sccs(m, succ)
    comp_of = [0] * m
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    bottom = [True] * len(comps)
    for v in range(m):
        for w in succ[v]:
            if comp_of[w] != comp_of[v]:
                bottom[comp_of[v]] = False
    absorbed = [ZERO] * m
    accepting_comp = [
        bottom[k] and any(v & 1 for v in comp) for k, comp in enumerate(comps)
    ]
    known = [False] * m
    for v in range(m):
        k = comp_of[v]
        if bottom[k]:
            absorbed[v] = Fraction(1) if accepting_comp[k] else ZERO
            known[v] = True

    transient = [v for v in range(m) if not known[v]]
    if transient:
        pos = {v: idx for idx, v in enumerate(transient)}
        size = len(transient)
        a: Matrix = [[ZERO] * size for _ in range(size)]
        b: list[Fraction] = [ZERO] * size
        for v in transient:
            i = v >> 1
            r = pos[v]
            a[r][r] += Fraction(1)
            for (j, f), p in rows[i].items():
                w = 2 * j + f
                if known[w]:
                    b[r] += p * absorbed[w]
                else:
                    a[r][pos[w]] -= p
        sol = solve_linear(a, b)
        for v, val in zip(transient, sol):
            absorbed[v] = val

    after_stem = distribution_after(pa, lasso.stem)
    return sum(
        (p * absorbed[2 * index[s]] for s, p in after_stem.items()), ZERO
    )


@dataclass(frozen=True)
class SweepPoint:
    """One perturbed instantiation: the full transition assignment, the
    nonzero offsets that produced it, the best word the search found there,
    and that word's acceptance probability."""

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
    coordinates: its first k-1 targets (state order) each take an offset from
    an evenly spaced grid on [-eps, +eps], the last target absorbs the
    negated sum. Combinations that would leave the eps-ball in sup norm or
    drive some probability to zero or below are dropped, every surviving
    combination is instantiated exactly, and :func:`value_lower_bound` runs
    with the given budget. Points come back in grid order. A grid of more
    than ``MAX_SWEEP_POINTS`` combinations raises :class:`BudgetExceeded`
    before any of them is built.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise DomainError(f"eps must be >= 0, got {eps}")
    if grid < 1:
        raise DomainError(f"grid must be >= 1, got {grid}")
    if budget is None:
        budget = SearchBudget(max_word_length=8)
    instantiate(npa, center)  # fail fast on an inconsistent center

    order = {s: i for i, s in enumerate(npa.states)}
    letter_order = {c: i for i, c in enumerate(npa.alphabet)}
    free_pairs = [
        (s, c)
        for (s, c) in sorted(center, key=lambda sc: (order[sc[0]], letter_order[sc[1]]))
        if len(center[(s, c)].support()) > 1
    ]
    axes: list[tuple[str, str, str]] = []
    for s, c in free_pairs:
        targets = [t for t, _p in center[(s, c)].items()]
        for t in targets[:-1]:
            axes.append((s, c, t))
    points = grid ** len(axes)
    if points > MAX_SWEEP_POINTS:
        raise BudgetExceeded(
            f"{grid}^{len(axes)} = {points} grid points, more than {MAX_SWEEP_POINTS}"
        )
    steps = _offset_grid(eps, grid) if axes else []  # no axes: one point, the center

    out: list[SweepPoint] = []
    for combo in itertools.product(steps, repeat=len(axes)):
        delta = {pair: dict(center[pair].items()) for pair in center}
        pair_shift: dict[tuple[str, str], Fraction] = {}
        ok = True
        for (s, c, t), off in zip(axes, combo):
            delta[(s, c)][t] += off
            pair_shift[(s, c)] = pair_shift.get((s, c), ZERO) + off
        for (s, c), total in pair_shift.items():
            if abs(total) > eps:
                ok = False
                break
            last = center[(s, c)].items()[-1][0]
            delta[(s, c)][last] -= total
        if ok:
            ok = all(p > 0 for d in delta.values() for p in d.values())
        if not ok:
            continue
        spec = {pair: Distribution(d) for pair, d in delta.items()}
        pa = instantiate(npa, spec)
        word, value = value_lower_bound(pa, budget)
        offsets = tuple(
            (s, c, t, off) for (s, c, t), off in zip(axes, combo) if off
        )
        out.append(SweepPoint(spec, offsets, word, value))
    return out
