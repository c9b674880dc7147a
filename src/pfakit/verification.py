"""Executable oracles for the construction propositions.

Each check_* function evaluates both sides of one proposition by independent
code paths (stepping the compiled automaton vs. a closed formula on the
source) and returns a :class:`PropReport` whose verdict is recomputable from
the recorded values and relation. Nothing here estimates: every comparison
is exact rational arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Distribution, ProbAutomaton, accept_prob, dirac, reach_prob, word_matrix
from .constructions import (
    DOLLAR,
    NEXT_TRANSITION,
    NEXT_WORD,
    SimulationNPA,
    apply_letter,
    build_simulation,
    check_letter,
    commit_prob,
    encode_word,
    erase_sharps,
    fair_coin,
    hat,
    instantiate_simulation,
    unhat,
)
from .analysis import SearchBudget, value_lower_bound
from .errors import DomainError, PreconditionFailed
from .matrices import int_mat_mul
from .seesaw import seesaw_pa

EQUAL = "=="
AT_MOST = "<="

_VERDICT_OK = {EQUAL: "equal", AT_MOST: "bounded"}

# Largest m of seesaw_case_study; each doubling of m doubles the digits. With
# n <= 20: about 1 s at m = 4096, 4 s at 8192 (Python 3.11, 2-vCPU VM).
MAX_CASE_STUDY_M = 8192
# Largest n_max of seesaw_case_study; the digits grow with n too. At m = 8192,
# x = 3/4, y = 1/4: about 4 s at n_max = 20, 5 s at 24 and 12 s at 32 (same VM).
MAX_CASE_STUDY_N = 24
# Most bits seesaw_case_study's values may reach, by the estimate
# m_max * (1 + n_max * (bits of x's denominator + bits of y's)). The work
# grows with them (same VM): 1.4 s at 495 616 bits ((20, 4096), x = 3/4,
# y = 1/4), 2.6 s at 659 456 ((20, 4096), 7/8, 3/8), 4.6 s at 991 232
# ((20, 8192), 3/4, 1/4). The CLI defaults (20, 4096) pass while both
# denominators are below 64.
MAX_CASE_STUDY_BITS = 1_000_000


@dataclass(frozen=True)
class PropReport:
    """Outcome of one proposition check.

    ``inputs`` holds (name, rendered value) pairs; ``lhs``/``rhs`` are the
    two compared quantities (None only for a not-applicable check).
    """

    proposition: str
    inputs: tuple[tuple[str, str], ...]
    lhs: Fraction | None
    rhs: Fraction | None
    relation: str
    verdict: str

    @property
    def holds(self) -> bool:
        return self.verdict != "violated"


def _verdict(lhs: Fraction, rhs: Fraction, relation: str) -> str:
    ok = lhs == rhs if relation == EQUAL else lhs <= rhs
    return _VERDICT_OK[relation] if ok else "violated"


def _report(
    prop: str,
    inputs: Sequence[tuple[str, str]],
    lhs: Fraction,
    rhs: Fraction,
    relation: str,
) -> PropReport:
    return PropReport(prop, tuple(inputs), lhs, rhs, relation, _verdict(lhs, rhs, relation))


def _word_str(word: Sequence[str]) -> str:
    return " ".join(word) if word else "(empty)"


def check_fair_coin(
    a: ProbAutomaton,
    lam: Fraction,
    k: int,
    u: Sequence[str],
    q: str,
    r: str,
) -> PropReport:
    """Padded words hit targets with the committed fraction, exactly:
    reach over encode_word(u, k) equals commit_prob(lam, k)^|u| times the
    source reach probability."""
    lam = Fraction(lam)
    b = fair_coin(a, lam).automaton
    lhs = reach_prob(b, q, encode_word(u, k), {r})
    rhs = commit_prob(lam, k) ** len(u) * reach_prob(a, q, list(u), {r})
    inputs = (
        ("lam", str(lam)),
        ("k", str(k)),
        ("u", _word_str(u)),
        ("q", q),
        ("r", r),
    )
    return _report("fair_coin_commit", inputs, lhs, rhs, EQUAL)


def check_fair_coin_erasure(
    a: ProbAutomaton,
    lam: Fraction,
    w: Sequence[str],
    q: str,
    r: str,
) -> PropReport:
    """Arbitrary sharp-padded words never beat the source word they erase to:
    reach in the coin automaton is at most reach of erase_sharps(w) in the
    source."""
    lam = Fraction(lam)
    b = fair_coin(a, lam).automaton
    lhs = reach_prob(b, q, list(w), {r})
    rhs = reach_prob(a, q, erase_sharps(w), {r})
    inputs = (("lam", str(lam)), ("w", _word_str(w)), ("q", q), ("r", r))
    return _report("fair_coin_erasure", inputs, lhs, rhs, AT_MOST)


def _simulation_for(a: ProbAutomaton, sim: SimulationNPA | None) -> SimulationNPA:
    return sim if sim is not None else build_simulation(a)


def check_lower(
    a: ProbAutomaton,
    lam: Fraction,
    theta: Fraction,
    u: Sequence[str],
    ell: int,
    sim: SimulationNPA | None = None,
) -> PropReport:
    """Probe words commit exactly the predicted mass.

    Checks both displayed identities: acceptance of hat(u)·next_word equals
    theta^|u| times the coin automaton's acceptance of u, and acceptance of
    the ell-fold repetition equals (1-(1-theta^|u|)^ell) times it. The
    recorded values are the first failing pair, or the ell-fold pair when
    both hold.
    """
    lam, theta = Fraction(lam), Fraction(theta)
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    sim = _simulation_for(a, sim)
    c = instantiate_simulation(sim, lam, theta)
    b = fair_coin(a, lam).automaton
    p_b = accept_prob(b, list(u))
    k = len(u)
    group = hat(u, sim.state_order) + [NEXT_WORD]
    one_lhs = accept_prob(c, group)
    one_rhs = theta**k * p_b
    ell_lhs = accept_prob(c, group * ell)
    ell_rhs = (1 - (1 - theta**k) ** ell) * p_b
    inputs = (
        ("lam", str(lam)),
        ("theta", str(theta)),
        ("u", _word_str(u)),
        ("ell", str(ell)),
        ("single_lhs", str(one_lhs)),
        ("single_rhs", str(one_rhs)),
    )
    if one_lhs != one_rhs:
        return _report("lower_commit", inputs, one_lhs, one_rhs, EQUAL)
    return _report("lower_commit", inputs, ell_lhs, ell_rhs, EQUAL)


def check_theta(
    a: ProbAutomaton,
    lam: Fraction,
    theta: Fraction,
    u: Sequence[str],
    sim: SimulationNPA | None = None,
) -> PropReport:
    """Words that never close a group accept with probability at most theta
    (with this construction, exactly 0 — the recorded left value shows it)."""
    lam, theta = Fraction(lam), Fraction(theta)
    if NEXT_WORD in u:
        raise PreconditionFailed("word must not contain the group separator")
    sim = _simulation_for(a, sim)
    c = instantiate_simulation(sim, lam, theta)
    lhs = accept_prob(c, list(u))
    inputs = (("lam", str(lam)), ("theta", str(theta)), ("u", _word_str(u)))
    return _report("theta_cap", inputs, lhs, theta, AT_MOST)


def check_cheat_once(
    a: ProbAutomaton,
    lam: Fraction,
    theta: Fraction,
    blocks: Sequence[Sequence[str]],
    sim: SimulationNPA | None = None,
) -> PropReport:
    """Cheating never helps once: for every block outside the well-formed
    probe language, the whole word's acceptance is at most the acceptance of
    the suffix starting at that block. Not applicable when every block is
    well formed."""
    lam, theta = Fraction(lam), Fraction(theta)
    blocks = [list(blk) for blk in blocks]
    for blk in blocks:
        if NEXT_WORD in blk:
            raise PreconditionFailed("blocks must not contain the group separator")
    sim = _simulation_for(a, sim)
    c = instantiate_simulation(sim, lam, theta)
    word: list[str] = []
    for blk in blocks:
        word += blk + [NEXT_WORD]
    honest = [sim.well_formed(blk + [NEXT_WORD]) for blk in blocks]
    lhs = accept_prob(c, word)
    dishonest = [i for i, ok in enumerate(honest) if not ok]
    inputs = (
        ("lam", str(lam)),
        ("theta", str(theta)),
        ("blocks", str(len(blocks))),
        ("dishonest", ",".join(map(str, dishonest)) or "none"),
    )
    if not dishonest:
        return PropReport(
            "cheat_once", inputs, lhs, None, AT_MOST, "not-applicable"
        )
    rhs = None
    for i in dishonest:
        suffix: list[str] = []
        for blk in blocks[i:]:
            suffix += blk + [NEXT_WORD]
        bound = accept_prob(c, suffix)
        rhs = bound if rhs is None else min(rhs, bound)
    assert rhs is not None
    return _report("cheat_once", inputs, lhs, rhs, AT_MOST)


def extract_witness(
    a: ProbAutomaton,
    lam: Fraction,
    theta: Fraction,
    w: Sequence[str],
    sim: SimulationNPA | None = None,
) -> tuple[tuple[str, ...], PropReport]:
    """From any probe word accepted beyond theta, recover a source-level
    witness: the best decodable block v satisfies
    accept_prob(B, v) >= (P(w) - theta) / (1 - theta)."""
    lam, theta = Fraction(lam), Fraction(theta)
    sim = _simulation_for(a, sim)
    c = instantiate_simulation(sim, lam, theta)
    b = fair_coin(a, lam).automaton
    p = accept_prob(c, list(w))
    if p <= theta:
        raise PreconditionFailed(
            f"acceptance {p} does not exceed theta = {theta}"
        )
    blocks: list[list[str]] = [[]]
    for letter in w:
        if letter == NEXT_WORD:
            blocks.append([])
        else:
            blocks[-1].append(letter)
    blocks.pop()  # w ends with the separator whenever p > 0
    candidates: list[list[str]] = []
    for blk in blocks:
        decoded = unhat(blk, sim.state_order)
        if decoded is not None:
            candidates.append(decoded)
    if not candidates:
        candidates.append([])  # the empty source word, always available
    best = max(candidates, key=lambda v: accept_prob(b, v))
    bound = (p - theta) / (1 - theta)
    inputs = (
        ("lam", str(lam)),
        ("theta", str(theta)),
        ("|w|", str(len(list(w)))),
        ("witness", _word_str(best)),
    )
    report = _report("upper_witness", inputs, bound, accept_prob(b, best), AT_MOST)
    return tuple(best), report


@dataclass(frozen=True)
class ChainRow:
    """One automaton level in the equivalence-chain experiment."""

    kind: str  # "source" | "fair-coin" | "simulation"
    lam: Fraction | None
    theta: Fraction | None
    word: tuple[str, ...]
    value: Fraction


@dataclass(frozen=True)
class EquivalenceChainReport:
    rows: tuple[ChainRow, ...]

    def max_by_kind(self) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for row in self.rows:
            if row.kind not in out or row.value > out[row.kind]:
                out[row.kind] = row.value
        return out


def equivalence_chain_report(
    a: ProbAutomaton,
    lams: Sequence[Fraction],
    thetas: Sequence[Fraction],
    budget: SearchBudget,
) -> EquivalenceChainReport:
    """Search-based lower bounds across the construction chain.

    Tabulates value_lower_bound for the source automaton, each coin
    automaton, and each simulation instance. The bounds are evidence for the
    value-1 equivalences, never a decision: budgets are finite.
    """
    rows: list[ChainRow] = []
    word, value = value_lower_bound(a, budget)
    rows.append(ChainRow("source", None, None, word, value))
    sim = build_simulation(a)
    for lam in lams:
        lam = Fraction(lam)
        b = fair_coin(a, lam).automaton
        word, value = value_lower_bound(b, budget)
        rows.append(ChainRow("fair-coin", lam, None, word, value))
    for lam in lams:
        lam = Fraction(lam)
        for theta in thetas:
            theta = Fraction(theta)
            c = instantiate_simulation(sim, lam, theta)
            word, value = value_lower_bound(c, budget)
            rows.append(ChainRow("simulation", lam, theta, word, value))
    return EquivalenceChainReport(tuple(rows))


@dataclass(frozen=True)
class CaseStudyRow:
    """Exact acceptance of (i a^n f)^m on a seesaw instance."""

    n: int
    m: int
    exact: Fraction
    approx: float
    exceeds: bool


def seesaw_case_study(
    x: Fraction,
    y: Fraction,
    n_max: int,
    m_max: int,
    eps: Fraction = Fraction(1, 100),
) -> list[CaseStudyRow]:
    """Acceptance of (i a^n f)^m over n in 0..n_max, m in powers of two up
    to m_max; ``exceeds`` flags rows beyond 1 - eps.

    One squaring chain per n: the integer matrix of i a^n f, built by the
    compiled kernel, is squared repeatedly, so the m axis costs one
    multiplication per row. An ``m_max`` above ``MAX_CASE_STUDY_M``, an
    ``n_max`` above ``MAX_CASE_STUDY_N``, or values estimated to reach more
    than ``MAX_CASE_STUDY_BITS`` bits raise DomainError before any work. The
    matrix of i a^n f has a denominator of at most 2 (dx dy)^n, where dx and
    dy are the denominators of x and y, and its m-th power that to the m.
    """
    x, y, eps = Fraction(x), Fraction(y), Fraction(eps)
    if n_max < 0 or m_max < 1:
        raise DomainError("need n_max >= 0 and m_max >= 1")
    if m_max > MAX_CASE_STUDY_M:
        raise DomainError(f"m_max = {m_max} is more than {MAX_CASE_STUDY_M}")
    if n_max > MAX_CASE_STUDY_N:
        raise DomainError(f"n_max = {n_max} is more than {MAX_CASE_STUDY_N}")
    bits = m_max * (1 + n_max * (x.denominator.bit_length() + y.denominator.bit_length()))
    if bits > MAX_CASE_STUDY_BITS:
        raise DomainError(
            f"values of about {bits} bits at n_max = {n_max}, m_max = {m_max} and these"
            f" denominators of x and y, more than {MAX_CASE_STUDY_BITS}"
        )
    pa = seesaw_pa(x, y)
    index = {s: i for i, s in enumerate(pa.states)}
    init = index[pa.initial]
    final_idx = [index[s] for s in pa.final]
    ms = []
    m = 1
    while m <= m_max:
        ms.append(m)
        m *= 2
    rows: list[CaseStudyRow] = []
    for n in range(n_max + 1):
        word = ["i"] + ["a"] * n + ["f"]
        power, power_den = word_matrix(pa, word)
        last_m = 1
        for m in ms:
            while last_m < m:
                power = int_mat_mul(power, power)
                power_den *= power_den
                last_m *= 2
            exact = Fraction(
                sum(power[init][j] for j in final_idx), power_den
            )
            rows.append(
                CaseStudyRow(n, m, exact, float(exact), exact > 1 - eps)
            )
    return rows


def first_exceeding(rows: Sequence[CaseStudyRow]) -> CaseStudyRow | None:
    """First row (in the given order) whose acceptance exceeds the bar."""
    for row in rows:
        if row.exceeds:
            return row
    return None


_LETTER_POOL = "abcdefghijklmnopqrstuvwxyz"


def random_simple_pa(
    seed: int,
    n_states: int,
    n_letters: int,
    final_density: float = 0.5,
) -> ProbAutomaton:
    """Deterministic random automaton with probabilities in {1/2, 1}.

    Complete by construction; at least one final state whenever
    final_density > 0.
    """
    if n_states < 1:
        raise DomainError("need at least one state")
    if not 1 <= n_letters <= len(_LETTER_POOL):
        raise DomainError(f"n_letters must be in 1..{len(_LETTER_POOL)}")
    rng = random.Random(seed)
    states = tuple(f"q{i}" for i in range(n_states))
    alphabet = tuple(_LETTER_POOL[:n_letters])
    half = Fraction(1, 2)
    delta: dict[tuple[str, str], Distribution] = {}
    for s in states:
        for c in alphabet:
            if n_states > 1 and rng.random() < 0.5:
                t1, t2 = rng.sample(states, 2)
                delta[(s, c)] = Distribution({t1: half, t2: half})
            else:
                delta[(s, c)] = dirac(rng.choice(states))
    final = {s for s in states if rng.random() < final_density}
    if final_density > 0 and not final:
        final.add(rng.choice(states))
    return ProbAutomaton(states, alphabet, states[0], delta, frozenset(final))


def scrambled_block(
    u: Sequence[str],
    sim: SimulationNPA,
    rng: random.Random,
) -> list[str]:
    """A separator-free probe block shaped like an honest encoding of u but
    with corrupted sweep arguments.

    The block stays a sequence of full check/dollar/apply triples with each
    letter image closed by next_transition, so probability mass still drains
    back to the left copy or the wait state before any group boundary; only
    the arguments lie. Corruption is random, so the result may occasionally
    still be well formed; callers decide membership with the checker.
    """
    order = sim.state_order
    b_alphabet = sim.b_alphabet
    out: list[str] = []
    for b in u:
        for q in order:
            cb = rng.choice(b_alphabet) if rng.random() < 0.15 else b
            cq = rng.choice(order) if rng.random() < 0.15 else q
            ab = rng.choice(b_alphabet) if rng.random() < 0.15 else b
            aq = rng.choice(order) if rng.random() < 0.15 else q
            if rng.random() < 0.05:
                continue  # drop a triple entirely
            out += [check_letter(cb, cq), DOLLAR, apply_letter(ab, aq)]
        out.append(NEXT_TRANSITION)
    return out
