"""Automaton-to-automaton compilers.

Three constructions live here, plus their word-level encodings:

* :func:`fair_coin` turns a simple automaton (probabilities in {1/2, 1}) into a
  biased-coin automaton whose only probabilities are lambda and 1 - lambda. A
  two-sharp gadget replaces every transition: each pair of ``#`` letters either
  commits the pending transition or retries, so padding a word with ``#`` pairs
  recovers the original semantics up to the factor :func:`commit_prob`. The
  result is an instance: a numberless coin support, whose only split pairs are
  the helper states' ``#`` moves, plus lambda and 1 - lambda on those pairs.
* :func:`build_simulation` compresses the whole biased-coin family into one
  support automaton with a single probabilistic transition. Probed words
  (:func:`hat`) drive it through check/apply micro-steps; an embedded
  deterministic checker polices the probe format. The builder writes the
  support automaton's integer rows directly, the checker's moves included, so
  the checker as an automaton of its own (:func:`fairness_dfa`,
  ``SimulationNPA.checker``) is built only when asked for.
* :func:`buchi_reduction` lifts a finite-word automaton to an infinite-word
  one by adding a restart letter ``#`` from accepting states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

from .core import (
    Distribution,
    NumberlessAutomaton,
    ProbAutomaton,
    TargetTable,
    _instance,
    _show,
    _write_rows,
    dirac,
    require_simple,
)
from .errors import (
    AlphabetClash,
    DomainError,
    OrderMismatch,
    UnknownLetter,
    ValidationError,
)

SHARP = "#"
DOLLAR = "$"
NEXT_TRANSITION = "next_transition"
NEXT_WORD = "next_word"
# Most letters encode_word writes: a 1 MB word on the command line.
MAX_ENCODED_LETTERS = 1_000_000
# Most (state, letter) pairs build_simulation and fairness_dfa may write. The
# build takes about 16 ns a pair, and simulate-build with its document about
# 400 ns and 230 bytes of memory: 0.9 s and 540 MB for the 2.27M pairs of a
# (6 states, 5 letters) source (Python 3.11, 2-vCPU VM). Tests build at most
# the 193k pairs of a (4, 3) source.
MAX_SIMULATION_PAIRS = 2_000_000


def check_letter(b: str, q: str) -> str:
    """The probe letter that challenges state q on base letter b."""
    return f"check({b},{q})"


def apply_letter(b: str, q: str) -> str:
    """The probe letter that fires the pending (q, b) transition."""
    return f"apply({b},{q})"


def parse_sim_letter(token: str) -> tuple[str, ...]:
    """Split a probe-alphabet token into its kind and arguments."""
    if token == DOLLAR:
        return ("dollar",)
    if token == NEXT_TRANSITION:
        return ("next_transition",)
    if token == NEXT_WORD:
        return ("next_word",)
    for kind in ("check", "apply"):
        prefix = kind + "("
        if token.startswith(prefix) and token.endswith(")"):
            body = token[len(prefix):-1]
            b, sep, q = body.partition(",")
            if sep and b and q:
                return (kind, b, q)
    return ("base", token)


def _in_open_unit(name: str, value: Fraction) -> Fraction:
    """``value`` as a Fraction; DomainError unless 0 < value < 1."""
    value = Fraction(value)
    if not 0 < value < 1:
        raise DomainError(f"{name} must lie strictly between 0 and 1, got {_show(value)}")
    return value


def commit_prob(lam: Fraction, rounds: int) -> Fraction:
    """Probability that the two-sharp gadget commits within ``rounds`` retries.

    One retry commits with probability 2*lam*(1-lam), so this is
    1 - (1 - 2*lam*(1-lam))**rounds. Requires 0 < lam < 1 and rounds >= 0.
    """
    lam = _in_open_unit("lam", lam)
    if rounds < 0:
        raise DomainError(f"rounds must be >= 0, got {rounds}")
    return 1 - (1 - 2 * lam * (1 - lam)) ** rounds


def _fresh(name: str, used: set[str]) -> str:
    while name in used:
        name += "'"
    used.add(name)
    return name


def _coin_support(a: ProbAutomaton) -> tuple[NumberlessAutomaton, dict, str, dict]:
    """The coin automaton of ``a`` before numbers are chosen, with its gadget
    map, its sink and each split pair's (lam-target, (1-lam)-target).

    Each original state hops to its moves' pending states and idles on ``#``;
    a move's three helper states split on ``#`` and, like the sink, fall into
    the sink on every other letter.
    """
    require_simple(a)
    if SHARP in a.alphabet:
        raise AlphabetClash(f"source alphabet already contains {SHARP!r}")
    used = set(a.states)
    gadget = {(q, b): (_fresh(f"{q}@{b}", used), _fresh(f"{q}@{b}:L", used),
                       _fresh(f"{q}@{b}:R", used)) for q in a.states for b in a.alphabet}
    sink = _fresh("sink", used)
    states = (*a.states, *chain.from_iterable(gadget.values()), sink)
    alphabet = a.alphabet + (SHARP,)
    index = {s: i for i, s in enumerate(states)}
    firsts = []
    for i, q in enumerate(a.states):
        firsts += [index[gadget[(q, b)][0]] for b in a.alphabet] + [i]
    firsts += [index[sink]] * ((len(states) - len(a.states)) * len(alphabet))
    split: dict[tuple[str, str], tuple[str, str]] = {}
    for (q, b), (mid, left, right) in gadget.items():
        # The lam branch retries via `left`, landing on the move's first target
        # in Distribution (sorted name) order; the other lands on its last.
        targets = list(a.delta[(q, b)])
        split[(mid, SHARP)] = (left, right)
        split[(left, SHARP)] = (mid, targets[0])
        split[(right, SHARP)] = (targets[-1], mid)
    m = len(alphabet)
    odd = {index[s] * m + m - 1: pair for (s, _), pair in split.items()}
    table, _ = _write_rows(states, alphabet, index, firsts, odd)
    return NumberlessAutomaton(states, alphabet, a.initial, table, a.final), gadget, sink, split


@dataclass(frozen=True)
class FairCoinOutput:
    """Result of :func:`fair_coin`: the compiled automaton plus bookkeeping.

    ``gadget`` maps each original (state, letter) pair to its three helper
    states (pending, retry-left, retry-right).
    """

    automaton: ProbAutomaton
    lam: Fraction
    gadget: Mapping[tuple[str, str], tuple[str, str, str]]
    sink: str


def fair_coin(a: ProbAutomaton, lam: Fraction) -> FairCoinOutput:
    """Compile a simple automaton to one whose probabilities are all lam or 1-lam.

    Every (state, letter) move of ``a`` becomes a deterministic hop into a
    pending state followed by ``#``-driven retry rounds; each round commits
    with probability 2*lam*(1-lam), splitting committed mass evenly between
    the move's targets. Initial and final states carry over unchanged.
    """
    lam = _in_open_unit("lam", lam)
    support, gadget, sink, split = _coin_support(a)
    toss = {pair: Distribution({t: lam, u: 1 - lam}) for pair, (t, u) in split.items()}
    return FairCoinOutput(_instance(support, toss), lam, gadget, sink)


def encode_word(word: Sequence[str], k: int) -> list[str]:
    """Pad each letter with 2k sharps: the word the coin automaton expects.

    Raises DomainError, before any work, when the padded word would be longer
    than ``MAX_ENCODED_LETTERS``.
    """
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if (size := len(word) * (2 * k + 1)) > MAX_ENCODED_LETTERS:
        raise DomainError(f"encoding gives {size} letters, more than {MAX_ENCODED_LETTERS}")
    out: list[str] = []
    for a in word:
        out.append(a)
        out.extend([SHARP] * (2 * k))
    return out


def erase_sharps(word: Sequence[str]) -> list[str]:
    """Drop every sharp, recovering the base word."""
    return [a for a in word if a != SHARP]


def _check_order(order: Sequence[str]) -> tuple[str, ...]:
    order = tuple(order)
    if not order:
        raise OrderMismatch("state enumeration is empty")
    if len(set(order)) != len(order):
        raise OrderMismatch("state enumeration has duplicates")
    return order


def hat(word: Sequence[str], order: Sequence[str]) -> list[str]:
    """Encode a coin-automaton word as a probe word.

    Each letter b becomes one check/dollar/apply triple per state of ``order``
    (in that order) followed by ``next_transition``; 3*len(order)+1 probe
    letters per base letter. Raises DomainError, before any work, when that
    would be more than ``MAX_ENCODED_LETTERS`` letters.
    """
    order = _check_order(order)
    if (size := len(word) * (3 * len(order) + 1)) > MAX_ENCODED_LETTERS:
        raise DomainError(f"encoding gives {size} letters, more than {MAX_ENCODED_LETTERS}")
    out: list[str] = []
    for b in word:
        for q in order:
            out += [check_letter(b, q), DOLLAR, apply_letter(b, q)]
        out.append(NEXT_TRANSITION)
    return out


def unhat(word: Sequence[str], order: Sequence[str]) -> list[str] | None:
    """Decode a probe word back to a coin-automaton word, or None if malformed."""
    order = _check_order(order)
    n = len(order)
    span = 3 * n + 1
    if len(word) % span:
        return None
    decoded: list[str] = []
    for g in range(0, len(word), span):
        block = word[g : g + span]
        kind = parse_sim_letter(block[0])
        if kind[0] != "check":
            return None
        b = kind[1]
        expected = hat([b], order)
        if list(block) != expected:
            return None
        decoded.append(b)
    return decoded


def sim_alphabet(b_alphabet: Sequence[str], order: Sequence[str]) -> tuple[str, ...]:
    """The probe alphabet: all check/apply pairs plus the three control letters."""
    order = _check_order(order)
    letters = [check_letter(b, q) for b in b_alphabet for q in order]
    letters += [apply_letter(b, q) for b in b_alphabet for q in order]
    letters += [DOLLAR, NEXT_TRANSITION, NEXT_WORD]
    return tuple(letters)


def _checker(
    b_alphabet: tuple[str, ...], order: tuple[str, ...]
) -> tuple[list[str], dict[tuple[str, str], str], str]:
    """The checker's states (start state first), its moves and its sink, which
    every (state, letter) pair without a move goes to."""
    n = len(order)
    start = "D:start"
    boundary = "D:end"
    sink = "D:sink"
    # Per base letter b, one state per position in the expected sweep
    # check(b,q0) $ apply(b,q0) check(b,q1) ... apply(b,q_{n-1}) next_transition;
    # the state name records the letter just consumed.
    want_dollar = {b: [f"D:{b}:{i}:dollar" for i in range(n)] for b in b_alphabet}
    want_apply = {b: [f"D:{b}:{i}:apply" for i in range(n)] for b in b_alphabet}
    want_check = {b: [f"D:{b}:{i}:check" for i in range(1, n)] for b in b_alphabet}
    want_next = {b: f"D:{b}:next" for b in b_alphabet}
    states = [start, boundary, sink]
    for b in b_alphabet:
        for i in range(n):
            states.append(want_dollar[b][i])
            states.append(want_apply[b][i])
            if i + 1 < n:
                states.append(want_check[b][i])
        states.append(want_next[b])

    goto: dict[tuple[str, str], str] = {}
    for opener in (start, boundary):
        goto[(opener, NEXT_WORD)] = start
        for b in b_alphabet:
            goto[(opener, check_letter(b, order[0]))] = want_dollar[b][0]
    for b in b_alphabet:
        for i in range(n):
            goto[(want_dollar[b][i], DOLLAR)] = want_apply[b][i]
            if i + 1 < n:
                goto[(want_apply[b][i], apply_letter(b, order[i]))] = want_check[b][i]
                goto[(want_check[b][i], check_letter(b, order[i + 1]))] = want_dollar[b][i + 1]
            else:
                goto[(want_apply[b][i], apply_letter(b, order[i]))] = want_next[b]
        goto[(want_next[b], NEXT_TRANSITION)] = boundary
    return states, goto, sink


def fairness_dfa(b_alphabet: Sequence[str], order: Sequence[str]) -> ProbAutomaton:
    """The deterministic checker for well-formed probe words.

    Accepts exactly the words of the shape (hat(u) + [next_word])* over the
    probe alphabet: per base letter a full check/dollar/apply sweep through
    ``order`` ending in next_transition, with groups of letters closed off by
    next_word. States are 0/1 deterministic; the start state is the single
    accepting state. Any deviation falls into a dead sink. More than
    ``MAX_SIMULATION_PAIRS`` (state, letter) pairs raise DomainError before
    any row is written.
    """
    order = _check_order(order)
    b_alphabet = tuple(b_alphabet)
    if len(set(b_alphabet)) != len(b_alphabet):
        raise ValidationError("duplicate letters in the base alphabet")
    _bound_pairs(3 * len(b_alphabet) * len(order) + 3, 2 * len(b_alphabet) * len(order) + 3)
    alphabet = sim_alphabet(b_alphabet, order)
    states, goto, sink = _checker(b_alphabet, order)
    dirac_cache = {s: dirac(s) for s in states}
    delta = {(s, c): dirac_cache[goto.get((s, c), sink)] for s in states for c in alphabet}
    return ProbAutomaton(tuple(states), alphabet, states[0], delta, frozenset(states[:1]))


def run_deterministic(dfa: ProbAutomaton, word: Sequence[str]) -> str:
    """Walk a 0/1-probability automaton; returns the end state."""
    letters = dfa.letter_set()
    state = dfa.initial
    for c in word:
        if c not in letters:
            raise UnknownLetter(f"letter {c!r} not in the checker's alphabet")
        items = dfa.delta[(state, c)].items()
        if len(items) != 1:
            raise ValidationError(f"({state!r}, {c!r}) is not deterministic")
        state = items[0][0]
    return state


def dfa_accepts(dfa: ProbAutomaton, word: Sequence[str]) -> bool:
    return run_deterministic(dfa, word) in dfa.final


@dataclass(frozen=True)
class SimulationNPA:
    """The single-coin simulation automaton, with its bookkeeping.

    ``npa`` has exactly one probabilistic (multi-target) pair: (coin, $) with
    support {heads, tails, skip}. ``state_order`` is the coin-automaton state
    enumeration that :func:`hat` and the embedded checker agree on. The
    checker's moves are entries of ``npa``'s own integer rows, read from
    ``checker_initial``; :attr:`checker` is the checker as an automaton of its
    own, built on first use.
    """

    npa: NumberlessAutomaton
    state_order: tuple[str, ...]
    b_alphabet: tuple[str, ...]
    left: Mapping[str, str]
    right: Mapping[str, str]
    coin: str
    heads: str
    tails: str
    skip: str
    wait: str
    checker_initial: str
    checker_sink: str

    def center(self) -> tuple[str, str, str, str, str]:
        return (self.coin, self.heads, self.tails, self.skip, self.wait)

    @cached_property
    def checker(self) -> ProbAutomaton:
        """The embedded checker: ``fairness_dfa(b_alphabet, state_order)``."""
        return fairness_dfa(self.b_alphabet, self.state_order)

    def well_formed(self, word: Sequence[str]) -> bool:
        """``dfa_accepts(self.checker, word)``, walked on the npa's own rows."""
        table = self.npa.support.table  # type: ignore[attr-defined]
        rows, start = table.rows, table.index[self.checker_initial]
        state = start
        for c in word:
            try:
                state = rows[c][state]
            except KeyError:
                raise UnknownLetter(f"letter {c!r} not in the checker's alphabet") from None
        return state == start  # the checker's one accepting state


def _probe_support(a: ProbAutomaton) -> tuple[NumberlessAutomaton, dict, str, dict]:
    """:func:`_coin_support` of ``a``, with ids that probe letters can hold: its
    states are the simulation's state order, its letters the base alphabet."""
    coin = _coin_support(a)
    for q in coin[0].states:
        if any(ch in q for ch in "(),"):
            raise ValidationError(f"state id {q!r} may not contain '(', ')' or ','")
    for b in coin[0].alphabet:
        if any(ch in b for ch in "(),"):
            raise ValidationError(f"letter {b!r} may not contain '(', ')' or ','")
    return coin


def _bound_pairs(states: int, letters: int) -> None:
    if states * letters > MAX_SIMULATION_PAIRS:
        raise DomainError(f"{states} states x {letters} letters is more than"
                          f" {MAX_SIMULATION_PAIRS} pairs")


def build_simulation(a: ProbAutomaton) -> SimulationNPA:
    """Compile a simple automaton into the one-coin probe automaton.

    States: a left and a right copy of the biased-coin support, five center
    states, and the fairness checker. Probe words move mass left-to-right
    through the single probabilistic coin toss at (coin, $); next_transition
    returns committed mass to the left copy; next_word settles accounts
    (accepting left mass enters the checker's accepting track, the rest dies,
    waiting mass restarts). Undrawn combinations stay put. The npa's integer
    rows are written directly: each letter's row starts as a copy of the idle
    row, and the letter's own moves overwrite a few entries. More than
    ``MAX_SIMULATION_PAIRS`` (state, letter) pairs, reckoned from the shape of
    ``a``, raise DomainError before any row is written.
    """
    n = len(a.states) * (3 * len(a.alphabet) + 1) + 1  # the coin support's shape
    k = len(a.alphabet) + 1
    _bound_pairs(2 * n + 8 + 3 * n * k, 2 * n * k + 3)
    support, _, _, split = _probe_support(a)
    order, b_alphabet = support.states, support.alphabet
    alphabet = sim_alphabet(b_alphabet, order)
    checker_states, moves, sink = _checker(b_alphabet, order)
    start = checker_states[0]

    left = {q: f"L:{q}" for q in order}
    right = {q: f"R:{q}" for q in order}
    coin, heads, tails, skip, wait = "coin", "heads", "tails", "skip", "wait"
    states = (
        [left[q] for q in order]
        + [right[q] for q in order]
        + [coin, heads, tails, skip, wait]
        + checker_states
    )

    index = {s: i for i, s in enumerate(states)}
    coin_i, heads_i, tails_i, skip_i, wait_i = (index[x] for x in (coin, heads, tails, skip, wait))
    sink_i, start_i = index[sink], index[start]
    # Every state idles on every letter, except the checker's, which fall
    # into its sink; the letters' own moves overwrite these rows.
    idle = list(range(len(states) - len(checker_states))) + [sink_i] * len(checker_states)
    rows = {c: idle.copy() for c in alphabet}
    # Left copies: check(_, q) hands q's mass to the coin, next_word settles it.
    for q in order:
        for b in b_alphabet:
            rows[check_letter(b, q)][index[left[q]]] = coin_i
        rows[NEXT_WORD][index[left[q]]] = start_i if q in support.final else sink_i
    # Right copies: only next_transition moves them back.
    for q in order:
        rows[NEXT_TRANSITION][index[right[q]]] = index[left[q]]
    # Center: $ tosses the coin, apply(b, q) fires (q, b)'s branches (a Dirac
    # move's one target on both), and next_word restarts the waiting mass.
    rows[DOLLAR][coin_i] = heads_i  # the first of its targets
    multi = {(coin, DOLLAR): (heads, tails, skip)}
    for b in b_alphabet:
        for q in order:
            t_lam, t_other = split.get((q, b)) or support.targets(q, b) * 2
            row = rows[apply_letter(b, q)]
            row[heads_i], row[tails_i], row[skip_i] = (
                index[right[t_lam]], index[right[t_other]], wait_i)
    rows[NEXT_WORD][wait_i] = index[left[support.initial]]
    # The checker's real moves; its other entries stay at its sink.
    for (s, c), t in moves.items():
        rows[c][index[s]] = index[t]
    table = TargetTable(states, alphabet, rows, multi, int_rows=True)

    npa = NumberlessAutomaton(states, alphabet, left[support.initial], table, {start})
    return SimulationNPA(
        npa=npa,
        state_order=order,
        b_alphabet=b_alphabet,
        left=left,
        right=right,
        coin=coin,
        heads=heads,
        tails=tails,
        skip=skip,
        wait=wait,
        checker_initial=start,
        checker_sink=sink,
    )


def instantiate_simulation(
    sim: SimulationNPA, lam: Fraction, theta: Fraction
) -> ProbAutomaton:
    """Give the one coin its numbers: heads lam*theta, tails (1-lam)*theta, skip 1-theta.

    Every instance of ``sim`` is a view of ``sim.npa``'s own table, whose one
    multi-target pair is (coin, $), and carries only its own coin toss; only
    that pair is checked.
    """
    lam, theta = _in_open_unit("lam", lam), _in_open_unit("theta", theta)
    toss = Distribution(
        {sim.heads: lam * theta, sim.tails: (1 - lam) * theta, sim.skip: 1 - theta}
    )
    return _instance(sim.npa, {(sim.coin, DOLLAR): toss})


def simulation_parameters(sim: SimulationNPA, pa: ProbAutomaton) -> tuple[Fraction, Fraction]:
    """Recover (lam, theta) from an instantiation of the simulation automaton."""
    if (sim.coin, DOLLAR) not in pa.delta:
        raise ValidationError(f"automaton lacks the coin pair ({sim.coin!r}, {DOLLAR!r})")
    d = pa.delta[(sim.coin, DOLLAR)]
    theta = d[sim.heads] + d[sim.tails]
    if theta == 0:
        raise DomainError("coin transition puts no mass on heads/tails")
    return d[sim.heads] / theta, theta


@dataclass(frozen=True)
class BuchiAutomaton:
    """A probabilistic automaton whose final states are read as a Buchi condition."""

    automaton: ProbAutomaton
    accepting: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        stray = self.accepting - self.automaton.state_set()
        if stray:
            raise ValidationError(f"accepting states {sorted(stray)} not among states")


def buchi_reduction(a: ProbAutomaton) -> BuchiAutomaton:
    """Add a restart letter: ``#`` jumps accepting states to the initial state.

    Non-accepting states fall into a rejecting sink on ``#``. The original
    final set becomes the Buchi-accepting set, so a run accepts iff restarts
    from accepting states happen forever.
    """
    if SHARP in a.alphabet:
        raise AlphabetClash(f"alphabet already contains {SHARP!r}")
    used = set(a.states)
    sink = _fresh("sink", used)
    states = a.states + (sink,)
    alphabet = a.alphabet + (SHARP,)
    delta: dict[tuple[str, str], Distribution] = dict(a.delta)
    back = dirac(a.initial)
    dead = dirac(sink)
    for q in a.states:
        delta[(q, SHARP)] = back if q in a.final else dead
    for c in alphabet:
        delta[(sink, c)] = dead
    pa = ProbAutomaton(states, alphabet, a.initial, delta, a.final)
    return BuchiAutomaton(pa, a.final)
