"""The compiled integer kernel against the plain-dict oracles.

Every exact evaluation in ``pfakit.core``, and the search and lasso of
``pfakit.analysis``, runs on one compiled integer form; these tests compare it
with ``tests/oracles.py``, which propagates Fractions through ``pa.delta`` and
shares no code with it, and with Fraction code kept in this file.
"""

import ast
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import lasso_oracle, raw_accept, raw_after, raw_reach
from pfakit import (
    NEXT_WORD,
    BuchiAutomaton,
    BudgetExceeded,
    DomainError,
    Distribution,
    FamilyTemplate,
    LassoWord,
    ProbAutomaton,
    SearchBudget,
    accept_prob,
    buchi_reduction,
    build_simulation,
    dirac,
    distribution_after,
    expand_template,
    family_eval,
    hat,
    instantiate,
    instantiate_simulation,
    lasso_prob,
    monte_carlo_accept,
    random_simple_pa,
    reach_prob,
    seesaw_pa,
    step,
    trace_word,
    value_lower_bound,
)
from pfakit.core import MAX_MC_STEPS
from pfakit.errors import UnknownLetter


def test_oracles_import_nothing_from_pfakit():
    """The oracles must stay independent of every path they check."""
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert [m for m in imported if m.split(".")[0] == "pfakit"] == []


def mixed_pa(seed: int, n_states: int, n_letters: int) -> ProbAutomaton:
    """A random automaton whose rows mix denominators 2, 3, 5 and 7 and whose
    letters mix Dirac and split rows."""
    rng = random.Random(seed)
    states = tuple(f"s{i}" for i in range(n_states))
    alphabet = tuple("abcd"[:n_letters])
    delta = {}
    for s in states:
        for a in alphabet:
            k = rng.randrange(1, min(3, n_states) + 1)
            targets = rng.sample(states, k)
            den = rng.choice((2, 3, 5, 7))
            cuts = sorted(rng.sample(range(1, den), k - 1)) if k <= den else None
            if cuts is None:
                delta[(s, a)] = Distribution({targets[0]: 1})
                continue
            bounds = [0] + cuts + [den]
            delta[(s, a)] = Distribution(
                {t: F(hi - lo, den) for t, lo, hi in zip(targets, bounds, bounds[1:])}
            )
    final = frozenset(s for s in states if rng.random() < 0.5)
    return ProbAutomaton(states, alphabet, states[0], delta, final)


def automata(max_states: int = 5):
    return st.builds(
        lambda kind, seed, n, k: (random_simple_pa if kind else mixed_pa)(seed, n, k),
        st.booleans(),
        st.integers(0, 2**31 - 1),
        st.integers(1, max_states),
        st.integers(1, 3),
    )


@given(automata(), st.randoms(use_true_random=False), st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_evaluation_matches_the_oracles(pa, rng, length):
    word = [rng.choice(pa.alphabet) for _ in range(length)]
    assert accept_prob(pa, word) == raw_accept(pa, word)
    assert dict(distribution_after(pa, word).items()) == raw_after(pa, word)
    source = rng.choice(pa.states)
    targets = set(rng.sample(pa.states, rng.randrange(0, len(pa.states) + 1)))
    assert reach_prob(pa, source, word, targets) == raw_reach(pa, source, word, targets)


@given(automata(), st.randoms(use_true_random=False), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_trace_and_step_match_the_oracle_after_every_prefix(pa, rng, length):
    word = [rng.choice(pa.alphabet) for _ in range(length)]
    tr = trace_word(pa, word)
    d = tr.distributions[0]
    for i, a in enumerate(word):
        d = step(pa, d, a)
        assert d == tr.distributions[i + 1]
        assert dict(d.items()) == raw_after(pa, word[: i + 1])
    assert tr.acceptance == raw_accept(pa, word)


# Exponents on both sides of family_eval's fold limit (64), so that segments
# and whole passes run letter by letter and as integer matrix powers.
EXPONENTS = st.sampled_from((0, 1, 2, 64, 65, 130))


@st.composite
def families(draw):
    pa = draw(automata(max_states=4))
    words = st.lists(st.sampled_from(pa.alphabet), min_size=1, max_size=2).map(tuple)
    segments = draw(st.lists(st.tuples(words, EXPONENTS), min_size=1, max_size=3))
    return pa, FamilyTemplate(tuple(segments), repeat=draw(EXPONENTS))


@given(families())
@settings(max_examples=60, deadline=None)
def test_family_eval_matches_the_oracle(family):
    pa, template = family
    word = expand_template(template)
    # The oracle's Fractions grow with the word; longer words take seconds each.
    assume(len(word) <= 600)
    assert family_eval(pa, template) == raw_accept(pa, word)


@pytest.mark.parametrize("seed", range(3))
def test_family_eval_powers_a_pass_that_holds_a_power(seed):
    """A segment power inside a repeat power: too long a word for the
    hypothesis test's oracle budget on denominators 3, 5 and 7."""
    pa = random_simple_pa(seed, 4, 2)
    template = FamilyTemplate(((("a",), 65), (("b", "a"), 1)), repeat=65)
    assert family_eval(pa, template) == raw_accept(pa, expand_template(template))


@pytest.fixture(scope="module")
def sim_source():
    a = random_simple_pa(1, 2, 1, 0.8)
    return a, build_simulation(a)


def test_simulation_instances_keep_their_own_coin(sim_source):
    """Instances of one simulation share its skeleton; each must evaluate as
    its own table says, before and after later instances are made."""
    _a, sim = sim_source
    words = [
        (hat(u, sim.state_order) + [NEXT_WORD]) * 2
        for u in (["a", "#", "#"], ["#"], ["a", "#", "#", "a", "#", "#"])
    ]
    params = [(F(1, 3), F(1, 2)), (F(2, 3), F(1, 4)), (F(1, 2), F(3, 4))]
    instances = []
    for lam, theta in params:
        c = instantiate_simulation(sim, lam, theta)
        instances.append(c)
        for earlier, (lam0, theta0) in zip(instances, params):
            toss = earlier.delta[(sim.coin, "$")]
            assert (toss[sim.heads], toss[sim.skip]) == (lam0 * theta0, 1 - theta0)
            for w in words:
                assert accept_prob(earlier, w) == raw_accept(earlier, w)
    # The same numbers through the generic path, which copies a full table.
    for c, w in zip(instances, words):
        assert accept_prob(c, w) == accept_prob(instantiate(sim.npa, dict(c.delta)), w)
    assert len({accept_prob(c, words[0]) for c in instances}) == len(params)


# Estimates recorded before evaluation moved to the compiled kernel; the
# sampler must make the same draws in the same order.
MC_PINS = [
    ("seesaw", 0, 0.6125),
    ("seesaw", 1, 0.606),
    ("seesaw", 2, 0.592),
    ("simulation", 0, 0.16),
    ("simulation", 1, 0.1375),
    ("simulation", 2, 0.1375),
]


@pytest.mark.parametrize("kind,seed,estimate", MC_PINS)
def test_monte_carlo_estimates_are_pinned(sim_source, kind, seed, estimate):
    if kind == "seesaw":
        pa = seesaw_pa(F(3, 4), F(1, 4))
        word, samples = "i a a f i a a f i a a f".split(), 2000
    else:
        _a, sim = sim_source
        pa = instantiate_simulation(sim, F(1, 3), F(1, 2))
        word, samples = (hat(["a", "#", "#"], sim.state_order) + [NEXT_WORD]) * 3, 400
    assert monte_carlo_accept(pa, word, samples, seed) == estimate


def reference_monte_carlo(pa, word, samples, seed):
    """The letter-by-letter sampler, on ``pa.delta``'s Fractions: every sample
    reads every letter, and at a row with several targets draws below the lcm
    of the row's denominators and walks its cumulative numerators."""
    randrange = random.Random(seed).randrange
    hits = 0
    for _ in range(samples):
        state = pa.initial
        for a in word:
            items = pa.delta[(state, a)].items()
            if len(items) == 1:
                state = items[0][0]
                continue
            den = math.lcm(*(p.denominator for _, p in items))
            r, cum = randrange(den), 0
            for state, p in items:
                cum += p.numerator * (den // p.denominator)
                if r < cum:
                    break
        hits += state in pa.final
    return hits / samples


def split_rows(pa, letter):
    return sum(len(pa.delta[(s, letter)]) > 1 for s in pa.states)


@given(automata(), st.randoms(use_true_random=False), st.integers(0, 10),
       st.sampled_from((1, 9, 80)), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_monte_carlo_matches_the_letter_by_letter_sampler(pa, rng, length, samples, seed):
    dense = max(pa.alphabet, key=lambda a: split_rows(pa, a))
    assume(split_rows(pa, dense) >= 2)
    # A random word, and one that meets split rows on consecutive letters.
    for word in ([rng.choice(pa.alphabet) for _ in range(length)], [dense] * length):
        got = monte_carlo_accept(pa, word, samples, seed)
        assert got == reference_monte_carlo(pa, word, samples, seed)


@pytest.mark.parametrize("samples", [1, 37, 300])
@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_monte_carlo_on_simulation_instances_matches_the_reference(sim_source, samples, seed):
    _a, sim = sim_source
    for lam, theta in ((F(1, 3), F(1, 2)), (F(2, 3), F(1, 4))):
        pa = instantiate_simulation(sim, lam, theta)
        for u, ell in ((["a", "#", "#"], 2), ([], 3), (["#", "a"], 1)):
            word = (hat(u, sim.state_order) + [NEXT_WORD]) * ell
            got = monte_carlo_accept(pa, word, samples, seed)
            assert got == reference_monte_carlo(pa, word, samples, seed)


def one_split_row(den: int) -> ProbAutomaton:
    """Three states whose only split row, (s0, a), has lcm ``den``: s0 stays,
    or goes to s1 or s2, and both lead back to s0 through s1."""
    k1 = next(k for k in range(den // 3, den) if math.gcd(k, den) == 1)
    k2 = den // 3
    stay = F(den - k1 - k2, den)
    delta = {
        ("s0", "a"): Distribution({"s0": stay, "s1": F(k1, den), "s2": F(k2, den)}),
        ("s1", "a"): dirac("s0"),
        ("s2", "a"): dirac("s1"),
    }
    return ProbAutomaton(("s0", "s1", "s2"), ("a",), "s0", delta, frozenset({"s1"}))


@pytest.mark.parametrize(
    "den", [4, 8, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**40, 2**64 + 13, 10**30 + 7]
)
def test_monte_carlo_draws_at_wide_denominators(den):
    """Powers of two, where randrange's width wastes a bit, and widths on
    either side of the Mersenne Twister's 32-bit words."""
    pa = one_split_row(den)
    for seed in (0, 1, 2**40 + 3):
        for length in (1, 7):
            word = ["a"] * length
            got = monte_carlo_accept(pa, word, 300, seed)
            assert got == reference_monte_carlo(pa, word, 300, seed)
    entry = pa._kernel.draws["a"][0]
    assert entry[:2] == (den, den.bit_length())


def test_monte_carlo_errors():
    pa = seesaw_pa(F(3, 4), F(1, 4))
    # The sample count and the step bound are checked before the automaton
    # is compiled.
    with pytest.raises(DomainError) as exc:
        monte_carlo_accept(pa, ["i", "f"], 0, 0)
    assert str(exc.value) == "samples must be >= 1, got 0"
    for word in (["i", "f"], []):
        too_many = MAX_MC_STEPS // max(1, len(word)) + 1
        with pytest.raises(DomainError) as exc:
            monte_carlo_accept(pa, word, too_many, 0)
        assert str(exc.value) == (
            f"{too_many} samples of a {len(word)}-letter word is more than {MAX_MC_STEPS} steps")
    assert "_kernel" not in pa.__dict__
    with pytest.raises(UnknownLetter) as exc:
        monte_carlo_accept(pa, ["i", "z", "f"], 10, 0)
    assert str(exc.value) == "letter 'z' not in alphabet ['i', 'a', 'f']"


def test_draw_tables_are_built_only_for_sampling():
    pa = seesaw_pa(F(3, 4), F(1, 4))
    accept_prob(pa, ["i", "a", "f"])
    assert pa._kernel.draws is None
    monte_carlo_accept(pa, ["i", "f"], 5, 0)
    draws = pa._kernel.draws
    monte_carlo_accept(pa, ["i", "a", "f"], 5, 1)
    assert pa._kernel.draws is draws


def reference_search(pa, length, beam):
    """value_lower_bound's breadth-first search on Fraction dicts: each
    belief is ``raw_after`` of its word, the live states a support fixpoint.
    Returns the word, its value and the number of distinct beliefs seen."""
    live = set(pa.final)
    grew = True
    while grew:
        grew = False
        for (s, _c), d in pa.delta.items():
            if s not in live and not live.isdisjoint(d.support()):
                live.add(s)
                grew = True

    def mass(belief, states):
        return sum((p for s, p in belief.items() if s in states), F(0))

    best_word, best = (), raw_accept(pa, ())
    seen = {frozenset(raw_after(pa, ()).items())}
    frontier = [()]
    for _ in range(length):
        scored = []
        for word in frontier:
            for c in pa.alphabet:
                belief = raw_after(pa, word + (c,))
                key = frozenset(belief.items())
                if key in seen:
                    continue
                seen.add(key)
                acc, potential = mass(belief, pa.final), mass(belief, live)
                if potential <= best:
                    continue
                if acc > best:
                    best, best_word = acc, word + (c,)
                scored.append((acc + potential, word + (c,)))
        if beam and len(scored) > beam:
            scored.sort(key=lambda item: item[0], reverse=True)
            del scored[beam:]
        frontier = [word for _score, word in scored]
    return best_word, best, len(seen)


RATES = st.sampled_from((F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)))
SEARCHED = st.one_of(
    automata().filter(lambda pa: pa.initial not in pa.final),
    st.builds(seesaw_pa, RATES, RATES),
)


@given(SEARCHED, st.integers(0, 8), st.sampled_from((0, 1, 2, 5)))
@settings(max_examples=60, deadline=None)
def test_search_matches_the_fraction_search(pa, length, beam):
    word, value, beliefs = reference_search(pa, length, beam)
    # A cap of exactly the beliefs the reference saw holds; one less does not.
    assert value_lower_bound(pa, SearchBudget(length, beam, beliefs)) == (word, value)
    if beliefs > 1:
        with pytest.raises(BudgetExceeded):
            value_lower_bound(pa, SearchBudget(length, beam, beliefs - 1))


@given(automata(max_states=4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_lasso_matches_the_oracle(pa, rng):
    ba = buchi_reduction(pa)
    alphabet = ba.automaton.alphabet
    stem = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 3)))
    cycle = tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 5)))
    assert lasso_prob(ba, LassoWord(stem, cycle)) == lasso_oracle(
        ba.automaton, ba.accepting, stem, cycle
    )


def test_lasso_on_a_long_gamblers_ruin_chain():
    """200 states, one letter: up with probability 1/3, both ends absorb, the
    top accepts. From state k the walk reaches the top with probability
    (1 - r^k) / (1 - r^199), r = 2."""
    n, up, start = 200, F(1, 3), 100
    states = tuple(f"s{i}" for i in range(n))
    delta = {(s, "s"): dirac(s) for s in (states[0], states[-1])}
    for i in range(1, n - 1):
        delta[(states[i], "s")] = Distribution({states[i + 1]: up, states[i - 1]: 1 - up})
    top = frozenset({states[-1]})
    ba = BuchiAutomaton(ProbAutomaton(states, ("s",), states[start], delta, top), top)
    r = (1 - up) / up
    assert lasso_prob(ba, LassoWord((), ("s",))) == (1 - r**start) / (1 - r ** (n - 1))
