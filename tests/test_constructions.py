import dataclasses
import functools
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import raw_accept, raw_reach
from pfakit.constructions import MAX_ENCODED_LETTERS, MAX_SIMULATION_PAIRS, _coin_support
from pfakit.core import _kernel, require_simple
from pfakit.documents import document_to_automaton, parse_document
from pfakit import (
    NEXT_TRANSITION,
    NEXT_WORD,
    SHARP,
    AlphabetClash,
    AutomatonError,
    Distribution,
    DomainError,
    InconsistentSupport,
    NotSimple,
    NumberlessAutomaton,
    OrderMismatch,
    ProbAutomaton,
    UnknownLetter,
    ValidationError,
    accept_prob,
    apply_letter,
    buchi_reduction,
    build_simulation,
    check_letter,
    commit_prob,
    dfa_accepts,
    dirac,
    encode_word,
    erase_sharps,
    export_dot,
    fair_coin,
    fairness_dfa,
    hat,
    instantiate,
    instantiate_simulation,
    is_simple,
    parse_sim_letter,
    random_simple_pa,
    reach_prob,
    run_deterministic,
    seesaw_pa,
    serialize_automaton,
    sim_alphabet,
    simulation_parameters,
    support_abstraction,
    unhat,
)

LAMS = (F(1, 3), F(1, 2), F(2, 3))


@pytest.fixture(scope="module")
def sim(tiny_pa):
    return build_simulation(tiny_pa)


class TestProbeLetters:
    def test_round_trip(self):
        assert parse_sim_letter(check_letter("a", "q0")) == ("check", "a", "q0")
        assert parse_sim_letter(apply_letter("b", "x@y:L")) == ("apply", "b", "x@y:L")

    def test_specials(self):
        assert parse_sim_letter("$") == ("dollar",)
        assert parse_sim_letter(NEXT_TRANSITION) == ("next_transition",)
        assert parse_sim_letter(NEXT_WORD) == ("next_word",)

    def test_plain_letter(self):
        assert parse_sim_letter("a") == ("base", "a")


class TestCommitProb:
    def test_zero_rounds(self):
        for lam in LAMS:
            assert commit_prob(lam, 0) == 0

    def test_frozen_anchor(self):
        assert commit_prob(F(1, 3), 2) == F(56, 81)

    def test_fair_lambda_halves(self):
        for k in range(1, 6):
            assert commit_prob(F(1, 2), k) == 1 - F(1, 2**k)

    def test_monotone_in_rounds(self):
        for lam in LAMS:
            vals = [commit_prob(lam, k) for k in range(6)]
            assert vals == sorted(vals)
            assert all(v < 1 for v in vals)

    def test_negative_rounds_rejected(self):
        with pytest.raises(DomainError):
            commit_prob(F(1, 2), -1)


class TestEncoding:
    def test_encode_word(self):
        assert encode_word(["a", "b"], 1) == ["a", "#", "#", "b", "#", "#"]
        assert encode_word(["a"], 0) == ["a"]
        assert encode_word([], 3) == []

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            encode_word(["a"], -1)

    def test_letter_bound(self):
        assert MAX_ENCODED_LETTERS == 1_000_000
        assert len(encode_word(["a"], 499_999)) == 999_999
        assert len(encode_word(["a"] * 1000, 499)) == 999_000
        assert len(encode_word(["a"] * 200_000, 2)) == MAX_ENCODED_LETTERS
        with pytest.raises(DomainError, match="1000001 letters, more than 1000000"):
            encode_word(["a"], 500_000)
        with pytest.raises(DomainError, match="1001000 letters"):
            encode_word(["a"] * 1000, 500)

    def test_erase_sharps(self):
        assert erase_sharps(["a", "#", "#", "b", "#"]) == ["a", "b"]
        assert erase_sharps(["#", "#"]) == []

    @given(
        st.lists(st.sampled_from("abc"), max_size=6),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_erase_inverts_encode(self, word, k):
        assert erase_sharps(encode_word(word, k)) == word


class TestFairCoin:
    def test_requires_simple(self, seesaw_fast):
        with pytest.raises(NotSimple):
            fair_coin(seesaw_fast, F(1, 3))

    def test_rejects_sharp_in_alphabet(self, tiny_pa):
        # lam=1/2 keeps the output simple, so the clash check is reached
        out = fair_coin(tiny_pa, F(1, 2))
        with pytest.raises(AlphabetClash):
            fair_coin(out.automaton, F(1, 2))

    def test_degenerate_lambda_rejected(self, tiny_pa):
        for lam in (F(0), F(1), F(-1, 2), F(3, 2)):
            with pytest.raises(DomainError):
                fair_coin(tiny_pa, lam)

    def test_shape(self, tiny_pa):
        out = fair_coin(tiny_pa, F(1, 3))
        b = out.automaton
        # 2 originals + 3 gadget states per (state, letter) pair + sink
        assert len(b.states) == 2 + 3 * 2 + 1
        assert b.alphabet == ("a", "#")
        assert b.initial == tiny_pa.initial
        assert b.final == tiny_pa.final

    def test_commit_identity_on_seesaw(self, seesaw_even):
        # reach through the encoded word equals the k-fold commit factor
        out = fair_coin(seesaw_even, F(1, 3))
        for k in range(4):
            for u in (["i"], ["i", "f"], ["i", "a", "f"]):
                lhs = reach_prob(out.automaton, "C1", encode_word(u, k), {"L2"})
                rhs = commit_prob(F(1, 3), k) ** len(u) * reach_prob(
                    seesaw_even, "C1", u, {"L2"}
                )
                assert lhs == rhs

    def test_commit_identity_random(self):
        rng = random.Random(20)
        for trial in range(25):
            a = random_simple_pa(rng.randrange(2**31), rng.randrange(1, 5), rng.randrange(1, 4))
            lam = rng.choice(LAMS)
            out = fair_coin(a, lam)
            k = rng.randrange(0, 4)
            u = [rng.choice(a.alphabet) for _ in range(rng.randrange(0, 4))]
            q, r = rng.choice(a.states), rng.choice(a.states)
            lhs = raw_reach(out.automaton, q, encode_word(u, k), {r})
            rhs = commit_prob(lam, k) ** len(u) * raw_reach(a, q, u, {r})
            assert lhs == rhs, (trial, u, k)

    def test_erasure_inequality_random(self):
        rng = random.Random(21)
        for trial in range(25):
            a = random_simple_pa(rng.randrange(2**31), rng.randrange(1, 5), rng.randrange(1, 4))
            out = fair_coin(a, rng.choice(LAMS))
            letters = a.alphabet + ("#",)
            w = [rng.choice(letters) for _ in range(rng.randrange(0, 7))]
            q, r = rng.choice(a.states), rng.choice(a.states)
            lhs = raw_reach(out.automaton, q, w, {r})
            rhs = raw_reach(a, q, erase_sharps(w), {r})
            assert lhs <= rhs, (trial, w)


def reference_fair_coin(a, lam):
    """fair_coin the old way: every pair's (lam-target, other) in a per-pair
    dict of Diracs and split Distributions, compiled by ProbAutomaton."""
    lam = F(lam)
    if not 0 < lam < 1:
        raise DomainError(f"lam must lie strictly between 0 and 1, got {lam}")
    require_simple(a)
    if SHARP in a.alphabet:
        raise AlphabetClash(f"source alphabet already contains {SHARP!r}")

    def fresh(name):
        while name in used:
            name += "'"
        used.add(name)
        return name

    used, states, gadget = set(a.states), list(a.states), {}
    for q in a.states:
        for b in a.alphabet:
            gadget[(q, b)] = (fresh(f"{q}@{b}"), fresh(f"{q}@{b}:L"), fresh(f"{q}@{b}:R"))
            states += gadget[(q, b)]
    sink = fresh("sink")
    states.append(sink)
    alphabet = a.alphabet + (SHARP,)
    branch = {}
    for q in a.states:
        branch[(q, SHARP)] = (q, q)
        for b in a.alphabet:
            mid, left, right = gadget[(q, b)]
            branch[(q, b)] = (mid, mid)
            targets = [t for t, _ in a.delta[(q, b)].items()]  # sorted by name
            branch[(mid, SHARP)] = (left, right)
            branch[(left, SHARP)] = (mid, targets[0])
            branch[(right, SHARP)] = (targets[-1], mid)
            for c in a.alphabet:
                branch[(mid, c)] = branch[(left, c)] = branch[(right, c)] = (sink, sink)
    for c in alphabet:
        branch[(sink, c)] = (sink, sink)
    diracs = {s: dirac(s) for s in states}
    delta = {pair: diracs[t] if t == u else Distribution({t: lam, u: 1 - lam})
             for pair, (t, u) in branch.items()}
    pa = ProbAutomaton(tuple(states), alphabet, a.initial, delta, a.final)
    return pa, lam, gadget, sink


# Ids that collide with the gadget's and the sink's fresh names, declared out of name order.
SOURCE_STATES = ("z", "a", "q@b", "m", "sink", "a@b:L", "q")
SOURCE_LETTERS = ("b", "a", "c", SHARP)


@st.composite
def coin_sources(draw, letters=SOURCE_LETTERS[:3], simple=True):
    """Automata over drawn ids whose pairs are Diracs or splits into two targets
    drawn in either order: halves, or 1/3 and 2/3 when ``simple`` is False."""
    states = draw(st.lists(st.sampled_from(SOURCE_STATES), min_size=1, max_size=4, unique=True))
    alphabet = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3, unique=True))
    split = st.sampled_from((F(1, 2),) if simple else (F(1, 2), F(1, 3)))
    delta = {}
    for pair in itertools.product(states, alphabet):
        t, u = draw(st.lists(st.sampled_from(states), min_size=2, max_size=2))
        p = draw(split)
        delta[pair] = dirac(t) if t == u else Distribution({t: p, u: 1 - p})
    final = draw(st.sets(st.sampled_from(states)))
    return ProbAutomaton(tuple(states), tuple(alphabet), draw(st.sampled_from(states)), delta, final)


def _outcome(build):
    try:
        return build()
    except AutomatonError as exc:
        return type(exc), str(exc)


class TestFairCoinAgainstReference:
    """fair_coin, an instance of the coin support, against the dict-built reference."""

    @given(coin_sources(), st.sampled_from(LAMS))
    @settings(max_examples=150, deadline=None)
    def test_same_automaton_document_rows_and_gadget(self, a, lam):
        out = fair_coin(a, lam)
        pa, ref_lam, gadget, sink = reference_fair_coin(a, lam)
        assert out.automaton == pa
        assert serialize_automaton(out.automaton, name="c") == serialize_automaton(pa, name="c")
        assert export_dot(out.automaton) == export_dot(pa)
        assert _kernel(out.automaton).rows == _kernel(pa).rows
        assert (out.lam, out.gadget, out.sink) == (ref_lam, gadget, sink)

    def test_first_target_in_name_order(self):
        # declared ("z", "a"): the lam retry lands on "a", the first by name
        a = ProbAutomaton(("z", "a"), ("b",), "z", {
            ("z", "b"): Distribution({"z": F(1, 2), "a": F(1, 2)}), ("a", "b"): dirac("a")}, {"a"})
        out = fair_coin(a, F(1, 3))
        assert out.automaton.delta[("z@b:L", SHARP)] == Distribution({"z@b": F(1, 3), "a": F(2, 3)})
        assert serialize_automaton(out.automaton) == serialize_automaton(reference_fair_coin(a, F(1, 3))[0])

    @given(coin_sources(letters=SOURCE_LETTERS, simple=False),
           st.sampled_from((F(0), F(1), F(-1, 3), F(3, 2), F(1, 3), F(1, 2))))
    @settings(max_examples=150, deadline=None)
    def test_same_errors_in_the_same_order(self, a, lam):
        # a bad lam, then a non-simple source, then '#' in the alphabet
        got = _outcome(lambda: fair_coin(a, lam).automaton)
        assert got == _outcome(lambda: reference_fair_coin(a, lam)[0])
        if not 0 < lam < 1:
            assert got[0] is DomainError
        elif not is_simple(a):
            assert got[0] is NotSimple
        elif SHARP in a.alphabet:
            assert got[0] is AlphabetClash


class TestTrustedTables:
    """Each table the library writes reaches NumberlessAutomaton as a trusted
    view, unchecked; the rows check and the checked triple path agree with it."""

    @given(coin_sources(letters=SOURCE_LETTERS[:2]))  # two letters keep the simulations small
    @settings(max_examples=30, deadline=None)
    def test_rows_fit_and_equal_the_triple_path(self, a):
        coin = _coin_support(a)[0]
        loaded = document_to_automaton(parse_document(serialize_automaton(coin)))
        for npa in (support_abstraction(a), coin, build_simulation(a).npa, loaded):
            assert npa.support.table.rows_fit()
            assert npa == NumberlessAutomaton(
                npa.states, npa.alphabet, npa.initial, set(npa.support), npa.final)


class TestHat:
    def test_hat_layout(self, sim):
        order = sim.state_order
        n = len(order)
        probe = hat(["a"], order)
        assert len(probe) == 3 * n + 1
        assert probe[0] == check_letter("a", order[0])
        assert probe[1] == "$"
        assert probe[2] == apply_letter("a", order[0])
        assert probe[-1] == NEXT_TRANSITION

    def test_hat_empty(self, sim):
        assert hat([], sim.state_order) == []

    def test_unhat_inverts_hat(self, sim):
        rng = random.Random(9)
        for _ in range(30):
            u = [rng.choice(sim.b_alphabet) for _ in range(rng.randrange(0, 4))]
            assert unhat(hat(u, sim.state_order), sim.state_order) == u

    def test_unhat_rejects_malformed(self, sim):
        order = sim.state_order
        good = hat(["a"], order)
        assert unhat(good[:-1], order) is None  # truncated
        assert unhat(good + ["$"], order) is None  # trailing junk
        swapped = list(good)
        swapped[0], swapped[2] = swapped[2], swapped[0]
        assert unhat(swapped, order) is None

    def test_order_must_be_duplicate_free(self):
        with pytest.raises(OrderMismatch):
            hat(["a"], ["q", "q"])

    def test_sim_alphabet_contents(self, sim):
        letters = sim_alphabet(sim.b_alphabet, sim.state_order)
        assert set(letters) == set(sim.npa.alphabet)
        n = len(sim.state_order)
        assert len(letters) == 2 * n * len(sim.b_alphabet) + 3


class TestWorkBounds:
    """hat, build_simulation and fairness_dfa refuse oversized work up front."""

    def test_hat_letter_bound(self):
        assert len(hat(["a"] * 250_000, ["q"])) == MAX_ENCODED_LETTERS
        with pytest.raises(DomainError, match="^encoding gives 1000004 letters, more than 1000000$"):
            hat(["a"] * 250_001, ["q"])
        # 14 000 000 letters: refused before any is written
        with pytest.raises(DomainError, match="^encoding gives 14000000 letters"):
            hat(["a"] * 500_000, [f"q{i}" for i in range(9)])

    def test_simulation_pair_bound(self):
        assert MAX_SIMULATION_PAIRS == 2_000_000
        with pytest.raises(DomainError, match=(
                "^6648 states x 4323 letters is more than 2000000 pairs$")):
            build_simulation(random_simple_pa(0, 1, 26))
        with pytest.raises(DomainError, match="^6483 states x 4323 letters"):
            fairness_dfa([f"b{i}" for i in range(27)], [f"q{i}" for i in range(80)])

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 1)])
    def test_bounds_reckon_the_exact_shape(self, shape, monkeypatch):
        from pfakit import constructions

        sim = build_simulation(random_simple_pa(0, *shape))
        for build, built in ((lambda: build_simulation(random_simple_pa(0, *shape)), sim.npa),
                             (lambda: fairness_dfa(sim.b_alphabet, sim.state_order), sim.checker)):
            pairs = len(built.states) * len(built.alphabet)
            monkeypatch.setattr(constructions, "MAX_SIMULATION_PAIRS", pairs)
            build()
            monkeypatch.setattr(constructions, "MAX_SIMULATION_PAIRS", pairs - 1)
            with pytest.raises(DomainError, match=f"more than {pairs - 1} pairs$"):
                build()


class TestSimulation:
    def test_frozen_shape(self, sim):
        assert len(sim.npa.states) == 80
        assert len(sim.npa.alphabet) == 39
        assert sim.npa.final == frozenset({sim.checker_initial})

    def test_single_probabilistic_pair(self, sim):
        multi = [
            (s, c)
            for s in sim.npa.states
            for c in sim.npa.alphabet
            if len(sim.npa.targets(s, c)) > 1
        ]
        assert multi == [(sim.coin, "$")]

    def test_instantiate_parameters_round_trip(self, sim):
        for lam in LAMS:
            for theta in (F(1, 4), F(1, 2), F(3, 4)):
                c = instantiate_simulation(sim, lam, theta)
                assert simulation_parameters(sim, c) == (lam, theta)

    def test_agrees_with_generic_instantiate(self):
        for seed in range(5):
            sim = build_simulation(random_simple_pa(seed, 2, 1))
            c = instantiate_simulation(sim, F(1, 3), F(1, 4))
            assert c == instantiate(sim.npa, dict(c.delta))

    def test_coin_targets_checked(self, sim):
        with pytest.raises(InconsistentSupport):
            instantiate_simulation(dataclasses.replace(sim, skip=sim.wait), F(1, 2), F(1, 2))

    def test_degenerate_parameters_rejected(self, sim):
        for lam, theta in ((F(0), F(1, 2)), (F(1), F(1, 2)), (F(1, 2), F(0)), (F(1, 2), F(1))):
            with pytest.raises(DomainError):
                instantiate_simulation(sim, lam, theta)

    def test_single_pass_identity(self, sim, tiny_pa):
        lam, theta = F(1, 3), F(1, 4)
        c = instantiate_simulation(sim, lam, theta)
        b = fair_coin(tiny_pa, lam).automaton
        for u in ([], ["a"], ["a", "#"], ["#", "a"], ["a", "a"]):
            probe = hat(u, sim.state_order) + [NEXT_WORD]
            assert accept_prob(c, probe) == theta ** len(u) * accept_prob(b, u)

    def test_repeat_identity(self, sim, tiny_pa):
        lam, theta = F(1, 2), F(1, 2)
        c = instantiate_simulation(sim, lam, theta)
        b = fair_coin(tiny_pa, lam).automaton
        for u in (["a"], ["a", "#"]):
            block = hat(u, sim.state_order) + [NEXT_WORD]
            for ell in (1, 2, 3):
                lhs = accept_prob(c, block * ell)
                rhs = (1 - (1 - theta ** len(u)) ** ell) * accept_prob(b, u)
                assert lhs == rhs

    def test_no_next_word_means_zero(self, sim):
        c = instantiate_simulation(sim, F(1, 2), F(1, 2))
        rng = random.Random(11)
        letters = [x for x in sim.npa.alphabet if x != NEXT_WORD]
        for _ in range(40):
            w = [rng.choice(letters) for _ in range(rng.randrange(0, 8))]
            assert accept_prob(c, w) == 0

    def test_rejects_delimiter_heavy_ids(self):
        pa = fair_coin(
            random_simple_pa(3, 2, 1), F(1, 2)
        ).automaton  # contains '#' already; build_simulation must still work
        sim = build_simulation(random_simple_pa(3, 2, 1))
        assert "#" in sim.b_alphabet
        bad = seesaw_pa(F(1, 2), F(1, 2))
        renamed = type(bad)(
            tuple(s.replace("C1", "C(1") for s in bad.states),
            bad.alphabet,
            "C(1",
            {
                (s.replace("C1", "C(1"), c): dirac(next(iter(d.support())).replace("C1", "C(1"))
                if len(d.support()) == 1
                else d
                for (s, c), d in bad.delta.items()
            },
            bad.final,
        )
        with pytest.raises((ValidationError, AlphabetClash)):
            build_simulation(renamed)


def _reference_simulation(a):
    """build_simulation the old way: a pair-by-pair loop over the probe
    alphabet, then fairness_dfa's whole transition table merged in."""
    coin = fair_coin(a, F(1, 3)).automaton  # lam = 1/3 tells the two branches apart
    order, b_alphabet = coin.states, coin.alphabet

    def branch(q, b):
        d = coin.delta[(q, b)]
        if len(d) == 1:
            return next(iter(d)), next(iter(d))
        return tuple(t for p in (F(1, 3), F(2, 3)) for t in d if d[t] == p)

    alphabet = sim_alphabet(b_alphabet, order)
    checker = fairness_dfa(b_alphabet, order)
    left = {q: f"L:{q}" for q in order}
    right = {q: f"R:{q}" for q in order}
    center = ["coin", "heads", "tails", "skip", "wait"]
    states = [left[q] for q in order] + [right[q] for q in order] + center + list(checker.states)
    table = {}
    for q in order:
        for c in alphabet:
            kind = parse_sim_letter(c)
            if kind[0] == "check" and kind[2] == q:
                table[(left[q], c)] = ("coin",)
            elif kind[0] == "next_word":
                table[(left[q], c)] = ("D:start",) if q in a.final else ("D:sink",)
            else:
                table[(left[q], c)] = (left[q],)
    for q in order:
        for c in alphabet:
            table[(right[q], c)] = (left[q],) if c == NEXT_TRANSITION else (right[q],)
    for c in alphabet:
        kind = parse_sim_letter(c)
        table[("coin", c)] = ("heads", "tails", "skip") if c == "$" else ("coin",)
        if kind[0] == "apply":
            t_lam, t_other = branch(kind[2], kind[1])
            table[("heads", c)] = (right[t_lam],)
            table[("tails", c)] = (right[t_other],)
            table[("skip", c)] = ("wait",)
        else:
            for x in ("heads", "tails", "skip"):
                table[(x, c)] = (x,)
        table[("wait", c)] = (left[a.initial],) if c == NEXT_WORD else ("wait",)
    table.update((pair, tuple(move)) for pair, move in checker.delta.items())
    return tuple(states), alphabet, left[a.initial], table


SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]
@functools.cache
def _sim_of_shape(shape):
    return build_simulation(random_simple_pa(7, *shape))


class TestTableBuiltSimulation:
    """build_simulation writes the checker's moves straight into its table."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_same_table_as_the_reference(self, shape, seed):
        a = random_simple_pa(seed, *shape)
        sim = build_simulation(a)
        states, alphabet, initial, table = _reference_simulation(a)
        assert (sim.npa.states, sim.npa.alphabet, sim.npa.initial) == (states, alphabet, initial)
        assert sim.npa.final == frozenset({"D:start"})
        assert len(table) == len(states) * len(alphabet)
        assert list(sim.npa.support.table.items()) == [
            (pair, table[pair]) for pair in itertools.product(states, alphabet)
        ]
        assert all(sim.npa.targets(*pair) == hits for pair, hits in table.items())
        assert sim.checker == fairness_dfa(sim.b_alphabet, sim.state_order)
        assert "checker" not in {f.name for f in dataclasses.fields(sim)}  # built on demand

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_rows_equal_the_compiled_reference(self, shape):
        sim = _sim_of_shape(shape)
        states, alphabet, initial, table = _reference_simulation(random_simple_pa(7, *shape))
        from_table = NumberlessAutomaton(states, alphabet, initial, table, {"D:start"})
        triples = {(s, c, t) for (s, c), hits in table.items() for t in hits}
        from_triples = NumberlessAutomaton(states, alphabet, initial, triples, {"D:start"})
        assert sim.npa == from_table == from_triples
        for npa in (from_table, from_triples):
            assert npa.support.table.rows == sim.npa.support.table.rows
            assert npa.support.table.multi == sim.npa.support.table.multi
        assert sim.npa.support.table.multi == {(sim.coin, "$"): (sim.heads, sim.tails, sim.skip)}

    def test_skeleton_shares_the_rows(self):
        sim = build_simulation(random_simple_pa(7, 2, 1))
        c = instantiate_simulation(sim, F(1, 3), F(1, 4))
        assert c.delta.table is sim.npa.support.table
        assert list(c.delta.spec) == [(sim.coin, "$")]
        assert "_skeleton" not in sim.__dict__  # nothing is cached on the frozen sim

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        data=st.data(),
    )
    def test_table_walk_is_the_checker(self, shape, data):
        sim = _sim_of_shape(shape)
        piece = st.one_of(
            st.sampled_from(sim.npa.alphabet).map(lambda c: [c]),
            st.sampled_from(sim.b_alphabet).map(lambda b: hat([b], sim.state_order)),
            st.just([NEXT_WORD]),
            st.sampled_from(["z", "check(z,q)", "", "D:start"]).map(lambda c: [c]),
        )
        word = [c for part in data.draw(st.lists(piece, max_size=8)) for c in part]
        try:
            want = dfa_accepts(sim.checker, word)
        except UnknownLetter as exc:
            with pytest.raises(UnknownLetter) as got:
                sim.well_formed(word)
            assert str(got.value) == str(exc)
        else:
            assert sim.well_formed(word) is want

    def test_well_formed_words(self):
        sim = _sim_of_shape((2, 1))
        block = hat(list(sim.b_alphabet) * 2, sim.state_order) + [NEXT_WORD]
        assert sim.well_formed([]) and sim.well_formed(block * 3)
        assert not sim.well_formed(block[:-1])
        assert not sim.well_formed(block[1:])
        with pytest.raises(UnknownLetter, match="letter 'z' not in the checker's alphabet"):
            sim.well_formed(block + ["z"])


class TestFairnessChecker:
    def test_frozen_size(self, sim):
        n = len(sim.state_order)
        assert len(sim.checker.states) == 3 + 3 * n * len(sim.b_alphabet)
        assert len(sim.checker.states) == 57

    def test_deterministic(self, sim):
        for s in sim.checker.states:
            for c in sim.checker.alphabet:
                assert len(sim.checker.delta[(s, c)].support()) == 1

    def test_accepts_probe_blocks(self, sim):
        rng = random.Random(12)
        for _ in range(30):
            u = [rng.choice(sim.b_alphabet) for _ in range(rng.randrange(0, 3))]
            ell = rng.randrange(1, 4)
            word = (hat(u, sim.state_order) + [NEXT_WORD]) * ell
            assert dfa_accepts(sim.checker, word)

    def test_accepts_empty(self, sim):
        assert dfa_accepts(sim.checker, [])

    def test_rejects_unfinished_block(self, sim):
        word = hat(["a"], sim.state_order)
        assert not dfa_accepts(sim.checker, word)  # missing next_word

    def test_run_deterministic_returns_state(self, sim):
        assert run_deterministic(sim.checker, []) == sim.checker_initial
        # a bare next_word is the encoding of the empty base word
        assert run_deterministic(sim.checker, [NEXT_WORD]) == sim.checker_initial
        assert run_deterministic(sim.checker, ["$"]) == sim.checker_sink
        assert run_deterministic(sim.checker, ["$", NEXT_WORD]) == sim.checker_sink


class TestBuchiReduction:
    def test_adds_restart_letter(self, tiny_pa):
        ba = buchi_reduction(tiny_pa)
        assert ba.automaton.alphabet == ("a", "#")
        assert ba.accepting == tiny_pa.final

    def test_rejects_existing_sharp(self, tiny_pa):
        with pytest.raises(AlphabetClash):
            buchi_reduction(buchi_reduction(tiny_pa).automaton)

    def test_finite_prefix_identity_random(self):
        rng = random.Random(13)
        for _ in range(30):
            a = random_simple_pa(rng.randrange(2**31), rng.randrange(1, 5), rng.randrange(1, 4))
            ba = buchi_reduction(a)
            u = [rng.choice(a.alphabet) for _ in range(rng.randrange(0, 6))]
            lhs = reach_prob(ba.automaton, a.initial, u + ["#"], {a.initial})
            assert lhs == accept_prob(a, u)

    def test_restart_from_nonfinal_dies(self, tiny_pa):
        ba = buchi_reduction(tiny_pa)
        # q0 is not final; '#' sends it to the sink which never accepts
        assert reach_prob(ba.automaton, "q0", ["#"], {"q0", "q1"}) == 0
