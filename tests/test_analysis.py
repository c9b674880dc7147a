import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lasso_oracle, seesaw_closed_form
from pfakit import analysis
from pfakit import (
    BudgetExceeded,
    Distribution,
    DomainError,
    EmptyCycle,
    FamilyTemplate,
    LassoWord,
    ProbAutomaton,
    SearchBudget,
    SweepPoint,
    UnknownLetter,
    accept_prob,
    buchi_reduction,
    dirac,
    expand_template,
    family_eval,
    instantiate,
    lasso_prob,
    noisy_sweep,
    random_simple_pa,
    seesaw_delta,
    seesaw_npa,
    seesaw_pa,
    states_reaching,
    support_abstraction,
    value_lower_bound,
)

BEAM_30_VALUE = F(59250601, 67108864)
BEAM_30_WORD = tuple("iaaafiaaafiaafiaafiaafiafiafif")


class TestBudget:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_word_length": -1},
            {"max_word_length": 3, "beam_width": -1},
            {"max_word_length": 3, "max_distribution_states": -2},
        ],
    )
    def test_rejects_negative_limits(self, kwargs):
        with pytest.raises(DomainError):
            SearchBudget(**kwargs)

    def test_belief_cap_enforced(self, seesaw_fast):
        with pytest.raises(BudgetExceeded) as info:
            value_lower_bound(
                seesaw_fast, SearchBudget(max_word_length=8, max_distribution_states=3)
            )
        e = info.value
        assert str(e) == "more than 3 distinct beliefs"
        assert accept_prob(seesaw_fast, e.word) == e.value
        # A later cap: the error keeps the best word found before it.
        with pytest.raises(BudgetExceeded) as info:
            value_lower_bound(
                seesaw_fast, SearchBudget(max_word_length=8, max_distribution_states=20)
            )
        e = info.value
        assert (e.word, e.value) == (tuple("iafif"), F(5, 8))
        assert accept_prob(seesaw_fast, e.word) == e.value

    def test_no_cap_means_the_module_cap(self, seesaw_fast, monkeypatch):
        assert analysis.MAX_SEARCH_BELIEFS == 100_000
        capped = SearchBudget(max_word_length=8, max_distribution_states=1000)
        want = value_lower_bound(seesaw_fast, capped)
        monkeypatch.setattr(analysis, "MAX_SEARCH_BELIEFS", 20)
        with pytest.raises(BudgetExceeded) as info:
            value_lower_bound(seesaw_fast, SearchBudget(max_word_length=8))
        e = info.value
        assert str(e) == "more than 20 distinct beliefs"
        assert (e.word, e.value) == (tuple("iafif"), F(5, 8))
        # A cap of the budget's own replaces the module's.
        assert value_lower_bound(seesaw_fast, capped) == want


class TestStatesReaching:
    def test_seesaw_live_set(self, seesaw_even):
        live = states_reaching(seesaw_even, {"L2"})
        assert live == frozenset({"C1", "C2", "L1", "L2", "R1", "R2"}) - frozenset({"R2"})

    def test_targets_included_even_if_unreachable(self, seesaw_even):
        assert "R2" in states_reaching(seesaw_even, {"R2"})

    def test_unknown_targets_ignored(self, seesaw_even):
        assert states_reaching(seesaw_even, {"ghost"}) == frozenset()


class TestSearch:
    def test_exhaustive_even_caps_at_half(self, seesaw_even):
        word, value = value_lower_bound(seesaw_even, SearchBudget(max_word_length=12))
        assert value == F(1, 2)
        assert accept_prob(seesaw_even, word) == value

    def test_exhaustive_mirrored_caps_at_half(self):
        pa = seesaw_pa(F(1, 4), F(3, 4))
        word, value = value_lower_bound(pa, SearchBudget(max_word_length=12))
        assert value == F(1, 2)

    def test_beam_frozen_anchor(self, seesaw_fast):
        word, value = value_lower_bound(
            seesaw_fast, SearchBudget(max_word_length=30, beam_width=200)
        )
        assert value == BEAM_30_VALUE
        assert word == BEAM_30_WORD
        assert accept_prob(seesaw_fast, word) == value

    def test_beam_value_is_attained(self, seesaw_fast):
        # the witness word must reproduce the reported value exactly
        for beam in (1, 5, 50):
            word, value = value_lower_bound(
                seesaw_fast, SearchBudget(max_word_length=10, beam_width=beam)
            )
            assert accept_prob(seesaw_fast, word) == value

    def test_beam_never_beats_exhaustive(self, seesaw_fast):
        _w, full = value_lower_bound(seesaw_fast, SearchBudget(max_word_length=8))
        _w, beamed = value_lower_bound(
            seesaw_fast, SearchBudget(max_word_length=8, beam_width=3)
        )
        assert beamed <= full

    def test_zero_length_budget(self, seesaw_fast):
        word, value = value_lower_bound(seesaw_fast, SearchBudget(max_word_length=0))
        assert word == ()
        assert value == 0


class TestFamilies:
    def test_expand_template(self):
        t = FamilyTemplate(((("i",), 1), (("a",), "n"), (("f",), 1)), repeat="m")
        assert expand_template(t, {"n": 2, "m": 2}) == ["i", "a", "a", "f"] * 2
        assert expand_template(t, {"n": 0, "m": 1}) == ["i", "f"]

    def test_unbound_parameter_rejected(self):
        t = FamilyTemplate(((("a",), "n"),))
        with pytest.raises(DomainError):
            expand_template(t)

    def test_negative_exponent_rejected(self):
        t = FamilyTemplate(((("a",), "n"),))
        with pytest.raises(DomainError):
            expand_template(t, {"n": -1})

    def test_family_eval_matches_direct(self, seesaw_fast):
        t = FamilyTemplate(((("i",), 1), (("a",), "n"), (("f",), 1)), repeat="m")
        for n in (1, 3):
            for m in (1, 2, 5):
                binding = {"n": n, "m": m}
                assert family_eval(seesaw_fast, t, binding) == accept_prob(
                    seesaw_fast, expand_template(t, binding)
                )

    def test_family_eval_large_exponents(self, seesaw_fast):
        # repeat far beyond the letter-fold limit exercises matrix powering
        t = FamilyTemplate(((("i",), 1), (("a",), "n"), (("f",), 1)), repeat="m")
        value = family_eval(seesaw_fast, t, {"n": 2, "m": 1024})
        assert value == seesaw_closed_form(F(3, 4), F(1, 4), 2, 1024)

    def test_family_eval_large_inner_exponent(self, seesaw_fast):
        t = FamilyTemplate(((("i",), 1), (("a",), 500), (("f",), 1)))
        assert family_eval(seesaw_fast, t, {}) == seesaw_closed_form(
            F(3, 4), F(1, 4), 500, 1
        )


class TestLasso:
    def test_empty_cycle_rejected(self):
        with pytest.raises(EmptyCycle):
            LassoWord((), ())

    def test_unknown_letter_rejected(self, seesaw_fast):
        ba = buchi_reduction(seesaw_fast)
        with pytest.raises(UnknownLetter):
            lasso_prob(ba, LassoWord((), ("z",)))

    def test_frozen_anchors(self, seesaw_fast):
        ba = buchi_reduction(seesaw_fast)
        assert lasso_prob(ba, LassoWord((), ("i", "a", "f", "#"))) == 0
        assert lasso_prob(ba, LassoWord(("i", "f"), ("a",))) == F(1, 2)
        assert lasso_prob(ba, LassoWord(("i", "a", "f"), ("a",))) == F(3, 8)

    def test_matches_oracle_on_seesaw(self, seesaw_fast):
        ba = buchi_reduction(seesaw_fast)
        alphabet = ba.automaton.alphabet
        rng = random.Random(14)
        for _ in range(20):
            stem = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 4)))
            cycle = tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 5)))
            lasso = LassoWord(stem, cycle)
            assert lasso_prob(ba, lasso) == lasso_oracle(
                ba.automaton, ba.accepting, stem, cycle
            )

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(15)
        for _ in range(15):
            a = random_simple_pa(rng.randrange(2**31), rng.randrange(2, 5), rng.randrange(1, 3))
            ba = buchi_reduction(a)
            alphabet = ba.automaton.alphabet
            stem = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 3)))
            cycle = tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 4)))
            got = lasso_prob(ba, LassoWord(stem, cycle))
            want = lasso_oracle(ba.automaton, ba.accepting, stem, cycle)
            assert got == want, (stem, cycle)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rotation_invariance(self, seed):
        # stem.cycle^w and (stem.c1).(rotated cycle)^w are the same infinite word
        rng = random.Random(seed)
        a = random_simple_pa(rng.randrange(2**31), 3, 2)
        ba = buchi_reduction(a)
        alphabet = ba.automaton.alphabet
        stem = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 3)))
        cycle = tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 4)))
        rotated = cycle[1:] + cycle[:1]
        assert lasso_prob(ba, LassoWord(stem, cycle)) == lasso_prob(
            ba, LassoWord(stem + cycle[:1], rotated)
        )

    def test_sure_acceptance(self, tiny_pa):
        ba = buchi_reduction(tiny_pa)
        # q1 absorbs on a; pumping a then restarting accepts almost surely
        assert lasso_prob(ba, LassoWord((), ("a",))) == 1


class TestNoisySweep:
    def test_grid_one_is_center_only(self, seesaw_support):
        center = seesaw_delta(F(1, 2), F(1, 2))
        points = noisy_sweep(seesaw_support, center, F(1, 16), 1)
        assert len(points) == 1
        assert points[0].offsets == ()
        word, value = value_lower_bound(
            instantiate(seesaw_support, center), SearchBudget(max_word_length=8)
        )
        assert points[0].value == value

    def test_values_attained_and_positive_probs(self, seesaw_support):
        center = seesaw_delta(F(1, 2), F(1, 2))
        points = noisy_sweep(seesaw_support, center, F(1, 8), 3)
        assert points
        for pt in points:
            pa = instantiate(seesaw_support, pt.delta)
            assert accept_prob(pa, pt.word) == pt.value
            for d in pt.delta.values():
                assert all(p > 0 for _t, p in d.items())

    def test_offsets_stay_in_ball(self, seesaw_support):
        eps = F(1, 8)
        center = seesaw_delta(F(1, 2), F(1, 2))
        for pt in noisy_sweep(seesaw_support, center, eps, 3):
            for _s, _c, _t, off in pt.offsets:
                assert abs(off) <= eps

    def test_last_target_stays_in_ball(self):
        # One pair splits three ways: two free offsets of the same sign push
        # the last target's shift past eps, so those two points are dropped.
        third, eps = F(1, 3), F(1, 8)
        delta = {
            ("p", "a"): Distribution({"p": third, "q": third, "r": third}),
            ("q", "a"): dirac("q"),
            ("r", "a"): dirac("r"),
        }
        pa = ProbAutomaton(("p", "q", "r"), ("a",), "p", delta, {"q"})
        points = noisy_sweep(support_abstraction(pa), delta, eps, 3)
        assert len(points) == 7
        for pt in points:
            assert all(abs(p - third) <= eps for _t, p in pt.delta[("p", "a")].items())

    def test_some_perturbation_beats_center(self, seesaw_support):
        # tipping x above y must raise the reachable value
        center = seesaw_delta(F(1, 2), F(1, 2))
        points = noisy_sweep(seesaw_support, center, F(1, 8), 3)
        center_value = next(p.value for p in points if not p.offsets)
        assert max(p.value for p in points) > center_value

    def test_inconsistent_center_rejected(self, seesaw_support):
        from pfakit import InconsistentSupport

        center = seesaw_delta(F(1, 2), F(1, 2))
        del center[("C1", "i")]
        with pytest.raises(InconsistentSupport):
            noisy_sweep(seesaw_support, center, F(1, 16), 1)

    def test_grid_beyond_the_point_bound_rejected_before_any_work(
        self, seesaw_support, monkeypatch
    ):
        import pfakit.analysis

        monkeypatch.setattr(pfakit.analysis, "value_lower_bound", None)
        center = seesaw_delta(F(1, 2), F(1, 2))
        # Three free axes: 22^3 = 10648 and 100000^3 points.
        for grid in (22, 100_000):
            with pytest.raises(BudgetExceeded, match="grid points"):
                noisy_sweep(seesaw_support, center, F(1, 16), grid)

    def test_no_free_axes_is_the_center_at_any_grid(self):
        delta = {("p", "a"): dirac("q"), ("q", "a"): dirac("q")}
        pa = ProbAutomaton(("p", "q"), ("a",), "p", delta, {"q"})
        points = noisy_sweep(support_abstraction(pa), delta, F(1, 16), 10**9)
        assert [(pt.offsets, pt.word, pt.value) for pt in points] == [((), ("a",), 1)]

    def test_bad_grid_rejected(self, seesaw_support):
        center = seesaw_delta(F(1, 2), F(1, 2))
        with pytest.raises(DomainError):
            noisy_sweep(seesaw_support, center, F(1, 16), 0)
        with pytest.raises(DomainError):
            noisy_sweep(seesaw_support, center, F(-1, 16), 2)
