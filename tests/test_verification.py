import random
from fractions import Fraction as F

import pytest

from oracles import seesaw_closed_form
from pfakit.verification import MAX_CASE_STUDY_BITS, MAX_CASE_STUDY_M, MAX_CASE_STUDY_N
from pfakit import (
    NEXT_TRANSITION,
    NEXT_WORD,
    DomainError,
    PreconditionFailed,
    SearchBudget,
    UnknownLetter,
    accept_prob,
    build_simulation,
    check_cheat_once,
    check_fair_coin,
    check_fair_coin_erasure,
    check_lower,
    check_theta,
    equivalence_chain_report,
    extract_witness,
    first_exceeding,
    hat,
    instantiate_simulation,
    is_simple,
    parse_sim_letter,
    random_simple_pa,
    scrambled_block,
    seesaw_case_study,
)

LAMS = (F(1, 3), F(1, 2), F(2, 3))


@pytest.fixture(scope="module")
def sim(tiny_pa):
    return build_simulation(tiny_pa)


class TestRandomInstances:
    def test_deterministic_given_seed(self):
        assert random_simple_pa(7, 3, 2) == random_simple_pa(7, 3, 2)
        assert random_simple_pa(7, 3, 2) != random_simple_pa(8, 3, 2)

    def test_always_simple_with_final(self):
        for seed in range(30):
            pa = random_simple_pa(seed, 1 + seed % 4, 1 + seed % 3)
            assert is_simple(pa)
            assert pa.final
            assert len(pa.states) == 1 + seed % 4
            assert len(pa.alphabet) == 1 + seed % 3

    def test_bad_sizes_rejected(self):
        with pytest.raises(DomainError):
            random_simple_pa(0, 0, 1)
        with pytest.raises(DomainError):
            random_simple_pa(0, 1, 0)


class TestFairCoinChecks:
    def test_commit_equality_holds(self):
        rng = random.Random(30)
        for _ in range(20):
            a = random_simple_pa(rng.randrange(2**31), rng.randrange(1, 5), rng.randrange(1, 4))
            rep = check_fair_coin(
                a,
                rng.choice(LAMS),
                rng.randrange(0, 4),
                [rng.choice(a.alphabet) for _ in range(rng.randrange(0, 4))],
                rng.choice(a.states),
                rng.choice(a.states),
            )
            assert rep.proposition == "fair_coin_commit"
            assert rep.relation == "=="
            assert rep.verdict == "equal"
            assert rep.holds
            assert rep.lhs == rep.rhs

    def test_erasure_bound_holds(self):
        rng = random.Random(31)
        for _ in range(20):
            a = random_simple_pa(rng.randrange(2**31), rng.randrange(1, 5), rng.randrange(1, 4))
            letters = a.alphabet + ("#",)
            rep = check_fair_coin_erasure(
                a,
                rng.choice(LAMS),
                [rng.choice(letters) for _ in range(rng.randrange(0, 7))],
                rng.choice(a.states),
                rng.choice(a.states),
            )
            assert rep.proposition == "fair_coin_erasure"
            assert rep.relation == "<="
            assert rep.verdict == "bounded"
            assert rep.lhs <= rep.rhs

    def test_report_inputs_are_rendered(self, tiny_pa):
        rep = check_fair_coin(tiny_pa, F(1, 3), 2, ["a"], "q0", "q1")
        names = [k for k, _v in rep.inputs]
        assert "lam" in names and "k" in names and "u" in names


class TestLowerChecks:
    def test_both_identities_hold(self, tiny_pa, sim):
        rng = random.Random(32)
        for _ in range(12):
            u = [rng.choice(sim.b_alphabet) for _ in range(rng.randrange(0, 3))]
            rep = check_lower(
                tiny_pa,
                rng.choice(LAMS),
                rng.choice((F(1, 4), F(1, 2))),
                u,
                rng.randrange(1, 4),
                sim=sim,
            )
            assert rep.proposition == "lower_commit"
            assert rep.verdict == "equal"
            single = dict(rep.inputs)
            assert single["single_lhs"] == single["single_rhs"]

    def test_bad_ell_rejected(self, tiny_pa, sim):
        with pytest.raises(DomainError):
            check_lower(tiny_pa, F(1, 2), F(1, 2), ["a"], 0, sim=sim)

    def test_theta_cap_is_exactly_zero(self, tiny_pa, sim):
        rng = random.Random(33)
        letters = [c for c in sim.npa.alphabet if c != NEXT_WORD]
        for _ in range(30):
            u = [rng.choice(letters) for _ in range(rng.randrange(0, 9))]
            rep = check_theta(tiny_pa, F(1, 2), F(1, 4), u, sim=sim)
            assert rep.verdict == "bounded"
            assert rep.lhs == 0

    def test_theta_rejects_next_word(self, tiny_pa, sim):
        with pytest.raises(PreconditionFailed):
            check_theta(tiny_pa, F(1, 2), F(1, 4), [NEXT_WORD], sim=sim)


class TestCheatOnce:
    def test_honest_blocks_not_applicable(self, tiny_pa, sim):
        blocks = [hat(["a"], sim.state_order), hat([], sim.state_order)]
        rep = check_cheat_once(tiny_pa, F(1, 2), F(1, 4), blocks, sim=sim)
        assert rep.verdict == "not-applicable"
        assert rep.rhs is None
        assert rep.holds

    def test_scrambled_blocks_bounded(self, tiny_pa, sim):
        rng = random.Random(34)
        checked = 0
        for _ in range(40):
            honest = hat(
                [rng.choice(sim.b_alphabet) for _ in range(rng.randrange(0, 2))],
                sim.state_order,
            )
            bad = scrambled_block(
                [rng.choice(sim.b_alphabet) for _ in range(rng.randrange(1, 3))],
                sim,
                rng,
            )
            blocks = [honest, bad] if rng.random() < 0.5 else [bad, honest]
            rep = check_cheat_once(
                tiny_pa, rng.choice(LAMS), rng.choice((F(1, 4), F(1, 2))), blocks, sim=sim
            )
            assert rep.holds
            if rep.verdict != "not-applicable":
                checked += 1
                assert rep.lhs <= rep.rhs
        assert checked >= 20

    def test_letters_outside_the_alphabet_rejected(self, tiny_pa, sim):
        blocks = [hat(["a"], sim.state_order), ["check(a,q0)", "bogus"]]
        with pytest.raises(UnknownLetter, match="letter 'bogus' not in the checker's alphabet"):
            check_cheat_once(tiny_pa, F(1, 2), F(1, 4), blocks, sim=sim)

    def test_scrambled_block_shape(self, sim):
        # full check/$/apply triples between separators, one separator per letter
        rng = random.Random(35)
        for _ in range(25):
            blk = scrambled_block(["a", "#"], sim, rng)
            assert NEXT_WORD not in blk
            assert blk[-1] == NEXT_TRANSITION
            assert blk.count(NEXT_TRANSITION) == 2
            segment: list[str] = []
            for tok in blk:
                if tok == NEXT_TRANSITION:
                    assert len(segment) % 3 == 0
                    for i in range(0, len(segment), 3):
                        assert parse_sim_letter(segment[i])[0] == "check"
                        assert segment[i + 1] == "$"
                        assert parse_sim_letter(segment[i + 2])[0] == "apply"
                    segment = []
                else:
                    segment.append(tok)


class TestWitness:
    def test_requires_acceptance_above_theta(self, tiny_pa, sim):
        with pytest.raises(PreconditionFailed):
            extract_witness(tiny_pa, F(1, 2), F(1, 2), [NEXT_WORD], sim=sim)

    def test_bound_holds_on_repeated_blocks(self, tiny_pa, sim):
        lam = F(1, 2)
        for theta in (F(1, 4), F(1, 2)):
            c = instantiate_simulation(sim, lam, theta)
            for u in (["a"], ["#"], []):
                for ell in (2, 3, 6):
                    w = (hat(u, sim.state_order) + [NEXT_WORD]) * ell
                    p = accept_prob(c, w)
                    if p <= theta:
                        continue
                    v, rep = extract_witness(tiny_pa, lam, theta, w, sim=sim)
                    assert rep.holds
                    assert rep.lhs == (p - theta) / (1 - theta)
                    b = sim_b(tiny_pa, lam)
                    assert rep.rhs == accept_prob(b, list(v))
                    assert rep.lhs <= rep.rhs


def sim_b(a, lam):
    from pfakit import fair_coin

    return fair_coin(a, lam).automaton


class TestEquivalenceChain:
    def test_report_shape_and_bounds(self, tiny_pa):
        budget = SearchBudget(max_word_length=6)
        report = equivalence_chain_report(tiny_pa, [F(1, 2)], [F(1, 2)], budget)
        kinds = [row.kind for row in report.rows]
        assert kinds == ["source", "fair-coin", "simulation"]
        by_kind = report.max_by_kind()
        assert by_kind["source"] == F(63, 64)  # six a's on the tiny automaton
        # every row's value is attained by its witness word
        assert report.rows[0].value == accept_prob(tiny_pa, list(report.rows[0].word))


class TestCaseStudy:
    def test_rows_match_closed_form(self):
        rows = seesaw_case_study(F(3, 4), F(1, 4), 4, 32)
        assert rows
        for row in rows:
            assert row.exact == seesaw_closed_form(F(3, 4), F(1, 4), row.n, row.m)
            assert row.approx == float(row.exact)
            assert row.exceeds == (row.exact > F(99, 100))

    def test_m_grid_is_powers_of_two(self):
        rows = seesaw_case_study(F(3, 4), F(1, 4), 2, 64)
        ms = sorted({row.m for row in rows})
        assert ms == [1, 2, 4, 8, 16, 32, 64]

    def test_frozen_first_hit(self):
        rows = seesaw_case_study(F(3, 4), F(1, 4), 20, 4096)
        hit = first_exceeding(rows)
        assert hit is not None
        assert (hit.n, hit.m) == (5, 64)

    def test_eps_parameter(self):
        rows = seesaw_case_study(F(3, 4), F(1, 4), 3, 8, eps=F(1, 2))
        for row in rows:
            assert row.exceeds == (row.exact > F(1, 2))

    def test_m_max_is_bounded(self):
        assert MAX_CASE_STUDY_M == 8192
        rows = seesaw_case_study(F(3, 4), F(1, 4), 1, MAX_CASE_STUDY_M)
        assert [r.m for r in rows[:14]] == [2**j for j in range(14)]
        with pytest.raises(DomainError, match="m_max = 8193 is more than 8192"):
            seesaw_case_study(F(3, 4), F(1, 4), 1, MAX_CASE_STUDY_M + 1)

    def test_n_max_is_bounded(self):
        assert MAX_CASE_STUDY_N == 24
        rows = seesaw_case_study(F(3, 4), F(1, 4), MAX_CASE_STUDY_N, 2)
        assert [(r.n, r.m) for r in rows[-2:]] == [(24, 1), (24, 2)]
        with pytest.raises(DomainError, match="n_max = 25 is more than 24"):
            seesaw_case_study(F(3, 4), F(1, 4), MAX_CASE_STUDY_N + 1, 2)

    def test_digits_of_x_and_y_are_bounded(self, monkeypatch):
        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr("pfakit.verification.seesaw_pa", started)
        assert MAX_CASE_STUDY_BITS == 1_000_000
        # Every call of the tests and the benchmark, and the CLI's defaults
        # (n_max 20, m_max 4096) at denominators up to 8, start their work.
        for x, y, n_max, m_max in [
            (F(3, 4), F(1, 4), 20, 4096), (F(7, 8), F(3, 8), 10, 512),
            (F(3, 4), F(1, 4), 1, MAX_CASE_STUDY_M), (F(3, 4), F(1, 4), MAX_CASE_STUDY_N, 2),
            (F(7, 8), F(5, 8), 10, 256), (F(1, 8), F(7, 8), 20, 4096),
        ]:
            with pytest.raises(Started):
                seesaw_case_study(x, y, n_max, m_max)
        big = F(1, 10**39)  # a 40-digit denominator of 130 bits
        with pytest.raises(DomainError) as info:
            seesaw_case_study(big, F(1, 4), 20, 4096)
        assert str(info.value) == (
            "values of about 10899456 bits at n_max = 20, m_max = 4096 and these"
            " denominators of x and y, more than 1000000"
        )

    def test_no_hit_returns_none(self):
        rows = seesaw_case_study(F(1, 2), F(1, 2), 3, 8)
        assert first_exceeding(rows) is None
