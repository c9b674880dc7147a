import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import raw_accept, raw_reach
from pfakit.core import TargetTable, _instance
from pfakit import (
    Distribution,
    DomainError,
    InconsistentSupport,
    NotADistribution,
    NotSimple,
    NumberlessAutomaton,
    ProbAutomaton,
    UnknownLetter,
    UnknownState,
    ValidationError,
    accept_prob,
    complete_with_sink,
    dirac,
    distribution_after,
    instantiate,
    is_simple,
    monte_carlo_accept,
    parse_rational,
    random_simple_pa,
    reach_prob,
    require_simple,
    step,
    support_abstraction,
    trace_word,
)

HALF = F(1, 2)


class TestRationals:
    def test_parse_fraction(self):
        assert parse_rational("3/4") == F(3, 4)

    def test_parse_decimal(self):
        assert parse_rational("0.25") == F(1, 4)

    def test_parse_integer(self):
        assert parse_rational("2") == F(2)

    def test_parse_whitespace(self):
        assert parse_rational(" 1/3 ") == F(1, 3)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1/2/3"])
    def test_parse_junk(self, bad):
        with pytest.raises(DomainError):
            parse_rational(bad)

    def test_exponent_is_bounded(self):
        assert parse_rational("1e-4300") == F(1, 10**4300)
        for bad in ("1e-20000", "2.5E+4301", "1e" + "9" * 5000):
            with pytest.raises(DomainError):
                parse_rational(bad)


class TestDistribution:
    def test_entries_sorted_and_zero_free(self):
        d = Distribution({"b": HALF, "a": HALF, "c": F(0)})
        assert d.items() == (("a", HALF), ("b", HALF))
        assert d.support() == frozenset({"a", "b"})

    def test_sum_must_be_one(self):
        with pytest.raises(NotADistribution):
            Distribution({"a": F(1, 3), "b": F(1, 3)})

    def test_negative_mass_rejected(self):
        with pytest.raises(NotADistribution):
            Distribution({"a": F(3, 2), "b": F(-1, 2)})

    def test_empty_rejected(self):
        with pytest.raises(NotADistribution):
            Distribution({})

    def test_getitem_defaults_to_zero(self):
        d = dirac("a")
        assert d["a"] == 1
        assert d["missing"] == 0

    def test_mass(self):
        d = Distribution({"a": F(1, 4), "b": F(1, 4), "c": HALF})
        assert d.mass({"a", "c"}) == F(3, 4)
        assert d.mass(()) == 0

    def test_hashable_and_eq(self):
        d1 = Distribution({"a": HALF, "b": HALF})
        d2 = Distribution({"b": HALF, "a": HALF, "c": F(0)})
        assert d1 == d2
        assert hash(d1) == hash(d2)
        assert len({d1, d2}) == 1

    def test_int_entries_coerced(self):
        assert Distribution({"a": 1}) == dirac("a")

    @pytest.mark.parametrize(
        "entries", [{"a": 0.1, "b": 0.9}, {"a": 0.5, "b": 0.5}, {"a": 1.0}, {"a": True}]
    )
    def test_float_and_bool_masses_rejected(self, entries):
        with pytest.raises(NotADistribution, match="not an exact rational"):
            Distribution(entries)


class TestAutomatonValidation:
    def test_duplicate_state(self):
        with pytest.raises(ValidationError):
            ProbAutomaton(("q", "q"), ("a",), "q", {("q", "a"): dirac("q")}, frozenset())

    def test_unknown_initial(self):
        with pytest.raises(ValidationError):
            ProbAutomaton(("q",), ("a",), "r", {("q", "a"): dirac("q")}, frozenset())

    def test_unknown_final(self):
        with pytest.raises(ValidationError):
            ProbAutomaton(("q",), ("a",), "q", {("q", "a"): dirac("q")}, frozenset({"r"}))

    def test_missing_transition(self):
        with pytest.raises(ValidationError):
            ProbAutomaton(("q", "r"), ("a",), "q", {("q", "a"): dirac("q")}, frozenset())

    def test_target_outside_states(self):
        with pytest.raises(ValidationError):
            ProbAutomaton(("q",), ("a",), "q", {("q", "a"): dirac("ghost")}, frozenset())

    def test_numberless_requires_totality(self):
        with pytest.raises(ValidationError):
            NumberlessAutomaton(("q", "r"), ("a",), "q", {("q", "a", "q")}, frozenset())

    def test_numberless_targets_ordered(self, seesaw_support):
        npa = seesaw_support
        assert npa.targets("C1", "i") == ("L1", "R1")
        assert npa.targets("L1", "a") == ("C2", "L1")
        assert npa.targets("L1", "f") == ("L2",)

    def test_numberless_targets_unknown(self, seesaw_support):
        with pytest.raises(UnknownState):
            seesaw_support.targets("ghost", "i")
        with pytest.raises(UnknownLetter):
            seesaw_support.targets("C1", "z")


class TestTargetTables:
    """NumberlessAutomaton on a per-pair table: the form the builders hand over."""

    STATES, ALPHABET = ("q", "r", "s"), ("a", "b")

    def table(self, **changes):
        table = {(x, c): ("s", "q") if (x, c) == ("q", "a") else (x,)
                 for x in self.STATES for c in self.ALPHABET}
        table.update(changes.get("extra", {}))
        for pair in changes.get("drop", ()):
            del table[pair]
        return table

    def build(self, table):
        return NumberlessAutomaton(self.STATES, self.ALPHABET, "q", table, {"r"})

    def test_equals_the_triple_construction(self):
        npa = self.build(self.table())
        triples = frozenset((x, c, t) for (x, c), ts in self.table().items() for t in ts)
        assert npa == NumberlessAutomaton(self.STATES, self.ALPHABET, "q", triples, {"r"})
        assert npa.support == triples and triples == npa.support
        assert hash(npa.support) == hash(triples)
        assert len(npa.support) == len(triples) == 7
        assert set(npa.support) == triples
        assert ("q", "a", "s") in npa.support
        assert ("q", "a", "r") not in npa.support
        assert ("q", "a") not in npa.support and "qas" not in npa.support

    def test_targets_sorted_and_deduplicated(self):
        npa = self.build(self.table(extra={("r", "b"): ["s", "q", "s"]}))
        assert npa.targets("q", "a") == ("q", "s")
        assert npa.targets("r", "b") == ("q", "s")
        assert len(npa.support) == 8

    # table() as integer rows: (q, a) goes to q and s, every other pair stays put
    ROWS = {"a": [0, 1, 2], "b": [0, 1, 2]}
    MULTI = {("q", "a"): ("q", "s")}

    def test_rows_table_and_triples_agree(self):
        from_rows = self.build(TargetTable(self.STATES, self.ALPHABET, self.ROWS, self.MULTI))
        from_table = self.build(self.table())
        triples = {(x, c, t) for (x, c), ts in self.table().items() for t in ts}
        from_triples = NumberlessAutomaton(self.STATES, self.ALPHABET, "q", triples, {"r"})
        assert from_rows == from_table == from_triples
        assert hash(from_rows) == hash(from_table) == hash(from_triples)
        for npa in (from_rows, from_table, from_triples):
            assert (npa.support.table.rows, npa.support.table.multi) == (self.ROWS, self.MULTI)
            assert dict(npa.support.table) == {
                (x, c): ("q", "s") if (x, c) == ("q", "a") else (x,)
                for x in self.STATES for c in self.ALPHABET
            }
            assert npa.support == frozenset(triples) and len(npa.support) == 7
        # a table over the states in another order is compiled, not kept
        shuffled = TargetTable(("s", "r", "q"), self.ALPHABET,
                               {"a": [0, 1, 0], "b": [0, 1, 2]}, {("q", "a"): ("s", "q")})
        assert self.build(shuffled) == from_rows

    @pytest.mark.parametrize(
        "rows,multi",
        [
            ({"a": [0, 1, 2]}, {}),
            ({"a": [0, 1, 2], "b": [0, 1]}, {}),
            ({"a": [0, 1, 3], "b": [0, 1, 2]}, {}),
            ({"a": [0, 1, -1], "b": [0, 1, 2]}, {}),
            ({"a": [0, 1.0, 2], "b": [0, 1, 2]}, {}),
            ({"a": [0, True, 2], "b": [0, 1, 2]}, {}),
            ({"a": (0, 1, 2), "b": [0, 1, 2]}, {}),
            ({"a": [2, 1, 2], "b": [0, 1, 2]}, {("q", "a"): ("q", "s")}),
            ({"a": [2, 1, 2], "b": [0, 1, 2]}, {("q", "a"): ("s", "q")}),
            ({"a": [0, 1, 2], "b": [0, 1, 2]}, {("q", "a"): ("q",)}),
            ({"a": [0, 1, 2], "b": [0, 1, 2]}, {("q", "a"): ["q", "s"]}),
            ({"a": [0, 1, 2], "b": [0, 1, 2]}, {("q", "a"): ("q", "ghost")}),
            ({"a": [0, 1, 2], "b": [0, 1, 2]}, {("ghost", "a"): ("q", "s")}),
            ({"a": [0, 1, 2], "b": [0, 1, 2]}, {("q", "z"): ("q", "s")}),
        ],
        ids=["missing-letter", "short-row", "index-too-big", "negative-index", "float",
             "bool", "tuple-row", "row-not-first-target", "unsorted-targets", "one-target",
             "list-targets", "unknown-target", "unknown-source", "unknown-letter"],
    )
    def test_rows_checked(self, rows, multi):
        with pytest.raises(ValidationError, match="^support rows need"):
            self.build(TargetTable(self.STATES, self.ALPHABET, rows, multi))

    @pytest.mark.parametrize(
        "rows",
        [{"a": [0, 1, 3], "b": [0, 1, 2]}, {"a": [0, 1, -1], "b": [0, 1, 2]},
         {"a": [0, 1, 2], "b": [0, 1]}],
        ids=["index-too-big", "negative-index", "short-row"],
    )
    def test_int_rows_are_still_checked_for_range_and_shape(self, rows):
        """``int_rows`` spares a writer's exact ints the type check, nothing else."""
        with pytest.raises(ValidationError, match="^support rows need"):
            self.build(TargetTable(self.STATES, self.ALPHABET, rows, {}, int_rows=True))
        assert self.build(TargetTable(self.STATES, self.ALPHABET, self.ROWS, self.MULTI,
                                      int_rows=True)) == self.build(self.table())

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"extra": {("ghost", "a"): ("q",)}}, "unknown state"),
            ({"extra": {("q", "a"): ("ghost",)}}, "unknown state"),
            ({"extra": {("q", "z"): ("q",)}}, "unknown letter"),
            ({"drop": [("s", "b")]}, r"no support for \('s', 'b'\)"),
            ({"extra": {("s", "b"): ()}}, r"no support for \('s', 'b'\)"),
        ],
        ids=["unknown-source", "unknown-target", "unknown-letter", "missing-pair", "empty-pair"],
    )
    def test_still_validated(self, changes, message):
        with pytest.raises(ValidationError, match=message):
            self.build(self.table(**changes))


class TestValidationMessages:
    """The first offender, with the same text, however the table is checked."""

    STATES, ALPHABET = ("q", "r", "s"), ("a", "b")

    def table(self, *extra):
        table = {(x, c): (x,) for x in self.STATES for c in self.ALPHABET}
        for pair, hits in extra:
            table[pair] = hits
        return table

    def build(self, support):
        return NumberlessAutomaton(self.STATES, self.ALPHABET, "q", support, {"r"})

    @pytest.mark.parametrize(
        "extra,message",
        [
            ([(("ghost", "a"), ("q",)), (("phantom", "b"), ("q",))],
             "support triple ('ghost', 'a', 'q') uses unknown state"),
            ([(("s", "b"), ("q", "ghost", "spook")), (("phantom", "a"), ("q",))],
             "support triple ('s', 'b', 'ghost') uses unknown state"),
            ([(("r", "a"), ("phantom",)), (("q", "b"), ("ghost",))],
             "support triple ('q', 'b', 'ghost') uses unknown state"),
            ([(("q", "z"), ("q",)), (("r", "y"), ("r",))],
             "support triple ('q', 'z', 'q') uses unknown letter"),
            ([(("r", "z"), ("r",)), (("q", "y"), ("ghost",))],
             "support triple ('r', 'z', 'r') uses unknown letter"),
            ([(("q", "z"), ("ghost",))], "support triple ('q', 'z', 'ghost') uses unknown state"),
            ([(("ghost", "a"), ()), (("q", "z"), ["q"])],
             "support triple ('q', 'z', 'q') uses unknown letter"),
        ],
        ids=["sources", "targets", "targets-in-table-order", "letters", "letter-first",
             "letter-and-target", "empty-entry-skipped"],
    )
    def test_first_unknown_id(self, extra, message):
        table = self.table(*extra)
        with pytest.raises(ValidationError) as exc:
            self.build(table)
        assert str(exc.value) == message
        triples = [(x, c, t) for (x, c), hits in table.items() for t in hits]
        with pytest.raises(ValidationError) as exc:
            self.build(triples)
        assert str(exc.value) == message

    def test_list_entries_become_tuples(self):
        npa = self.build(self.table((("q", "b"), ["r"]), (("r", "a"), ["s", "q"])))
        assert npa.targets("q", "b") == ("r",) and npa.targets("r", "a") == ("q", "s")
        assert list(npa.support.table)[1:3] == [("q", "b"), ("r", "a")]

    def test_first_pair_without_support(self):
        table = self.table()
        del table[("s", "b")], table[("r", "a")]
        table[("q", "b")] = ()
        with pytest.raises(ValidationError) as exc:
            self.build(table)
        assert str(exc.value) == "no support for ('q', 'b'); automata must be total"
        table[("q", "b")] = ("q",)
        with pytest.raises(ValidationError) as exc:
            self.build({(x, c, t) for (x, c), hits in table.items() for t in hits})
        assert str(exc.value) == "no support for ('r', 'a'); automata must be total"

    def test_first_unexpected_probabilistic_pair(self):
        # letter-major table: (s, a) comes before (r, b), which state x letter order puts
        # first; the npa lists its pairs in that order, whatever the caller's table order
        table = {(x, c): (x,) for c in self.ALPHABET for x in self.STATES}
        table.update({("s", "a"): ("s", "q"), ("q", "a"): ("r", "q"), ("r", "b"): ("r", "s")})
        npa = self.build(table)
        assert list(table)[2:5] == [("s", "a"), ("q", "b"), ("r", "b")]
        assert list(npa.support.table)[2:5] == [("r", "a"), ("r", "b"), ("s", "a")]


class TestDeltaMessages:
    """ProbAutomaton's table check names the first offender in states x alphabet
    order, whatever the table's own order and however its Diracs are shared."""

    STATES, ALPHABET = ("p", "q"), ("a", "b")

    def build(self, changes=(), drop=()):
        shared = dirac("p")
        # letter-major, reversed: table order is never states x alphabet order
        delta = {(x, c): shared for c in reversed(self.ALPHABET) for x in reversed(self.STATES)}
        for pair in drop:
            del delta[pair]
        delta.update(changes)
        with pytest.raises(ValidationError) as exc:
            ProbAutomaton(self.STATES, self.ALPHABET, "p", delta, frozenset())
        return str(exc.value)

    def test_missing_distribution(self):
        assert self.build(drop=[("q", "a"), ("p", "b")]) == "missing distribution for ('p', 'b')"
        assert self.build({("p", "b"): None}, drop=[("q", "a")]) == (
            "missing distribution for ('p', 'b')")
        # an unknown pair in place of the missing one keeps the table's size
        assert self.build({("r", "a"): dirac("p")}, drop=[("q", "a")]) == (
            "missing distribution for ('q', 'a')")

    def test_not_a_distribution(self):
        message = self.build({("q", "b"): "x", ("p", "b"): F(1, 2)})
        assert message == "delta[('p', 'b')] is not a Distribution"

    def test_unknown_targets(self):
        stray = dirac("z1")  # one shared object at two pairs
        message = self.build({
            ("q", "a"): stray,
            ("p", "b"): Distribution({"z2": F(1, 2), "y": F(1, 4), "q": F(1, 4)}),
            ("q", "b"): stray,
        })
        assert message == "delta[('p', 'b')] targets unknown states ['y', 'z2']"
        assert self.build({("q", "b"): stray, ("q", "a"): stray}) == (
            "delta[('q', 'a')] targets unknown states ['z1']")

    def test_unknown_pairs(self):
        message = self.build({("r", "a"): dirac("p"), ("p", "c"): dirac("p")})
        assert message == "delta has entries for unknown pairs [('p', 'c'), ('r', 'a')]"

    def test_first_offender_across_kinds(self):
        # each pair's own problem; the first pair in states x alphabet order wins
        assert self.build({("p", "b"): dirac("z"), ("q", "b"): "x", ("r", "a"): dirac("p")},
                          drop=[("q", "a")]) == "delta[('p', 'b')] targets unknown states ['z']"
        assert self.build({("p", "b"): "x", ("r", "a"): dirac("p")}, drop=[("p", "a")]) == (
            "missing distribution for ('p', 'a')")
        assert self.build({("q", "b"): dirac("z"), ("r", "a"): dirac("p")}) == (
            "delta[('q', 'b')] targets unknown states ['z']")


def _compiled_table(monkeypatch, build):
    """``build()``'s result and the per-pair table its last ProbAutomaton compiled."""
    from pfakit import core

    seen, compile_delta = [], core._compile_delta

    def spy(pa, state_set, delta):
        seen.append(dict(delta))
        return compile_delta(pa, state_set, delta)

    monkeypatch.setattr(core, "_compile_delta", spy)
    built = build()
    monkeypatch.undo()
    return built, seen[-1]


def _document(obj, bindings=None):
    from pfakit import document_to_automaton, parse_document, serialize_automaton

    return document_to_automaton(parse_document(serialize_automaton(obj)), bindings)


def _built(how, monkeypatch):
    """An automaton built one way, and the per-pair table its caller meant."""
    from importlib import resources

    from pfakit import (
        buchi_reduction, document_to_automaton, fair_coin, fairness_dfa, seesaw_delta, seesaw_npa,
    )
    from pfakit.documents import bound_transitions, parse_document

    def caught(build):
        return _compiled_table(monkeypatch, build)

    if how == "dict":
        return caught(lambda: ProbAutomaton(("p", "q"), ("a", "b"), "q", {
            ("q", "b"): Distribution({"q": F(1, 3), "p": F(2, 3)}), ("p", "b"): dirac("q"),
            ("q", "a"): dirac("q"), ("p", "a"): Distribution({"q": HALF, "p": HALF})}, {"p"}))
    if how == "complete_with_sink":
        return caught(lambda: complete_with_sink(
            ["q", "r"], ["a", "b"], "q", {("r", "b"): dirac("q"),
                                          ("q", "a"): Distribution({"q": HALF, "r": HALF})}, ["r"]))
    if how == "instantiate":
        spec = seesaw_delta(F(3, 4), F(1, 4))
        return instantiate(seesaw_npa(), spec), spec
    if how == "_instance":
        npa = seesaw_npa()
        spec = {pair: d for pair, d in seesaw_delta(F(2, 5), F(1, 3)).items() if len(d) > 1}
        table = {(s, c): spec.get((s, c)) or dirac(npa.targets(s, c)[0])
                 for s in npa.states for c in npa.alphabet}
        return _instance(npa, spec), table
    if how == "pa document":
        return caught(lambda: _document(random_simple_pa(5, 4, 2)))
    if how == "pba document":
        ba, table = caught(lambda: _document(buchi_reduction(random_simple_pa(6, 3, 2))))
        return ba.automaton, table
    if how == "npa document":  # the bundled seesaw, with its parameters bound
        text = (resources.files("pfakit") / "data" / "seesaw.json").read_text(encoding="utf-8")
        doc, bindings = parse_document(text), {"x": F(5, 8), "y": F(1, 8)}
        return document_to_automaton(doc, bindings), bound_transitions(doc, bindings)
    if how == "fair_coin":  # the coin support's _instance, as in the "_instance" case
        from pfakit import constructions

        seen, instance = [], constructions._instance
        monkeypatch.setattr(constructions, "_instance",
                            lambda npa, split: seen.append((npa, split)) or instance(npa, split))
        out = fair_coin(random_simple_pa(7, 3, 2), F(1, 3))
        monkeypatch.undo()
        ((npa, spec),) = seen
        table = {(s, c): spec.get((s, c)) or dirac(npa.targets(s, c)[0])
                 for s in npa.states for c in npa.alphabet}
        return out.automaton, table
    if how == "buchi_reduction":
        a = random_simple_pa(8, 3, 3)
        ba, table = caught(lambda: buchi_reduction(a))
        return ba.automaton, table
    if how == "fairness_dfa":
        return caught(lambda: fairness_dfa(("a", "b"), ("q0", "q1")))
    assert how == "random_simple_pa"
    return caught(lambda: random_simple_pa(9, 4, 3))


class TestOrderedDelta:
    """The rows view against a lookup per pair, for every way to build an automaton:
    each gives the one ``delta`` form, a view of a TargetTable."""

    @pytest.mark.parametrize("how", [
        "dict", "complete_with_sink", "instantiate", "_instance", "pa document",
        "pba document", "npa document", "fair_coin", "buchi_reduction", "fairness_dfa",
        "random_simple_pa",
    ])
    def test_every_constructor_gives_one_form(self, how, monkeypatch):
        from itertools import product

        from pfakit.core import _kernel, _SkeletonDelta

        pa, table = _built(how, monkeypatch)
        pairs = list(product(pa.states, pa.alphabet))
        assert type(pa.delta) is _SkeletonDelta and type(pa.delta.table) is TargetTable
        assert [pa.delta[pair] for pair in pairs] == [table[pair] for pair in pairs]
        assert pa == ProbAutomaton(pa.states, pa.alphabet, pa.initial, dict(pa.delta), pa.final)
        # the twin: a support automaton compiled from triples, instantiated on its own table
        npa = NumberlessAutomaton(pa.states, pa.alphabet, pa.initial,
                                  {(s, c, t) for (s, c), d in table.items() for t in d}, pa.final)
        split = {pair: d for pair, d in table.items() if len(d) > 1}
        twin = _instance(npa, split)
        assert _kernel(pa).rows == _kernel(twin).rows
        assert pa.delta.spec == split and list(pa.delta) == pairs
        assert pa.delta.table.multi.keys() == split.keys()
        assert support_abstraction(pa) == npa
        assert support_abstraction(pa).support.table is pa.delta.table
        # its split pairs take their own distributions back on its own table
        assert _instance(support_abstraction(pa), pa.delta.spec) == pa


class TestEvaluation:
    def test_empty_word_accepts_iff_initial_final(self, tiny_pa, seesaw_fast):
        assert accept_prob(tiny_pa, []) == 0
        assert accept_prob(seesaw_fast, []) == 0

    def test_accept_matches_oracle(self, seesaw_fast):
        rng = random.Random(3)
        for _ in range(60):
            word = [rng.choice(seesaw_fast.alphabet) for _ in range(rng.randrange(0, 9))]
            assert accept_prob(seesaw_fast, word) == raw_accept(seesaw_fast, word)

    def test_reach_matches_oracle(self, seesaw_fast):
        rng = random.Random(4)
        states = seesaw_fast.states
        for _ in range(40):
            word = [rng.choice(seesaw_fast.alphabet) for _ in range(rng.randrange(0, 7))]
            src = rng.choice(states)
            targets = {s for s in states if rng.random() < 0.4}
            assert reach_prob(seesaw_fast, src, word, targets) == raw_reach(
                seesaw_fast, src, word, targets
            )

    def test_unknown_letter_rejected(self, tiny_pa):
        with pytest.raises(UnknownLetter):
            accept_prob(tiny_pa, ["z"])

    def test_unknown_source_rejected(self, tiny_pa):
        with pytest.raises(UnknownState):
            reach_prob(tiny_pa, "ghost", ["a"], {"q1"})

    def test_step_composes(self, tiny_pa):
        d = dirac(tiny_pa.initial)
        for _ in range(3):
            d = step(tiny_pa, d, "a")
        assert d == distribution_after(tiny_pa, ["a", "a", "a"])
        assert d["q1"] == F(7, 8)

    def test_trace_word(self, tiny_pa):
        tr = trace_word(tiny_pa, ["a", "a"])
        assert tr.word == ("a", "a")
        assert len(tr.distributions) == 3
        assert tr.distributions[0] == dirac("q0")
        assert tr.acceptance == F(3, 4)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_acceptance_marginalizes_over_midpoint(self, seed, cut):
        rng = random.Random(seed)
        pa = random_simple_pa(rng.randrange(2**31), 3, 2)
        word = [rng.choice(pa.alphabet) for _ in range(6)]
        u, v = word[:cut], word[cut:]
        mid = distribution_after(pa, u)
        total = sum(
            (p * reach_prob(pa, s, v, pa.final) for s, p in mid.items()), F(0)
        )
        assert total == accept_prob(pa, word)


class TestCompletion:
    def test_complete_with_sink_fills_missing_pairs(self):
        pa = complete_with_sink(
            ["q"], ["a", "b"], "q", {("q", "a"): dirac("q")}, ["q"]
        )
        assert accept_prob(pa, ["a"]) == 1
        assert accept_prob(pa, ["b"]) == 0
        assert accept_prob(pa, ["b", "a"]) == 0

    def test_sink_name_clash_gets_fresh_name(self):
        pa = complete_with_sink(["sink"], ["a"], "sink", {}, [])
        assert "sink'" in pa.states
        assert accept_prob(pa, ["a"]) == 0


class TestSimple:
    def test_is_simple(self, seesaw_even, seesaw_fast):
        assert is_simple(seesaw_even)
        assert not is_simple(seesaw_fast)

    def test_require_simple_passes_through(self, seesaw_even):
        assert require_simple(seesaw_even) is seesaw_even

    def test_require_simple_raises(self, seesaw_fast):
        with pytest.raises(NotSimple):
            require_simple(seesaw_fast)

    def test_require_simple_names_the_first_pair_in_sorted_order(self):
        # two offenders, inserted in the reverse of sorted order, around simple pairs
        delta = {
            ("q", "a"): Distribution({"p": F(1, 4), "q": F(3, 4)}),
            ("q", "b"): Distribution({"p": HALF, "q": HALF}),
            ("p", "a"): dirac("q"),
            ("p", "b"): Distribution({"p": F(2, 3), "q": F(1, 3)}),
        }
        pa = ProbAutomaton(("q", "p"), ("b", "a"), "q", delta, frozenset())
        assert not is_simple(pa)
        with pytest.raises(NotSimple) as exc:
            require_simple(pa)
        assert str(exc.value) == (
            "('p', 'b') has probabilities [Fraction(1, 3), Fraction(2, 3)], not in {1/2, 1}")


class TestSupportRoundTrip:
    def test_abstraction_round_trip(self, seesaw_fast):
        npa = support_abstraction(seesaw_fast)
        back = instantiate(npa, dict(seesaw_fast.delta))
        assert back == seesaw_fast

    def test_instantiate_shares_the_support_rows(self, seesaw_support):
        from pfakit import build_simulation, instantiate_simulation, seesaw_delta

        pa = instantiate(seesaw_support, seesaw_delta(F(3, 4), F(1, 4)))
        assert pa.delta.table is seesaw_support.support.table
        assert pa.delta.spec.keys() == seesaw_support.support.table.multi.keys()
        sim = build_simulation(random_simple_pa(0, 2, 1))
        c = instantiate(sim.npa, dict(instantiate_simulation(sim, F(1, 3), F(1, 2)).delta))
        assert c.delta.table is sim.npa.support.table
        assert list(c.delta.spec) == [(sim.coin, "$")]

    def test_instantiate_refuses_a_non_distribution(self, seesaw_support):
        from pfakit import seesaw_delta

        spec = seesaw_delta(HALF, HALF)
        spec[("C1", "a")] = {"C1": 1}
        with pytest.raises(ValidationError) as exc:
            instantiate(seesaw_support, spec)
        assert str(exc.value) == "delta[('C1', 'a')] is not a Distribution"

    def test_instantiate_missing_mass(self, seesaw_support):
        from pfakit import seesaw_pa

        pa = seesaw_pa(HALF, HALF)
        spec = dict(pa.delta)
        spec[("C1", "i")] = dirac("L1")  # support expects both L1 and R1
        with pytest.raises(InconsistentSupport) as exc:
            instantiate(seesaw_support, spec)
        assert str(exc.value) == "missing: ('C1', 'i', 'R1') is in the support but got zero mass"

    def test_instantiate_extra_mass(self, seesaw_support):
        from pfakit import seesaw_pa

        pa = seesaw_pa(HALF, HALF)
        spec = dict(pa.delta)
        spec[("C1", "f")] = Distribution({"C1": HALF, "L2": HALF})
        with pytest.raises(InconsistentSupport) as exc:
            instantiate(seesaw_support, spec)
        assert str(exc.value) == "extra: ('C1', 'f', 'L2') got mass 1/2 outside the support"

    def test_instantiate_names_the_first_offender_in_pair_order(self, seesaw_support):
        from pfakit import seesaw_pa

        # two offenders, the later one in states x alphabet order inserted first
        spec = {("R1", "a"): dirac("R1")}  # support expects both C2 and R1
        spec.update((pair, d) for pair, d in seesaw_pa(HALF, HALF).delta.items()
                    if pair not in spec and pair != ("C2", "f"))
        spec[("C2", "f")] = Distribution({"C1": HALF, "L2": HALF})
        assert list(spec)[0] == ("R1", "a") and list(spec)[-1] == ("C2", "f")
        with pytest.raises(InconsistentSupport) as exc:
            instantiate(seesaw_support, spec)
        assert str(exc.value) == "extra: ('C2', 'f', 'L2') got mass 1/2 outside the support"

    @pytest.mark.parametrize("change,error,message", [
        ({("C2", "a"): None}, InconsistentSupport,
         "missing: no distribution for ('C2', 'a')"),
        ({("C2", "a"): None, ("C2", "z"): dirac("C2")}, InconsistentSupport,
         "distribution given for unknown pair ('C2', 'z')"),
        ({("C2", "z"): dirac("C2"), ("Z", "a"): dirac("C2")}, InconsistentSupport,
         "distribution given for unknown pair ('C2', 'z')"),
        ({("L2", "f"): dirac("Z")}, InconsistentSupport,
         "missing: ('L2', 'f', 'L2') is in the support but got zero mass"),
        ({("L1", "a"): Distribution({"C2": HALF, "L1": HALF, "Z": 0})}, None, None),
        ({("L1", "a"): Distribution({"C2": HALF, "Z": HALF})}, InconsistentSupport,
         "missing: ('L1', 'a', 'L1') is in the support but got zero mass"),
        ({("L1", "a"): Distribution({"C2": HALF, "L1": HALF / 2, "Z": HALF / 2})},
         InconsistentSupport, "extra: ('L1', 'a', 'Z') got mass 1/4 outside the support"),
        ({("C2", "i"): {"C2": 1}}, ValidationError, "delta[('C2', 'i')] is not a Distribution"),
    ], ids=["missing-pair", "unknown-pair-same-size", "unknown-pairs-sorted", "stray-dirac",
            "zero-mass-dropped", "split-missing", "split-extra", "not-a-distribution"])
    def test_instantiate_messages(self, seesaw_support, change, error, message):
        from pfakit import seesaw_delta

        spec = seesaw_delta(HALF, HALF)
        spec.update(change)
        spec = {pair: d for pair, d in spec.items() if d is not None}
        if error is None:
            assert instantiate(seesaw_support, spec).delta.spec[("L1", "a")] == spec[("L1", "a")]
            return
        with pytest.raises(error) as exc:
            instantiate(seesaw_support, spec)
        assert str(exc.value) == message


class TestInstance:
    """``_instance`` checks only the split pairs, in sorted pair order."""

    @pytest.mark.parametrize("change,error,message", [
        ({("C1", "i"): None}, InconsistentSupport, "missing: no distribution for ('C1', 'i')"),
        ({("C1", "a"): dirac("C1")}, InconsistentSupport,
         "distribution given for unknown pair ('C1', 'a')"),
        ({("Z", "a"): dirac("C1"), ("C1", "z"): dirac("C1")}, InconsistentSupport,
         "distribution given for unknown pair ('C1', 'z')"),
        ({("L1", "a"): dirac("L1")}, InconsistentSupport,
         "missing: ('L1', 'a', 'C2') is in the support but got zero mass"),
        ({("L1", "a"): Distribution({"C2": HALF, "L1": HALF / 2, "Z": HALF / 2})},
         InconsistentSupport, "extra: ('L1', 'a', 'Z') got mass 1/4 outside the support"),
        ({("R1", "a"): {"C2": 1}}, ValidationError, "delta[('R1', 'a')] is not a Distribution"),
    ], ids=["missing-pair", "dirac-pair", "unknown-pairs-sorted", "split-missing",
            "split-extra", "not-a-distribution"])
    def test_messages(self, seesaw_support, change, error, message):
        from pfakit import seesaw_delta

        split = {pair: d for pair, d in seesaw_delta(HALF, HALF).items() if len(d) > 1}
        split.update(change)
        split = {pair: d for pair, d in split.items() if d is not None}
        with pytest.raises(error) as exc:
            _instance(seesaw_support, split)
        assert str(exc.value) == message

    def test_first_offender_in_sorted_pair_order(self):
        # the table, its multi-target pairs and the split all list ('q', 'b') first
        npa = NumberlessAutomaton(("p", "q"), ("a", "b"), "p", {
            ("q", "b"): ("p", "q"), ("p", "a"): ("q", "p"), ("p", "b"): ("p",), ("q", "a"): ("q",),
        }, {"q"})
        assert list(npa.support.table.multi) == [("q", "b"), ("p", "a")]
        split = {("q", "b"): dirac("q"), ("p", "a"): dirac("p")}
        with pytest.raises(InconsistentSupport) as exc:
            _instance(npa, split)
        assert str(exc.value) == "missing: ('p', 'a', 'q') is in the support but got zero mass"
        split[("p", "a")] = Distribution({"p": HALF, "q": HALF})
        with pytest.raises(InconsistentSupport) as exc:
            _instance(npa, split)
        assert str(exc.value) == "missing: ('q', 'b', 'p') is in the support but got zero mass"


class TestMonteCarlo:
    def test_deterministic_given_seed(self, seesaw_even):
        a = monte_carlo_accept(seesaw_even, ["i", "f"], 500, 42)
        b = monte_carlo_accept(seesaw_even, ["i", "f"], 500, 42)
        assert a == b

    def test_sure_word(self, tiny_pa):
        pa = complete_with_sink(["q"], ["a"], "q", {("q", "a"): dirac("q")}, ["q"])
        assert monte_carlo_accept(pa, ["a", "a"], 100, 0) == 1.0

    def test_rejects_bad_sample_count(self, tiny_pa):
        with pytest.raises(DomainError):
            monte_carlo_accept(tiny_pa, ["a"], 0, 0)
