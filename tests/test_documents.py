import json
from fractions import Fraction as F
from importlib import resources

import pytest

from pfakit import (
    BuchiAutomaton,
    InconsistentSupport,
    NumberlessAutomaton,
    ParseError,
    ProbAutomaton,
    ValidationError,
    accept_prob,
    automaton_to_document,
    buchi_reduction,
    build_simulation,
    document_to_automaton,
    eval_expression,
    fair_coin,
    parse_automaton,
    parse_document,
    seesaw_npa,
    seesaw_pa,
    serialize_automaton,
    serialize_document,
)


def seesaw_text() -> str:
    return (resources.files("pfakit") / "data" / "seesaw.json").read_text()


class TestExpressions:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/2", F(1, 2)),
            ("0", F(0)),
            ("1-1/4", F(3, 4)),
            ("2*3/4-1", F(1, 2)),
            ("(1-x)*y", F(3, 8)),
            ("-x+1", F(3, 4)),
            (" 1 / 2 ", F(1, 2)),
        ],
    )
    def test_values(self, text, value):
        assert eval_expression(text, {"x": F(1, 4), "y": F(1, 2)}) == value

    def test_precedence(self):
        assert eval_expression("1-1/2*1/2") == F(3, 4)
        assert eval_expression("(1-1/2)*1/2") == F(1, 4)

    def test_unbound_name(self):
        with pytest.raises(ValidationError):
            eval_expression("x")

    @pytest.mark.parametrize("bad", ["", "1+", "1//2", "((1)", "1 2", "x$"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ValidationError):
            eval_expression(bad, {"x": F(1, 2)})

    def test_division_by_zero(self):
        with pytest.raises(ValidationError):
            eval_expression("1/0")

    def test_error_carries_offset(self):
        with pytest.raises(ValidationError, match="offset"):
            eval_expression("1/2 junk")

    @pytest.mark.parametrize("text", ["(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1"])
    def test_nesting_is_bounded(self, text):
        with pytest.raises(ValidationError, match="nested deeper"):
            eval_expression(text)

    def test_nesting_up_to_the_bound(self):
        assert eval_expression("(" * 50 + "-" * 50 + "1/2" + ")" * 50) == F(1, 2)

    def test_integer_literals_are_bounded(self):
        # One digit past the bound; Python's int() would raise a bare ValueError.
        with pytest.raises(ValidationError, match="longer than 4300 digits"):
            eval_expression("1" * 4301 + "/2")
        longest = "1" + "0" * 4299
        assert eval_expression(f"{longest}/{longest}") == 1


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"kind": ' + "1" * 5000 + "}"],
        ids=["nested-100000-deep", "5000-digit-number"],
    )
    def test_json_beyond_python_limits_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="unreadable JSON"):
            parse_document(text)

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError, match=r"line \d+ column \d+"):
            parse_document("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            parse_document("[1, 2]")

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError, match="states"):
            parse_document('{"kind": "pa"}')

    def test_unknown_kind_rejected(self):
        doc = json.loads(seesaw_text())
        doc["kind"] = "mystery"
        with pytest.raises(ParseError):
            parse_document(json.dumps(doc))

    def test_target_list_only_in_npa(self):
        doc = {
            "kind": "pa",
            "states": ["q"],
            "alphabet": ["a"],
            "initial": "q",
            "final": [],
            "transitions": [{"from": "q", "letter": "a", "to": ["q"]}],
        }
        with pytest.raises(ParseError, match="npa"):
            parse_document(json.dumps(doc))
        doc["kind"] = "npa"
        npa = document_to_automaton(parse_document(json.dumps(doc)))
        assert isinstance(npa, NumberlessAutomaton)

    def test_bad_sum_is_validation_error(self):
        text = seesaw_text().replace('"1/2"', '"1/3"', 1)
        doc = parse_document(text)  # parses fine; the numbers are wrong
        with pytest.raises(ValidationError):
            document_to_automaton(doc, {"x": F(1, 2), "y": F(1, 2)})

    def test_unknown_transition_state_rejected(self):
        doc = json.loads(seesaw_text())
        doc["transitions"][0]["from"] = "ghost"
        with pytest.raises(ValidationError):
            document_to_automaton(parse_document(json.dumps(doc)))


class TestSeesawDocument:
    def test_byte_identical_round_trip(self):
        text = seesaw_text()
        assert serialize_document(parse_document(text)) == text

    def test_support_level(self):
        npa = document_to_automaton(parse_document(seesaw_text()))
        assert isinstance(npa, NumberlessAutomaton)
        assert npa == seesaw_npa()

    def test_bound_instantiation(self):
        pa = document_to_automaton(
            parse_document(seesaw_text()), {"x": F(3, 4), "y": F(1, 4)}
        )
        assert isinstance(pa, ProbAutomaton)
        assert pa == seesaw_pa(F(3, 4), F(1, 4))

    def test_binding_must_keep_the_listed_support(self):
        doc = parse_document(seesaw_text())
        with pytest.raises(InconsistentSupport, match="'C2'"):
            document_to_automaton(doc, {"x": F(1), "y": F(1, 4)})

    def test_params_listed(self):
        doc = parse_document(seesaw_text())
        assert doc.params == ("x", "y")
        assert doc.name == "seesaw"


class TestRoundTrips:
    def test_pa_round_trip(self, seesaw_fast):
        text = serialize_automaton(seesaw_fast, name="anchor")
        back = parse_automaton(text)
        assert back == seesaw_fast
        assert serialize_automaton(back, name="anchor") == text

    def test_npa_round_trip(self, tiny_pa):
        sim = build_simulation(tiny_pa)
        text = serialize_automaton(sim.npa)
        assert parse_automaton(text) == sim.npa

    def test_pba_round_trip(self, tiny_pa):
        ba = buchi_reduction(tiny_pa)
        text = serialize_automaton(ba)
        back = parse_automaton(text)
        assert isinstance(back, BuchiAutomaton)
        assert back.automaton == ba.automaton
        assert back.accepting == ba.accepting

    def test_fair_coin_round_trip(self, tiny_pa):
        b = fair_coin(tiny_pa, F(1, 3)).automaton
        back = parse_automaton(serialize_automaton(b))
        assert back == b
        assert accept_prob(back, ["a", "#", "#"]) == accept_prob(b, ["a", "#", "#"])

    def test_canonical_key_order(self, tiny_pa):
        text = serialize_automaton(tiny_pa, name="tiny")
        keys = list(json.loads(text).keys())
        assert keys == ["kind", "name", "states", "alphabet", "initial", "final", "transitions"]

    def test_transitions_sorted(self, seesaw_fast):
        doc = automaton_to_document(seesaw_fast)
        states = {s: i for i, s in enumerate(seesaw_fast.states)}
        letters = {c: i for i, c in enumerate(seesaw_fast.alphabet)}
        seq = [(states[t.source], letters[t.letter]) for t in doc.transitions]
        assert seq == sorted(seq)

    def test_trailing_newline(self, tiny_pa):
        assert serialize_automaton(tiny_pa).endswith("}\n")
