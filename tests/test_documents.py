import copy
import functools
import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfakit.documents
from pfakit import (
    AutomatonDocument,
    AutomatonError,
    BuchiAutomaton,
    Distribution,
    TransitionRecord,
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
    dirac,
    eval_expression,
    fair_coin,
    instantiate,
    instantiate_simulation,
    parse_automaton,
    parse_document,
    random_simple_pa,
    seesaw_npa,
    seesaw_pa,
    serialize_automaton,
    serialize_document,
)
from pfakit.cli import main
from pfakit.documents import _FROM, _NEXT, _letter_piece, _quote, _to_value, _write, bound_transitions


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

    @pytest.mark.parametrize(
        "text,bindings",
        [
            ("1" * 5001 + "/2", {}),
            ("(" * 5000 + "1" + ")" * 5000, {}),
            ("-" * 5000 + "1", {}),
            ("1/2 " + "+ 1 " * 3000 + "junk", {}),
            ("x" * 5000, {}),
            ("1 + " + "y" * 5000, {"x": F(1)}),
            (" " * 5000, {}),
        ],
        ids=["long-literal", "deep-parens", "deep-minus", "trailing", "long-name", "unbound", "blank"],
    )
    def test_error_messages_stay_short(self, text, bindings):
        with pytest.raises(ValidationError) as info:
            eval_expression(text, bindings)
        assert len(str(info.value)) < 200

    def test_short_expressions_are_quoted_whole(self):
        with pytest.raises(ValidationError, match=r"bad expression '1/2 junk' at offset 4"):
            eval_expression("1/2 junk")
        with pytest.raises(ValidationError, match=r"unbound parameter 'z' in expression 'z\+1'"):
            eval_expression("z+1")

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

    def test_npa_records_for_one_pair_are_merged(self):
        doc = {
            "kind": "npa", "states": ["q", "r"], "alphabet": ["a"], "initial": "q",
            "final": [], "transitions": [
                {"from": "q", "letter": "a", "to": ["r"]},
                {"from": "r", "letter": "a", "to": {"r": "1"}},
                {"from": "q", "letter": "a", "to": ["q"]},
            ],
        }
        npa = document_to_automaton(parse_document(json.dumps(doc)))
        assert npa.targets("q", "a") == ("q", "r")
        assert npa.support == {("q", "a", "q"), ("q", "a", "r"), ("r", "a", "r")}

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


def tiny_document(kind, *records):
    """A one-state, two-letter document text with the given raw records."""
    return json.dumps({
        "kind": kind, "states": ["q"], "alphabet": ["a", "b"], "initial": "q",
        "final": [], "transitions": [{"from": "q", "letter": "a", "to": {"q": "1"}}, *records],
    })


GOOD = {"from": "q", "letter": "b", "to": {"q": "1"}}


class TestRecordErrors:
    """Every record-level ParseError, naming the first malformed record."""

    @pytest.mark.parametrize(
        "kind,record,message",
        [
            ("pa", ["q", "a", "q"], "transition 1: must be an object"),
            ("pa", "q a q", "transition 1: must be an object"),
            ("npa", None, "transition 1: must be an object"),
            ("pa", {"letter": "b", "to": {}}, "transition 1: missing key 'from'"),
            ("pa", {"from": "q", "to": {}}, "transition 1: missing key 'letter'"),
            ("npa", {"from": "q", "letter": "b"}, "transition 1: missing key 'to'"),
            ("pa", {"from": 1, "letter": "b", "to": {}}, "transition 1: key 'from' must be str"),
            ("pa", {"from": ["q"], "letter": "b", "to": {}}, "transition 1: key 'from' must be str"),
            ("npa", {"from": "q", "letter": None, "to": []}, "transition 1: key 'letter' must be str"),
            ("pa", {"from": "q", "letter": "b", "to": {"q": 1}},
             "transition 1: 'to' map must be state -> expression string"),
            ("npa", {"from": "q", "letter": "b", "to": {"q": "1/2", "r": None}},
             "transition 1: 'to' map must be state -> expression string"),
            ("pa", {"from": "q", "letter": "b", "to": ["q"]},
             "transition 1: target lists are only allowed in npa documents"),
            ("pba", {"from": "q", "letter": "b", "to": []},
             "transition 1: target lists are only allowed in npa documents"),
            ("npa", {"from": "q", "letter": "b", "to": ["q", 2]},
             "transition 1: 'to' list entries must be strings"),
            ("npa", {"from": "q", "letter": "b", "to": [["q"]]},
             "transition 1: 'to' list entries must be strings"),
            ("npa", {"from": "q", "letter": "b", "to": "q"}, "transition 1: 'to' must be a map or a list"),
            ("pa", {"from": "q", "letter": "b", "to": 1}, "transition 1: 'to' must be a map or a list"),
            ("pa", {"from": "q", "letter": "b", "to": True}, "transition 1: 'to' must be a map or a list"),
        ],
    )
    def test_message(self, kind, record, message):
        with pytest.raises(ParseError) as exc:
            parse_document(tiny_document(kind, record, GOOD))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "records,message",
        [
            ([GOOD, {"from": 1, "letter": "b", "to": {}}, GOOD, 7], "transition 2: key 'from' must be str"),
            ([GOOD, 7, GOOD, {"from": 1, "letter": "b", "to": {}}], "transition 2: must be an object"),
            ([{"from": "q", "letter": "b", "to": [1]}, {"from": "q", "to": []}],
             "transition 1: 'to' list entries must be strings"),
            ([{"from": "q", "to": []}, {"from": "q", "letter": "b", "to": [1]}],
             "transition 1: missing key 'letter'"),
            ([{"from": "q", "letter": "b", "to": {"q": 0}}, {"from": "q", "letter": 2, "to": {}}],
             "transition 1: 'to' map must be state -> expression string"),
        ],
        ids=["type-before-shape", "shape-before-type", "entry-before-key", "key-before-entry",
             "value-before-letter"],
    )
    def test_lowest_index_is_named(self, records, message):
        with pytest.raises(ParseError) as exc:
            parse_document(tiny_document("npa", *records))
        assert str(exc.value) == message

    def test_well_formed_records_pass(self):
        doc = parse_document(tiny_document("npa", {"from": "q", "letter": "b", "to": ["q"]}))
        assert [rec.to for rec in doc.transitions] == [{"q": "1"}, ("q",)]


# Records placed between two good ones, and the message naming the first offender.
UNKNOWN_STATE_CASES = [
    ([TransitionRecord("g1", "a", ["p"]), TransitionRecord("g2", "a", ["p"])],
     "transition from unknown state 'g1'"),
    ([TransitionRecord("p", "a", ["q", "g1"]), TransitionRecord("g2", "a", ["p"])],
     "transition to unknown state 'g1'"),
    ([TransitionRecord("p", "a", {"g1": "1"}), TransitionRecord("p", "a", ["g2"])],
     "transition to unknown state 'g1'"),
    ([TransitionRecord("g1", "a", ["g2"])], "transition from unknown state 'g1'"),
    ([TransitionRecord("q", "a", ["g1", "g2"])], "transition to unknown state 'g1'"),
]


class TestUnknownStates:
    """document_to_automaton names the first record with an unknown state."""

    @staticmethod
    def document(*records):
        return AutomatonDocument("npa", ("p", "q"), ("a",), "p", (), [
            TransitionRecord("p", "a", ["q"]), *records, TransitionRecord("q", "a", {"p": "1"})
        ])

    @pytest.mark.parametrize(
        "records,message", UNKNOWN_STATE_CASES,
        ids=["sources", "target-first", "map-target", "source-before-target", "first-target"],
    )
    def test_first_offender(self, records, message):
        for bindings in (None, {}):
            with pytest.raises(ValidationError) as exc:
                document_to_automaton(self.document(*records), bindings)
            assert str(exc.value) == message


class TestRecordConstruction:
    """Records parsed from JSON against the same records built by the public
    constructor."""

    def test_parsed_equals_constructed(self):
        text = tiny_document("npa", {"from": "q", "letter": "b", "to": ["q"]},
                             {"from": "q", "letter": "b", "to": {}})
        parsed = parse_document(text).transitions
        built = (TransitionRecord("q", "a", {"q": "1"}), TransitionRecord("q", "b", ["q"]),
                 TransitionRecord("q", "b", {}))
        assert parsed == built
        assert [repr(r) for r in parsed] == [repr(r) for r in built]
        assert repr(built[1]) == "TransitionRecord(source='q', letter='b', to=('q',))"
        assert [type(r.to) for r in parsed] == [dict, tuple, dict]

    def test_constructor_copies_and_normalises(self):
        source = {"q": "1/2", "r": "1/2"}
        rec = TransitionRecord("q", "a", MappingProxyType(source))
        assert type(rec.to) is dict and rec.to == source
        rec = TransitionRecord("q", "a", source)
        assert rec.to == source and rec.to is not source
        targets = ["q", "r"]
        rec = TransitionRecord("q", "a", targets)
        assert rec.to == ("q", "r")
        targets.append("s")
        assert rec.to == ("q", "r")
        assert TransitionRecord("q", "a", iter(["q"])).to == ("q",)

    def test_frozen_and_slotted(self):
        rec = parse_document(seesaw_text()).transitions[0]
        with pytest.raises(AttributeError):
            rec.source = "ghost"
        assert not hasattr(rec, "__dict__")

    @pytest.mark.parametrize("seed,shape", [(0, (2, 1)), (1, (2, 1)), (2, (1, 2)), (1, (2, 2))])
    def test_compiled_documents_round_trip(self, seed, shape):
        sim = build_simulation(random_simple_pa(seed, *shape))
        for obj in (sim.npa, instantiate_simulation(sim, F(1, 3), F(1, 2))):
            text = serialize_automaton(obj, name="simulation")
            doc = parse_document(text)
            assert serialize_document(doc) == text
            assert doc == automaton_to_document(obj, "simulation") == reference_document(obj, "simulation")


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


# --- the canonical writer ------------------------------------------------------


def reference_serialize_document(doc):
    """The json.dumps(indent=2) renderer the template writer replaced, kept
    here as the writer's reference."""
    order = {s: i for i, s in enumerate(doc.states)}
    letter_order = {c: i for i, c in enumerate(doc.alphabet)}
    out = {"kind": doc.kind}
    if doc.name is not None:
        out["name"] = doc.name
    if doc.params:
        out["params"] = list(doc.params)
    out["states"] = list(doc.states)
    out["alphabet"] = list(doc.alphabet)
    out["initial"] = doc.initial
    out["final"] = sorted(doc.final, key=lambda s: order.get(s, len(order)))
    records = sorted(
        doc.transitions, key=lambda r: (order[r.source], letter_order[r.letter])
    )
    rendered = []
    for rec in records:
        if isinstance(rec.to, tuple):
            to = sorted(rec.to, key=lambda t: order.get(t, len(order)))
        else:
            to = {
                t: rec.to[t]
                for t in sorted(rec.to, key=lambda t: order.get(t, len(order)))
            }
        rendered.append({"from": rec.source, "letter": rec.letter, "to": to})
    out["transitions"] = rendered
    return json.dumps(out, indent=2) + "\n"


def reference_document(obj, name=None):
    """The document of an automaton, built record by record from its table."""
    if isinstance(obj, NumberlessAutomaton):
        kind, pa, final = "npa", obj, obj.final
        to = obj.targets
    else:
        kind, pa = ("pba", obj.automaton) if isinstance(obj, BuchiAutomaton) else ("pa", obj)
        final = obj.accepting if kind == "pba" else obj.final

        def to(s, c):
            return {t: str(p) for t, p in pa.delta[(s, c)].items()}

    order = {s: i for i, s in enumerate(pa.states)}
    records = [TransitionRecord(s, c, to(s, c)) for s in pa.states for c in pa.alphabet]
    final = sorted(final, key=order.__getitem__)
    return AutomatonDocument(kind, pa.states, pa.alphabet, pa.initial, final, records, name)


# Quotes, backslashes, control characters, DEL, non-ASCII and astral characters
# (escaped as surrogate pairs), plus anything else hypothesis draws.
tricky = st.one_of(st.sampled_from('"\\\x00\x08\x1f\x7fé→\U0001f600 q/'), st.characters())
ids = st.text(tricky, min_size=1, max_size=4)
texts = st.text(tricky, max_size=4)


@st.composite
def documents(draw):
    """Well-formed documents whose transitions may name unknown targets."""
    kind = draw(st.sampled_from(("pa", "npa", "pba")))
    states = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    alphabet = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    targets = st.sampled_from(states) | ids  # drawn ids are usually no state
    records = []
    for _ in range(draw(st.integers(0, 6))):
        source, letter = draw(st.sampled_from(states)), draw(st.sampled_from(alphabet))
        if kind == "npa" and draw(st.booleans()):
            to = draw(st.lists(targets, max_size=3))
        else:
            to = draw(st.dictionaries(targets, texts, max_size=3))
        records.append(TransitionRecord(source, letter, to))
    return AutomatonDocument(
        kind,
        states,
        alphabet,
        draw(texts),
        draw(st.lists(targets, max_size=3)),
        records,
        draw(st.none() | texts),
        draw(st.lists(texts, max_size=2)),
    )


@st.composite
def automata(draw):
    """pa, pba and npa objects over tricky ids; some Diracs shared, some not."""
    kind = draw(st.sampled_from(("pa", "npa", "pba")))
    states = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    alphabet = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    final = draw(st.frozensets(st.sampled_from(states)))
    hits = st.lists(st.sampled_from(states), min_size=1, max_size=3, unique=True)
    if kind == "npa":
        table = {(s, c): draw(hits) for s in states for c in alphabet}
        return NumberlessAutomaton(states, alphabet, states[0], table, final)
    shared = {s: dirac(s) for s in states}
    delta = {}
    for s in states:
        for c in alphabet:
            ts = draw(hits)
            if len(ts) == 1 and draw(st.booleans()):
                delta[(s, c)] = shared[ts[0]]
            else:
                weights = [draw(st.integers(1, 5)) for _ in ts]
                delta[(s, c)] = Distribution({t: F(w, sum(weights)) for t, w in zip(ts, weights)})
    pa = ProbAutomaton(states, alphabet, states[0], delta, final)
    return BuchiAutomaton(pa, final) if kind == "pba" else pa


class TestWriter:
    @given(documents())
    @settings(max_examples=150, deadline=None)
    def test_document_matches_json_dumps(self, doc):
        assert serialize_document(doc) == reference_serialize_document(doc)

    @given(automata(), st.none() | texts)
    @settings(max_examples=200, deadline=None)
    def test_automaton_matches_json_dumps(self, obj, name):
        text = serialize_automaton(obj, name=name)
        assert text == reference_serialize_document(reference_document(obj, name))
        assert automaton_to_document(obj, name) == reference_document(obj, name)
        assert text.isascii()

    @pytest.mark.parametrize("build", [
        lambda a: build_simulation(a).npa,
        lambda a: instantiate_simulation(build_simulation(a), F(1, 3), F(1, 2)),
        lambda a: fair_coin(a, F(1, 3)).automaton,
        buchi_reduction,
    ], ids=["simulation-npa", "simulation-instance", "fair-coin", "restart"])
    @pytest.mark.parametrize(
        "name", [None, 'q"\\\x00\x7f\u00e9\U0001f600'], ids=["unnamed", "tricky"])
    def test_compiled_automata_match_json_dumps(self, build, name):
        obj = build(random_simple_pa(0, 2, 1))
        text = serialize_automaton(obj, name=name)
        assert text == reference_serialize_document(reference_document(obj, name))
        assert serialize_document(parse_document(text)) == text

    def test_empty_collections(self):
        doc = AutomatonDocument(
            "npa", ("q",), ("a",), "q", (), [TransitionRecord("q", "a", []),
                                            TransitionRecord("q", "a", {})],
        )
        assert serialize_document(doc) == reference_serialize_document(doc)
        assert '"final": [],' in serialize_document(doc)
        assert '"to": []' in serialize_document(doc) and '"to": {}' in serialize_document(doc)
        empty = AutomatonDocument("pa", ("q",), ("a",), "q", (), (), name="", params=())
        assert serialize_document(empty) == reference_serialize_document(empty)
        assert '"transitions": []\n}\n' in serialize_document(empty)

    @pytest.mark.parametrize(
        "record,message",
        [
            (TransitionRecord("ghost", "a", {"q": "1"}), "unknown state 'ghost'"),
            (TransitionRecord("q", "z", {"q": "1"}), "unknown letter 'z'"),
        ],
        ids=["unknown-source", "unknown-letter"],
    )
    def test_unknown_source_or_letter_rejected(self, record, message):
        doc = AutomatonDocument("pa", ("q",), ("a",), "q", (), [record])
        with pytest.raises(ValidationError, match=message):
            serialize_document(doc)

    def test_probabilities_past_the_digit_bound_are_refused(self):
        def pa(den):
            split = Distribution({"p": F(1, den), "q": 1 - F(1, den)})
            delta = {("p", "a"): dirac("p"), ("p", "b"): split, ("q", "a"): split, ("q", "b"): dirac("q")}
            return ProbAutomaton(("q", "p"), ("a", "b"), "p", delta, {"q"})

        fits = pa(10**4300 - 1)  # 4300 digits: written, and read back
        assert parse_automaton(serialize_automaton(fits)) == fits
        for obj in (pa(10**4300), buchi_reduction(pa(10**4300))):
            with pytest.raises(ValidationError) as exc:
                serialize_automaton(obj)
            # The first split pair in states x alphabet order, of the distinct values checked once.
            assert str(exc.value) == "cannot write ('q', 'a'): a probability has more than 4300 digits"

    # sha256 of serialize_automaton output, recorded with the json.dumps renderer.
    PINNED = {
        0: ("697c469825b706832d5e0311102e4a31653be535395faebc2189b82ff63c8db8",
            "17e357699e2f48ed9a9180cff6863771508e4fcc9b8bcf7b5c1846092ef4db40",
            "082289fc457f657b29fb037bec57760274c0f67656d1493f4af4a04931287a16",
            "6fa194e8027d73420981f4e7afb5705b2bd83b8f0eafac68b4d7f45aadc6c3b8"),
        1: ("0ea3f25dd898e09807d281fe12fa0d9b17cbe6308c4a9c314f067502a8683484",
            "39d23b7a3740583c684bdb1b6c65662cc4414be370854ee152e05b19945a0b91",
            "0b499b3e01e7212114cff512a72bf3c6992fcadff8e2c1f14b16e2f10fce779a",
            "e9c9eb6cfd6936e78e97621b40fdb20800c23aadd40427e8b9b07323a468f7ce"),
        2: ("260d86405839d72db380def38bf1a82b43f22d70d53c58683ecbd97b27d6b664",
            "54125d5855e8ac0c04a625bdadc646f10e275576fecb072964797a093c95e0e5",
            "3e7268085868e66dcfe1b21d7f4b89af4f65678bbca43564e9b495021f51e216",
            "d1f7f063180b4ab24de6c19fa976f5e74fb6d06a35c5220fef58f3d54c57cb4a"),
        3: ("ace998210cccc39ea8b7bf86c4976714a79f1c15e1083c81828d44b49cb13d89",
            "dbcc0a2ca5eca2ab8877dc129c79c615797f7b054d1b6f7f650b9fd3ecc376ca",
            "f03c75573d853540135ac5dbfee73b2ecd17fdf92bd9de58de5cafb28117b4a3",
            "947a7bab9673cff6433cb60c4ff1ffc2545beb8b841878ff7aac133202716b80"),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_pinned_digests(self, seed):
        a = random_simple_pa(seed, 2, 2)
        sim = build_simulation(a)
        texts = (
            serialize_automaton(sim.npa, name="simulation"),
            serialize_automaton(instantiate_simulation(sim, F(1, 3), F(1, 2))),
            serialize_automaton(fair_coin(a, F(2, 3)).automaton),
            serialize_automaton(buchi_reduction(a), name="restart"),
        )
        got = tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)
        assert got == self.PINNED[seed]


class TestLoader:
    def test_each_expression_evaluated_once(self, monkeypatch):
        seen = []

        def counting(text, bindings=None):
            seen.append(text)
            return eval_expression(text, bindings)

        monkeypatch.setattr(pfakit.documents, "eval_expression", counting)
        doc = parse_document(seesaw_text())
        delta = bound_transitions(doc, {"x": F(3, 4), "y": F(1, 4)})
        assert len(seen) == len(set(seen))
        assert set(seen) == {e for rec in doc.transitions for e in rec.to.values()}
        assert delta == seesaw_pa(F(3, 4), F(1, 4)).delta

    def test_equal_maps_share_one_distribution(self):
        doc = parse_document(seesaw_text())
        delta = bound_transitions(doc, {"x": F(1, 2), "y": F(1, 2)})
        maps = {tuple(rec.to.items()) for rec in doc.transitions}
        assert len({id(d) for d in delta.values()}) == len(maps) < len(delta)
        assert delta[("C1", "a")] is delta[("C1", "f")]

    def test_sum_past_the_digit_limit_is_reported(self):
        doc = json.loads(seesaw_text())
        tiny = "1/" + "7" * 3000 + "*1/" + "7" * 3000
        doc["transitions"][0]["to"] = {"L1": tiny, "R1": "1/2"}
        for kind in ("npa", "pa"):
            doc["kind"] = kind
            with pytest.raises(ValidationError) as exc:
                document_to_automaton(parse_document(json.dumps(doc)), {"x": F(1, 2), "y": F(1, 2)})
            assert str(exc.value) == "entries sum to a fraction too long to print, expected 1"

    def test_first_bad_record_is_reported(self):
        doc = json.loads(seesaw_text())
        doc["transitions"][2]["to"] = {"C1": "1/0"}
        doc["transitions"][5]["to"] = {"C1": "1/0"}
        doc["transitions"][4]["to"] = {"C2": "q"}
        with pytest.raises(ValidationError, match=r"'1/0' at offset 3: division by zero"):
            bound_transitions(parse_document(json.dumps(doc)), {"x": F(1, 2), "y": F(1, 2)})


# --- the column paths against the record paths they replaced --------------------


def reference_document_to_automaton(doc, bindings=None):
    """document_to_automaton as it was before documents kept columns: it walks
    the records, merges them into per-pair tables and lets the constructors
    compile those. Kept here as the reference of the column path."""
    state_set = set(doc.states)
    for rec in doc.transitions:
        if rec.source not in state_set:
            raise ValidationError(f"transition from unknown state {rec.source!r}")
        for t in rec.to:
            if t not in state_set:
                raise ValidationError(f"transition to unknown state {t!r}")

    if doc.kind == "npa":
        targets = {}
        for rec in doc.transitions:
            pair = (rec.source, rec.letter)
            targets[pair] = targets.get(pair, ()) + tuple(rec.to)
        npa = NumberlessAutomaton(doc.states, doc.alphabet, doc.initial, targets, doc.final)
        if bindings is None:
            return npa

    delta = reference_bound_transitions(doc, bindings)
    if doc.kind == "npa":
        return instantiate(npa, delta)
    pa = ProbAutomaton(doc.states, doc.alphabet, doc.initial, delta, frozenset(doc.final))
    if doc.kind == "pba":
        return BuchiAutomaton(pa, frozenset(doc.final))
    return pa


def reference_bound_transitions(doc, bindings=None):
    """bound_transitions as it was, over the records."""
    delta = {}
    value = functools.cache(lambda text: eval_expression(text, bindings))
    shared = {}
    for rec in doc.transitions:
        if not isinstance(rec.to, dict):
            raise ValidationError(
                f"({rec.source!r}, {rec.letter!r}) lists support only; it cannot "
                "be instantiated with parameter bindings"
            )
        pair = (rec.source, rec.letter)
        if pair in delta:
            raise ValidationError(f"duplicate transition record for {pair!r}")
        key = tuple(rec.to.items())
        if key not in shared:
            shared[key] = Distribution({t: value(expr) for t, expr in key})
        delta[pair] = shared[key]
    return delta


def reference_serialize_records(doc):
    """serialize_document as it was: the records sorted with a key function,
    each distinct "to" rendered once by its items."""
    order = {s: i for i, s in enumerate(doc.states)}
    letter_order = {c: i for i, c in enumerate(doc.alphabet)}
    try:
        ranked = sorted(doc.transitions, key=lambda r: (order[r.source], letter_order[r.letter]))
    except KeyError:
        rec = next(r for r in doc.transitions if r.source not in order or r.letter not in letter_order)
        if rec.source not in order:
            raise ValidationError(f"transition from unknown state {rec.source!r}") from None
        raise ValidationError(f"transition on unknown letter {rec.letter!r}") from None

    def rank(t):
        return order.get(t, len(order))

    sources = {s: _FROM + _quote(s) for s in doc.states}
    letters = {c: _letter_piece(c) for c in doc.alphabet}
    maps, lists, records = {}, {}, []
    for rec in ranked:
        to = rec.to
        cache, key = (lists, to) if isinstance(to, tuple) else (maps, tuple(to.items()))
        text = cache.get(key)
        if text is None:
            text = cache[key] = _to_value(to, rank) + _NEXT
        records += (sources[rec.source], letters[rec.letter], text)
    return _write(doc.kind, doc.name, doc.params, doc.states, doc.alphabet,
                  doc.initial, sorted(doc.final, key=rank), records)


def outcome(f, *args):
    """("ok", f(*args)), or the type and text of the exception it raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # any exception is compared, not only AutomatonError
        return type(exc), str(exc)


def assert_matches_records(doc, bindings=None):
    """The column paths give what the record paths give on ``doc``: equal
    automata and texts, or exceptions of equal types and messages."""
    pairs = (
        (functools.partial(document_to_automaton, doc, bindings),
         functools.partial(reference_document_to_automaton, doc, bindings)),
        (functools.partial(bound_transitions, doc, bindings),
         functools.partial(reference_bound_transitions, doc, bindings)),
        (functools.partial(serialize_document, doc), functools.partial(reference_serialize_records, doc)),
    )
    for new, old in pairs:
        got, want = outcome(new), outcome(old)
        assert got == want
        assert type(got[1]) is type(want[1])
        if isinstance(got[1], (ProbAutomaton, BuchiAutomaton)):  # equal automata may order their rows apart
            new_table, old_table = (getattr(obj, "automaton", obj).delta.table for obj in (got[1], want[1]))
            assert list(new_table.items()) == list(old_table.items())


BINDINGS = (None, {}, {"x": F(1, 3), "y": F(1, 2)})


def json_columns(text):
    """The "from", "letter" and "to" of each record of ``text``, read with json alone."""
    return zip(*((r["from"], r["letter"], r["to"]) for r in json.loads(text)["transitions"]))


def reordered(text, seed=0):
    """``text``'s document, then with its records reversed, shuffled, and
    built by the public constructor."""
    doc = parse_document(text)
    raw = json.loads(text)
    records = raw["transitions"]
    shuffled = random.Random(seed).sample(records, len(records))
    out = [doc]
    for order in (records[::-1], shuffled):
        out.append(parse_document(json.dumps({**raw, "transitions": order})))
    out.append(AutomatonDocument(doc.kind, doc.states, doc.alphabet, doc.initial, doc.final,
                                 [TransitionRecord(*rec) for rec in zip(*json_columns(text))], doc.name,
                                 doc.params))
    return out


def written_texts():
    """Documents the tests write: the seesaw, and the writers' output on the
    compiled automata of small sources."""
    a = random_simple_pa(0, 2, 1)
    sim = build_simulation(a)
    objs = (seesaw_pa(F(3, 4), F(1, 4)), sim.npa, instantiate_simulation(sim, F(1, 3), F(1, 2)),
            fair_coin(a, F(1, 3)).automaton, buchi_reduction(a), build_simulation(random_simple_pa(2, 1, 2)).npa)
    return [seesaw_text()] + [serialize_automaton(obj, name="written") for obj in objs]


@pytest.fixture(scope="module")
def bench_texts(tmp_path_factory):
    """The documents the benchmark's cli set-up writes, at seed 0: the
    seesaw, small sources, restart automata, a chain and a (2, 2) simulation
    with its instance."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    workdir = tmp_path_factory.mktemp("bench")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(bench))
        import workloads

        workloads.cli(0, workdir)
    return [path.read_text(encoding="utf-8") for path in sorted(workdir.glob("*.json"))]


def small(kind, records, states=("p", "q"), alphabet=("a", "b")):
    """A document over ``states`` and ``alphabet`` with the given (from, letter, to) records."""
    return AutomatonDocument(kind, states, alphabet, (states or ("p",))[0], states[-1:],
                             [TransitionRecord(*rec) for rec in records], params=("x",))


FULL = [("p", "a", ["q"]), ("p", "b", ["p"]), ("q", "a", ["p", "q"]), ("q", "b", ["q"])]
MAPS = [("p", "a", {"q": "1"}), ("p", "b", {"p": "1"}), ("q", "a", {"p": "x", "q": "1-x"}),
        ("q", "b", {"q": "1"})]


class TestColumnsAgainstRecords:
    def test_written_documents(self):
        for text in written_texts():
            for doc in reordered(text):
                for bindings in BINDINGS:
                    assert_matches_records(doc, bindings)

    def test_bench_documents(self, bench_texts):
        assert len(bench_texts) == 13
        for text in bench_texts:
            for doc in reordered(text):
                for bindings in BINDINGS[::2]:
                    assert_matches_records(doc, bindings)

    @pytest.mark.parametrize("records", [
        FULL, MAPS, FULL[::-1], MAPS[::-1],
        FULL + [("p", "a", ["p"])],  # an npa's second record for a pair
        [("p", "a", ["q"]), ("p", "a", {"p": "1"})] + FULL[1:],
        FULL[1:], MAPS[:3],  # missing pairs
        [("g", "a", ["q"])] + FULL[1:], [("p", "a", ["g"])] + FULL[1:],
        [("p", "a", {"g": "1"})] + MAPS[1:], [("p", "z", ["q"])] + FULL[1:],
        [("p", "z", {"q": "1"})] + MAPS[1:],
        MAPS[:2] + FULL[2:],  # list and map "to" mixed
        [("p", "a", [])] + FULL[1:], [("p", "a", {})] + MAPS[1:],
        [("p", "a", ["q", "q"])] + FULL[1:], [("p", "a", ["q", "p", "q"])] + FULL[1:],
        [("p", "a", {"p": "0", "q": "1"})] + MAPS[1:],  # a zero mass
        [("p", "a", {"q": "1/2"})] + MAPS[1:], [("p", "a", {"q": "x"})] + MAPS[1:],
        [("p", "a", {"q": "2/2"})] + MAPS[1:], [("p", "a", {"q": "1/0"})] + MAPS[1:],
        MAPS[:2] + [("q", "a", {"q": "1-x", "p": "x"}), MAPS[3]],  # the map's items in reverse
        MAPS[:2] + [("q", "a", {"p": "1/2", "q": "1/3"}), MAPS[3]],
        [("p", "a", {"q": "y"})] + MAPS[1:],
        MAPS + [("p", "a", {"q": "1"})],
    ])
    @pytest.mark.parametrize("kind", ["npa", "pa", "pba"])
    def test_irregular_records(self, kind, records):
        for bindings in BINDINGS:
            assert_matches_records(small(kind, records), bindings)
            assert_matches_records(small(kind, records[::-1]), bindings)

    @pytest.mark.parametrize("states,alphabet,records", [
        (("p", "p"), ("a",), [("p", "a", ["p"]), ("p", "a", ["p"])]),
        (("p", "q", "p"), ("a",), [("p", "a", ["p"]), ("q", "a", ["p"]), ("p", "a", ["q"])]),
        (("p",), ("a", "a"), [("p", "a", ["p"]), ("p", "a", ["p"])]),
        (("p",), ("a", "b", "a"), [("p", "a", ["p"]), ("p", "b", ["p"]), ("p", "a", ["p"])]),
        (("p",), (), []), ((), ("a",), []), (("p",), ("a",), []),
        (("p", "q"), ("a", "b", "a", "a"), [("q", "b", ["p"]), ("p", "a", ["p"])]),
        (("",), ("a",), [("", "a", [""])]), (("p",), ("",), [("p", "", {"p": "1"})]),
        # State order against string order, in target lists and in split maps.
        (("q", "p"), ("a",), [("q", "a", ["p", "q"]), ("p", "a", ["p", "q", "p"])]),
        (("q", "p"), ("a",), [("q", "a", {"p": "x", "q": "1-x"}), ("p", "a", {"q": "1/2", "p": "1/2"})]),
    ], ids=["dup-states", "dup-states-spread", "dup-letters", "dup-letters-spread", "no-letters",
            "no-states", "no-records", "dup-letters-far-apart", "empty-state-id", "empty-letter",
            "reversed-lists", "reversed-maps"])
    def test_irregular_ids(self, states, alphabet, records):
        for kind in ("npa", "pa", "pba"):
            for bindings in BINDINGS:
                assert_matches_records(small(kind, records, states, alphabet), bindings)

    def test_record_error_corpus(self):
        for records, _message in UNKNOWN_STATE_CASES:
            for bindings in BINDINGS:
                assert_matches_records(TestUnknownStates.document(*records), bindings)
        bad = json.loads(seesaw_text())
        bad["transitions"][2]["to"] = {"C1": "1/0"}
        bad["transitions"][4]["to"] = {"C2": "q"}
        for text in (json.dumps(bad), seesaw_text().replace('"1/2"', '"1/3"', 1),
                     seesaw_text().replace('"C1"', '"ghost"', 2)):
            for bindings in BINDINGS:
                assert_matches_records(parse_document(text), bindings)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_drawn_documents(self, data):
        draw = data.draw
        kind = draw(st.sampled_from(("npa", "pa", "pba")))
        states = draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=3, unique=True))
        alphabet = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=2, unique=True))
        targets = st.sampled_from(states + ["ghost"] * draw(st.integers(0, 1)))
        exprs = st.sampled_from(["1", "1", "1/2", "0", "x", "1-x", "2/2", "1/0", "y"])
        records = []
        for s in states:
            for a in alphabet:
                for _ in range(draw(st.sampled_from((1, 1, 1, 1, 0, 2)))):
                    hits = draw(st.lists(targets, max_size=3))
                    if kind == "npa" and draw(st.booleans()):
                        to = hits
                    elif len(set(hits)) == 2 and draw(st.booleans()):
                        to = dict(zip(sorted(set(hits)), draw(st.sampled_from((("1/2", "1/2"), ("x", "1-x"))))))
                    else:
                        to = {t: draw(exprs) if len(set(hits)) != 1 else "1" for t in hits}
                    letter = draw(st.sampled_from(alphabet + ["z"] * draw(st.integers(0, 1))))
                    records.append((s, letter, to))
        records = draw(st.permutations(records)) if draw(st.booleans()) else records
        bindings = draw(st.sampled_from((None, {"x": F(1, 3)}, {"x": F(0)})))
        doc = small(kind, records, tuple(states), tuple(alphabet))
        assert_matches_records(doc, bindings)
        if kind == "npa" or all(isinstance(to, dict) for _, _, to in records):  # what parse_document reads
            assert_matches_records(parse_document(json.dumps({
                "kind": kind, "states": states, "alphabet": alphabet, "initial": states[0],
                "final": states[-1:], "params": ["x"],
                "transitions": [{"from": s, "letter": a, "to": to} for s, a, to in records]})), bindings)


def parametrized(test, names):
    """The values ``test`` is parametrized with under ``names``."""
    return next(mark.args[1] for mark in test.pytestmark if mark.args[0] == names)


def search_again(test, max_examples):
    """Run the ``st.data()`` search of the hypothesis test ``test``, a bound
    method, once more as a search of its own."""
    inner = test.hypothesis.inner_test
    settings(max_examples=max_examples, deadline=None)(given(st.data())(
        lambda data: inner(test.__self__, data)))()


class TestWalkOnlyOnFailure:
    """document_to_automaton walks the records to name the first offender
    exactly when it raises, on every document TestColumnsAgainstRecords and
    the document fuzzer load."""

    @pytest.fixture
    def load(self, monkeypatch):
        """A loader that checks that, and records each document's kind, whether
        it names a pair twice, and whether it raised."""
        walks, self.seen = [], []
        walk = pfakit.documents._raise_first_offender

        def spy(doc, bindings):
            walks.append(doc)
            walk(doc, bindings)

        monkeypatch.setattr(pfakit.documents, "_raise_first_offender", spy)

        def load(doc, bindings=None):
            walks.clear()
            try:
                document_to_automaton(doc, bindings)
                raised = False
            except AssertionError:  # the walk found no offender
                raise
            except Exception:  # any other exception: the walk must have raised it
                raised = True
            assert len(walks) == raised
            sources, letters, _ = doc._columns
            self.seen.append((doc.kind, len(set(zip(sources, letters))) < len(sources), raised))

        return load

    def test_record_corpus(self, load, monkeypatch, bench_texts):
        monkeypatch.setitem(globals(), "assert_matches_records", load)
        corpus = TestColumnsAgainstRecords()
        corpus.test_written_documents()
        corpus.test_bench_documents(bench_texts)
        for kind in parametrized(corpus.test_irregular_records, "kind"):
            for records in parametrized(corpus.test_irregular_records, "records"):
                corpus.test_irregular_records(kind, records)
        for states, alphabet, records in parametrized(corpus.test_irregular_ids, "states,alphabet,records"):
            corpus.test_irregular_ids(states, alphabet, records)
        corpus.test_record_error_corpus()
        search_again(corpus.test_drawn_documents, 200)
        # npa records for one pair merge without bindings and fail with them
        assert {("npa", True, False), ("npa", True, True), ("pa", False, False),
                ("pa", False, True)} <= set(self.seen)

    def test_fuzzed_documents(self, load, monkeypatch):
        def parse_and_load(text, bindings):
            try:
                doc = parse_document(text)
            except AutomatonError:
                return
            load(doc, bindings)

        monkeypatch.setitem(globals(), "assert_loads_canonically_or_fails", parse_and_load)
        search_again(TestDocumentFuzz().test_mutated_documents_load_or_fail_cleanly, 150)
        assert {raised for *_, raised in self.seen} == {False, True}


class TestColumns:
    """What parse_document keeps: columns, and records only when they are read."""

    @staticmethod
    def simulation():
        sim = build_simulation(random_simple_pa(0, 2, 1))
        return sim.npa, instantiate_simulation(sim, F(1, 3), F(1, 2))

    def test_loading_and_writing_build_no_records(self, monkeypatch, tmp_path):
        for obj in self.simulation():
            text = serialize_automaton(obj)
            doc = parse_document(text)
            assert document_to_automaton(doc) == obj
            assert serialize_document(doc) == text
            assert doc == parse_document(text)
            assert "transitions" not in vars(doc)

        def no_records(doc):
            raise AssertionError("a document built its records")

        monkeypatch.setattr(AutomatonDocument, "transitions", property(no_records))
        for obj in self.simulation():
            text = serialize_automaton(obj)
            assert parse_automaton(text) == obj
            path = tmp_path / "doc.json"
            path.write_text(text)
            with redirect_stdout(io.StringIO()) as out:
                assert main(["export-dot", "--automaton", str(path)]) == 0
            assert out.getvalue().startswith("digraph")

    def test_records_on_first_read(self):
        npa, instance = self.simulation()
        doc = parse_document(serialize_automaton(npa))
        records = doc.transitions
        assert records is doc.transitions and vars(doc)["transitions"] is records
        assert records == reference_document(npa).transitions
        assert all(type(r) is TransitionRecord and type(r.to) is tuple for r in records)
        by_value = {}
        assert all(by_value.setdefault(r.to, r.to) is r.to for r in records)  # equal lists share one tuple
        assert len(by_value) < len(records)
        doc = parse_document(serialize_automaton(instance))
        assert all(type(r.to) is dict for r in doc.transitions)
        assert doc.transitions == reference_document(instance).transitions

    def test_parsed_equals_constructed(self):
        for obj in self.simulation():
            text = serialize_automaton(obj, name="simulation")
            parsed = parse_document(text)
            records = [TransitionRecord(*rec) for rec in zip(*json_columns(text))]
            built = AutomatonDocument(parsed.kind, list(parsed.states), list(parsed.alphabet), parsed.initial,
                                      list(parsed.final), records, "simulation")
            assert parsed == built and built == parsed
            assert "transitions" not in vars(parsed)
            assert repr(parsed) == repr(built)
            assert repr(parsed).startswith("AutomatonDocument(kind=")
            assert parsed != parse_document(text.replace('"simulation"', '"other"'))
            assert parsed != parse_document(serialize_automaton(obj))  # unnamed
        npa_doc = parse_document(serialize_automaton(self.simulation()[0]))
        assert hash(npa_doc) == hash(AutomatonDocument(npa_doc.kind, npa_doc.states, npa_doc.alphabet,
                                                       npa_doc.initial, npa_doc.final, npa_doc.transitions))
        with pytest.raises(FrozenInstanceError):
            npa_doc.kind = "pa"
        with pytest.raises(FrozenInstanceError):
            del npa_doc.states


# --- a document fuzzer ----------------------------------------------------------

HUGE = "<huge>"  # stands for a 5000-digit JSON number, spliced into the text
JSON_VALUES = (None, True, 0, -1, 1.5, 10**400, float("inf"), "", "q", "C1", "1/2", "x", [], ["C1"],
               ["C1", 3], {}, {"C1": "1"}, {"C1": 1}, [[]], HUGE)
LONG_EXPRESSIONS = (
    "1" * 4300 + "/" + "1" * 4300, "1" * 4301, "1/" + "3" * 4300, "1/" + "7" * 3000 + "*1/" + "7" * 3000,
    "(" * 100 + "1" + ")" * 100, "(" * 101 + "1" + ")" * 101, "-" * 101 + "1", "x" * 5000, "1e5",
    "10000000000000000000000000/10000000000000000000000000", "1-" * 2000 + "1",
)


def _some(draw, raw, where):
    """The top-level object, a record, or a record's "to", as the draw picks."""
    if where == "top":
        return raw
    records = raw.get("transitions")
    if not isinstance(records, list) or not records:
        return None
    record = records[draw(st.integers(0, len(records) - 1))]
    return record.get("to") if where == "to" and isinstance(record, dict) else record


def _entry(draw, holder):
    """A key of a non-empty dict or an index of a non-empty list, or None."""
    if isinstance(holder, dict) and holder:
        return draw(st.sampled_from(sorted(holder)))
    if isinstance(holder, list) and holder:
        return draw(st.integers(0, len(holder) - 1))
    return None


def drop_key(draw, raw):
    holder = _some(draw, raw, draw(st.sampled_from(("top", "record", "to"))))
    if (key := _entry(draw, holder)) is not None:
        del holder[key]


def swap_type(draw, raw):
    holder = _some(draw, raw, draw(st.sampled_from(("top", "record", "to"))))
    if (key := _entry(draw, holder)) is not None:
        holder[key] = copy.deepcopy(draw(st.sampled_from(JSON_VALUES)))  # later mutations may change it


def reorder(draw, raw):
    records = raw.get("transitions")
    if isinstance(records, list):
        random.Random(draw(st.integers(0, 2**32))).shuffle(records)


def duplicate(draw, raw):
    records = raw.get("transitions")
    if isinstance(records, list) and records:
        copied = copy.deepcopy(records[draw(st.integers(0, len(records) - 1))])
        records.insert(draw(st.integers(0, len(records))), copied)


def inflate(draw, raw):
    to = _some(draw, raw, "to")
    if isinstance(to, dict) and to:
        to[draw(st.sampled_from(sorted(to)))] = draw(st.sampled_from(LONG_EXPRESSIONS))


MUTATORS = (drop_key, swap_type, reorder, duplicate, inflate)


def assert_loads_canonically_or_fails(text, bindings):
    """Loading ``text`` either gives an automaton whose document reads back
    canonically, as the same automaton, or raises an AutomatonError; and so
    does writing the parsed document."""
    try:
        doc = parse_document(text)
    except AutomatonError:
        return
    try:
        obj = document_to_automaton(doc, bindings)
        again = serialize_automaton(obj)
    except AutomatonError:
        pass
    else:
        assert serialize_document(parse_document(again)) == again
        assert document_to_automaton(parse_document(again)) == obj
    try:
        out = serialize_document(doc)
    except AutomatonError:
        pass
    else:
        assert serialize_document(parse_document(out)) == out


class TestDocumentFuzz:
    BASES = (seesaw_text(), serialize_automaton(build_simulation(random_simple_pa(0, 2, 1)).npa))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_documents_load_or_fail_cleanly(self, data):
        draw = data.draw
        raw = json.loads(self.BASES[draw(st.integers(0, 1))])
        for mutate in draw(st.lists(st.sampled_from(MUTATORS), min_size=1, max_size=3)):
            mutate(draw, raw)
        text = json.dumps(raw).replace(json.dumps(HUGE), "9" * 5000)
        assert_loads_canonically_or_fails(text, draw(st.sampled_from((None, {"x": F(1, 3), "y": F(1, 2)}))))
