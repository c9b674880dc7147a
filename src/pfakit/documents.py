"""JSON document format for automata.

A document is a JSON object with keys (in canonical order) ``kind``,
optional ``name``, optional ``params``, ``states``, ``alphabet``,
``initial``, ``final``, ``transitions``. Kinds: "pa" (probabilistic), "npa"
(numberless), "pba" (probabilistic with the final set read as a repeated
acceptance condition). Each transition record is {"from", "letter", "to"}
where "to" is either a map target -> probability expression (strings like
"1/2", "x", "1-x") or, for support-only numberless documents, a list of
targets.

Canonical form: two-space indent, transitions sorted by (state order, letter
order), "to" keys in state order, final states in state order, trailing
newline: what ``json.dumps(..., indent=2)`` prints. One writer appends every
piece of a document to one list (the header fields, each record's "from",
"letter" and "to" text with its separator, the closing brackets) and builds
the text with a single join, escaping strings with json's own
``encode_basestring_ascii``. serialize_document renders each distinct "to"
value once; serialize_automaton reads the automaton's integer rows, renders
one "to" text per target state and one per split pair, and takes each
letter's column of texts straight from its row.
serialize_document(parse_document(text)) == text for canonical text;
expression strings are preserved verbatim, and loading evaluates each
distinct one once.

parse_document checks the records' shapes in bulk, by the set of types in
each field, and walks the records only when a check fails, to name the first
malformed one. The records it builds take the freshly loaded values without
the copies TransitionRecord's constructor makes.

Structural problems (bad JSON, wrong shapes) raise ParseError; semantic
problems (unknown ids, bad sums, unbound parameters) raise ValidationError.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Union

from .core import (
    MAX_EXPONENT, Distribution, NumberlessAutomaton, ProbAutomaton, _table_and_split, instantiate,
)
from .constructions import BuchiAutomaton
from .errors import ParseError, ValidationError

KINDS = ("pa", "npa", "pba")

Targets = Union[Mapping[str, str], Sequence[str]]


@dataclass(frozen=True, slots=True)
class TransitionRecord:
    """One transition record; the constructor copies ``to`` into a dict or a tuple."""

    source: str
    letter: str
    to: Targets  # dict target -> expression, or tuple of targets

    def __post_init__(self):
        if isinstance(self.to, Mapping):
            object.__setattr__(self, "to", dict(self.to))
        else:
            object.__setattr__(self, "to", tuple(self.to))


@dataclass(frozen=True)
class AutomatonDocument:
    kind: str
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    final: tuple[str, ...]
    transitions: tuple[TransitionRecord, ...]
    name: str | None = None
    params: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "final", tuple(self.final))
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        if self.kind not in KINDS:
            raise ValidationError(f"unknown document kind {self.kind!r}")


# --- expression evaluation ---------------------------------------------------


def _clip(value, keep: int = 60) -> str:
    """``repr(value)``, cut after ``keep`` characters so messages stay short."""
    return (text := repr(value))[:keep] + ("..." if len(text) > keep else "")


# Deepest nesting of parentheses and unary minus signs an expression may use;
# the parser recurses once per level, so the bound keeps it off Python's stack
# limit.
MAX_EXPRESSION_DEPTH = 100


class _ExprParser:
    """Arithmetic over rationals and named parameters: + - * / ( ) integers."""

    def __init__(self, text: str, bindings: Mapping[str, Fraction]):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.bindings = bindings

    def nested(self, parse):
        """Run one level deeper, or fail past MAX_EXPRESSION_DEPTH."""
        if self.depth == MAX_EXPRESSION_DEPTH:
            raise self.fail(f"nested deeper than {MAX_EXPRESSION_DEPTH} levels")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def fail(self, msg: str) -> ValidationError:
        return ValidationError(f"bad expression {_clip(self.text)} at offset {self.pos}: {msg}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Fraction:
        value = self.term()
        while (op := self.peek()) in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Fraction:
        value = self.factor()
        while (op := self.peek()) in ("*", "/"):
            self.pos += 1
            rhs = self.factor()
            if op == "*":
                value *= rhs
            else:
                if rhs == 0:
                    raise self.fail("division by zero")
                value /= rhs
        return value

    def factor(self) -> Fraction:
        if self.peek() == "-":
            self.pos += 1
            return -self.nested(self.factor)
        return self.atom()

    def atom(self) -> Fraction:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.nested(self.expr)
            if self.peek() != ")":
                raise self.fail("expected ')'")
            self.pos += 1
            return value
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos - start > MAX_EXPONENT:
                raise self.fail(f"integer literal longer than {MAX_EXPONENT} digits")
            return Fraction(int(self.text[start : self.pos]))
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in self.bindings:
                raise ValidationError(
                    f"unbound parameter {_clip(name)} in expression {_clip(self.text)}"
                )
            return Fraction(self.bindings[name])
        raise self.fail("expected a number, name, or '('")


def eval_expression(text: str, bindings: Mapping[str, Fraction] | None = None) -> Fraction:
    """Evaluate a probability expression ("1/2", "1-x", "x*y+1/4") exactly."""
    if not isinstance(text, str) or not text.strip():
        raise ValidationError(f"expression must be a nonempty string, got {_clip(text)}")
    parser = _ExprParser(text, bindings or {})
    value = parser.expr()
    if parser.peek():
        raise parser.fail("trailing input")
    return value


# --- parsing -----------------------------------------------------------------


def _need(obj: Mapping, key: str, kind: type, what: str):
    if key not in obj:
        raise ParseError(f"{what}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise ParseError(f"{what}: key {key!r} must be {kind.__name__}")
    return value


def _str_list(obj: Mapping, key: str, what: str) -> list[str]:
    value = _need(obj, key, list, what)
    if not all(isinstance(x, str) for x in value):
        raise ParseError(f"{what}: {key!r} entries must be strings")
    return value


def _record_walk(records_raw: list, kind: str) -> None:
    """Raise the ParseError of the first malformed transition record."""
    for i, rec in enumerate(records_raw):
        what = f"transition {i}"
        if not isinstance(rec, dict):
            raise ParseError(f"{what}: must be an object")
        _need(rec, "from", str, what)
        _need(rec, "letter", str, what)
        if "to" not in rec:
            raise ParseError(f"{what}: missing key 'to'")
        to = rec["to"]
        if isinstance(to, dict):  # JSON object keys are always strings
            if not all(isinstance(v, str) for v in to.values()):
                raise ParseError(f"{what}: 'to' map must be state -> expression string")
        elif isinstance(to, list):
            if kind != "npa":
                raise ParseError(f"{what}: target lists are only allowed in npa documents")
            if not all(isinstance(t, str) for t in to):
                raise ParseError(f"{what}: 'to' list entries must be strings")
        else:
            raise ParseError(f"{what}: 'to' must be a map or a list")


def _records(records_raw: list, kind: str) -> list[TransitionRecord] | None:
    """The transition records of freshly loaded JSON, or None if one is malformed.

    The shapes are checked in bulk, by the set of types in each field. The
    values belong to no one else, so the records take them without the public
    constructor's copies; only target lists become tuples.
    """
    try:
        sources = [rec["from"] for rec in records_raw]
        letters = [rec["letter"] for rec in records_raw]
        tos = [rec["to"] for rec in records_raw]
    except (KeyError, TypeError):  # a record without a key, or not an object
        return None
    to_types = set(map(type, tos))
    if not (
        set(map(type, sources)) | set(map(type, letters)) <= {str}
        and to_types <= ({dict, list} if kind == "npa" else {dict})
        and set(map(type, chain.from_iterable(
            to.values() if to.__class__ is dict else to for to in tos))) <= {str}
    ):
        return None
    if list in to_types:  # equal target lists share one tuple
        shared: dict[tuple, tuple] = {}
        tos = [shared.setdefault(t := tuple(to), t) if to.__class__ is list else to for to in tos]
    records = list(map(object.__new__, repeat(TransitionRecord, len(tos))))
    for field, values in (("source", sources), ("letter", letters), ("to", tos)):
        deque(map(getattr(TransitionRecord, field).__set__, records, values), maxlen=0)
    return records


def parse_document(text: str) -> AutomatonDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:
        # Numbers past Python's int-to-str digit limit, or nesting past its stack.
        raise ParseError(f"unreadable JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ParseError("document root must be an object")
    kind = _need(raw, "kind", str, "document")
    if kind not in KINDS:
        raise ParseError(f"document: kind must be one of {', '.join(KINDS)}")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("document: name must be a string")
    params = raw.get("params", [])
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise ParseError("document: params must be a list of strings")
    states = _str_list(raw, "states", "document")
    alphabet = _str_list(raw, "alphabet", "document")
    initial = _need(raw, "initial", str, "document")
    final = _str_list(raw, "final", "document")
    records_raw = _need(raw, "transitions", list, "document")
    records = _records(records_raw, kind)
    if records is None:
        _record_walk(records_raw, kind)
    return AutomatonDocument(kind, states, alphabet, initial, final, records, name, params)


# --- document -> automaton ---------------------------------------------------

Automaton = Union[ProbAutomaton, NumberlessAutomaton, BuchiAutomaton]


def document_to_automaton(
    doc: AutomatonDocument,
    bindings: Mapping[str, Fraction] | None = None,
) -> Automaton:
    """Build the validated automaton a document denotes.

    A numberless document without bindings yields a NumberlessAutomaton; with
    bindings its expressions are evaluated and instantiated on the support the
    document lists, so a target whose expression evaluates to zero raises
    InconsistentSupport.
    "pa"/"pba" documents always evaluate expressions (bindings optional).
    """
    state_set = set(doc.states)
    for rec in doc.transitions:
        if rec.source not in state_set:
            raise ValidationError(f"transition from unknown state {rec.source!r}")
        for t in rec.to:
            if t not in state_set:
                raise ValidationError(f"transition to unknown state {t!r}")

    if doc.kind == "npa":
        targets: dict[tuple[str, str], tuple[str, ...]] = {}
        for rec in doc.transitions:
            pair = (rec.source, rec.letter)
            targets[pair] = targets.get(pair, ()) + tuple(rec.to)
        npa = NumberlessAutomaton.from_targets(
            doc.states, doc.alphabet, doc.initial, targets, doc.final
        )
        if bindings is None:
            return npa

    delta = bound_transitions(doc, bindings)
    if doc.kind == "npa":
        return instantiate(npa, delta)
    pa = ProbAutomaton(doc.states, doc.alphabet, doc.initial, delta, frozenset(doc.final))
    if doc.kind == "pba":
        return BuchiAutomaton(pa, frozenset(doc.final))
    return pa


def bound_transitions(
    doc: AutomatonDocument, bindings: Mapping[str, Fraction] | None = None
) -> dict[tuple[str, str], Distribution]:
    """The document's transition table with its expressions evaluated.

    Only the distributions are checked here; whether they fit the document's
    states and support is for the automaton built from them to say. Each
    distinct expression string is evaluated once, and records with the same
    "to" map share one Distribution.
    """
    delta: dict[tuple[str, str], Distribution] = {}
    value = functools.cache(lambda text: eval_expression(text, bindings))
    shared: dict[tuple[tuple[str, str], ...], Distribution] = {}  # by "to" map
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


def parse_automaton(
    text: str, bindings: Mapping[str, Fraction] | None = None
) -> Automaton:
    return document_to_automaton(parse_document(text), bindings)


# --- automaton -> document ---------------------------------------------------


def automaton_to_document(obj: Automaton, name: str | None = None) -> AutomatonDocument:
    """The document :func:`serialize_automaton` writes for ``obj``."""
    return parse_document(serialize_automaton(obj, name))


# The indentation json.dumps(indent=2) gives the items of a "to" value.
_TO_PAD = " " * 6
_quote = json.encoder.encode_basestring_ascii  # the escaper json.dumps uses
# A transition record is written as three pieces: _FROM and its source, the
# letter's piece, then its "to" value and _NEXT, which closes the record and
# opens the next; the last record's _NEXT becomes _LAST.
_FROM = '{\n      "from": '
_NEXT = "\n    },\n    "
_LAST = "\n    }\n  ]"


def _letter_piece(letter: str) -> str:
    return ',\n      "letter": ' + _quote(letter) + ',\n      "to": '


def _block(brackets: str, items: list[str], pad: str) -> str:
    """A JSON array or object of rendered ``items``, as ``json.dumps(indent=2)``
    prints it on a line indented by ``pad``."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _to_value(to, rank) -> str:
    """A "to" value: a target tuple, or a dict or Distribution of probabilities."""
    if isinstance(to, tuple):
        return _block("[]", [_quote(t) for t in sorted(to, key=rank)], _TO_PAD)
    items = [_quote(t) + ": " + _quote(str(to[t])) for t in sorted(to, key=rank)]
    return _block("{}", items, _TO_PAD)


def _write(kind, name, params, states, alphabet, initial, final, records) -> str:
    """The canonical document, built by one join of its pieces. ``records``
    yields the transitions' pieces in order, three per record (see _FROM)."""
    pieces = ['{\n  "kind": ' + _quote(kind)]
    if name is not None:
        pieces.append(',\n  "name": ' + _quote(name))
    if params:
        pieces.append(',\n  "params": ' + _block("[]", [_quote(p) for p in params], "  "))
    pieces += (
        ',\n  "states": ' + _block("[]", [_quote(s) for s in states], "  "),
        ',\n  "alphabet": ' + _block("[]", [_quote(c) for c in alphabet], "  "),
        ',\n  "initial": ' + _quote(initial),
        ',\n  "final": ' + _block("[]", [_quote(s) for s in final], "  "),
        ',\n  "transitions": [\n    ',
    )
    opened = len(pieces)
    pieces += records
    if len(pieces) == opened:
        pieces[-1] = ',\n  "transitions": []'
    else:
        pieces[-1] = pieces[-1][:-len(_NEXT)] + _LAST
    pieces.append("\n}\n")
    return "".join(pieces)


def serialize_document(doc: AutomatonDocument) -> str:
    """Canonical rendering: fixed key order, sorted transitions, 2-space
    indent, trailing newline."""
    order = {s: i for i, s in enumerate(doc.states)}
    letter_order = {c: i for i, c in enumerate(doc.alphabet)}
    try:
        ranked = sorted(doc.transitions, key=lambda r: (order[r.source], letter_order[r.letter]))
    except KeyError:  # name the first record with an unknown source or letter
        rec = next(r for r in doc.transitions if r.source not in order or r.letter not in letter_order)
        if rec.source not in order:
            raise ValidationError(f"transition from unknown state {rec.source!r}") from None
        raise ValidationError(f"transition on unknown letter {rec.letter!r}") from None

    def rank(t: str) -> int:  # targets not among the states sort last
        return order.get(t, len(order))

    sources = {s: _FROM + _quote(s) for s in doc.states}
    letters = {c: _letter_piece(c) for c in doc.alphabet}
    # One rendering per distinct "to"; maps and lists are cached apart, since
    # an empty map's items equal an empty list.
    maps: dict[tuple, str] = {}
    lists: dict[tuple, str] = {}
    records = []
    for rec in ranked:
        to = rec.to
        cache, key = (lists, to) if isinstance(to, tuple) else (maps, tuple(to.items()))
        text = cache.get(key)
        if text is None:
            text = cache[key] = _to_value(to, rank) + _NEXT
        records += (sources[rec.source], letters[rec.letter], text)
    return _write(doc.kind, doc.name, doc.params, doc.states, doc.alphabet,
                  doc.initial, sorted(doc.final, key=rank), records)


def serialize_automaton(obj: Automaton, name: str | None = None) -> str:
    """The canonical document of ``obj``, written straight from its integer
    rows: one "to" text per target state, and one per split pair."""
    if isinstance(obj, NumberlessAutomaton):
        kind, pa, final = "npa", obj, obj.final
    elif isinstance(obj, BuchiAutomaton):
        kind, pa, final = "pba", obj.automaton, obj.accepting
    elif isinstance(obj, ProbAutomaton):
        kind, pa, final = "pa", obj, obj.final
    else:
        raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")
    table, split = _table_and_split(pa)
    index, rows = table.index, table.rows
    quoted = [_quote(s) for s in pa.states]
    # Each target state's "to": a one-target list, or a Dirac.
    head, tail = ("[", "\n      ]") if kind == "npa" else ("{", ': "1"\n      }')
    texts = [head + "\n        " + q + tail + _NEXT for q in quoted]
    columns = {a: list(map(texts.__getitem__, rows[a])) for a in pa.alphabet}
    for (s, a), to in split.items():
        columns[a][index[s]] = _to_value(to, index.__getitem__) + _NEXT
    letters = [_letter_piece(c) for c in pa.alphabet]
    records = []
    for q, tos in zip(quoted, zip(*columns.values())):  # states x alphabet order
        records += chain.from_iterable(zip(repeat(_FROM + q), letters, tos))
    return _write(kind, name, (), pa.states, pa.alphabet, pa.initial,
                  sorted(final, key=index.__getitem__), records)
