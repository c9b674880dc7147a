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
letter's column of texts straight from its row. A probability with more
digits than a document's literals may hold is refused before any rendering.
serialize_document(parse_document(text)) == text for canonical text;
expression strings are preserved verbatim, and loading evaluates each
distinct one once.

A parsed document keeps its transitions as the three columns ``json.loads``
yields: "from", "letter" and "to", with equal target lists sharing one
tuple. Its :class:`TransitionRecord` objects are built only when
``AutomatonDocument.transitions`` is first read, which nothing in the library
does. parse_document checks the columns' shapes in bulk, by the set of types
in each field. document_to_automaton has one path: it puts the "to" column in
states x alphabet order (documents the library writes already are; an npa's
records for one pair merge there), checks it in bulk, and hands each pair's
first target, or its targets, to the row writer in :mod:`pfakit.core`, which
alone knows the row format. The records are walked one by one only when a
bulk check fails, and that walk raises, naming the first offender.

Structural problems (bad JSON, wrong shapes) raise ParseError; semantic
problems (unknown ids, bad sums, unbound parameters) raise ValidationError.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import chain, compress, product, repeat
from typing import NoReturn, Union

from .core import (
    MAX_EXPONENT, Distribution, NumberlessAutomaton, ProbAutomaton, SupportTriples, _SkeletonDelta,
    _table_and_split, _write_rows, instantiate,
)
from .constructions import BuchiAutomaton
from .errors import AutomatonError, NotADistribution, ParseError, ValidationError

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


_FIELDS = ("kind", "states", "alphabet", "initial", "final", "transitions", "name", "params")


class AutomatonDocument:
    """A document: its header fields, and its transitions as three columns.

    The columns hold each record's "from", "letter" and "to" (a dict target
    -> expression, or a tuple of targets) in record order. ``transitions``,
    the :class:`TransitionRecord` of each, is built on first read, so
    documents that :func:`parse_document` reads and the library loads or
    writes never build one. The constructor takes records, as before; equality,
    hashing and ``repr`` are those of the dataclass with the fields of
    ``_FIELDS``, and the document is frozen.
    """

    def __init__(self, kind: str, states: Sequence[str], alphabet: Sequence[str], initial: str,
                 final: Sequence[str], transitions: Iterable[TransitionRecord],
                 name: str | None = None, params: Sequence[str] = ()):
        records = tuple(transitions)
        columns = ([r.source for r in records], [r.letter for r in records], [r.to for r in records])
        self._fill(kind, states, alphabet, initial, final, columns, name, params)
        self.__dict__["transitions"] = records

    @classmethod
    def _of_columns(cls, kind, states, alphabet, initial, final, columns, name, params):
        """A document over ``columns``, lists that belong to it alone."""
        doc = cls.__new__(cls)
        doc._fill(kind, states, alphabet, initial, final, columns, name, params)
        return doc

    def _fill(self, kind, states, alphabet, initial, final, columns, name, params) -> None:
        self.__dict__.update(kind=kind, states=tuple(states), alphabet=tuple(alphabet),
                             initial=initial, final=tuple(final), _columns=columns, name=name,
                             params=tuple(params))
        if kind not in KINDS:
            raise ValidationError(f"unknown document kind {kind!r}")

    @functools.cached_property
    def transitions(self) -> tuple[TransitionRecord, ...]:
        """One record per transition, built on first read. The records take
        the columns' values without the copies the public constructor makes."""
        records = tuple(map(object.__new__, repeat(TransitionRecord, len(self._columns[0]))))
        for field, values in zip(("source", "letter", "to"), self._columns):
            deque(map(getattr(TransitionRecord, field).__set__, records, values), maxlen=0)
        return records

    def _compared(self) -> tuple:
        """The fields, with the columns standing in for the records."""
        return (self.kind, self.states, self.alphabet, self.initial, self.final, self._columns,
                self.name, self.params)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in _FIELDS))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in _FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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


def _columns(records_raw: list, kind: str) -> tuple[list, list, list] | None:
    """The "from", "letter" and "to" columns of freshly loaded records, or
    None if one is malformed.

    The shapes are checked in bulk, by the set of types in each field. The
    values belong to no one else, so the columns take them as they are; only
    target lists become tuples, equal ones sharing one.
    """
    try:
        sources = [rec["from"] for rec in records_raw]
        letters = [rec["letter"] for rec in records_raw]
        tos = [rec["to"] for rec in records_raw]
    except (KeyError, TypeError):  # a record without a key, or not an object
        return None
    to_types = set(map(type, tos))
    if to_types == {dict}:
        entries = chain.from_iterable(map(dict.values, tos))
    elif to_types == {list}:
        entries = chain.from_iterable(tos)
    else:
        entries = chain.from_iterable(to.values() if to.__class__ is dict else to for to in tos)
    if not (
        set(map(type, sources)) | set(map(type, letters)) <= {str}
        and to_types <= ({dict, list} if kind == "npa" else {dict})
        and set(map(type, entries)) <= {str}
    ):
        return None
    if list in to_types:
        shared: dict[tuple, tuple] = {}
        tos = [shared.setdefault(t := tuple(to), t) if to.__class__ is list else to for to in tos]
    return sources, letters, tos


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
    columns = _columns(records_raw, kind)
    if columns is None:
        _record_walk(records_raw, kind)
    return AutomatonDocument._of_columns(kind, states, alphabet, initial, final, columns, name, params)


# --- document -> automaton ---------------------------------------------------

Automaton = Union[ProbAutomaton, NumberlessAutomaton, BuchiAutomaton]


def document_to_automaton(
    doc: AutomatonDocument,
    bindings: Mapping[str, Fraction] | None = None,
) -> Automaton:
    """Build the validated automaton a document denotes.

    A numberless document without bindings yields a NumberlessAutomaton; its
    records for one pair merge. With bindings its expressions are evaluated
    and instantiated on the support the document lists, so a target whose
    expression evaluates to zero raises InconsistentSupport.
    "pa"/"pba" documents always evaluate expressions (bindings optional),
    each distinct expression once.
    """
    obj = _from_columns(doc, bindings)
    if obj is None:
        _raise_first_offender(doc, bindings)
    return obj


def _from_columns(doc: AutomatonDocument, bindings) -> Automaton | None:
    """The automaton of ``doc``, or None when a bulk check fails: a source or
    target outside the states, a pair without exactly one record (an npa
    without bindings merges its records for one pair), a target list with
    bindings, an expression that fails, a map that is no distribution or, in
    an npa, gives a target zero mass, or a header the constructors refuse. A
    one-target map must evaluate to 1; only the other maps are read one by one."""
    states, alphabet = doc.states, doc.alphabet
    sources, _letters, tos = doc._columns
    if not set(states).issuperset(chain(sources, chain.from_iterable(tos))):
        return None
    support_only = doc.kind == "npa" and bindings is None
    tos = _pair_ordered(doc, merge=support_only)
    if tos is None:
        return None
    sizes = list(map(len, tos))
    # Where "to" does not have exactly one target: its targets, or its Distribution.
    odd = {k: tos[k] for k in compress(range(len(tos)), map((1).__ne__, sizes))}
    if not (all(odd.values()) if support_only else set(map(type, tos)) <= {dict}):
        return None  # a pair without targets, or a target list with bindings
    if not support_only:
        singles = set(chain.from_iterable(map(dict.values, compress(tos, map((1).__eq__, sizes)))))
        try:
            value = {e: eval_expression(e, bindings)
                     for e in singles.union(*map(dict.values, odd.values()))}
        except (AutomatonError, ArithmeticError, TypeError, ValueError):
            return None
        if any(value[e] != 1 for e in singles):  # a one-target map is a Dirac or no distribution
            return None
        shared: dict[tuple, Distribution] = {}  # by the map's items
        for k, to in odd.items():
            items = tuple(to.items())
            if items not in shared:
                try:
                    shared[items] = Distribution({t: value[e] for t, e in items})
                except NotADistribution:
                    return None
                if doc.kind == "npa" and len(shared[items]) < len(items):
                    return None
            odd[k] = shared[items]
    heads = list(tos)
    for k in odd:
        heads[k] = states[:1]  # any one state: the writer overwrites it
    index = {s: i for i, s in enumerate(states)}
    firsts = list(map(index.__getitem__, chain.from_iterable(heads)))
    table, split = _write_rows(states, alphabet, index, firsts, odd)
    try:  # the constructors check the ids and the initial and final states
        if support_only:
            return NumberlessAutomaton(states, alphabet, doc.initial, SupportTriples(table), doc.final)
        pa = ProbAutomaton(states, alphabet, doc.initial, _SkeletonDelta(table, split), frozenset(doc.final))
    except ValidationError:
        return None
    return BuchiAutomaton(pa, frozenset(doc.final)) if doc.kind == "pba" else pa


def _raise_first_offender(doc: AutomatonDocument, bindings) -> NoReturn:
    """Raise the error of the first offending record or pair of a document
    whose bulk checks failed: a record with an unknown state, else whatever
    bound_transitions, the per-pair constructors and instantiate report."""
    sources, letters, tos = doc._columns
    state_set = set(doc.states)
    for source, to in zip(sources, tos):
        if source not in state_set:
            raise ValidationError(f"transition from unknown state {source!r}")
        for t in to:
            if t not in state_set:
                raise ValidationError(f"transition to unknown state {t!r}")
    if doc.kind == "npa":
        targets: dict[tuple[str, str], tuple[str, ...]] = {}
        for pair, to in zip(zip(sources, letters), tos):  # an npa's records for one pair merge
            targets[pair] = targets.get(pair, ()) + tuple(to)
        npa = NumberlessAutomaton(doc.states, doc.alphabet, doc.initial, targets, doc.final)
        if bindings is not None:
            instantiate(npa, bound_transitions(doc, bindings))
    else:
        ProbAutomaton(doc.states, doc.alphabet, doc.initial, bound_transitions(doc, bindings), doc.final)
    raise AssertionError("a document failed its bulk checks but has no offender")


def _in_pair_order(doc: AutomatonDocument) -> bool:
    """True iff the records run through states x alphabet, one per pair, in
    that order, over distinct states and letters. Every document the library
    writes does."""
    sources, letters, _ = doc._columns
    states, alphabet = doc.states, doc.alphabet
    return (len(set(states)) == len(states) and len(set(alphabet)) == len(alphabet)
            and letters == list(alphabet) * len(states)
            and sources == [s for s in states for _ in alphabet])


def _pair_ordered(doc: AutomatonDocument, merge: bool) -> list | None:
    """The "to" column in states x alphabet order, or None unless the records
    name every pair exactly once. With ``merge``, records without targets are
    dropped, and several records for one pair join into one tuple of targets."""
    sources, letters, tos = doc._columns
    if len(tos) == len(doc.states) * len(doc.alphabet) and _in_pair_order(doc):
        return tos
    if merge:
        at: dict[tuple[str, str], Targets] = {}
        for pair, to in zip(zip(sources, letters), tos):
            if to:
                at[pair] = at.get(pair, ()) + tuple(to)
    else:
        at = dict(zip(zip(sources, letters), tos))
        if len(at) < len(tos):  # several records for one pair
            return None
    ordered = list(map(at.get, product(doc.states, doc.alphabet)))
    return ordered if len(at) == len(ordered) and None not in ordered else None


def bound_transitions(
    doc: AutomatonDocument, bindings: Mapping[str, Fraction] | None = None
) -> dict[tuple[str, str], Distribution]:
    """The document's transition table with its expressions evaluated.

    Only the distributions are checked here; whether they fit the document's
    states and support is for the automaton built from them to say. Each
    distinct expression string is evaluated once, and records with the same
    "to" map share one Distribution. The records are walked in order, so the
    first offending one is named.
    """
    delta: dict[tuple[str, str], Distribution] = {}
    value = functools.cache(lambda text: eval_expression(text, bindings))
    shared: dict[tuple[tuple[str, str], ...], Distribution] = {}  # by "to" map
    sources, letters, tos = doc._columns
    for pair, to in zip(zip(sources, letters), tos):
        if not isinstance(to, dict):
            raise ValidationError(
                f"({pair[0]!r}, {pair[1]!r}) lists support only; it cannot "
                "be instantiated with parameter bindings"
            )
        if pair in delta:
            raise ValidationError(f"duplicate transition record for {pair!r}")
        key = tuple(to.items())
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


# Takes the place of a "to" that is rendered on its own, so that the one-entry
# maps around it stay aligned in bulk; a real map {"": ""} has the same text.
_STAND_IN = {"": ""}


def _to_texts(tos: list, rank) -> list[str]:
    """Each "to" value's text followed by _NEXT; each distinct value is
    rendered once. Target tuples are keyed by themselves, and one-entry maps,
    nearly every map of a compiled document, in bulk by (target, expression)."""
    types = set(map(type, tos))
    if types == {tuple}:
        lists = {to: _to_value(to, rank) + _NEXT for to in set(tos)}
        return list(map(lists.__getitem__, tos))
    # Every other value is rendered on its own (odd), a _STAND_IN in its place.
    if types == {dict}:
        odd = list(compress(range(len(tos)), map((1).__ne__, map(len, tos))))
    else:
        odd = [k for k, to in enumerate(tos) if to.__class__ is not dict or len(to) != 1]
    heads = list(tos)
    for k in odd:
        heads[k] = _STAND_IN
    keys = list(zip(chain.from_iterable(heads), chain.from_iterable(map(dict.values, heads))))
    singles = {key: _to_value(dict((key,)), rank) + _NEXT for key in set(keys)}
    texts = list(map(singles.__getitem__, keys))
    # Maps and lists are cached apart, since an empty map's items equal an empty list.
    maps: dict[tuple, str] = {}
    lists = {}
    for k in odd:
        to = tos[k]
        cache, key = (lists, to) if isinstance(to, tuple) else (maps, tuple(to.items()))
        text = cache.get(key)
        if text is None:
            text = cache[key] = _to_value(to, rank) + _NEXT
        texts[k] = text
    return texts


def serialize_document(doc: AutomatonDocument) -> str:
    """Canonical rendering: fixed key order, sorted transitions, 2-space
    indent, trailing newline."""
    sources, letters, tos = doc._columns
    if not _in_pair_order(doc):
        position = {pair: k for k, pair in enumerate(product(doc.states, doc.alphabet))}
        try:
            at = list(map(position.__getitem__, zip(sources, letters)))
        except KeyError:  # name the first record with an unknown source or letter
            known, letters_known = set(doc.states), set(doc.alphabet)
            s, a = next((s, a) for s, a in zip(sources, letters) if s not in known or a not in letters_known)
            if s not in known:
                raise ValidationError(f"transition from unknown state {s!r}") from None
            raise ValidationError(f"transition on unknown letter {a!r}") from None
        ranked = sorted(range(len(at)), key=at.__getitem__)
        sources, letters, tos = ([column[k] for k in ranked] for column in doc._columns)
    order = {s: i for i, s in enumerate(doc.states)}

    def rank(t: str) -> int:  # targets not among the states sort last
        return order.get(t, len(order))

    froms = {s: _FROM + _quote(s) for s in doc.states}
    pieces = {c: _letter_piece(c) for c in doc.alphabet}
    records = chain.from_iterable(zip(map(froms.__getitem__, sources), map(pieces.__getitem__, letters),
                                      _to_texts(tos, rank)))
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
    if kind != "npa":
        _check_lengths(split, index, pa.alphabet)
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


# A document's integer literals have at most MAX_EXPONENT digits, the bound
# the expression parser reads, and Python renders no longer int by default.
_TOO_LONG = 10**MAX_EXPONENT


def _check_lengths(split: Mapping, index, alphabet) -> None:
    """Raise ValidationError naming the first split pair, in states x alphabet
    order, with a probability of more than MAX_EXPONENT digits. Each distinct
    value is checked once; as 0 < p <= 1, its denominator is its longest part."""
    values = {p for d in {id(d): d for d in split.values()}.values() for p in d._entries.values()}
    if all(p.denominator < _TOO_LONG for p in values):
        return
    letter_at = {a: j for j, a in enumerate(alphabet)}
    for s, a in sorted(split, key=lambda pair: (index[pair[0]], letter_at[pair[1]])):
        if any(p.denominator >= _TOO_LONG for p in split[(s, a)]._entries.values()):
            raise ValidationError(
                f"cannot write ({s!r}, {a!r}): a probability has more than {MAX_EXPONENT} digits"
            )
