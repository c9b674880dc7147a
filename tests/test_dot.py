from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfakit import (
    BuchiAutomaton,
    Distribution,
    NumberlessAutomaton,
    ProbAutomaton,
    buchi_reduction,
    build_simulation,
    dirac,
    export_dot,
    instantiate_simulation,
    random_simple_pa,
    seesaw_npa,
    seesaw_pa,
)


def edge_lines(text):
    return [l for l in text.splitlines() if " -> " in l and "__init__" not in l]


def dot_strings(line):
    """The quoted strings of a DOT line, read as Graphviz reads them: inside
    quotes, a backslash and the character after it are one pair. Each string
    comes back as its label fragments, split at the \\n pairs and unescaped;
    None if a string never closes."""
    strings, inside, chars = [], False, iter(line)
    for ch in chars:
        if not inside:
            if ch == '"':
                inside, fragments = True, [""]
        elif ch == '"':
            strings.append(fragments)
            inside = False
        elif ch == "\\":
            pair = next(chars, "")
            if pair == "n":
                fragments.append("")
            else:
                fragments[-1] += pair
        else:
            fragments[-1] += ch
    return None if inside else strings


class TestExportDot:
    def test_npa_frozen_edge_count(self):
        assert len(edge_lines(export_dot(seesaw_npa()))) == 13

    def test_pa_labels_carry_probabilities(self, seesaw_fast):
        text = export_dot(seesaw_fast)
        assert len(edge_lines(text)) == 13
        assert '"L1" -> "L1" [label="i, 1\\na, 3/4"];' in text

    def test_npa_labels_are_letters_only(self):
        text = export_dot(seesaw_npa())
        assert '"C1" -> "C1" [label="a\\nf"];' in text
        assert ", 1" not in text

    def test_structure(self, seesaw_fast):
        lines = export_dot(seesaw_fast).splitlines()
        assert lines[0] == "digraph automaton {"
        assert lines[-1] == "}"
        assert "  rankdir=LR;" in lines
        assert '  __init__ -> "C1";' in lines
        assert '  "L2" [shape=doublecircle];' in lines
        assert '  "C1" [shape=circle];' in lines

    def test_buchi_unwrapped(self, tiny_pa):
        ba = buchi_reduction(tiny_pa)
        text = export_dot(ba)
        assert '"q1" [shape=doublecircle];' in text
        assert "#" in text

    def test_quoting(self):
        pa = ProbAutomaton(
            ('q"0', "q1"),
            ("a",),
            'q"0',
            {
                ('q"0', "a"): Distribution({'q"0': F(1, 2), "q1": F(1, 2)}),
                ("q1", "a"): dirac("q1"),
            },
            frozenset({"q1"}),
        )
        text = export_dot(pa)
        assert '"q\\"0"' in text

    def test_deterministic_output(self, seesaw_fast):
        assert export_dot(seesaw_fast) == export_dot(seesaw_fast)

    @pytest.mark.parametrize("letter", ["a\\", "\\N", '"\\', "\\\\n"])
    def test_letters_with_backslashes_close_their_labels(self, letter):
        targets = {("p", letter): ("p", "q"), ("p", "b"): ("q",),
                   ("q", letter): ("q",), ("q", "b"): ("q",)}
        npa = NumberlessAutomaton(("p", "q"), (letter, "b"), "p", targets, {"q"})
        pa = ProbAutomaton(("p", "q"), (letter, "b"), "p", {
            pair: Distribution({t: F(1, len(ts)) for t in ts}) for pair, ts in targets.items()
        }, {"q"})
        for obj, cut in ((npa, lambda f: f), (pa, lambda f: f.rpartition(", ")[0])):
            lines = edge_lines(export_dot(obj))
            assert len(lines) == 3
            for line in lines:
                strings = dot_strings(line)
                assert strings is not None and len(strings) == 3, line
                assert {cut(f) for f in strings[2]} <= {letter, "b"}, line
            assert [cut(f) for f in dot_strings(lines[0])[2]] == [letter]  # p -> p


def reference_export_dot(obj):
    """The renderer that looked up every (state, letter) pair through the
    automaton's public interface, kept here as the reference."""
    if isinstance(obj, BuchiAutomaton):
        obj = obj.automaton

    def quote(s):
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];",
             '  __init__ [shape=point, style=invis, label=""];']
    for s in obj.states:
        lines.append(f"  {quote(s)} [shape={'doublecircle' if s in obj.final else 'circle'}];")
    lines.append(f"  __init__ -> {quote(obj.initial)};")
    order = {s: i for i, s in enumerate(obj.states)}
    labels = {}
    for s in obj.states:
        for c in obj.alphabet:
            e = quote(c)[1:-1]  # a letter is escaped as an id is
            if isinstance(obj, ProbAutomaton):
                fragments = [(t, f"{e}, {p}") for t, p in obj.delta[(s, c)].items()]
            else:
                fragments = [(t, e) for t in obj.targets(s, c)]
            for t, fragment in fragments:
                labels.setdefault((s, t), []).append(fragment)
    for s, t in sorted(labels, key=lambda st: (order[st[0]], order[st[1]])):
        label = "\\n".join(labels[(s, t)])
        lines.append(f'  {quote(s)} -> {quote(t)} [label="{label}"];')
    return "\n".join(lines + ["}"]) + "\n"


ids = st.text(st.sampled_from('ab"\\\n,'), min_size=1, max_size=3)


@st.composite
def automata(draw):
    """pa, pba and npa objects whose ids hold quotes, backslashes and newlines."""
    states = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    alphabet = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    final = draw(st.frozensets(st.sampled_from(states)))
    hits = st.lists(st.sampled_from(states), min_size=1, max_size=3, unique=True)
    table = {(s, c): draw(hits) for s in states for c in alphabet}
    kind = draw(st.sampled_from(("pa", "npa", "pba")))
    if kind == "npa":
        return NumberlessAutomaton(states, alphabet, states[0], table, final)
    delta = {pair: Distribution({t: F(1, len(ts)) for t in ts}) for pair, ts in table.items()}
    pa = ProbAutomaton(states, alphabet, states[0], delta, final)
    return BuchiAutomaton(pa, final) if kind == "pba" else pa


class TestAgainstReference:
    @given(automata())
    @settings(max_examples=150, deadline=None)
    def test_tricky_ids(self, obj):
        assert export_dot(obj) == reference_export_dot(obj)

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2)])
    def test_compiled_automata(self, shape):
        sim = build_simulation(random_simple_pa(0, *shape))
        inst = instantiate_simulation(sim, F(1, 3), F(1, 2))  # a skeleton view
        for obj in (sim.npa, inst, sim.checker, seesaw_npa(), seesaw_pa(F(3, 4), F(1, 4))):
            assert export_dot(obj) == reference_export_dot(obj)
