from fractions import Fraction as F

from pfakit import (
    Distribution,
    ProbAutomaton,
    buchi_reduction,
    dirac,
    export_dot,
    seesaw_npa,
    seesaw_pa,
)


def edge_lines(text):
    return [l for l in text.splitlines() if " -> " in l and "__init__" not in l]


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
