"""Graphviz DOT rendering of automata.

Deterministic output: nodes in declaration order, one merged edge per
(source, target) pair with letter labels stacked in alphabet order. Final
states are drawn as double circles; an invisible point marks the initial
state. Probabilistic edges are labeled "letter, p/q"; numberless edges with
letters only.
"""

from __future__ import annotations

from typing import Union

from .core import NumberlessAutomaton, ProbAutomaton, _exact, _table_and_split
from .constructions import BuchiAutomaton


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _quote(s: str) -> str:
    return '"' + _escape(s) + '"'


def export_dot(obj: Union[ProbAutomaton, NumberlessAutomaton, BuchiAutomaton]) -> str:
    if isinstance(obj, BuchiAutomaton):
        obj = obj.automaton
    lines = [
        "digraph automaton {",
        "  rankdir=LR;",
        "  node [shape=circle];",
        '  __init__ [shape=point, style=invis, label=""];',
    ]
    quoted = [_quote(s) for s in obj.states]
    for s, q in zip(obj.states, quoted):
        shape = "doublecircle" if s in obj.final else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append(f"  __init__ -> {_quote(obj.initial)};")

    table, split = _table_and_split(obj)
    index = table.index
    # Stacked labels keep their literal \n separators, so each letter is escaped alone.
    one = ", 1" if isinstance(obj, ProbAutomaton) else ""  # a Dirac's probability
    letters = [(a, _escape(a), table.rows[a]) for a in obj.alphabet]
    for i, (s, q) in enumerate(zip(obj.states, quoted)):
        labels: dict[int, list[str]] = {}  # target -> label fragments, alphabet order
        for a, e, row in letters:
            hits = split.get((s, a))  # a split pair's targets, or its distribution
            if hits is None:
                labels.setdefault(row[i], []).append(e + one)
            else:
                for t in hits:
                    labels.setdefault(index[t], []).append(f"{e}, {_exact(hits[t])}" if one else e)
        for t in sorted(labels):
            label = "\\n".join(labels[t])
            lines.append(f'  {q} -> {quoted[t]} [label="{label}"];')
    lines.append("}\n")
    return "\n".join(lines)
