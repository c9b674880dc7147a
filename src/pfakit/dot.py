"""Graphviz DOT rendering of automata.

Deterministic output: nodes in declaration order, one merged edge per
(source, target) pair with letter labels stacked in alphabet order. Final
states are drawn as double circles; an invisible point marks the initial
state. Probabilistic edges are labeled "letter, p/q"; numberless edges with
letters only.
"""

from __future__ import annotations

from typing import Union

from .core import NumberlessAutomaton, ProbAutomaton, ordered_delta
from .constructions import BuchiAutomaton


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(obj: Union[ProbAutomaton, NumberlessAutomaton, BuchiAutomaton]) -> str:
    if isinstance(obj, BuchiAutomaton):
        obj = obj.automaton
    lines = [
        "digraph automaton {",
        "  rankdir=LR;",
        "  node [shape=circle];",
        '  __init__ [shape=point, style=invis, label=""];',
    ]
    quoted = {s: _quote(s) for s in obj.states}
    for s in obj.states:
        shape = "doublecircle" if s in obj.final else "circle"
        lines.append(f"  {quoted[s]} [shape={shape}];")
    lines.append(f"  __init__ -> {quoted[obj.initial]};")

    order = {s: i for i, s in enumerate(obj.states)}
    # Stacked labels keep their literal \n separators, so letters escape quotes only.
    letters = [c.replace('"', '\\"') for c in obj.alphabet]
    k = len(letters)
    if isinstance(obj, ProbAutomaton):
        rows = ordered_delta(obj)  # in states x alphabet order

        def fragments(i):
            return ((t, f"{e}, {p}") for e, d in zip(letters, rows[i * k:i * k + k])
                    for t, p in d.items())
    else:
        tos = obj.support.table.ordered()  # in states x alphabet order

        def fragments(i):
            return ((t, e) for e, ts in zip(letters, tos[i * k:i * k + k]) for t in ts)

    for i, s in enumerate(obj.states):
        labels: dict[str, list[str]] = {}  # target -> label fragments, alphabet order
        for t, fragment in fragments(i):
            labels.setdefault(t, []).append(fragment)
        for t in sorted(labels, key=order.__getitem__):
            label = "\\n".join(labels[t])
            lines.append(f'  {quoted[s]} -> {quoted[t]} [label="{label}"];')
    lines.append("}\n")
    return "\n".join(lines)
