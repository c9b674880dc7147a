"""The bundled "seesaw" automaton: two racing self-loop branches.

Reading ``i`` (init) from the hub C1 splits the run evenly into a left lane L1
and a right lane R1. Each ``a`` (advance) keeps a lane alive with its own bias
(x on the left, y on the right) and leaks the rest into a shared corridor C2.
``f`` (finish) promotes live lanes to their terminal states (L2 accepting, R2
not) and recycles the corridor back to the hub. Undrawn combinations stay
put, so the automaton is total with exactly six states.

The family is the standard witness that a tiny parameter flip swings the
value: x > y lets repeated init/advance/finish rounds push acceptance
arbitrarily close to 1, while x <= y caps every word at 1/2.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Distribution, NumberlessAutomaton, ProbAutomaton, dirac, instantiate

STATES = ("C1", "C2", "L1", "L2", "R1", "R2")
ALPHABET = ("i", "a", "f")
INITIAL = "C1"
FINAL = frozenset({"L2"})

# (state, letter) -> targets; probabilities live in seesaw_delta.
_SUPPORT: dict[tuple[str, str], tuple[str, ...]] = {
    ("C1", "i"): ("L1", "R1"),
    ("C1", "a"): ("C1",),
    ("C1", "f"): ("C1",),
    ("C2", "i"): ("C2",),
    ("C2", "a"): ("C2",),
    ("C2", "f"): ("C1",),
    ("L1", "i"): ("L1",),
    ("L1", "a"): ("L1", "C2"),
    ("L1", "f"): ("L2",),
    ("L2", "i"): ("L2",),
    ("L2", "a"): ("L2",),
    ("L2", "f"): ("L2",),
    ("R1", "i"): ("R1",),
    ("R1", "a"): ("R1", "C2"),
    ("R1", "f"): ("R2",),
    ("R2", "i"): ("R2",),
    ("R2", "a"): ("R2",),
    ("R2", "f"): ("R2",),
}


def seesaw_npa() -> NumberlessAutomaton:
    """The seesaw support skeleton (no numbers)."""
    return NumberlessAutomaton(STATES, ALPHABET, INITIAL, _SUPPORT, FINAL)


def seesaw_delta(x: Fraction, y: Fraction) -> dict[tuple[str, str], Distribution]:
    """The full transition table for lane biases x (left) and y (right)."""
    x = Fraction(x)
    y = Fraction(y)
    half = Fraction(1, 2)
    delta: dict[tuple[str, str], Distribution] = {}
    for (s, a), targets in _SUPPORT.items():
        if len(targets) == 1:
            delta[(s, a)] = dirac(targets[0])
    delta[("C1", "i")] = Distribution({"L1": half, "R1": half})
    delta[("L1", "a")] = Distribution({"L1": x, "C2": 1 - x})
    delta[("R1", "a")] = Distribution({"R1": y, "C2": 1 - y})
    return delta


def seesaw_pa(x: Fraction, y: Fraction) -> ProbAutomaton:
    """The seesaw automaton at biases (x, y); both must lie strictly in (0, 1)."""
    return instantiate(seesaw_npa(), seesaw_delta(x, y))
