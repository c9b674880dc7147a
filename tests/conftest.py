from fractions import Fraction

import pytest

from pfakit import (
    Distribution,
    ProbAutomaton,
    dirac,
    seesaw_npa,
    seesaw_pa,
)

HALF = Fraction(1, 2)


@pytest.fixture(scope="session")
def seesaw_fast():
    """x=3/4, y=1/4: the value-1 instantiation."""
    return seesaw_pa(Fraction(3, 4), Fraction(1, 4))


@pytest.fixture(scope="session")
def seesaw_even():
    """x=y=1/2: the simple, non-value-1 instantiation."""
    return seesaw_pa(HALF, HALF)


@pytest.fixture(scope="session")
def seesaw_support():
    return seesaw_npa()


@pytest.fixture(scope="session")
def tiny_pa():
    """Two states, one letter: q0 splits evenly, q1 absorbs and accepts."""
    delta = {
        ("q0", "a"): Distribution({"q0": HALF, "q1": HALF}),
        ("q1", "a"): dirac("q1"),
    }
    return ProbAutomaton(("q0", "q1"), ("a",), "q0", delta, frozenset({"q1"}))
