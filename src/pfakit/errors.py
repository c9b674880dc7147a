"""Exception taxonomy shared by every pfakit module.

ValidationError covers every "well-formed input violates an invariant"
failure; the specific subclasses exist so callers can tell the common cases
apart without string matching.
"""


class AutomatonError(Exception):
    """Base class for all pfakit errors."""


class ValidationError(AutomatonError):
    """A well-formed document or automaton violates an invariant."""


class NotADistribution(ValidationError):
    """Entries are negative or do not sum to one."""


class UnknownLetter(ValidationError):
    """A word uses a letter outside the automaton's alphabet."""


class UnknownState(ValidationError):
    """A state id is not part of the automaton."""


class InconsistentSupport(ValidationError):
    """An instantiation disagrees with a support relation (missing or extra mass)."""


class NotSimple(ValidationError):
    """A construction needs transition probabilities in {0, 1/2, 1} only."""


class OrderMismatch(ValidationError):
    """A state enumeration is empty, has duplicates, or disagrees with the automaton."""


class DomainError(AutomatonError):
    """A numeric parameter is outside its admissible range."""


class AlphabetClash(AutomatonError):
    """A construction would add a letter the automaton already has."""


class BudgetExceeded(AutomatonError):
    """A search exceeded its belief budget (the error keeps the best word found
    and its value as ``word`` and ``value``), or a sweep its grid-point bound."""

    def __init__(self, message: str, word=None, value=None):
        super().__init__(message)
        self.word, self.value = word, value


class EmptyCycle(AutomatonError):
    """A lasso word needs a nonempty cycle."""


class PreconditionFailed(AutomatonError):
    """A verification operation was called outside its stated precondition."""


class ParseError(AutomatonError):
    """A document is not well-formed; the message carries the position."""
