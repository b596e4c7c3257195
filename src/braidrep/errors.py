"""Exception taxonomy shared by every module.

Each class carries the CLI exit code of its family as exit_code; the CLI
exits with it, and with 2 for any other usage error.
"""

from __future__ import annotations


class BraidrepError(Exception):
    """Base class for all library errors."""
    exit_code = 2


# -- usage / parse family (exit 2) -------------------------------------------

class WordSyntaxError(BraidrepError):
    """Input text does not match the word grammar."""


class UnknownMacro(WordSyntaxError):
    """Macro name not in the macro table."""


class IndexOutOfRange(BraidrepError):
    """Generator index outside the legal range for the group."""


class KindNotInGroup(BraidrepError):
    """Generator kind not available in the group family."""


class ZeroAssignment(BraidrepError):
    """Evaluation point has a zero coordinate; units must stay invertible."""


class DimMismatch(BraidrepError):
    """Matrix dimensions incompatible for the requested operation."""


class IncompatibleRepGroup(BraidrepError):
    """Representation is not defined on the given group family."""


# -- precondition family (exit 3) --------------------------------------------

class NotPure(BraidrepError):
    """Word's underlying permutation is not the identity."""
    exit_code = 3


class NonIntegerWinding(BraidrepError):
    """A strand pair's difference does not end exactly where it starts, so
    it winds no integer number of turns."""
    exit_code = 3


# -- genericity family (exit 4) ----------------------------------------------

class NonGenericInput(BraidrepError):
    """Trajectories violate a genericity margin (tangency, coincidence,
    event separation, boundary event). Carries the offending time and,
    when known, the strand pair."""
    exit_code = 4

    def __init__(self, message: str, time: float | None = None,
                 pair: tuple[int, int] | None = None):
        detail = message
        if time is not None:
            detail += f" at t={time!r}"
        if pair is not None:
            detail += f" for pair {pair!r}"
        super().__init__(detail)
        self.time = time
        self.pair = pair


class SeparationViolated(BraidrepError):
    """Two strands come closer than the separation tolerance."""
    exit_code = 4


class PunctureCollision(BraidrepError):
    """A normalized strand comes within tolerance of a puncture (0 or 1)."""
    exit_code = 4


# -- linking family (exit 5) --------------------------------------------------

class NonZeroLinking(BraidrepError):
    """A strand pair has nonzero linking number where zero is required."""
    exit_code = 5

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        if pair is not None:
            message += f" for pair {pair!r}"
        super().__init__(message)
        self.pair = pair
