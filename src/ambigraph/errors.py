"""Exception taxonomy for ambigraph.

Errors fall into three bands: bad user input (usage), structural surprises
that would falsify an assumption the algorithms rely on (DichotomyViolation,
InternalInconsistency), and resource guards (limits).
"""


class AmbigraphError(Exception):
    """Base class for all ambigraph errors."""


# --- input validation ---------------------------------------------------

class ZeroDenominator(AmbigraphError):
    pass


class NotDivisible(AmbigraphError):
    pass


class NotPrimitive(AmbigraphError):
    pass


class SquareN(AmbigraphError):
    pass


class NonPositiveN(AmbigraphError):
    pass


class NegativeInput(AmbigraphError):
    pass


class ZeroInput(AmbigraphError):
    pass


class MismatchedN(AmbigraphError):
    pass


class NotOddPrime(AmbigraphError):
    pass


class PNotDividesN(AmbigraphError):
    pass


class NNotDivisibleBy8(AmbigraphError):
    pass


class ParseError(AmbigraphError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class UnknownOrbit(AmbigraphError):
    pass


# --- resource guards ----------------------------------------------------

class LimitExceeded(AmbigraphError):
    pass


class CycleLimitExceeded(AmbigraphError):
    pass


# --- structural surprises ----------------------------------------------

class DichotomyViolation(AmbigraphError):
    """Neither or both of y(x(e)), y^2(x(e)) is ambiguous.

    Carries both candidate triples so a counterexample can be reported
    verbatim instead of vanishing into a stack trace.
    """

    def __init__(self, element, candidate_y, candidate_yy, n=None):
        self.element = element
        self.candidate_y = candidate_y
        self.candidate_yy = candidate_yy
        self.n = n
        where = "" if n is None else f" (n={n})"
        super().__init__(
            f"dichotomy violated at {element}{where}: "
            f"y-branch {candidate_y}, y2-branch {candidate_yy}"
        )


class OddBlockCount(AmbigraphError):
    pass


class InternalInconsistency(AmbigraphError):
    pass
