"""Exact representation of real quadratic irrationals and the generator action.

An element is the real number (a + sqrt(n))/c, stored as the integer triple
(a, b, c) with b = (a^2 - n)/c.  The triple determines the value uniquely;
equality is always exact triple equality, never floating point.

The modular group acts through the two elliptic generators
x: alpha -> -1/alpha and y: alpha -> (alpha - 1)/alpha, which on triples
become the integer substitutions implemented below.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import (
    NonPositiveN,
    NotDivisible,
    NotPrimitive,
    SquareN,
    ZeroDenominator,
)


@lru_cache(maxsize=4096)
def _is_square(n: int) -> bool:
    s = isqrt(n)
    return s * s == n


# Triple-level generator action, used by the hot loops in diagram, cf and
# classify where constructing Element objects per step would dominate.

def x_triple(t):
    a, b, c = t
    return (-a, c, b)


def y_triple(t):
    a, b, c = t
    return (b - a, b - 2 * a + c, b)


def yy_triple(t):
    a, b, c = t
    return (c - a, c, b - 2 * a + c)


def conj_triple(t):
    a, b, c = t
    return (-a, -b, -c)


def check_triple(t, n):
    """Raise unless (a, b, c) is a valid triple of n: c != 0, bc = a^2 - n
    and gcd(a, b, c) = 1."""
    a, b, c = t
    if c == 0:
        raise ZeroDenominator("c must be nonzero")
    if b * c != a * a - n:
        raise NotDivisible(f"bc = a^2 - n fails for ({a},{b},{c}|{n})")
    if gcd(gcd(a, b), c) != 1:
        raise NotPrimitive(f"gcd(a,b,c) > 1 for ({a},{b},{c}|{n})")


def triple_str(t, n) -> str:
    """The wire form "a,b,c|n" of the triple t of n."""
    a, b, c = t
    return f"{a},{b},{c}|{n}"


@dataclass(frozen=True, order=False)
class Element:
    """The quadratic irrational (a + sqrt(n))/c with b = (a^2 - n)/c."""

    a: int
    b: int
    c: int
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise NonPositiveN(f"n must be positive, got {self.n}")
        if _is_square(self.n):
            raise SquareN(f"n must be nonsquare, got {self.n}")
        check_triple(self.triple, self.n)

    @property
    def triple(self):
        return (self.a, self.b, self.c)

    def __str__(self):
        return triple_str(self.triple, self.n)

    @classmethod
    def from_triple(cls, t, n):
        return cls(t[0], t[1], t[2], n)

    @classmethod
    def parse(cls, text: str) -> "Element":
        """Parse the wire form "a,b,c|n" (decimal, no spaces)."""
        from .errors import ParseError

        try:
            abc, n = text.split("|")
            a, b, c = (int(v) for v in abc.split(","))
            return cls(a, b, c, int(n))
        except ValueError as exc:
            raise ParseError(f"bad element literal {text!r}: {exc}") from exc


def make_element(a: int, c: int, n: int) -> Element:
    """Build the element (a + sqrt(n))/c, deriving and validating b."""
    if n <= 0:
        raise NonPositiveN(f"n must be positive, got {n}")
    if _is_square(n):
        raise SquareN(f"n must be nonsquare, got {n}")
    if c == 0:
        raise ZeroDenominator("c must be nonzero")
    num = a * a - n
    if num % c != 0:
        raise NotDivisible(f"c={c} does not divide a^2-n={num}")
    return Element(a, num // c, c, n)


def apply_x(e: Element) -> Element:
    """x: alpha -> -1/alpha, on triples (a,b,c) -> (-a,c,b)."""
    return Element.from_triple(x_triple(e.triple), e.n)


def apply_y(e: Element) -> Element:
    """y: alpha -> (alpha-1)/alpha, on triples (a,b,c) -> (b-a, b-2a+c, b)."""
    return Element.from_triple(y_triple(e.triple), e.n)


def apply_yy(e: Element) -> Element:
    """y^2: alpha -> -1/(alpha-1), on triples (a,b,c) -> (c-a, c, b-2a+c)."""
    return Element.from_triple(yy_triple(e.triple), e.n)


def conjugate(e: Element) -> Element:
    """Algebraic conjugate (a - sqrt(n))/c, i.e. the triple (-a,-b,-c)."""
    return Element.from_triple(conj_triple(e.triple), e.n)


def is_ambiguous(e: Element) -> bool:
    """True iff e and its conjugate have opposite signs: bc < 0, i.e. a^2 < n."""
    return e.b * e.c < 0


def _scaled_sqrt(n, digits=None):
    """(10^digits, sqrt(n) * 10^digits rounded down)."""
    if digits is None:
        digits = max(30, n.bit_length())
    scale = 10 ** digits
    return scale, isqrt(n * scale * scale)


def value_approx(e: Element, digits: int = None) -> float:
    """Floating approximation of (a + sqrt(n))/c, for display and sorting only.

    sqrt(n) is computed by scaled integer square root so the Fraction
    intermediate carries enough precision regardless of the size of n.
    """
    scale, root = _scaled_sqrt(e.n, digits)
    return float(Fraction(e.a * scale + root, e.c * scale))


def approx_values(triples, n):
    """value_approx of each triple of n, with no Element or Fraction: int
    true division is correctly rounded, as float(Fraction) is."""
    scale, root = _scaled_sqrt(n)
    return [(a * scale + root) / (c * scale) for a, _, c in triples]
