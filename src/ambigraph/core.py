"""Exact representation of real quadratic irrationals and the generator action.

An element is the real number (a + sqrt(n))/c, stored as the integer triple
(a, b, c) with b = (a^2 - n)/c.  The triple determines the value uniquely;
equality is always exact triple equality, never floating point.

The modular group acts through the two elliptic generators
x: alpha -> -1/alpha and y: alpha -> (alpha - 1)/alpha.  On triples x is
x_triple below; y and y^2 (alpha -> -1/(alpha - 1)) are stepped inline by
the successor walk and the invariance audit.
"""

import re
from collections import namedtuple
from math import gcd, isqrt
from operator import attrgetter

from .errors import (
    NonPositiveN,
    NotDivisible,
    NotPrimitive,
    ParseError,
    SquareN,
    ZeroDenominator,
)

_WIRE_FORM = re.compile(r"(-?[0-9]+),(-?[0-9]+),(-?[0-9]+)\|(-?[0-9]+)")


def check_n(n):
    """Raise NonPositiveN unless n > 0, and SquareN if n is a square."""
    if n <= 0:
        raise NonPositiveN(f"n must be positive, got {n}")
    if isqrt(n) ** 2 == n:
        raise SquareN(f"n must be nonsquare, got {n}")


# The x generator on triples.

def x_triple(t):
    a, b, c = t
    return (-a, c, b)


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


def compared_on(*fields):
    """__eq__, __ne__ and __hash__ of a named tuple on the given fields alone;
    object.__ne__ negates that __eq__, where tuple's != would see every field."""
    key = attrgetter(*fields)
    return (lambda self, other: type(other) is type(self) and key(other) == key(self),
            object.__ne__, lambda self: hash(key(self)))


def triples_str(ts, n) -> list:
    """The wire forms "a,b,c|n" of the triples ts of n, as a list; the "|n"
    suffix is formatted once for all of them."""
    tail = f"|{n}"
    return [f"{a},{b},{c}{tail}" for a, b, c in ts]


def triple_str(t, n) -> str:
    """The wire form "a,b,c|n" of the triple t of n."""
    return triples_str((t,), n)[0]


class Element(namedtuple("Element", "a b c n")):
    """The quadratic irrational (a + sqrt(n))/c with b = (a^2 - n)/c."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, a: int, b: int, c: int, n: int):
        self = super().__new__(cls, a, b, c, n)
        self.__post_init__()  # looked up per call: a tracer may wrap it
        return self

    def __post_init__(self):
        check_n(self.n)
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
        """Parse the wire form "a,b,c|n": each field -?[0-9]+, nothing else."""
        m = _WIRE_FORM.fullmatch(text)
        if m is None:
            raise ParseError(f"bad element literal {text!r}")
        return cls(*map(int, m.groups()))


def make_element(a: int, c: int, n: int) -> Element:
    """Build the element (a + sqrt(n))/c, deriving and validating b."""
    check_n(n)
    if c == 0:
        raise ZeroDenominator("c must be nonzero")
    num = a * a - n
    if num % c != 0:
        raise NotDivisible(f"c={c} does not divide a^2-n={num}")
    return Element(a, num // c, c, n)


def is_ambiguous(e: Element) -> bool:
    """True iff e and its conjugate have opposite signs: bc < 0, i.e. a^2 < n."""
    return e.b * e.c < 0


def _scaled_sqrt(n):
    """(10^d, sqrt(n) * 10^d rounded down), with d = max(30, bits(n))."""
    scale = 10 ** max(30, n.bit_length())
    return scale, isqrt(n * scale * scale)


def value_approx(e: Element) -> float:
    """Floating approximation of (a + sqrt(n))/c, for display and sorting only."""
    return approx_values((e.triple,), e.n)[0]


def approx_values(triples, n):
    """value_approx of each triple of n: sqrt(n) by scaled integer square
    root, so the quotient carries enough precision whatever the size of n,
    and int true division is correctly rounded."""
    scale, root = _scaled_sqrt(n)
    return [(a * scale + root) / (c * scale) for a, _, c in triples]
