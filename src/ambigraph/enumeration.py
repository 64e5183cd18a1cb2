"""Enumeration of the finite set of ambiguous numbers of Q*(sqrt(n))."""

import math
from dataclasses import dataclass
from functools import lru_cache

from .core import Element, _is_square
from .errors import LimitExceeded, NegativeInput, NonPositiveN, SquareN, ZeroInput

DEFAULT_MAX_N = 10 ** 8


def isqrt(m: int) -> int:
    """Largest s with s*s <= m."""
    if m < 0:
        raise NegativeInput(f"isqrt of negative {m}")
    return math.isqrt(m)


def divisors_signed(m: int):
    """All divisors of m, positive and negative, sorted ascending."""
    if m == 0:
        raise ZeroInput("divisors of zero")
    m = abs(m)
    pos = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            pos.append(d)
            if d * d != m:
                pos.append(m // d)
        d += 1
    pos.sort()
    return [-d for d in reversed(pos)] + pos


@dataclass(frozen=True)
class AmbiguousSet:
    """All ambiguous numbers of Q*(sqrt(n)), sorted by (a, c)."""

    n: int
    elements: tuple

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e):
        return e in self.elements

    def triples(self):
        return [e.triple for e in self.elements]


@lru_cache(maxsize=1)
def ambiguous_triples(n: int):
    """Sorted tuple of primitive triples (a,b,c) with a^2 < n and c | a^2-n.

    Memoised for the last n, so every consumer within one command shares
    a single enumeration.
    """
    out = []
    s = math.isqrt(n)
    for a in range(-s, s + 1):
        m = a * a - n  # negative by construction
        for c in divisors_signed(m):
            b = m // c
            if math.gcd(math.gcd(a, b), c) == 1:
                out.append((a, b, c))
    out.sort(key=lambda t: (t[0], t[2]))
    return tuple(out)


def check_cap(n: int, max_n: int = None):
    """Raise LimitExceeded when n exceeds max_n (default DEFAULT_MAX_N)."""
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if n > cap:
        raise LimitExceeded(f"n={n} exceeds configured cap {cap}")


def checked_triples(n: int, max_n: int = None):
    """ambiguous_triples(n) for a positive nonsquare n within the cap."""
    if n <= 0:
        raise NonPositiveN(f"n must be positive, got {n}")
    if _is_square(n):
        raise SquareN(f"n must be nonsquare, got {n}")
    check_cap(n, max_n)
    return ambiguous_triples(n)


def enumerate_ambiguous(n: int, max_n: int = DEFAULT_MAX_N) -> AmbiguousSet:
    elems = tuple(Element(a, b, c, n) for a, b, c in checked_triples(n, max_n))
    return AmbiguousSet(n, elems)
