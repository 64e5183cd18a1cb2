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

    def triples(self):
        return [e.triple for e in self.elements]


def _primes_upto(m: int):
    """The primes p <= m, for m >= 1, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (m + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, m + 1, p)))
    return [p for p in range(m + 1) if sieve[p]]


def _sqrt_mod(n: int, p: int):
    """The roots r in [0, p) of r^2 = n (mod p), for a prime p."""
    n %= p
    if p == 2 or n == 0:
        return (n,)
    if pow(n, (p - 1) // 2, p) != 1:  # Euler's criterion: a non-residue
        return ()
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
    else:  # Tonelli-Shanks, with p - 1 = q * 2^e and q odd
        q, e = p - 1, 0
        while q % 2 == 0:
            q //= 2
            e += 1
        z = 2
        while pow(z, (p - 1) // 2, p) == 1:
            z += 1
        c, r, t = pow(z, q, p), pow(n, (q + 1) // 2, p), pow(n, q, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (e - i - 1), p)
            e, c = i, b * b % p
            r, t = r * b % p, t * c % p
    return (r, p - r)


@lru_cache(maxsize=1)
def ambiguous_triples(n: int):
    """Sorted tuple of primitive triples (a,b,c) with a^2 < n and c | a^2-n.

    The values m = n - a^2 for a in [0, isqrt(n)] are factored by a sieve,
    as in the quadratic sieve: for each prime p <= sqrt(n), p | m exactly
    when a is a root of a^2 = n (mod p), so stepping a through those roots
    finds every a whose m has p as a factor.  After the primes up to sqrt(n)
    are divided out, what is left of m is 1 or a prime.  The divisors c of
    m then give the triples of a and of -a alike, in (a, c) order.

    Memoised for the last n, so every consumer within one command shares
    a single enumeration.
    """
    s = math.isqrt(n)
    rest = [n - a * a for a in range(s + 1)]
    factors = [[] for _ in range(s + 1)]
    for p in _primes_upto(s):
        for r in _sqrt_mod(n, p):
            for a in range(r, s + 1, p):
                m, e = rest[a], 0
                while m % p == 0:
                    m //= p
                    e += 1
                rest[a] = m
                factors[a].append((p, e))
    rows = []  # rows[a]: the (b, c) of a >= 0, sorted by c
    for a in range(s + 1):
        if rest[a] > 1:
            factors[a].append((rest[a], 1))
        divs = [1]
        for p, e in factors[a]:
            powers = [p ** k for k in range(e + 1)]
            divs = [d * q for d in divs for q in powers]
        divs.sort()
        m = n - a * a
        g = math.gcd(a, n)  # gcd(a, b, c) divides a and a^2 - bc = n
        if g > 1:
            divs = [d for d in divs if math.gcd(g, d, m // d) == 1]
        rows.append([(m // d, -d) for d in reversed(divs)]
                    + [(-m // d, d) for d in divs])
    out = [(-a, b, c) for a in range(s, 0, -1) for b, c in rows[a]]
    out += [(a, b, c) for a in range(s + 1) for b, c in rows[a]]
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
