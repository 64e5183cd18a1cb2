"""Enumeration of the ambiguous numbers of Q*(sqrt(n)) by one sieve pass:
the whole set (ambiguous_triples), or for the orbit engines only the
reduced triples and the set's size (reduced_triples).  Nothing is cached:
each call sieves, and its caller hands the product to what reads it."""

import math

from .core import Element, _is_square
from .errors import LimitExceeded, NonPositiveN, SquareN

DEFAULT_MAX_N = 10 ** 8


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


def ambiguous_triples(n: int, max_n: int = None):
    """The tuple of primitive triples (a,b,c) with a^2 < n and c | a^2-n,
    for a positive nonsquare n within the cap (default DEFAULT_MAX_N), in
    (a, c) order: c = +-d for the divisors d in the window (0, m], where
    nothing is pruned; the rows of a and of -a share their b and c ints, and
    a row its a int."""
    _check(n, max_n)
    rows = []
    for a, factors in enumerate(_factor_rows(n)):
        m = n - a * a
        divs = _divisors(m, a, factors, 0, m)
        rows.append([(m // d, -d) for d in reversed(divs)]
                    + [(-m // d, d) for d in divs])
    return tuple([(a, b, c) for a in range(1 - len(rows), len(rows))
                  for b, c in rows[abs(a)]])


def _factor_rows(n: int):
    """The factors [(p, e), ...] of each m = n - a^2, a in [0, isqrt(n)].

    The values m are factored by a sieve, as in the quadratic sieve: for
    each prime p <= sqrt(n), p | m exactly when a is a root of a^2 = n
    (mod p), so stepping a through those roots finds every a whose m has p
    as a factor.  After the primes up to sqrt(n) are divided out, what is
    left of m is 1 or a prime.
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
    for a in range(s + 1):
        if rest[a] > 1:
            factors[a].append((rest[a], 1))
    return factors


def _divisors(m, a, factors, lo, hi):
    """The divisors d of m = n - a^2 with lo < d <= hi and gcd(a, d, m/d) = 1,
    ascending, from the factors of m: d takes all of p^e || m or none when
    p | a, any power of p otherwise.  They are built largest prime first,
    keeping a partial product x while lo // rest < x <= hi, rest the part of
    m not yet used: x times a divisor of rest exceeds lo only if x * rest
    does."""
    rest, divs = m, [1]
    for p, e in reversed(factors):
        rest //= p ** e
        powers = (1, p ** e) if a % p == 0 else [p ** j for j in range(e + 1)]
        low = lo // rest
        divs = [x for d in divs for q in powers if low < (x := d * q) <= hi]
    return sorted(divs)


def reduced_triples(n: int, max_n: int = None):
    """(the reduced triples 0 <= s - a < c <= s + a in (a, c) order, T(n) =
    len(ambiguous_triples(n))) of a positive nonsquare n within the cap, s =
    isqrt(n).  Per a, the primitive divisors d of
    m = n - a^2 number the product of e + 1 over p^e || m, with 2 for
    p | gcd(a, n) (d takes all of p^e or none); each is c = d and c = -d of
    a, and of -a if a > 0.  A reduced c has c, |b| = m/c <= s + a (m <
    (s + 1)^2 - a^2 and c > s - a), so rows with a prime above s + a are
    skipped, and the others take the divisors in the window (s - a, s + a]."""
    _check(n, max_n)
    s, reduced, count = math.isqrt(n), [], 0
    for a, factors in enumerate(_factor_rows(n)):
        k = 1
        for p, e in factors:
            k *= 2 if a % p == 0 else e + 1
        count += 4 * k if a else 2 * k
        if factors and factors[-1][0] > s + a:
            continue  # that prime divides c or |b|: no reduced triple here
        m = n - a * a
        reduced += [(a, -m // d, d) for d in _divisors(m, a, factors, s - a, s + a)]
    return tuple(reduced), count


def check_cap(n: int, max_n: int = None):
    """Raise LimitExceeded when n exceeds max_n (default DEFAULT_MAX_N)."""
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if n > cap:
        raise LimitExceeded(f"n={n} exceeds configured cap {cap}")


def _check(n, max_n):
    if n <= 0:
        raise NonPositiveN(f"n must be positive, got {n}")
    if _is_square(n):
        raise SquareN(f"n must be nonsquare, got {n}")
    check_cap(n, max_n)


def enumerate_ambiguous(n: int, max_n: int = DEFAULT_MAX_N) -> tuple:
    """The ambiguous numbers of Q*(sqrt(n)) as Elements, sorted by (a, c)."""
    return tuple(Element(a, b, c, n) for a, b, c in ambiguous_triples(n, max_n))
