"""Enumeration of the ambiguous numbers of Q*(sqrt(n)) by one sieve pass:
the whole set (ambiguous_triples), for the orbit engines only the
reduced triples and the set's size (reduced_triples), or the size alone
(ambiguous_count).  Nothing is cached:
each call sieves, and its caller hands the product to what reads it."""

import math

from .core import Element, check_n
from .errors import LimitExceeded

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
    for lo, _, factor_lists, _ in _factor_rows(n):
        for a, factors in enumerate(factor_lists, lo):
            m = n - a * a
            divs = _divisors(m, a, factors, 0, m)
            rows.append([(m // d, -d) for d in reversed(divs)]
                        + [(-m // d, d) for d in divs])
    return tuple([(a, b, c) for a in range(1 - len(rows), len(rows))
                  for b, c in rows[abs(a)]])


_BLOCK = 1 << 16  # rows of a sieved at a time: bounds the sieve's memory


def _factor_rows(n: int):
    """Yield (lo, rest, factors, ks) for each block of at most _BLOCK
    consecutive a in [0, isqrt(n)], in order, lo its first a.  Per a of the
    block: the factors [(p, e), ...] of m = n - a^2; rest, what is left of m
    once the primes up to isqrt(n) are divided out (1, or a prime that is
    also the last factor); and k, the number of primitive divisors d of m,
    those with gcd(a, d, m/d) = 1.  The three lists are refilled in place
    for each block, so a caller's names for the last block hold no second
    block alive; read a block before asking for the next.

    The values m are factored by a sieve, as in the quadratic sieve: for
    each prime p <= sqrt(n), p | m exactly when a is a root of a^2 = n
    (mod p), so stepping a through those roots finds every a whose m has p
    as a factor.  The (p, root) pairs are listed once; each block steps
    every pair through its own rows.  After the primes up to sqrt(n) are
    divided out, what is left of m is 1 or a prime.  k multiplies in e + 1
    per p^e || m, or 2 for p | n, where p | a too and d takes all of p^e or
    none, and 2 for a prime left over.
    """
    s = math.isqrt(n)
    pairs = [(p, r, n % p == 0) for p in _primes_upto(s) for r in _sqrt_mod(n, p)]
    rest, factors, ks = [], [], []
    for lo in range(0, s + 1, _BLOCK):
        size = min(_BLOCK, s + 1 - lo)
        factors.clear()
        rest[:] = [n - a * a for a in range(lo, lo + size)]
        factors += [[] for _ in range(size)]
        ks[:] = [1] * size
        for p, r, p_divides_n in pairs:
            single = (p, 1)  # e = 1, most hits: one tuple per prime
            for i in range((r - lo) % p, size, p):  # a range: a while is 1.5x slower
                m = rest[i] // p
                if m % p:
                    factors[i].append(single)
                    ks[i] *= 2
                else:
                    m, e = m // p, 2
                    while not m % p:
                        m, e = m // p, e + 1
                    factors[i].append((p, e))
                    ks[i] *= 2 if p_divides_n else e + 1
                rest[i] = m
        for i, m in enumerate(rest):
            if m > 1:
                factors[i].append((m, 1))
                ks[i] *= 2
        yield lo, rest, factors, ks


def _divisors(m, a, factors, lo, hi):
    """The divisors d of m = n - a^2 with lo < d <= hi and gcd(a, d, m/d) = 1,
    ascending, from the factors of m: d takes all of p^e || m or none when
    p | a, any power of p otherwise, so for e = 1, most factors, each
    partial product x gives the pair (x, x * p).  They are built largest
    prime first, keeping a partial product x while lo // rest < x <= hi,
    rest the part of m not yet used: x times a divisor of rest exceeds lo
    only if x * rest does."""
    rest, divs = m, [1]
    for p, e in reversed(factors):
        if e == 1:
            rest //= p
            low = lo // rest
            divs = [x for d in divs for x in (d, d * p) if low < x <= hi]
        else:
            pe = p ** e
            rest //= pe
            low = lo // rest
            powers = (1, pe) if a % p == 0 else [p ** j for j in range(e + 1)]
            divs = [x for d in divs for q in powers if low < (x := d * q) <= hi]
    return sorted(divs)


def reduced_triples(n: int, max_n: int = None):
    """(the reduced triples 0 <= s - a < c <= s + a in (a, c) order, T(n) =
    len(ambiguous_triples(n))) of a positive nonsquare n within the cap, s =
    isqrt(n).  T(n) sums each block's _block_count.  A reduced c has c,
    |b| = m/c <= s + a (m < (s + 1)^2 - a^2 and c > s - a), so rows whose
    leftover prime exceeds s + a are skipped, and the others take the
    divisors in the window (s - a, s + a]."""
    _check(n, max_n)
    s, reduced, count = math.isqrt(n), [], 0
    for lo, rest, factor_lists, ks in _factor_rows(n):
        count += _block_count(lo, ks)
        for a, q, factors in zip(range(lo, lo + len(ks)), rest, factor_lists):
            if q > s + a:
                continue  # that prime divides c or |b|: no reduced triple here
            m = n - a * a
            reduced += [(a, -m // d, d)
                        for d in _divisors(m, a, factors, s - a, s + a)]
    return tuple(reduced), count


def _block_count(lo, ks):
    """A block's share of T(n), from its rows' primitive divisor counts k:
    each divisor d of m = n - a^2 is c = d and c = -d of a, and of -a if
    a > 0, so 4k per row, less 2k for a = 0."""
    return 4 * sum(ks) - (0 if lo else 2 * ks[0])


def ambiguous_count(n: int, max_n: int = None):
    """T(n) = len(ambiguous_triples(n)) of a positive nonsquare n within the
    cap, from the sieve's divisor counts alone: no divisor is listed."""
    _check(n, max_n)
    return sum(_block_count(lo, ks) for lo, _, _, ks in _factor_rows(n))


def check_cap(n: int, max_n: int = None):
    """Raise LimitExceeded when n exceeds max_n (default DEFAULT_MAX_N)."""
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if n > cap:
        raise LimitExceeded(f"n={n} exceeds configured cap {cap}")


def _check(n, max_n):
    check_n(n)
    check_cap(n, max_n)


def enumerate_ambiguous(n: int, max_n: int = DEFAULT_MAX_N) -> tuple:
    """The ambiguous numbers of Q*(sqrt(n)) as Elements, sorted by (a, c)."""
    return tuple(Element(a, b, c, n) for a, b, c in ambiguous_triples(n, max_n))
