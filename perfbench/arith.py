"""Integer arithmetic the benchmark uses to make and check its inputs.

It is written here, not imported from the program, so that the inputs and
the reference counts stay the same whatever a later commit does to the
program.
"""

from math import gcd, isqrt


def is_square(n):
    return isqrt(n) ** 2 == n


def factorize(m):
    """Prime factorization of m >= 1 as a list of (p, e), by trial division."""
    out = []
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
    p = 5
    step = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
        p += step
        step = 6 - step
    if m > 1:
        out.append((m, 1))
    return out


def divisors(m):
    """Positive divisors of m >= 1, ascending."""
    divs = [1]
    for p, e in factorize(m):
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def count_ambiguous(n):
    """Number of primitive triples (a, b, c) with bc = a^2 - n < 0.

    For fixed a, c runs over the signed divisors of a^2 - n.  A prime power
    p^e exactly dividing n - a^2 may split between b and c in e + 1 ways, but
    when p also divides a only the two splits that keep p off one of them
    leave gcd(a, b, c) = 1.
    """
    s = isqrt(n)
    total = 0
    for a in range(0, s + 1):
        ways = 2  # sign of c
        for p, e in factorize(n - a * a):
            ways *= 2 if a % p == 0 else e + 1
        total += ways if a == 0 else 2 * ways
    return total


def sqrt_cf_period(n):
    """Period of the continued fraction of sqrt(n), n nonsquare."""
    a0 = isqrt(n)
    m, d, a, length = 0, 1, a0, 0
    while a != 2 * a0:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        length += 1
    return length


def valid_triple(a, b, c, n):
    """True iff (a + sqrt(n))/c is an ambiguous number with b = (a^2 - n)/c."""
    return c != 0 and b * c == a * a - n and b * c < 0 and gcd(gcd(a, b), c) == 1

