"""Residue classifiers that are constant on orbits, the classes of a
partition's orbits (class_occupancy), and invariance audits.

Two classifiers are implemented:

* mod-p (p an odd prime dividing n): the Legendre symbol of c, falling back
  to b when p | c.  p cannot divide both b and c: with p | n that would force
  p | a^2 and break primitivity.
* mod-8 (8 | n): c mod 8 when c is odd, else b mod 8.  Under 8 | n and
  primitivity c == 2 (mod 4) is impossible, so the fallback is exhaustive,
  and when both b and c are odd they agree mod 8 since bc == a^2 == 1 (mod 8).
"""

import enum
import random
from collections import Counter
from itertools import chain
from math import gcd
from typing import NamedTuple

from .core import Element, check_triple, x_triple
from .enumeration import ambiguous_triples
from .errors import (
    InternalInconsistency,
    NNotDivisibleBy8,
    NotOddPrime,
    PNotDividesN,
)


class ClassifierKind(enum.Enum):
    MOD_P = "mod_p"
    MOD_8 = "mod8"


def odd_prime_divisors(n: int):
    """The odd primes dividing n >= 1, ascending, by trial division."""
    out = []
    m = n
    while m % 2 == 0:
        m //= 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 2
    if m > 1:
        out.append(m)
    return out


def legendre(u: int, p: int) -> int:
    """Legendre symbol (u/p) by Euler's criterion."""
    if p < 3 or odd_prime_divisors(p) != [p]:
        raise NotOddPrime(f"{p} is not an odd prime")
    r = pow(u, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def classifier_for(kind: ClassifierKind, n: int, p: int = None):
    """The class value of a triple of n, as a function of the triple.

    Both classifiers take the symbol of c unless m | c, else that of b, with
    m = p and the Legendre symbol mod p, or m = 2 and symbol . mod 8.  n and
    p are checked here, once, so each closure applies its symbol directly:
    Euler's criterion on the residue, or the low three bits.
    """
    if kind is ClassifierKind.MOD_P:
        if p >= 3 and n % p != 0:  # first, so that the prime test runs on p <= n
            raise PNotDividesN(f"p={p} does not divide n={n}")
        legendre(1, p)  # raises NotOddPrime unless p is an odd prime
        half = (p - 1) // 2

        def classify(t):
            a, b, c = t
            r = c % p or b % p
            if r:
                return -1 if pow(r, half, p) == p - 1 else 1
            raise InternalInconsistency(
                f"{p} divides both b and c of primitive {a},{b},{c}|{n}"
            )
    else:
        if n % 8 != 0:
            raise NNotDivisibleBy8(f"n={n} is not divisible by 8")

        def classify(t):
            a, b, c = t
            if c & 1:
                return c & 7
            if b & 1:
                return b & 7
            raise InternalInconsistency(
                f"2 divides both b and c of primitive {a},{b},{c}|{n}"
            )

    return classify


def _draws(seed):
    """randrange(3)'s draws from Random(seed), as a C-level next(): the top 2
    bits of a 32-bit word, redrawn on 3, taken from the top byte of each
    4-byte group of getrandbits(32 * 4096), whose words run low to high."""
    top2, bits = bytes(b >> 6 for b in range(256)), random.Random(seed).getrandbits
    chunks = (bits(32 * 4096).to_bytes(4 * 4096, "little")[3::4]
              .translate(top2).replace(b"\3", b"") for _ in iter(int, 1))
    return chain.from_iterable(chunks).__next__


class AuditReport(NamedTuple):
    n: int
    kind: ClassifierKind
    p: int  # 0 for MOD_8
    depth: int
    checked: int
    violations: tuple  # (element, generator name, image element)

    @property
    def ok(self):
        return not self.violations


def invariance_audit(
    n: int,
    kind: ClassifierKind,
    p: int = None,
    depth: int = 20,
    seed: int = 0,
    max_n: int = None,
) -> AuditReport:
    """Check class(g.e) == class(e) for g in {x, y, y^2} over the whole
    ambiguous set and along depth random generator extensions of each element.
    Each round steps onto image r of its state, r drawn as randrange(3) draws
    it (_draws).  By x^2 = y^3 = 1 a state's predecessor s holds most of its
    images: x(s') = s after an x step, y(s') = y^2(s) and y^2(s') = s after a
    y step, y(s') = s and y^2(s') = y(s) after a y^2 step.  A state's other
    1 or 2 images are built and classified on its first visit, new y and y^2
    images validated by one test (x(s) has the equation and gcd of s).
    """
    if depth < 0:
        raise ValueError(f"audit depth must be >= 0, got {depth}")
    classify = classifier_for(kind, n, p)
    names = ("x", "y", "y2")
    draw = _draws(seed)
    violations = []
    triples = ambiguous_triples(n, max_n)
    for t in triples:
        expected = classify(t)
        ok = (expected,) * 3
        # the start reads as reached by an x step from x(t), of class own
        prev = x_triple(t)
        r, classes, own, seen, cur = 0, ok, classify(prev), {}, t
        for _ in range(depth + 1):
            entry = seen.get(cur)
            if entry is None:  # (images, their classes, the state's class)
                a, b, c = cur
                if r:  # after a y or y^2 step only x(cur) is new
                    u = -a, c, b
                    if r == 1:  # y(cur) = y^2(prev), y^2(cur) = prev
                        entry = (u, images[2], prev), (classify(u), classes[2], own)
                    else:  # y(cur) = prev, y^2(cur) = y(prev)
                        entry = (u, prev, images[1]), (classify(u), own, classes[1])
                else:  # after an x step y(cur) and y^2(cur) are new; x(cur) = prev
                    v = va, vb, vc = b - a, b - 2 * a + c, b
                    w = wa, wb, wc = c - a, c, vb
                    if (vb * vc != va * va - n or wb * wc != wa * wa - n
                            or gcd(va, vb, vc) != 1 or gcd(wa, wb, wc) != 1):
                        check_triple(v, n)
                        check_triple(w, n)
                    entry = (prev, v, w), (own, classify(v), classify(w))
                entry = seen[cur] = (*entry, classes[r])
            images, classes, own = entry
            if classes != ok:
                e = Element.from_triple(cur, n)
                violations += [(e, names[i], Element.from_triple(images[i], n))
                               for i in range(3) if classes[i] != expected]
            r = draw()
            prev, cur = cur, images[r]
    return AuditReport(
        n, kind, p or 0, depth, 3 * (depth + 1) * len(triples), tuple(violations)
    )


class ClassSummary(NamedTuple):
    """The classes of a partition's members under one classifier."""

    orbit_classes: tuple  # the set of class values of each orbit
    occupancy: dict  # class value -> its members, in value order
    least: dict  # class value -> its least member triple by (a, c)


def class_occupancy(partition, classify) -> ClassSummary:
    """The classes of an OrbitPartition under classify, read from the ends
    of each orbit's blocks, not from its members; a class no member takes
    is absent from occupancy and least.  Both classifiers are constant
    along a run and x keeps the class (README), so a block of k steps holds
    k members of its first vertex's class, and k more of its x-image's when
    x maps the path onto another cycle.  a moves by a nonzero c or b at
    each step of a run, so its least member by (a, c), and that of its
    x-images, is at an end."""
    orbit_classes, occupancy, least = [], Counter(), {}
    for record in partition.orbits:
        both = len(record.path) < record.ambiguous_length
        values = set()
        for k, first, last in record.path.block_ends():
            ends = (first, last, x_triple(first), x_triple(last)) if both else (
                first, last)
            for i, t in enumerate(ends):
                value = classify(t)
                values.add(value)
                if i % 2 == 0:  # a first vertex, or the x-image of one
                    occupancy[value] += k
                m = least.get(value)
                if m is None or (t[0], t[2]) < (m[0], m[2]):
                    least[value] = t
        orbit_classes.append(frozenset(values))
    return ClassSummary(tuple(orbit_classes), dict(sorted(occupancy.items())), least)
