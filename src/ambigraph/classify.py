"""Residue classifiers that are constant on orbits, and invariance audits.

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
from dataclasses import dataclass

from .core import Element, apply_x, apply_y, apply_yy
from .enumeration import enumerate_ambiguous
from .errors import (
    InternalInconsistency,
    NNotDivisibleBy8,
    NotOddPrime,
    PNotDividesN,
)


class ClassifierKind(enum.Enum):
    MOD_P = "mod_p"
    MOD_8 = "mod8"


@dataclass(frozen=True)
class ResidueClass:
    kind: ClassifierKind
    value: int  # +1/-1 for MOD_P; 1,3,5,7 for MOD_8
    modulus_context: int  # p, or 8
    n: int


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
    r = pow(u % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def class_mod_p(e: Element, p: int) -> ResidueClass:
    if e.n % p != 0:
        raise PNotDividesN(f"p={p} does not divide n={e.n}")
    if e.c % p != 0:
        value = legendre(e.c, p)
    elif e.b % p != 0:
        value = legendre(e.b, p)
    else:
        raise InternalInconsistency(
            f"p={p} divides both b and c of primitive {e}"
        )
    return ResidueClass(ClassifierKind.MOD_P, value, p, e.n)


def class_mod8(e: Element) -> ResidueClass:
    if e.n % 8 != 0:
        raise NNotDivisibleBy8(f"n={e.n} is not divisible by 8")
    if e.c % 2 != 0:
        value = e.c % 8
    elif e.b % 2 != 0:
        value = e.b % 8
    else:
        raise InternalInconsistency(f"both b and c even in primitive {e}")
    return ResidueClass(ClassifierKind.MOD_8, value, 8, e.n)


def classifier_for(kind: ClassifierKind, p: int = None):
    if kind is ClassifierKind.MOD_P:
        return lambda e: class_mod_p(e, p)
    return class_mod8


@dataclass(frozen=True)
class AuditReport:
    n: int
    kind: ClassifierKind
    p: int  # 0 for MOD_8
    depth: int
    checked: int
    violations: tuple  # (element, generator name, image element)

    @property
    def ok(self):
        return not self.violations


_GENERATORS = (("x", apply_x), ("y", apply_y), ("y2", apply_yy))


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
    """
    classify = classifier_for(kind, p)
    rng = random.Random(seed)
    violations = []
    checked = 0
    for e in enumerate_ambiguous(n, max_n):
        cur = e
        expected = classify(cur).value
        for _ in range(depth + 1):
            for name, g in _GENERATORS:
                image = g(cur)
                checked += 1
                if classify(image).value != expected:
                    violations.append((cur, name, image))
            cur = _GENERATORS[rng.randrange(3)][1](cur)
    return AuditReport(
        n, kind, p or 0, depth, checked, tuple(violations)
    )


def class_occupancy(n: int, kind: ClassifierKind, p: int = None, max_n: int = None):
    """Count ambiguous elements per class value; empty classes are reported,
    never assumed inhabited."""
    classify = classifier_for(kind, p)
    counts = {}
    for e in enumerate_ambiguous(n, max_n):
        v = classify(e).value
        counts[v] = counts.get(v, 0) + 1
    return dict(sorted(counts.items()))
