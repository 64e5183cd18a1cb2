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
from collections import Counter
from dataclasses import dataclass

from .core import Element, check_triples, x_triple, y_triple, yy_triple
from .enumeration import checked_triples
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
    Each round of a walk steps onto one of the three images of its state,
    drawn as randrange(3) draws it: getrandbits(2), redrawn on 3.  Since
    x^2 = y^3 = 1 a walk keeps stepping back, so it builds, validates as
    triples of n and then classifies a state's images on the state's first
    visit only; a revisit repeats that state's violations, if any.  Elements
    are built only for the violations.
    """
    if depth < 0:
        raise ValueError(f"audit depth must be >= 0, got {depth}")
    classify = classifier_for(kind, n, p)
    names = ("x", "y", "y2")
    getrandbits = random.Random(seed).getrandbits
    violations = []
    triples = checked_triples(n, max_n)
    for t in triples:
        expected = classify(t)
        steps = {}  # state of this walk -> its three images
        wrong = {}  # state -> indices of its images whose class differs
        cur = t
        for _ in range(depth + 1):
            step = steps.get(cur)
            if step is None:
                step = steps[cur] = (x_triple(cur), y_triple(cur), yy_triple(cur))
                check_triples(step, n)
                u, v, w = step
                cu, cv, cw = classify(u), classify(v), classify(w)
                if cu != expected or cv != expected or cw != expected:
                    wrong[cur] = [i for i, c in enumerate((cu, cv, cw))
                                  if c != expected]
            if wrong and cur in wrong:
                e = Element.from_triple(cur, n)
                violations += [(e, names[i], Element.from_triple(step[i], n))
                               for i in wrong[cur]]
            r = getrandbits(2)
            while r == 3:
                r = getrandbits(2)
            cur = step[r]
    return AuditReport(
        n, kind, p or 0, depth, 3 * (depth + 1) * len(triples), tuple(violations)
    )


def class_occupancy(n: int, kind: ClassifierKind, p: int = None, max_n: int = None):
    """Count ambiguous elements per class value; empty classes are reported,
    never assumed inhabited."""
    counts = Counter(map(classifier_for(kind, n, p), checked_triples(n, max_n)))
    return dict(sorted(counts.items()))
