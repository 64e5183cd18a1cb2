"""Residue classifiers that are constant on orbits, the classes of a
partition's orbits (class_occupancy), and invariance audits: one random
walk from each ambiguous triple serves every classifier of a command.

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
from itertools import compress
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .core import Element, check_triple, x_triple
from .enumeration import ambiguous_triples
from .errors import InternalInconsistency, NNotDivisibleBy8, NotOddPrime, PNotDividesN


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
    """take(k): the next k of randrange(3)'s draws from Random(seed), the
    top 2 bits of each 32-bit word of getrandbits(32 * 4096), low word
    first, redrawn on 3.  A refill extends the untaken rest, under one
    chunk, by the whole chunks k needs: the buffer stays under one chunk
    plus k draws, and a take costs its draws."""
    top2, bits = bytes(b >> 6 for b in range(256)), random.Random(seed).getrandbits
    chunks = (bits(32 * 4096).to_bytes(4 * 4096, "little")[3::4]
              .translate(top2).replace(b"\3", b"") for _ in iter(int, 1))
    buf, pos = bytearray(), 0

    def take(k):
        nonlocal buf, pos
        if pos + k > len(buf):
            buf, pos = buf[pos:], 0
            while len(buf) < k:
                buf += next(chunks)
        pos += k
        return buf[pos - k:pos]

    return take


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


def invariance_audit(n: int, kind: ClassifierKind, p: int = None, depth: int = 20,
                     seed: int = 0, max_n: int = None) -> AuditReport:
    """Check class(g.e) == class(e) for g in {x, y, y^2} over the whole
    ambiguous set and along depth random generator extensions of each
    element: invariance_audits with one classifier."""
    return invariance_audits(n, [(kind, p)], depth, seed, max_n)[0]


def invariance_audits(n, kinds, depth=20, seed=0, max_n=None):
    """The AuditReport of each (kind, p) of kinds from one walk per triple,
    classified by the tuple of their values (the value itself for one), its
    violations split per classifier afterwards, in order.  A walk takes
    depth + 1 draws (_draws) and in round i steps onto image r of its state,
    r its i-th draw.  By x^2 = y^3 = 1 a state's predecessor s holds most of
    its images: x(s') = s after an x step, y(s') = y^2(s) and y^2(s') = s
    after a y step, y(s') = s and y^2(s') = y(s) after a y^2 step.  The
    other 1 or 2 are built and classified on its first visit, new y and y^2
    images validated by one test (x(s) has the equation and gcd of s)."""
    if depth < 0:
        raise ValueError(f"audit depth must be >= 0, got {depth}")
    fs = [classifier_for(kind, n, p) for kind, p in kinds]
    single, take = len(fs) == 1, _draws(seed)
    classify = fs[0] if single else lambda t: tuple([f(t) for f in fs])
    found = []  # (state, image index, image, its class, the walk's class)
    triples = ambiguous_triples(n, max_n) if fs else ()  # no walk, no reports
    for t in triples:
        expected = classify(t)
        # entry: x, y, y^2 images, their classes, own class, whether any image
        # is off the walk's class, the state; the start is x(t)'s x image
        u = x_triple(t)
        r, last, seen, cur = 0, (0, 0, 0, expected, 0, 0, classify(u), 0, u), {}, t
        for step in take(depth + 1):
            entry = seen.get(cur)
            if entry is None:
                a, b, c = cur
                prev = last[8]
                if r:  # after a y or y^2 step only x(cur) is new
                    u = -a, c, b
                    if r == 1:  # y(cur) = y^2(prev), y^2(cur) = prev
                        v, cv, w, cw = last[2], last[5], prev, last[6]
                    else:  # y(cur) = prev, y^2(cur) = y(prev)
                        v, cv, w, cw = prev, last[6], last[1], last[4]
                    cu = classify(u)
                else:  # after an x step y(cur) and y^2(cur) are new; x(cur) = prev
                    u, cu = prev, last[6]
                    v = va, vb, vc = b - a, b - 2 * a + c, b
                    w = wa, wb, wc = c - a, c, vb
                    if (vb * vc != va * va - n or wb * wc != wa * wa - n
                            or gcd(va, vb, vc) != 1 or gcd(wa, wb, wc) != 1):
                        check_triple(v, n)
                        check_triple(w, n)
                    cv, cw = classify(v), classify(w)
                entry = seen[cur] = (u, v, w, cu, cv, cw, last[3 + r],
                                     not cu == cv == cw == expected, cur)
            if entry[7]:
                found += [(cur, i, entry[i], entry[3 + i], expected)
                          for i in range(3) if entry[3 + i] != expected]
            last, cur, r = entry, entry[step], step
    checked, names = 3 * (depth + 1) * len(triples), ("x", "y", "y2")
    return [AuditReport(n, kind, p or 0, depth, checked, tuple(
        (Element.from_triple(s, n), names[i], Element.from_triple(image, n))
        for s, i, image, got, want in found if single or got[j] != want[j]))
        for j, (kind, p) in enumerate(kinds)]


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
    x-images, is at an end.  One map classifies an orbit's ends: each
    block's first vertex, the last of each block of k > 1, and their
    x-images; then one compress pass per class (none for a one-class
    orbit) sums the k of the blocks starting in it and finds its least."""
    orbit_classes, occupancy, least, key = [], Counter(), {}, itemgetter(0, 2)
    for record in partition.orbits:
        ends = record.path.block_ends()
        ks, ts = [k for k, _, _ in ends], [first for _, first, _ in ends]
        lasts = [last for k, _, last in ends if k > 1]
        if 2 * sum(ks) == record.ambiguous_length:
            ks, ts = ks + ks, ts + [(-a, c, b) for a, b, c in ts]
            lasts += [(-a, c, b) for a, b, c in lasts]
        ts += lasts
        vals = list(map(classify, ts))
        values = set(vals)
        for v in values:
            hits = None if len(values) == 1 else list(map(v.__eq__, vals))
            total = sum(ks) if hits is None else sum(compress(ks, hits))
            if total:  # a class met only at last vertices holds no member here
                occupancy[v] += total
            t = min(ts if hits is None else compress(ts, hits), key=key)
            least[v] = min(t, least.get(v, t), key=key)
        orbit_classes.append(frozenset(values))
    return ClassSummary(tuple(orbit_classes), dict(sorted(occupancy.items())), least)
