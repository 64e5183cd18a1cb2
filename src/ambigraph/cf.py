"""Exact continued fractions on quadratic irrationals and the equivalence oracle.

This module is the independent second route to the orbit partition, and
partition_cf checks the successor walk against it.  Two real quadratic
irrationals lie in the same PSL(2,Z)-orbit iff their continued
fraction expansions reach the same periodic state cycle, refined by a parity
condition: one CF shift is a determinant -1 move, so when the cycle length is
even the parity of the steps between states matters, and when it is odd a
determinant flip can be absorbed by going once more around the cycle.  The
cycle states are the reduced triples (Galois), so the CF partition walks one
cycle from each of the sieve's reduced triples and never meets the rest of
the ambiguous set.  psl_equivalent walks one such cycle both ways, so a
pair an even number of steps apart costs at most twice that distance.

All arithmetic is exact on (a, b, c) triples; floors come from integer
square roots, never floating point.
"""

from math import isqrt
from typing import NamedTuple

from .core import Element, is_ambiguous
from .diagram import OrbitPartition, partition_graph
from .errors import CycleLimitExceeded, InternalInconsistency, MismatchedN


def _step(t, s):
    """One CF step, given s = isqrt(n): the exact floor q of (a + sqrt(n))/c
    (sqrt(n) is irrational), and the reciprocal (-a1, -c, -b1) of
    t - q = (a1, b1, c)."""
    a, b, c = t
    q = (a + s) // c if c > 0 else (-a - s - 1) // (-c)
    return q, (q * c - a, -c, 2 * a * q - q * q * c - b)


def _default_limit(n):
    return max(4096, 8 * (isqrt(n) + 1) * 16)


def _reduced(t, s):
    """(a + sqrt(n))/c > 1 with its conjugate in (-1, 0), given s = isqrt(n).
    By Galois' theorem these are exactly the states whose CF is purely
    periodic, so a walk reaches its cycle at its first reduced state."""
    a, _, c = t
    return 0 <= s - a < c <= s + a


def _cycle(t, s, limit, origin):
    """The CF cycle through a reduced t: its states from t on and their
    quotients, up to the step that returns to t.  origin names the walk's
    start in the limit error."""
    states, quotients, cur = [], [], t
    while True:
        if len(states) > limit:
            raise CycleLimitExceeded(f"no period within {limit} CF steps of {origin}")
        states.append(cur)
        q, cur = _step(cur, s)
        quotients.append(q)
        if cur == t:
            return states, quotients


class Expansion(NamedTuple):
    """Eventually periodic CF expansion with exact tail states.

    preperiod + cycle are the partial quotients; cycle_triples[i] is the
    exact tail whose expansion is the cycle rotated to start at position i.
    """

    n: int
    preperiod: tuple
    cycle: tuple
    cycle_triples: tuple  # aligned with cycle


def _preperiod(t, s, limit, origin):
    """The quotients of the CF walk from t up to its first reduced state,
    and that state; origin names the walk's start in the limit error."""
    preperiod = []
    while not _reduced(t, s):
        if len(preperiod) > limit:
            raise CycleLimitExceeded(f"no period within {limit} CF steps of {origin}")
        q, t = _step(t, s)
        preperiod.append(q)
    return preperiod, t


def cf_expand(e: Element) -> Expansion:
    n, s = e.n, isqrt(e.n)
    limit = _default_limit(n)
    preperiod, t = _preperiod(e.triple, s, limit, e)
    states, cycle = _cycle(t, s, limit, e)
    return Expansion(
        n=n,
        preperiod=tuple(preperiod),
        cycle=tuple(cycle),
        cycle_triples=tuple(states),
    )


def _reduce(t, s, limit, origin):
    """A reduced triple in t's own PSL(2,Z)-orbit: the first reduced state r
    of t's CF walk, or r's successor when the walk took an odd number of
    steps.  A step alpha -> 1/(alpha - q) is [[0, 1], [1, -q]], of determinant
    -1; a reduced state's successor is reduced, as its CF is purely periodic."""
    preperiod, r = _preperiod(t, s, limit, origin)
    return _step(r, s)[1] if len(preperiod) % 2 else r


def orbit_of(partition: OrbitPartition, e: Element):
    """Index of the partition's orbit holding e, or None when e is not an
    ambiguous element of its n: the orbit of e's reduced triple."""
    n = partition.n
    if e.n != n or not is_ambiguous(e):
        return None
    return partition.reduced.get(_reduce(e.triple, isqrt(n), _default_limit(n), e))


def psl_equivalent(e1: Element, e2: Element) -> bool:
    """True iff e1 and e2 lie in the same PSL(2,Z)-orbit: their reductions
    r1 and r2 share a CF cycle, an even number of steps apart when the cycle
    is even (the determinant -1 parity rule; an odd cycle absorbs it).

    Two walks leave r1, one forward by _step and one backward to the
    predecessor, and stop once the answer is settled: r2 met an even number
    i of steps away, or the walks meeting each other, which closes the cycle
    at 2i - 1 or 2i states.  So a pair an even number of steps apart costs
    at most twice that distance, and any other pair about one trip round.  The
    predecessor of a reduced (a, b, c) is _step on its reversal (a, -c, -b),
    reversed back (Galois: alpha = q + 1/beta gives -1/beta' =
    q + 1/(-1/alpha')); c > 0 and -b > 0 on reduced states, so both floors
    divide by a positive."""
    if e1.n != e2.n:
        raise MismatchedN(f"cannot compare n={e1.n} with n={e2.n}")
    s, limit = isqrt(e1.n), _default_limit(e1.n)
    r1, r2 = _reduce(e1.triple, s, limit, e1), _reduce(e2.triple, s, limit, e2)
    if r1 == r2:
        return True
    fwd = back = r1
    met = False  # r2 met at an odd distance: equivalent iff the cycle is odd
    for i in range(1, (limit + 1) // 2 + 2):  # raise past limit + 1 steps
        a, b, c = fwd
        q = (a + s) // c
        fwd = (q * c - a, -c, 2 * a * q - q * q * c - b)
        if fwd == back:  # 2i - 1 states, each met by now
            return met
        a, b, c = back
        q = (a + s) // -b
        back = (-q * b - a, -2 * a * q - q * q * b - c, -b)
        if fwd == back:  # 2i states; fwd is i steps from r1 either way
            return fwd == r2 and i % 2 == 0
        if fwd == r2 or back == r2:
            if i % 2 == 0:
                return True
            met = True
    raise CycleLimitExceeded(f"no period within {limit} CF steps of {e1}")


def _cf_classes(n, reduced):
    """Yield the reduced triples of each CF orbit with its ambiguous length,
    given n's reduced triples (any sized iterable of them).

    Each reduced triple not yet met starts one walk of its CF cycle.  One CF
    step is a determinant -1 move, so an even cycle holds two orbits, its
    states of even and of odd index, and an odd cycle one.  With Q the sum of
    the cycle's partial quotients, an even cycle's orbits have 2Q ambiguous
    members each, and an odd cycle's orbit 4Q.  A cycle's states are distinct
    reduced triples, so len(reduced) bounds each walk.
    """
    s, met = isqrt(n), set()
    for t in reduced:
        if t in met:
            continue
        states, quotients = _cycle(t, s, len(reduced), f"{t}|{n}")
        met.update(states)
        q = sum(quotients)
        if len(states) % 2:
            yield states, 4 * q
        else:
            yield states[0::2], 2 * q
            yield states[1::2], 2 * q


def partition_cf(n: int, max_n: int = None) -> OrbitPartition:
    """The successor walk's partition, checked against the CF cycles: the
    walk's reduced map must send every state of a CF class to one orbit
    index, matched by no other class, whose record has the class's length,
    else InternalInconsistency names n and a class.  The CF cycles walk from
    the keys of that map, which partition_graph has checked to be exactly
    the sieve's reduced triples, so n is sieved once, and every key lies in
    some class: so each class is exactly one orbit's reduced triples."""
    pg, matched = partition_graph(n, max_n=max_n), set()  # orbit indices
    for states, length in _cf_classes(n, pg.reduced):
        i = pg.reduced.get(states[0])
        if (i is None or i in matched or pg.orbits[i].ambiguous_length != length
                or any(pg.reduced.get(t) != i for t in states)):
            raise InternalInconsistency(
                f"graph and CF partitions disagree for n={n} at the CF class "
                f"of {states[0]}, {len(states)} reduced triples of length {length}"
            )
        matched.add(i)
    return pg
