"""Exact continued fractions on quadratic irrationals and the equivalence oracle.

This module is the independent second route to the orbit partition, and
partition_cf checks the successor walk against it.  Two real quadratic
irrationals lie in the same PSL(2,Z)-orbit iff their continued
fraction expansions reach the same periodic state cycle, refined by a parity
condition: one CF shift is a determinant -1 move, so when the cycle length is
even the parity of the entry index matters, and when it is odd a determinant
flip can be absorbed by going once more around the cycle.

All arithmetic is exact on (a, b, c) triples; floors come from integer
square roots, never floating point.
"""

from dataclasses import dataclass
from math import isqrt

from .core import Element
from .diagram import OrbitPartition, partition_graph
from .enumeration import checked_triples
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


@dataclass(frozen=True)
class Expansion:
    """Eventually periodic CF expansion with exact tail states.

    preperiod + cycle are the partial quotients; cycle_triples[i] is the
    exact tail whose expansion is the cycle rotated to start at position i.
    """

    n: int
    preperiod: tuple
    cycle: tuple
    cycle_triples: tuple  # aligned with cycle
    entry_index: int

    @property
    def cycle_states(self):
        return tuple(Element.from_triple(t, self.n) for t in self.cycle_triples)


def cf_expand(e: Element, limit: int = None) -> Expansion:
    n = e.n
    s = isqrt(n)
    if limit is None:
        limit = _default_limit(n)
    preperiod, t = [], e.triple
    while not _reduced(t, s):
        if len(preperiod) > limit:
            raise CycleLimitExceeded(f"no period within {limit} CF steps of {e}")
        q, t = _step(t, s)
        preperiod.append(q)
    states, cycle = _cycle(t, s, limit, e)
    return Expansion(
        n=n,
        preperiod=tuple(preperiod),
        cycle=tuple(cycle),
        cycle_triples=tuple(states),
        entry_index=len(preperiod),
    )


def psl_equivalent(e1: Element, e2: Element) -> bool:
    """True iff e1 and e2 lie in the same PSL(2,Z)-orbit."""
    if e1.n != e2.n:
        raise MismatchedN(f"cannot compare n={e1.n} with n={e2.n}")
    n = e1.n
    k1, k2 = _cf_keys((e1.triple, e2.triple), n, isqrt(n), {}, _default_limit(n))
    return k1 == k2


def _cf_keys(triples, n, s, cache, limit):
    """Yield the orbit key of each triple: (least cycle state, entry parity
    when the cycle length is even).

    The CF step is a function, so distinct cycles share no state and the
    least state names the cycle.  The walk from t reaches its cycle at its
    first reduced state, within three steps when t is ambiguous.  cache is
    shared across all elements of one n and maps each cycle state already
    walked to its (even-steps, odd-steps) key pair, so the key of a walk of
    that many steps is one indexing; it holds no other state.
    """
    for t in triples:
        a, b, c = t
        steps = 0
        while not 0 <= s - a < c <= s + a:  # not reduced, as in _reduced
            if steps > limit:
                raise CycleLimitExceeded(f"no period within {limit} CF steps of {t}|{n}")
            q = (a + s) // c if c > 0 else (-a - s - 1) // (-c)  # as in _step
            a, b, c = q * c - a, -c, 2 * a * q - q * q * c - b
            steps += 1
        cur = (a, b, c)
        pair = cache.get(cur)
        if pair is None:
            cyc, _ = _cycle(cur, s, limit, f"{t}|{n}")
            least = min(cyc)
            if len(cyc) % 2:
                keys = ((least, None),) * 2
            else:
                ai = cyc.index(least)
                keys = ((least, ai % 2), (least, 1 - ai % 2))
            pairs = keys, keys[::-1]
            for j, state in enumerate(cyc):
                cache[state] = pairs[j % 2]
            pair = pairs[0]
        yield pair[steps & 1]


def cf_groups(n: int, max_n: int = None):
    """The ambiguous triples of n grouped by CF orbit key."""
    triples = checked_triples(n, max_n)
    groups = {}
    for key, t in zip(_cf_keys(triples, n, isqrt(n), {}, _default_limit(n)),
                      triples):
        groups.setdefault(key, []).append(t)
    return groups.values()


def partition_cf(n: int, max_n: int = None) -> OrbitPartition:
    """The successor walk's partition, checked against the CF groups: both
    engines must give the same member lists in enumeration order, else
    InternalInconsistency names n and a counterexample."""
    pg = partition_graph(n, max_n=max_n)
    graph = [rec.triples for rec in pg.orbits]
    cf = sorted(map(tuple, cf_groups(n, max_n)), key=lambda g: (g[0][0], g[0][2]))
    if graph != cf:
        diff = frozenset(map(frozenset, graph)) ^ frozenset(map(frozenset, cf))
        example = sorted(min(diff, key=len))[:4]
        raise InternalInconsistency(
            f"graph and CF partitions disagree for n={n}; "
            f"counterexample members {example}"
        )
    return pg
