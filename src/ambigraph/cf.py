"""Exact continued fractions on quadratic irrationals and the equivalence oracle.

This module is the independent second route to the orbit partition.  Two real
quadratic irrationals lie in the same PSL(2,Z)-orbit iff their continued
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
from .diagram import OrbitPartition, partition_from_groups
from .enumeration import checked_triples
from .errors import CycleLimitExceeded, MismatchedN


def _step(t, s):
    """One CF step, given s = isqrt(n): the exact floor q of (a + sqrt(n))/c
    (sqrt(n) is irrational), and the reciprocal (-a1, -c, -b1) of
    t - q = (a1, b1, c)."""
    a, b, c = t
    q = (a + s) // c if c > 0 else (-a - s - 1) // (-c)
    return q, (q * c - a, -c, 2 * a * q - q * q * c - b)


def floor_element(e: Element) -> int:
    return _step(e.triple, isqrt(e.n))[0]


def _default_limit(n):
    return max(4096, 8 * (isqrt(n) + 1) * 16)


@dataclass(frozen=True)
class Expansion:
    """Eventually periodic CF expansion with exact tail states.

    preperiod + cycle are the partial quotients; cycle_states[i] is the exact
    tail whose expansion is the cycle rotated to start at position i.
    """

    preperiod: tuple
    cycle: tuple
    cycle_states: tuple  # Elements, aligned with cycle
    entry_index: int

    @property
    def quotients(self):
        return self.preperiod + self.cycle


def cf_expand(e: Element, limit: int = None) -> Expansion:
    n = e.n
    s = isqrt(n)
    if limit is None:
        limit = _default_limit(n)
    seen = {}
    states = []
    quotients = []
    t = e.triple
    while t not in seen:
        if len(states) > limit:
            raise CycleLimitExceeded(f"no period within {limit} CF steps of {e}")
        seen[t] = len(states)
        states.append(t)
        q, t = _step(t, s)
        quotients.append(q)
    entry = seen[t]
    return Expansion(
        preperiod=tuple(quotients[:entry]),
        cycle=tuple(quotients[entry:]),
        cycle_states=tuple(Element.from_triple(u, n) for u in states[entry:]),
        entry_index=entry,
    )


def psl_equivalent(e1: Element, e2: Element) -> bool:
    """True iff e1 and e2 lie in the same PSL(2,Z)-orbit."""
    if e1.n != e2.n:
        raise MismatchedN(f"cannot compare n={e1.n} with n={e2.n}")
    n = e1.n
    s, limit, cache = isqrt(n), _default_limit(n), {}
    return _cf_key(e1.triple, n, s, cache, limit) == _cf_key(
        e2.triple, n, s, cache, limit
    )


def _cf_key(t, n, s, cache, limit):
    """Orbit key of a triple: (least cycle state, entry parity when even length).

    The CF step is a function, so distinct cycles share no state and the
    least state names the cycle.  cache maps triple -> key and is shared
    across all elements of one n, so the total work is linear in the number
    of distinct states rather than elements times tail length.  While a walk
    is open, cache maps each state on it to its position on the walk
    instead, so each step costs one lookup.
    """
    key = cache.get(t)
    if key is not None:
        return key
    path, cur = [], t
    while key is None:
        if len(path) > limit:
            for state in path:
                del cache[state]
            raise CycleLimitExceeded(f"no period within {limit} CF steps of {t}|{n}")
        cache[cur] = len(path)
        path.append(cur)
        a, b, c = cur  # one CF step, as in _step
        q = (a + s) // c if c > 0 else (-a - s - 1) // (-c)
        cur = (q * c - a, -c, 2 * a * q - q * q * c - b)
        key = cache.get(cur)
    if type(key) is int:
        # the walk closed on itself: path[key:] is a new periodic cycle
        cyc = path[key:]
        del path[key:]
        least = min(cyc)
        ai = cyc.index(least)
        even = len(cyc) % 2 == 0
        for j, state in enumerate(cyc):
            cache[state] = (least, (ai - j) % 2 if even else None)
        key = cache[cur]
    least, par = key
    for state in reversed(path):
        if par is not None:
            par ^= 1
        cache[state] = key = (least, par)
    return key


def cf_groups(n: int, max_n: int = None):
    """The ambiguous triples of n grouped by CF orbit key."""
    triples = checked_triples(n, max_n)
    s, limit, cache = isqrt(n), _default_limit(n), {}
    groups = {}
    for t in triples:
        groups.setdefault(_cf_key(t, n, s, cache, limit), []).append(t)
    return groups.values()


def partition_cf(n: int, max_n: int = None) -> OrbitPartition:
    """Orbit partition of the ambiguous set via CF equivalence keys."""
    return partition_from_groups(n, cf_groups(n, max_n))
