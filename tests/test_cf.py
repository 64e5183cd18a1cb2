from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from ambigraph.cf import (
    _cf_classes,
    _default_limit,
    _reduced,
    _step,
    cf_expand,
    partition_cf,
    psl_equivalent,
)
from ambigraph.core import Element, is_ambiguous, make_element
from ambigraph.diagram import OrbitPartition, partition_graph
from ambigraph.enumeration import (
    ambiguous_triples,
    enumerate_ambiguous,
    reduced_triples,
)
from ambigraph.errors import CycleLimitExceeded, MismatchedN

from generator_action import y_triple
from orbit_sets import member_sets


def test_floor_element():
    # the exact floor of (a + sqrt(n))/c is the quotient of one CF step
    assert _step(make_element(0, 1, 5).triple, isqrt(5))[0] == 2
    assert _step(make_element(0, -1, 3).triple, isqrt(3))[0] == -2
    assert _step(make_element(1, 2, 125).triple, isqrt(125))[0] == 6


def test_cf_expand_sqrt5():
    x = cf_expand(make_element(0, 1, 5))
    assert x.preperiod == (2,) and x.cycle == (4,)
    assert x.cycle_triples[0] == (2, -1, 1)


def test_cf_expand_golden():
    x = cf_expand(make_element(1, 2, 5))
    assert x.preperiod == () and x.cycle == (1,)


def test_cf_expand_sqrt125():
    x = cf_expand(make_element(0, 1, 125))
    assert x.preperiod == (11,)
    L = len(x.cycle)
    rotations = {x.cycle[i:] + x.cycle[:i] for i in range(L)}
    assert (5, 1, 1, 5, 22) in rotations


def test_cf_expand_sqrt243():
    x = cf_expand(make_element(0, 1, 243))
    L = len(x.cycle)
    rotations = {x.cycle[i:] + x.cycle[:i] for i in range(L)}
    assert (1, 1, 2, 3, 15, 3, 2, 1, 1, 30) in rotations


def test_cycle_states_step_consistency():
    for e in (make_element(0, 1, 125), make_element(1, 2, 5), make_element(0, -1, 243)):
        x = cf_expand(e)
        states = list(x.cycle_triples)
        assert len(set(states)) == len(states)
        from ambigraph.cf import _step
        s = isqrt(e.n)
        for i, t in enumerate(states):
            q, nxt = _step(t, s)
            assert q == x.cycle[i]
            assert nxt == states[(i + 1) % len(states)]


def test_psl_equivalent_examples():
    assert psl_equivalent(make_element(0, 1, 5), make_element(0, -1, 5))
    assert not psl_equivalent(make_element(0, 1, 3), make_element(0, -1, 3))
    for e in enumerate_ambiguous(54):
        assert psl_equivalent(e, Element.from_triple(y_triple(e.triple), 54))
    with pytest.raises(MismatchedN):
        psl_equivalent(make_element(0, 1, 5), make_element(0, 1, 7))


def test_partition_cf_counts():
    assert sorted(o.ambiguous_length for o in partition_cf(5).orbits) == [4, 16]
    assert len(partition_cf(243)) == 2
    assert len(partition_cf(1000)) == 4


@pytest.mark.parametrize("n", [5, 8, 54, 108, 125, 216, 243, 250, 500, 1000])
def test_partitions_agree(n):
    assert member_sets(partition_cf(n)) == member_sets(partition_graph(n))


def test_intermediate_states_stay_valid():
    # Element construction validates every tail state
    for e in enumerate_ambiguous(125):
        x = cf_expand(e)
        for t in x.cycle_triples:
            assert Element.from_triple(t, 125).n == 125


def test_psl_equivalent_matches_partition():
    # every orbit representative against every ambiguous element, n <= 60,
    # judged by the graph records' member index, which no CF step builds
    for n in range(2, 61):
        if isqrt(n) ** 2 == n:
            continue
        partition = partition_graph(n)
        index = {t: i for i, o in enumerate(partition.orbits) for t in o.triples}
        for rec in partition.orbits:
            rep = rec.representative
            for e in enumerate_ambiguous(n):
                assert psl_equivalent(rep, e) == (
                    index[rep.triple] == index[e.triple]
                ), (rep, e)


def test_cf_key_limit_leaves_no_position_markers(monkeypatch):
    """The revisit reference, cut short by a step limit of 1, leaves only
    finished keys in its cache, and keys read from that cache still give the
    CF partition; the CF side's own cycle walk names the triple and n when
    the limit cuts it short."""
    from ambigraph import cf
    from ambigraph.enumeration import ambiguous_triples

    n = 125
    s, limit = isqrt(n), _default_limit(n)
    cache = {}
    failed = 0
    for t in ambiguous_triples(n):
        try:
            _revisit_cf_key(t, n, s, cache, 1)
        except CycleLimitExceeded as exc:
            failed += 1
            assert f"{t}|{n}" in str(exc)
        assert all(type(v) is tuple for v in cache.values())
    assert 0 < failed < len(ambiguous_triples(n))  # the cache holds both
    groups = {}
    for t in ambiguous_triples(n):
        groups.setdefault(_revisit_cf_key(t, n, s, cache, limit), set()).add(t)
    assert set(map(frozenset, groups.values())) == member_sets(partition_cf(n))
    pg = partition_graph(n)
    first = next(iter(pg.reduced))  # R(n) read as 1 bounds each CF cycle
    one = OrbitPartition(pg.n, pg.orbits, {first: pg.reduced[first]})
    monkeypatch.setattr(cf, "partition_graph", lambda n, max_n=None: one)
    with pytest.raises(CycleLimitExceeded) as info:
        partition_cf(n)
    assert f"|{n}" in str(info.value)


def test_cf_cycles_are_bounded_by_the_reduced_count(monkeypatch):
    """_cf_classes bounds each CF cycle by R(n), the number of reduced
    triples, since a cycle's states are distinct reduced triples: a CF step
    that never returns raises CycleLimitExceeded naming t|n after at most
    R(n) + 1 steps."""
    from ambigraph import cf

    n = 125
    reduced = reduced_triples(n)[0]
    calls = []

    def endless(t, s):
        calls.append(t)
        return 1, (t[0], t[1], t[2] + 1)  # never back at the start

    monkeypatch.setattr(cf, "_step", endless)
    with pytest.raises(CycleLimitExceeded) as info:
        list(cf._cf_classes(n, reduced))
    assert str(info.value) == (
        f"no period within {len(reduced)} CF steps of {reduced[0]}|{n}")
    assert len(calls) == len(reduced) + 1


# --- reduced cycles (Galois) against the revisit-based references ---------


def _revisit_cf_key(t, n, s, cache, limit):
    """The former CF keyer: walks until a state repeats, holding each open
    walk's states in cache as their positions on it."""
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


def test_cf_keys_equal_revisit_keys():
    """Triples share a revisit-reference key exactly when they share an
    orbit of the cross-checked partition."""
    for n in (5, 125, 243, 1000, 69984, 1194127):
        s, limit, reference = isqrt(n), _default_limit(n), {}
        keys = {}
        for t in ambiguous_triples(n):
            keys.setdefault(_revisit_cf_key(t, n, s, reference, limit), set()).add(t)
        assert set(map(frozenset, keys.values())) == member_sets(partition_cf(n)), n


def _revisit_groups(n):
    s, limit, cache, groups = isqrt(n), _default_limit(n), {}, {}
    for t in ambiguous_triples(n):
        groups.setdefault(_revisit_cf_key(t, n, s, cache, limit), []).append(t)
    return list(groups.values())


def _revisit_expand(t, n):
    """(preperiod, cycle, cycle_triples, entry_index) by walking until a
    state repeats."""
    s, seen, states, quotients = isqrt(n), {}, [], []
    while t not in seen:
        seen[t] = len(states)
        states.append(t)
        q, t = _step(t, s)
        quotients.append(q)
    entry = seen[t]
    return (tuple(quotients[:entry]), tuple(quotients[entry:]),
            tuple(states[entry:]), entry)


_NONSQUARE_1500 = [n for n in range(2, 1501) if isqrt(n) ** 2 != n]


def test_cf_groups_equal_revisit_reference(per_n):
    """The revisit reference's groups, in order of first member, are the
    cross-checked partition's member lists."""
    for n in _NONSQUARE_1500 + [69984, 1194127]:
        ref = per_n(n)
        assert ref.members == ref.get(_revisit_groups), n


def _cycle_distances(n):
    """Steps from each state reached from an ambiguous triple of n to its
    CF cycle (0 on the cycle), by walking until a state repeats."""
    s, dist = isqrt(n), {}
    for t in ambiguous_triples(n):
        path, pos, cur = [], {}, t
        while cur not in dist and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = _step(cur, s)[1]
        if cur in pos:  # the walk closed a new cycle
            for state in path[pos[cur]:]:
                dist[state] = 0
            del path[pos[cur]:]
        d = dist[cur]
        for state in reversed(path):
            d += 1
            dist[state] = d
    return dist


def test_cycle_states_are_the_reduced_triples_within_three_steps():
    for n in _NONSQUARE_1500:
        s, triples = isqrt(n), ambiguous_triples(n)
        dist = _cycle_distances(n)
        assert {t for t, d in dist.items() if d == 0} == {
            t for t in triples if _reduced(t, s)
        }, n
        assert max(dist[t] for t in triples) <= 3, n


def test_cf_cache_holds_exactly_the_reduced_triples():
    """The CF side's classes hold each reduced triple once and no other
    triple."""
    for n in (5, 125, 243, 1000, 69984):
        s = isqrt(n)
        states = [t for states, _ in _cf_classes(n, reduced_triples(n)[0])
                  for t in states]
        assert len(states) == len(set(states)), n
        assert set(states) == {t for t in ambiguous_triples(n) if _reduced(t, s)}, n


@st.composite
def _elements(draw):
    """Arbitrary elements (a + sqrt(n))/c, ambiguous or not."""
    n = draw(st.integers(2, 10 ** 6).filter(lambda n: isqrt(n) ** 2 != n))
    a = draw(st.integers(-10 ** 4, 10 ** 4))
    m = a * a - n
    divisors = [c for c in range(1, min(abs(m), 2000) + 1)
                if m % c == 0 and gcd(gcd(a, m // c), c) == 1]
    c = draw(st.sampled_from(divisors)) * draw(st.sampled_from((1, -1)))
    return Element(a, m // c, c, n)


@settings(max_examples=150, deadline=None)
@given(_elements())
def test_cf_expand_equals_revisit_reference(e):
    x = cf_expand(e)
    assert (x.preperiod, x.cycle, x.cycle_triples, len(x.preperiod)) == (
        _revisit_expand(e.triple, e.n)
    )
