from math import isqrt

import pytest

from ambigraph.cf import (
    cf_expand,
    floor_element,
    partition_cf,
    psl_equivalent,
)
from ambigraph.core import Element, apply_y, is_ambiguous, make_element
from ambigraph.diagram import partition_graph
from ambigraph.enumeration import enumerate_ambiguous
from ambigraph.errors import MismatchedN


def test_floor_element():
    assert floor_element(make_element(0, 1, 5)) == 2
    assert floor_element(make_element(0, -1, 3)) == -2
    assert floor_element(make_element(1, 2, 125)) == 6


def test_cf_expand_sqrt5():
    x = cf_expand(make_element(0, 1, 5))
    assert x.preperiod == (2,) and x.cycle == (4,)
    assert x.cycle_states[0].triple == (2, -1, 1)


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
        states = [s.triple for s in x.cycle_states]
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
        assert psl_equivalent(e, apply_y(e))
    with pytest.raises(MismatchedN):
        psl_equivalent(make_element(0, 1, 5), make_element(0, 1, 7))


def test_partition_cf_counts():
    assert partition_cf(5).sizes() == [4, 16]
    assert len(partition_cf(243)) == 2
    assert len(partition_cf(1000)) == 4


@pytest.mark.parametrize("n", [5, 8, 54, 108, 125, 216, 243, 250, 500, 1000])
def test_partitions_agree(n):
    assert partition_cf(n).member_sets() == partition_graph(n).member_sets()


def test_intermediate_states_stay_valid():
    # Element construction inside cf_expand validates every tail state
    for e in enumerate_ambiguous(125):
        x = cf_expand(e)
        for s in x.cycle_states:
            assert s.n == 125


def test_psl_equivalent_matches_partition():
    # every orbit representative against every ambiguous element, n <= 60
    for n in range(2, 61):
        if isqrt(n) ** 2 == n:
            continue
        partition = partition_graph(n)
        for rec in partition.orbits:
            rep = rec.representative
            for e in enumerate_ambiguous(n):
                assert psl_equivalent(rep, e) == (
                    partition.orbit_of(rep) == partition.orbit_of(e)
                ), (rep, e)
