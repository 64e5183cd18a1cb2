import json
import sys
from math import isqrt

import pytest

from ambigraph.core import Element, make_element
from ambigraph.diagram import (
    StepType,
    closed_path,
    export_dot,
    orbit_members,
    partition_graph,
    successor,
)
from ambigraph.enumeration import enumerate_ambiguous
from ambigraph.errors import UnknownOrbit


def test_successor_examples():
    e, tag = successor(Element(0, -5, 1, 5))
    assert e.triple == (1, -4, 1) and tag is StepType.YX
    e, tag = successor(make_element(1, 2, 5))
    assert e.triple == (-1, -2, 2) and tag is StepType.YYX
    e, tag = successor(make_element(11, 2, 125))
    assert e.triple == (9, -2, 22) and tag is StepType.YYX


def test_closed_path_sqrt5():
    path = closed_path(make_element(0, 1, 5))
    assert [v.triple for v in path.vertices] == [
        (0, -5, 1), (1, -4, 1), (2, -1, 1), (1, -1, 4),
        (0, -1, 5), (-1, -1, 4), (-2, -1, 1), (-1, -4, 1),
    ]
    assert list(path.step_types) == [
        StepType.YX, StepType.YX, StepType.YYX, StepType.YYX,
        StepType.YYX, StepType.YYX, StepType.YX, StepType.YX,
    ]


def test_closed_path_golden():
    path = closed_path(make_element(1, 2, 5))
    assert [v.triple for v in path.vertices] == [(1, -2, 2), (-1, -2, 2)]
    assert list(path.step_types) == [StepType.YYX, StepType.YX]


def test_closed_path_125_runs():
    # anchored at (1+sqrt(125))/2 the runs read 5, 11, 6
    path = closed_path(make_element(1, 2, 125))
    runs = []
    for t in path.step_types:
        if runs and runs[-1][0] is t:
            runs[-1][1] += 1
        else:
            runs.append([t, 1])
    assert [(t.value, m) for t, m in runs] == [("yx", 5), ("y2x", 11), ("yx", 6)]


def test_orbit_members_counts():
    p8 = closed_path(make_element(0, 1, 5))
    p2 = closed_path(make_element(1, 2, 5))
    assert len(orbit_members(p8)) == 16
    assert len(orbit_members(p2)) == 4
    assert 16 + 4 == len(enumerate_ambiguous(5))


def test_partition_graph_counts():
    assert partition_graph(5).sizes() == [4, 16]
    p125 = partition_graph(125)
    assert len(p125) == 2
    i0 = p125.orbit_of(Element(0, -125, 1, 125))
    i1 = p125.orbit_of(Element(1, -62, 2, 125))
    assert i0 is not None and i1 is not None and i0 != i1
    assert len(partition_graph(216)) == 4


def test_partition_lengths_sum():
    for n in (5, 8, 54, 125, 216, 243):
        partition = partition_graph(n)
        assert sum(len(o.members) for o in partition.orbits) == len(
            enumerate_ambiguous(n)
        )


def test_successor_is_bijective_on_path():
    path = closed_path(make_element(0, 1, 243))
    vertices = {v.triple for v in path.vertices}
    images = {successor(v)[0].triple for v in path.vertices}
    assert images == vertices


def test_export_dot():
    partition = partition_graph(5)
    text = export_dot(partition, 1, 2)
    assert text == export_dot(partition, 1, 2)  # byte determinism
    nodes = [ln for ln in text.splitlines() if ln.endswith('";')]
    directed = [ln for ln in text.splitlines() if "label=" in ln]
    dashed = [ln for ln in text.splitlines() if "dashed" in ln]
    assert len(nodes) == 4 and len(directed) == 4 and len(dashed) == 2
    with pytest.raises(UnknownOrbit):
        export_dot(partition, 99, 1)


def test_export_dot_node_count_equals_length():
    partition = partition_graph(125)
    for o in partition.orbits:
        rep = o.representative
        text = export_dot(partition, rep.a, rep.c)
        nodes = [ln for ln in text.splitlines() if ln.endswith('";')]
        assert len(nodes) == o.ambiguous_length


def _rebind(monkeypatch, name, original, replacement):
    """Point every ambigraph module binding of original at replacement."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("ambigraph") and getattr(
            module, name, None
        ) is original:
            monkeypatch.setattr(module, name, replacement)


def _forbid_enumeration(monkeypatch):
    """Make every module binding of ambiguous_triples raise when called."""
    from ambigraph import enumeration

    def forbidden(n):
        raise AssertionError(f"enumerated the triples of n={n}")

    _rebind(monkeypatch, "ambiguous_triples", enumeration.ambiguous_triples,
            forbidden)


def test_closed_path_and_circuit_never_enumerate(monkeypatch, run_cli, golden):
    from ambigraph.words import stabilizer_word

    _forbid_enumeration(monkeypatch)
    e = make_element(1, 2, 125)
    assert len(closed_path(e)) == 22
    assert str(stabilizer_word(e)) == "(yx)^5(y2x)^11(yx)^6"
    code, out = run_cli("circuit", "125", "--rep", "1,2")
    assert code == 0
    golden("circuit_125.txt", out)


def test_closed_path_revisit_names_n_and_triple(monkeypatch):
    from ambigraph import diagram
    from ambigraph.errors import InternalInconsistency

    anchor, a, b = (0, -5, 1), (1, -4, 1), (2, -1, 1)
    loop = {anchor: a, a: b, b: a}  # a cycle that never returns to the anchor
    monkeypatch.setattr(
        diagram, "successor_triple", lambda t, n=None: (loop[t], StepType.YX)
    )
    with pytest.raises(InternalInconsistency) as info:
        closed_path(Element(*anchor, 5))
    assert "n=5" in str(info.value) and str(a) in str(info.value)


def test_orbit_of_outside_partition():
    partition = partition_graph(5)
    assert partition.orbit_of(make_element(1, 2, 5)) is not None
    assert partition.orbit_of(make_element(7, 2, 5)) is None  # not ambiguous
    assert partition.orbit_of(make_element(1, 2, 125)) is None


def test_orbits_json_walks_each_closed_path_once(monkeypatch, run_cli):
    from ambigraph import diagram

    original = diagram.closed_path
    anchors = []

    def spy(e):
        anchors.append(e.triple)
        return original(e)

    _rebind(monkeypatch, "closed_path", original, spy)
    code, out = run_cli("orbits", "216", "--json")
    assert code == 0
    assert len(anchors) == len(set(anchors)) == json.loads(out)["orbit_count"] == 4


def test_orbit_records_hold_triples():
    from ambigraph.cf import partition_cf

    for n in (5, 125, 216):
        for partition in (partition_graph(n), partition_cf(n)):
            for rec in partition.orbits:
                assert rec.members == tuple(
                    Element.from_triple(t, n) for t in rec.triples
                )
                assert rec.path.triples[0] == rec.triples[0]
                assert rec.representative.triple == rec.triples[0]
                assert [v.triple for v in rec.path.vertices] == list(
                    rec.path.triples
                )


def test_union_find_matches_cf_groups_up_to_300():
    from math import isqrt

    from ambigraph.cf import cf_groups

    for n in range(2, 301):
        if isqrt(n) ** 2 != n:
            want = frozenset(frozenset(g) for g in cf_groups(n))
            assert partition_graph(n).member_sets() == want, n


NONSQUARES_1500 = [n for n in range(2, 1501) if isqrt(n) ** 2 != n]


def test_generators_on_the_ambiguous_set_up_to_1500():
    """What the union-find relies on: x maps the ambiguous set onto itself,
    y has order 3, and every ambiguous y image is enumerated."""
    from ambigraph.core import x_triple, y_triple
    from ambigraph.enumeration import ambiguous_triples

    for n in NONSQUARES_1500:
        triples = ambiguous_triples(n)
        members = set(triples)
        assert {x_triple(t) for t in triples} == members, n
        for t in triples:
            y = y_triple(t)
            assert y_triple(y_triple(y)) == t, (n, t)
            assert y[1] * y[2] > 0 or y in members, (n, t)


def test_partition_graph_names_a_missing_image(monkeypatch):
    from ambigraph import diagram
    from ambigraph.errors import InternalInconsistency

    triples = diagram.checked_triples(125)
    gone = triples[0]  # a < 0, so it is the x image looked up from x(gone)
    monkeypatch.setattr(
        diagram, "checked_triples", lambda n, max_n=None: triples[1:]
    )
    with pytest.raises(InternalInconsistency) as info:
        partition_graph(125)
    assert "n=125" in str(info.value) and str(gone) in str(info.value)


def test_dichotomy_violation_in_a_walk_names_n(monkeypatch):
    from ambigraph import diagram
    from ambigraph.errors import DichotomyViolation

    original = diagram.successor_triple

    def broken(t, n=None):
        # (1, -1, -1) has d = b + 2a + c = 0: neither candidate is ambiguous
        return original((1, -1, -1), n)

    monkeypatch.setattr(diagram, "successor_triple", broken)
    with pytest.raises(DichotomyViolation) as info:
        closed_path(Element(1, -62, 2, 125))
    assert info.value.n == 125 and info.value.element == (1, -1, -1)
    assert "n=125" in str(info.value) and "(1, -1, -1)" in str(info.value)
