import json
import sys
from itertools import groupby
from math import isqrt

import pytest

from ambigraph.cf import orbit_of
from ambigraph.core import Element, make_element, x_triple
from ambigraph.diagram import (
    ClosedPath,
    StepType,
    closed_path,
    export_dot,
    partition_graph,
    successor_triple,
)
from ambigraph.enumeration import enumerate_ambiguous, reduced_triples


def test_successor_examples():
    t, tag = successor_triple(Element(0, -5, 1, 5).triple, 5)
    assert t == (1, -4, 1) and tag is StepType.YX
    t, tag = successor_triple(make_element(1, 2, 5).triple, 5)
    assert t == (-1, -2, 2) and tag is StepType.YYX
    t, tag = successor_triple(make_element(11, 2, 125).triple, 125)
    assert t == (9, -2, 22) and tag is StepType.YYX


def _step_types(path):
    """The type of each step of a closed path, from its anchor on."""
    return [t for t, k in path.blocks for _ in range(k)]


def test_closed_path_sqrt5():
    path = closed_path(make_element(0, 1, 5))
    assert list(path.triples) == [
        (0, -5, 1), (1, -4, 1), (2, -1, 1), (1, -1, 4),
        (0, -1, 5), (-1, -1, 4), (-2, -1, 1), (-1, -4, 1),
    ]
    assert _step_types(path) == [
        StepType.YX, StepType.YX, StepType.YYX, StepType.YYX,
        StepType.YYX, StepType.YYX, StepType.YX, StepType.YX,
    ]


def test_closed_path_golden():
    path = closed_path(make_element(1, 2, 5))
    assert list(path.triples) == [(1, -2, 2), (-1, -2, 2)]
    assert _step_types(path) == [StepType.YYX, StepType.YX]


def test_closed_path_125_runs():
    # anchored at (1+sqrt(125))/2 the runs read 5, 11, 6
    path = closed_path(make_element(1, 2, 125))
    assert [(t.value, m) for t, m in path.blocks] == [
        ("yx", 5), ("y2x", 11), ("yx", 6)]


def _closure(path):
    """The member triples of an orbit as the paper reads them off its coset
    diagram: the closed path's vertices plus their x-images."""
    return set(path.triples) | {x_triple(t) for t in path.triples}


def test_orbit_members_counts():
    p8 = closed_path(make_element(0, 1, 5))
    p2 = closed_path(make_element(1, 2, 5))
    assert len(_closure(p8)) == 16
    assert len(_closure(p2)) == 4
    assert 16 + 4 == len(enumerate_ambiguous(5))


def test_partition_graph_counts():
    assert sorted(o.ambiguous_length for o in partition_graph(5).orbits) == [4, 16]
    p125 = partition_graph(125)
    assert len(p125) == 2
    i0 = orbit_of(p125, Element(0, -125, 1, 125))
    i1 = orbit_of(p125, Element(1, -62, 2, 125))
    assert i0 is not None and i1 is not None and i0 != i1
    assert len(partition_graph(216)) == 4


def test_partition_lengths_sum():
    for n in (5, 8, 54, 125, 216, 243):
        partition = partition_graph(n)
        assert sum(len(o.triples) for o in partition.orbits) == len(
            enumerate_ambiguous(n)
        )


def test_successor_is_bijective_on_path():
    path = closed_path(make_element(0, 1, 243))
    vertices = set(path.triples)
    images = {successor_triple(t, 243)[0] for t in path.triples}
    assert images == vertices


def test_export_dot():
    partition = partition_graph(5)
    record = partition.orbits[orbit_of(partition, make_element(1, 2, 5))]
    text = export_dot(record)
    assert text == export_dot(record)  # byte determinism
    nodes = [ln for ln in text.splitlines() if ln.endswith('";')]
    directed = [ln for ln in text.splitlines() if "label=" in ln]
    dashed = [ln for ln in text.splitlines() if "dashed" in ln]
    assert len(nodes) == 4 and len(directed) == 4 and len(dashed) == 2


def test_export_dot_node_count_equals_length():
    partition = partition_graph(125)
    for o in partition.orbits:
        text = export_dot(o)
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

    def forbidden(n, max_n=None):
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
    """With isqrt(5) read as 1, the run from (1, -4, 1) has length 0, so
    the walk stays at that run start and meets it again."""
    from ambigraph import diagram
    from ambigraph.errors import InternalInconsistency

    monkeypatch.setattr(diagram, "isqrt", lambda n: 1)
    with pytest.raises(InternalInconsistency) as info:
        closed_path(Element(0, -5, 1, 5))
    message = str(info.value)
    assert message == "walk from (0, -5, 1) revisits (1, -4, 1) (n=5)"
    assert "n=5" in message and str((1, -4, 1)) in message


def test_orbit_of_outside_partition():
    partition = partition_graph(5)
    assert orbit_of(partition, make_element(1, 2, 5)) is not None
    assert orbit_of(partition, make_element(7, 2, 5)) is None  # not ambiguous
    assert orbit_of(partition, make_element(1, 2, 125)) is None


def test_orbit_of_agrees_with_an_index_up_to_300():
    """Every member up to n = 300 and at 69984, and every 7th member at
    1194127, lands in the orbit whose record holds it.  A reduction that
    dropped the odd walk's extra step would misplace members at each."""
    for n in range(2, 301):
        if isqrt(n) ** 2 == n:
            continue
        partition = partition_graph(n)
        index = {t: i for i, o in enumerate(partition.orbits) for t in o.triples}
        for t, i in index.items():
            assert orbit_of(partition, Element(*t, n)) == i, (n, t)
        s = isqrt(n)  # a = s + 1 is past every ambiguous triple of n
        outside = make_element(s + 1, 1, n)
        assert outside.triple not in index
        assert orbit_of(partition, outside) is None, n
    for n, every in ((69984, 1), (1194127, 7)):
        partition = partition_graph(n)
        for i, o in enumerate(partition.orbits):
            for t in o.triples[::every]:
                assert orbit_of(partition, Element(*t, n)) == i, (n, t)


def test_orbits_json_walks_each_closed_path_once(monkeypatch, run_cli):
    """The successor step is inline in the walk: orbits --json calls neither
    successor_triple nor closed_path, no closed path is walked twice, and
    each record's path is its representative's closed path."""
    from ambigraph import diagram
    from ambigraph.enumeration import ambiguous_triples

    calls, records = [], {}
    for name in ("successor_triple", "closed_path"):
        _rebind(monkeypatch, name, getattr(diagram, name),
                lambda *args, name=name: calls.append(name))
    for n, want in ((216, 232), (125, 180)):
        code, out = run_cli("orbits", str(n), "--json")
        assert code == 0 and json.loads(out)["n"] == n
        records[n] = partition_graph(n).orbits
        assert calls == []
        walked = [t for rec in records[n] for t in rec.path.triples]
        assert len(walked) == len(set(walked))
        members = [t for rec in records[n] for t in rec.triples]
        assert len(members) == len(set(members)) == want
        assert set(members) == set(ambiguous_triples(n))
    monkeypatch.undo()
    for n, recs in records.items():
        for rec in recs:
            assert rec.path == closed_path(rec.representative), (n, rec.path)


def test_orbit_records_hold_triples():
    from ambigraph.cf import partition_cf

    for n in (5, 125, 216):
        for partition in (partition_graph(n), partition_cf(n)):
            for rec in partition.orbits:
                assert list(rec.triples) == sorted(
                    rec.triples, key=lambda t: (t[0], t[2]))
                assert rec.path.triples[0] == rec.triples[0]
                assert rec.representative.triple == rec.triples[0]
                assert set(rec.path.triples) <= set(rec.triples)


def _components(triples):
    """The former partition engine: the orbits of the sorted ambiguous
    triples by union-find over generator edges, each a list in enumeration
    order.

    Triples are named by their index in the sorted enumeration; parent[i]
    is an index, find halves the path, and the smaller index becomes the
    root of a union.  y^2 = y^-1, so x and y edges suffice.  x is an
    involution of the ambiguous set, taken from the end with a > 0 (or a = 0,
    c > 0); y(t) = (b-a, b', b), b' = b-2a+c, only if ambiguous: b*b' < 0.
    """
    index = {t: i for i, t in enumerate(triples)}
    parent = list(range(len(triples)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri < rj:
            parent[rj] = ri
        elif rj < ri:
            parent[ri] = rj

    for i, (a, b, c) in enumerate(triples):
        if a > 0 or (a == 0 and c > 0):
            union(i, index[(-a, c, b)])
        d = b - 2 * a + c
        if b * d < 0:
            union(i, index[(b - a, d, b)])
    components = {}
    for i, t in enumerate(triples):
        components.setdefault(find(i), []).append(t)
    return list(components.values())


NONSQUARES_1500 = [n for n in range(2, 1501) if isqrt(n) ** 2 != n]


def _components_of(n):
    from ambigraph.enumeration import ambiguous_triples

    return _components(ambiguous_triples(n))


def _cf_length(rep):
    """The CF length law: with Q the sum of the partial quotients of the
    rep's CF cycle, an orbit has 2Q ambiguous members when the cycle length
    is even and 4Q when it is odd."""
    from ambigraph.cf import cf_expand

    cycle = cf_expand(rep).cycle
    return sum(cycle) * (2 if len(cycle) % 2 == 0 else 4)


def test_union_find_matches_cf_groups_up_to_1500(per_n):
    """The union-find reference gives the cross-checked partition's members
    (test_cf ties the CF revisit-key reference to the same records); each
    record's path is its representative's closed path, its members are the
    path and the path's x-images, and its length follows the CF length law
    and is the path length, doubled unless x maps the path onto itself."""
    for n in NONSQUARES_1500 + [69984, 1194127]:
        ref = per_n(n)
        assert ref.get(_components_of) == ref.members, n
        for rec, members in zip(ref.cf.orbits, ref.members):
            path = closed_path(rec.representative)
            assert rec.path == path, (n, rec.path)
            vertices = set(path.triples)
            closure = vertices | {x_triple(t) for t in vertices}
            assert set(members) == closure, (n, rec.path)
            assert rec.ambiguous_length == len(closure) == _cf_length(
                rec.representative), (n, rec.path)
            assert rec.ambiguous_length == len(path) * (
                1 if x_triple(path.anchor) in vertices else 2), n


def test_generators_on_the_ambiguous_set_up_to_1500():
    """What partition_graph's closure argument relies on: x maps the
    ambiguous set onto itself, y has order 3 (so y^2 adds no edge), and an
    ambiguous y image is enumerated and is the successor of x(t), so sets
    closed under the successor and x are closed under the generators."""
    from ambigraph.core import x_triple
    from ambigraph.enumeration import ambiguous_triples
    from generator_action import y_triple

    for n in NONSQUARES_1500:
        triples = ambiguous_triples(n)
        members = set(triples)
        assert {x_triple(t) for t in triples} == members, n
        for t in triples:
            y = y_triple(t)
            assert y_triple(y_triple(y)) == t, (n, t)
            if y[1] * y[2] < 0:
                assert y in members, (n, t)
                assert successor_triple(x_triple(t), n)[0] == y, (n, t)


def test_partition_graph_names_a_missing_image(monkeypatch):
    """A triple missing from the sieve's count and from the table: the
    orbits' lengths add up to one more than the sieve counts, and the
    error, which only then builds the table, names the triple."""
    from ambigraph import diagram
    from ambigraph.errors import InternalInconsistency

    reduced, count = diagram.reduced_triples(125)
    triples = diagram.ambiguous_triples(125)
    gone = triples[0]  # a < 0, so never a walk's seed
    monkeypatch.setattr(diagram, "reduced_triples",
                        lambda n, max_n=None: (reduced, count - 1))
    monkeypatch.setattr(diagram, "ambiguous_triples",
                        lambda n, max_n=None: triples[1:])
    with pytest.raises(InternalInconsistency) as info:
        partition_graph(125)
    placed = len(reduced)
    assert str(info.value) == (
        f"orbits hold {count} triples and {placed} reduced ones, the sieve "
        f"{count - 1} and {placed}; first difference [{gone}] (n=125)")


def test_partition_graph_error_path_keeps_the_cap(monkeypatch):
    """The mismatch path builds the table under the caller's cap: with the
    default cap below n and max_n above it, a sieve count one short is an
    InternalInconsistency (exit 3), not a LimitExceeded (exit 1)."""
    from ambigraph import diagram, enumeration
    from ambigraph.errors import InternalInconsistency

    reduced, count = diagram.reduced_triples(216)
    monkeypatch.setattr(enumeration, "DEFAULT_MAX_N", 100)
    monkeypatch.setattr(diagram, "reduced_triples",
                        lambda n, max_n=None: (reduced, count - 1))
    with pytest.raises(InternalInconsistency) as info:
        partition_graph(216, max_n=1000)
    assert str(info.value) == (
        f"orbits hold {count} triples and {len(reduced)} reduced ones, the "
        f"sieve {count - 1} and {len(reduced)}; first difference [] (n=216)")


def test_partition_graph_names_a_revisit(monkeypatch):
    """With isqrt(5) read as 1, the first walk of n = 5, from (1, -2, 2),
    still closes, but the second, from (2, -1, 1), stops its Y2X run one
    step short at (-1, -1, 4), whose run then has length 0: the walk meets
    that run start again."""
    from ambigraph import diagram
    from ambigraph.errors import InternalInconsistency

    monkeypatch.setattr(diagram, "isqrt", lambda n: 1)
    with pytest.raises(InternalInconsistency) as info:
        partition_graph(5)
    message = str(info.value)
    assert message == "walk from (2, -1, 1) revisits (-1, -1, 4) (n=5)"
    assert "revisits" in message and "n=5" in message


def _walks_reaching(monkeypatch, bad, first):
    """Make partition_graph's first walk (first) or a later one (not first)
    start from the triple bad instead."""
    from ambigraph import diagram

    runs, calls = diagram._runs, []

    def patched(t, n, limit):
        calls.append(t)
        return runs(bad if (len(calls) == 1) == first else t, n, limit)

    monkeypatch.setattr(diagram, "_runs", patched)


@pytest.mark.parametrize("bad", [(-3, 1, 4), (3, 4, 1)])
@pytest.mark.parametrize("first_cycle", [True, False])
def test_partition_graph_names_a_dichotomy_violation(monkeypatch, bad,
                                                      first_cycle):
    """A non-ambiguous triple of n = 5 walked by partition_graph: both
    successor candidates of (-3, 1, 4) are ambiguous and neither of
    (3, 4, 1)'s is.  It is the start of the first walk (a seed's) or of a
    later one."""
    from ambigraph import diagram
    from ambigraph.errors import DichotomyViolation, InternalInconsistency

    with pytest.raises(DichotomyViolation) as info:
        diagram._runs(bad, 5)
    assert info.value.n == 5 and info.value.element == bad
    _walks_reaching(monkeypatch, bad, first_cycle)
    with pytest.raises(DichotomyViolation) as info:
        partition_graph(5)
    assert isinstance(info.value, InternalInconsistency)
    assert info.value.n == 5 and info.value.element == bad
    assert "n=5" in str(info.value) and str(bad) in str(info.value)


def test_partition_graph_names_an_x_image_in_another_orbit(monkeypatch):
    """The second seed's walk of n = 5 (the second walk: the first orbit's
    path comes from its seed's walk) is made to walk the first seed's cycle
    again, so its reduced triple would be placed in two orbits."""
    from ambigraph import diagram
    from ambigraph.errors import InternalInconsistency

    runs, calls = diagram._runs, []

    def patched(t, n, limit):
        calls.append(t)
        return runs(calls[0] if len(calls) == 2 else t, n, limit)

    monkeypatch.setattr(diagram, "_runs", patched)
    with pytest.raises(InternalInconsistency) as info:
        partition_graph(5)
    message = str(info.value)
    assert message == "(1, -2, 2) lies on the walk of another orbit (n=5)"
    assert calls == [(1, -2, 2), (2, -1, 1)]


def test_dichotomy_violation_in_a_walk_names_n(monkeypatch):
    from ambigraph import diagram
    from ambigraph.errors import DichotomyViolation

    runs = diagram._runs
    # (1, -1, -1) has d = b + 2a + c = 0: neither candidate is ambiguous
    monkeypatch.setattr(diagram, "_runs", lambda t, n: runs((1, -1, -1), n))
    with pytest.raises(DichotomyViolation) as info:
        closed_path(Element(1, -62, 2, 125))
    assert info.value.n == 125 and info.value.element == (1, -1, -1)
    assert "n=125" in str(info.value) and "(1, -1, -1)" in str(info.value)


def test_each_engine_takes_no_step_of_the_other(monkeypatch):
    """Spies on the CF step and on the run walk: partition_graph takes no
    CF step, and the CF side takes no successor step; diagram imports
    nothing from cf."""
    from ambigraph import cf, diagram

    assert not [v for v in vars(diagram).values()
                if getattr(v, "__module__", None) == cf.__name__ or v is cf]
    steps = {"_step": 0, "_runs": 0}

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args):
            steps[name] += 1
            return original(*args)

        _rebind(monkeypatch, name, original, counted)

    spy(cf, "_step")
    spy(diagram, "_runs")
    for n in (5, 216, 69984):
        partition_graph(n)
        assert steps["_step"] == 0 and steps["_runs"] > 0, n
        steps["_runs"] = 0
        for _ in cf._cf_classes(n, reduced_triples(n)[0]):
            pass
        assert steps["_runs"] == 0 and steps["_step"] > 0, n
        steps["_step"] = 0


def test_partition_graph_walks_once_per_orbit(monkeypatch):
    """One successor walk per orbit: each record's path is derived from its
    seed's walk, so partition_graph calls _runs once per orbit, and each
    walk starts at a reduced triple that no earlier walk placed."""
    from ambigraph import diagram

    runs, starts = diagram._runs, []
    monkeypatch.setattr(diagram, "_runs",
                        lambda t, n, limit: starts.append(t) or runs(t, n, limit))
    for n in (5, 125, 216, 1105, 69984):
        partition = partition_graph(n)
        assert len(starts) == len(partition), n
        assert sorted(partition.reduced[t] for t in starts) == list(
            range(len(partition))), n
        starts.clear()


def _reference_walk(t, n):
    """The step-by-step walk that the run walk replaced: lists of the
    vertices, from t on, and step types of the successor cycle through t.
    The step is successor_triple's closed form, inline; successor_triple
    raises the DichotomyViolation of a vertex whose candidates are both or
    neither ambiguous.  A vertex met twice before t means the successor is
    not a bijection: InternalInconsistency.
    """
    from ambigraph.errors import InternalInconsistency

    start, seen, vertices, tags = t, set(), [], []
    vertex, tag = vertices.append, tags.append
    while True:
        vertex(t)
        a, b, c = t
        d = b + 2 * a + c
        if d * c < 0:
            if b * d < 0:
                break
            tag(StepType.YX)
            t = (c + a, d, c)
        elif b * d < 0:
            tag(StepType.YYX)
            t = (b + a, b, d)
        else:
            break
        if t == start:
            return vertices, tags
        if t in seen:
            raise InternalInconsistency(f"walk from {start} revisits {t} (n={n})")
        seen.add(t)
    successor_triple(t, n)


def _cyclic_runs(vertices, tags):
    """The run starts of a cycle, the vertices whose step type differs from
    the step into them, in walk order, and the blocks (type, length) of the
    maximal runs from them."""
    at = [i for i in range(len(tags)) if tags[i] is not tags[i - 1]]
    ends = at[1:] + [at[0] + len(tags)]
    return [vertices[i] for i in at], [(tags[i], j - i) for i, j in zip(at, ends)]


def test_run_walk_equals_the_reference_from_every_reduced_seed():
    """From every reduced triple, the run walk's starts and blocks are the
    reference cycle's run starts and maximal runs rotated to that triple,
    and from the first one on each cycle its replayed vertices and step
    types are the reference's."""
    from ambigraph.diagram import _runs

    for n in NONSQUARES_1500 + [69984, 1194127]:
        cycle_of = {}  # run start -> its cycle's run starts and blocks
        for seed in reduced_triples(n)[0]:
            starts, blocks = _runs(seed, n)
            if seed not in cycle_of:
                vertices, tags = _reference_walk(seed, n)
                path = ClosedPath(n, seed, tuple(blocks))
                assert list(path.triples) == vertices, (n, seed)
                assert _step_types(path) == tags, (n, seed)
                runs = _cyclic_runs(vertices, tags)
                cycle_of.update((t, runs) for t in runs[0])
            ref_starts, ref_blocks = cycle_of[seed]
            i = ref_starts.index(seed)
            assert starts == ref_starts[i:] + ref_starts[:i], (n, seed)
            assert blocks == ref_blocks[i:] + ref_blocks[:i], (n, seed)


def test_run_walk_equals_the_reference_from_every_ambiguous_triple():
    """closed_path from every ambiguous triple of n <= 300, most of them
    inside a run: its vertices and step types are the reference walk's, and
    its blocks are the maximal runs of those step types from the anchor, so
    the first and last share a type exactly when the anchor is inside a
    run, and block_ends gives each block's length, first and last vertex."""
    from ambigraph.enumeration import ambiguous_triples

    for n in range(2, 301):
        if isqrt(n) ** 2 == n:
            continue
        cycle_of = {}  # vertex -> its cycle's vertices and step types
        for t in ambiguous_triples(n):
            if t not in cycle_of:
                walk = _reference_walk(t, n)
                cycle_of.update((v, walk) for v in walk[0])
            vertices, tags = cycle_of[t]
            i = vertices.index(t)
            tags = tags[i:] + tags[:i]
            path = closed_path(Element(*t, n))
            assert list(path.triples) == vertices[i:] + vertices[:i], (n, t)
            assert _step_types(path) == tags, (n, t)
            assert list(path.blocks) == [
                (tag, len(list(run))) for tag, run in groupby(tags)], (n, t)
            assert (path.blocks[0][0] is path.blocks[-1][0]) == (
                tags[0] is tags[-1]), (n, t)
            walk, at = vertices[i:] + vertices[:i], 0
            for (_, k), ends in zip(path.blocks, path.block_ends(), strict=True):
                assert ends == (k, walk[at], walk[at + k - 1]), (n, t)
                at += k


def test_reduced_triples_lie_at_run_starts():
    """Every reduced triple r of a nonsquare n <= 3000, and its x-image, is
    entered by a YX step and left by a Y2X step (the reference successor
    rule), so it starts a run: the run walk sees every reduced vertex and
    every reduced x-image of its cycle among its run starts."""
    for n in range(2, 3001):
        if isqrt(n) ** 2 == n:
            continue
        for r in reduced_triples(n)[0]:
            for t in (r, x_triple(r)):
                before = x_triple(successor_triple(x_triple(t), n)[0])
                assert successor_triple(before, n) == (t, StepType.YX), (n, t)
                assert successor_triple(t, n)[1] is StepType.YYX, (n, t)


def test_partition_graph_bounds_each_walk_by_the_count(monkeypatch):
    """Each run walk of partition_graph is bounded by the sieve's count
    T(n): read as 3, the first walk of n = 125 passes it."""
    from ambigraph import diagram
    from ambigraph.errors import InternalInconsistency

    reduced, count = diagram.reduced_triples(125)
    monkeypatch.setattr(diagram, "reduced_triples",
                        lambda n, max_n=None: (reduced, 3))
    with pytest.raises(InternalInconsistency) as info:
        partition_graph(125)
    assert str(info.value) == f"walk from {reduced[0]} passes 3 steps (n=125)"
