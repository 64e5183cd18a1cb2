import pytest

from ambigraph.classify import ClassifierKind
from ambigraph.harness import (
    RepSpec,
    check_paper_examples,
    make_case,
    predict,
    resolve_rep,
    sweep,
    verify_case,
)


def test_make_case_validation():
    case = make_case("2.1", 5, 3)
    assert (case.n, case.l, case.expected_count) == (125, 0, 2)
    with pytest.raises(ValueError):
        make_case("2.1", 3, 3)  # 3 != 1 (mod 4)
    with pytest.raises(ValueError):
        make_case("2.3", 3, 4)  # k even
    with pytest.raises(ValueError):
        make_case("2.9", 3, 3)  # missing l
    with pytest.raises(ValueError):
        make_case("2.9", 3, 3, 2)  # l < 3
    with pytest.raises(ValueError):
        make_case("2.1", None, 3)  # missing p
    with pytest.raises(ValueError):
        make_case("2.9", 3, None, 3)  # missing k
    for theorem, p, l in (("2.1", 9, 0), ("2.3", 15, 0), ("2.9", 25, 3),
                          ("2.9", 1, 3), ("2.9", -3, 3), ("2.9", 0, 3)):
        with pytest.raises(ValueError, match="p must be an odd prime"):
            make_case(theorem, p, 3, l)
    for theorem, p, l, message in (
        ("2.1", 5, 1, "theorem 2.1 requires l=0"),
        ("2.3", 3, 2, "theorem 2.3 requires l=0"),
        ("2.5", 5, 0, "theorem 2.5 requires l=1"),
        ("2.6", 3, 3, "theorem 2.6 requires l=1"),
        ("2.7", 5, 1, "theorem 2.7 requires l=2"),
        ("2.8", 3, 0, "theorem 2.8 requires l=2"),
        ("2.9", 3, 2, "theorem 2.9 needs l >= 3"),
        ("2.9", 5, None, "theorem 2.9 needs l >= 3"),
        ("2.1", 3, None, "theorem 2.1 requires p = 1 (mod 4)"),
        ("2.3", 5, None, "theorem 2.3 requires p = 3 (mod 4)"),
        ("2.5", 7, 1, "theorem 2.5 requires p = 1 (mod 4)"),
        ("2.6", 13, 1, "theorem 2.6 requires p = 3 (mod 4)"),
        ("2.7", 11, 2, "theorem 2.7 requires p = 1 (mod 4)"),
        ("2.8", 17, 2, "theorem 2.8 requires p = 3 (mod 4)"),
        ("2.2", 3, None, "unknown theorem 2.2"),
    ):
        with pytest.raises(ValueError) as exc:
            make_case(theorem, p, 3, l)
        assert str(exc.value) == message, (theorem, p, l)
    # exploratory: a p = 1 (mod 4) family at p = 1 (mod 8), never theorem 2.9
    for theorem, l, exploratory in (("2.1", 0, True), ("2.5", 1, True),
                                    ("2.7", 2, True), ("2.9", 3, False)):
        assert make_case(theorem, 17, 3, l).exploratory is exploratory
        assert make_case(theorem, 13, 3, l).exploratory is False  # 13 = 5 (mod 8)


def test_make_case_refuses_only_cases_past_the_cap():
    from ambigraph.enumeration import DEFAULT_MAX_N
    from ambigraph.errors import LimitExceeded

    for p in (3, 5, 7, 11, 13, 17, 31, 127):
        for k in (3, 5, 7):
            for l in (3, 4, 5, 8):
                n = 2 ** l * p ** k
                for cap in (n - 1, n, n + 1, 2 * n - 1, 2 * n, None):
                    try:
                        assert make_case("2.9", p, k, l, max_n=cap).n == n
                    except LimitExceeded:
                        assert n > (DEFAULT_MAX_N if cap is None else cap)
    with pytest.raises(LimitExceeded):
        make_case("2.9", 3, 3, 10 ** 12)
    with pytest.raises(LimitExceeded):
        make_case("2.3", 3, 10 ** 12 + 1, max_n=10 ** 9)


def test_predict():
    mod_p, mod_8 = ClassifierKind.MOD_P, ClassifierKind.MOD_8
    for theorem, p, l, count, kind, reps in (
        ("2.1", 5, 0, 2, mod_p, [(0, 1, 1), (1, 2, -1)]),
        ("2.3", 3, 0, 2, mod_p, [(0, 1, 1), (0, -1, -1)]),
        ("2.5", 5, 1, 2, mod_p, [(0, 1, 1), (1, 2, -1)]),
        ("2.6", 3, 1, 2, mod_p, [(0, 1, 1), (0, -1, -1)]),
        ("2.7", 5, 2, 2, mod_p, [(0, 1, 1), (1, 2, -1)]),
        ("2.8", 3, 2, 2, mod_p, [(0, 1, 1), (0, -1, -1)]),
        ("2.9", 3, 3, 4, mod_8, [(0, 1, 1), (0, -1, 7), (1, 3, 3), (-1, -3, 5)]),
        ("2.9", 5, 6, 4, mod_8, [(0, 1, 1), (0, -1, 7), (1, 3, 3), (-1, -3, 5)]),
    ):
        case = make_case(theorem, p, 3, l)
        assert (case.l, case.expected_count) == (l, count), theorem
        specs = predict(case)
        assert [(r.a, r.c, r.intended_value) for r in specs] == reps, theorem
        assert {r.kind for r in specs} == {kind}, theorem


def test_resolve_rep():
    res = resolve_rep(RepSpec(1, 3, ClassifierKind.MOD_8, 3), 1000)
    assert res.element.triple == (1, -333, 3) and not res.substituted

    res = resolve_rep(RepSpec(1, 3, ClassifierKind.MOD_8, 3), 216)
    assert res.substituted and res.note
    from ambigraph.classify import classifier_for

    assert classifier_for(ClassifierKind.MOD_8, 216)(res.element.triple) == 3

    res = resolve_rep(RepSpec(0, 1, ClassifierKind.MOD_8, 1), 216)
    assert res.element.triple == (0, -216, 1) and not res.substituted


def test_verify_2_1():
    report = verify_case(make_case("2.1", 5, 3))
    assert report.computed_count == 2
    assert report.count_match and report.reps_in_distinct_orbits
    assert report.class_homogeneous and report.passed
    assert not report.errata_notes


def test_verify_2_9_classes():
    report = verify_case(make_case("2.9", 5, 3, 3))
    assert report.computed_count == 4
    assert sorted(report.orbit_classes) == [1, 3, 5, 7]
    assert report.passed


def test_verify_empty_class_is_nonblocking():
    # n = 500: the Legendre nonresidue class is empty; the claimed second rep
    # cannot be resolved, but the orbit count claim still verifies
    report = verify_case(make_case("2.7", 5, 3, 2))
    assert report.computed_count == 2 and report.count_match
    assert report.passed
    assert any("no ambiguous element of class -1" in note
               for note in report.errata_notes)


def test_verify_exploratory_p17():
    case = make_case("2.1", 17, 3)
    assert case.exploratory
    report = verify_case(case)
    assert report.computed_count >= 1  # recorded, not asserted
    assert any("degenera" in note for note in report.errata_notes)
    assert report.passed


def test_paper_examples_report():
    report = check_paper_examples()
    assert report.has_errata
    by_claim = {f.claim: f for f in report.findings}
    second = by_claim["second word of the sqrt(5^5) example fixes (1+5^2 sqrt(5))/2"]
    assert not second.holds and "5^3" in second.errata
    ex_2_4 = by_claim["sqrt(3^5) example word fixes 3^2*sqrt(3) and its -1 companion"]
    assert ex_2_4.holds
    four_small = by_claim["exactly four orbits of Q*(sqrt(69984))"]
    assert not four_small.holds and "12 orbits" in four_small.errata
    four_big = by_claim["exactly four orbits of Q*(sqrt(139968))"]
    assert four_big.holds


def test_sweep():
    rows = sweep([3, 5], [3], [0, 1], max_n=10 ** 6)
    assert len(rows) == 4
    assert all(r.status == "pass" for r in rows)
    assert {r.theorem for r in rows} == {"2.1", "2.3", "2.5", "2.6"}

    assert sweep([], [], [], max_n=100) == ()

    # a p that make_case refuses is an error row, not an abort of the grid
    rows = sweep([2, 3, 9], [3], [0], max_n=10 ** 6)
    assert [r.status for r in rows] == ["error", "pass", "error"]
    assert rows[0].detail == "theorem 2.3 requires p = 3 (mod 4)"
    assert rows[2].detail == "p must be an odd prime"

    rows = sweep([5], [3], [0], max_n=100)
    assert rows[0].status == "skipped"

    rows = sweep([5], [4], [1], max_n=10 ** 6)
    assert rows[0].status == "out-of-scope" and rows[0].computed_count > 0

    # k even with l = 0 makes n a perfect square; recorded, not raised
    rows = sweep([5], [4], [0], max_n=10 ** 6)
    assert rows[0].status == "out-of-scope" and rows[0].computed_count == -1
    assert "nonsquare" in rows[0].detail


def test_sweep_records_refuted_2_9_case():
    # p=3, k=5, l=3 (n=1944): twelve orbits, refuting the published count
    rows = sweep([3], [5], [3], max_n=10 ** 6)
    assert rows[0].status == "fail"
    assert rows[0].computed_count == 12 and rows[0].expected_count == 4


def test_sweep_passes_its_cap_through(monkeypatch):
    from ambigraph import harness
    from ambigraph.errors import AmbigraphError

    seen = []

    def spy(name):
        def call(*args, max_n=None):
            seen.append((name, max_n))
            raise AmbigraphError("spy")
        return call

    monkeypatch.setattr(harness, "verify_case", spy("verify_case"))
    monkeypatch.setattr(harness, "cross_checked_partition", spy("partition"))
    cap = 2 * 10 ** 8
    rows = sweep([3], [17, 4], [0], max_n=cap)
    assert seen == [("verify_case", cap), ("partition", cap)]
    assert [r.status for r in rows] == ["error", "out-of-scope"]


def test_verify_case_passes_its_cap_to_resolve_rep(monkeypatch):
    """verify_case hands resolve_rep its cap and the class summary it has
    built, and every enumeration that it or a direct resolve_rep fallback
    triggers is checked against that cap."""
    from ambigraph import enumeration, harness
    from ambigraph.errors import LimitExceeded

    seen, caps = [], []
    original, check = harness.resolve_rep, enumeration.check_cap

    def spy(spec, n, p=None, max_n=None, *, summary=None):
        seen.append((max_n, summary is not None))
        return original(spec, n, p, max_n=max_n, summary=summary)

    monkeypatch.setattr(harness, "resolve_rep", spy)
    monkeypatch.setattr(enumeration, "check_cap",
                        lambda n, max_n=None: caps.append(max_n) or check(n, max_n))
    case = make_case("2.9", 3, 5, 3)  # n = 1944: (1, 3) and (-1, -3) fall back
    verify_case(case, max_n=10 ** 6)
    assert seen == [(10 ** 6, True)] * 4
    assert caps and set(caps) == {10 ** 6}
    caps.clear()
    spec = predict(case)[2]
    assert original(spec, case.n, case.p, max_n=10 ** 6).substituted
    assert caps and set(caps) == {10 ** 6}
    for call in (lambda: verify_case(case, max_n=case.n - 1),
                 lambda: original(spec, case.n, case.p, max_n=case.n - 1)):
        with pytest.raises(LimitExceeded):
            call()


def _reference_summary(partition, classify):
    """class_occupancy from every member of every orbit, classified one by
    one: the computation verify_case made before it read the run blocks."""
    from collections import Counter

    from ambigraph.classify import ClassSummary

    orbit_classes, occupancy, least = [], Counter(), {}
    for record in partition.orbits:
        classes = [classify(t) for t in record.triples]
        occupancy.update(classes)
        orbit_classes.append(frozenset(classes))
        for t, value in zip(record.triples, classes):  # in (a, c) order
            m = least.setdefault(value, t)
            if (t[0], t[2]) < (m[0], m[2]):
                least[value] = t
    return ClassSummary(tuple(orbit_classes), dict(sorted(occupancy.items())), least)


def _reference_verify(case, max_n=None):
    """verify_case, and the resolve_rep fallbacks it triggers, on the
    per-member summary, with runtime zeroed."""
    from unittest import mock

    from ambigraph import harness

    with mock.patch.object(harness, "class_occupancy", _reference_summary):
        report = verify_case(case, max_n=max_n)
    return report._replace(runtime=0)


def _theorem_cases(limit):
    """Every theorem case with n <= limit and p < 50."""
    from ambigraph.harness import _theorem_for

    for p in [p for p in range(3, 50) if all(p % q for q in range(2, p))]:
        for k in range(3, limit.bit_length(), 2):
            for l in range(limit.bit_length()):
                if p ** k << l <= limit:
                    yield make_case(_theorem_for(p, l), p, k, l, max_n=limit)


def _assert_matches_the_reference(cases, max_n):
    from unittest import mock

    from ambigraph import harness

    for case in cases:
        report = verify_case(case, max_n=max_n)
        assert report._replace(runtime=0) == _reference_verify(
            case, max_n), case
    grid = ([3, 5, 7, 11, 13], [1, 2, 3, 5, 7], [0, 1, 2, 3, 4])
    rows = sweep(*grid, max_n=max_n)
    with mock.patch.object(harness, "class_occupancy", _reference_summary):
        assert rows == sweep(*grid, max_n=max_n)


def test_verify_from_run_blocks_matches_the_reference():
    """Every theorem case with n <= 10^6 and p < 50, and a sweep, report
    what the per-member computation reports."""
    cases = list(_theorem_cases(10 ** 6))
    assert len(cases) > 150
    _assert_matches_the_reference(cases, 10 ** 6)


@pytest.mark.slow
def test_verify_from_run_blocks_matches_the_reference_at_large_n():
    """As above to n <= 10^7, and at 3^17 and 3^19."""
    cases = [c for c in _theorem_cases(10 ** 7) if c.n > 10 ** 6]
    cases += [make_case("2.3", 3, k, max_n=3 ** 19) for k in (17, 19)]
    _assert_matches_the_reference(cases, 3 ** 19)


def test_classifiers_are_constant_along_every_run():
    """The run lemma's premise, on the classifiers themselves: for every
    nonsquare n <= 3000 and every classifier n admits, the vertices of each
    block of each orbit's path and their x-images share one class."""
    from math import isqrt

    from ambigraph.classify import classifier_for, odd_prime_divisors
    from ambigraph.core import x_triple
    from ambigraph.diagram import partition_graph

    pairs = 0
    for n in range(2, 3001):
        if isqrt(n) ** 2 == n:
            continue
        classifiers = [classifier_for(ClassifierKind.MOD_P, n, p)
                       for p in odd_prime_divisors(n)]
        if n % 8 == 0:
            classifiers.append(classifier_for(ClassifierKind.MOD_8, n))
        if not classifiers:
            continue
        for record in partition_graph(n).orbits:
            vertices = iter(record.path.triples)
            for _, k in record.path.blocks:
                run = [next(vertices) for _ in range(k)]
                run += [x_triple(t) for t in run]
                for classify in classifiers:
                    assert len(set(map(classify, run))) == 1, (n, run[0])
                    pairs += 1
    assert pairs > 400000


def test_cross_check_is_partition_cf():
    from ambigraph import cf, harness

    assert harness.cross_checked_partition is cf.partition_cf


def test_cross_check_compares_partitions_not_group_order(monkeypatch, run_cli):
    """CF cycles walked from another state come out in another order, with
    their parity classes swapped, and still match; a cycle whose first two
    states are swapped mixes two orbits and does not."""
    from ambigraph import cf, harness
    from ambigraph.diagram import partition_graph
    from ambigraph.enumeration import reduced_triples
    from ambigraph.errors import InternalInconsistency
    from orbit_sets import member_sets

    cycle = cf._cycle

    def rotated(t, s, limit, origin):
        states, quotients = cycle(t, s, limit, origin)
        return states[1:] + states[:1], quotients[1:] + quotients[:1]

    def swapped(t, s, limit, origin):
        states, quotients = cycle(t, s, limit, origin)
        return [states[1], states[0], *states[2:]], quotients

    reduced = reduced_triples(216)[0]
    plain = [set(states) for states, _ in cf._cf_classes(216, reduced)]
    monkeypatch.setattr(cf, "_cycle", rotated)
    assert [set(states) for states, _ in cf._cf_classes(216, reduced)] == [
        plain[1], plain[0], plain[3], plain[2]]
    partition = harness.cross_checked_partition(216)
    assert member_sets(partition) == member_sets(partition_graph(216))

    monkeypatch.setattr(cf, "_cycle", swapped)
    with pytest.raises(InternalInconsistency) as info:
        harness.cross_checked_partition(216)
    assert "n=216" in str(info.value)
    for method in ("both", "cf"):
        code, out = run_cli("orbits", "216", "--method", method)
        assert code == 3 and out == "", method
    code, out = run_cli("orbits", "216", "--method", "graph")
    assert code == 0 and out.startswith("4 orbits")


def test_theorem_for_reads_the_theorem_tables():
    from ambigraph.harness import _theorem_for

    def former(p, l):  # the rule spelled out before it read the tables
        if l == 0:
            return "2.1" if p % 4 == 1 else "2.3"
        if l == 1:
            return "2.5" if p % 4 == 1 else "2.6"
        if l == 2:
            return "2.7" if p % 4 == 1 else "2.8"
        return "2.9"

    for p in range(-9, 60):
        for l in range(8):
            assert _theorem_for(p, l) == former(p, l), (p, l)
