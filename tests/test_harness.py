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


def test_predict():
    reps = predict(make_case("2.1", 5, 3))
    assert [(r.a, r.c) for r in reps] == [(0, 1), (1, 2)]
    reps = predict(make_case("2.3", 3, 5))
    assert [(r.a, r.c) for r in reps] == [(0, 1), (0, -1)]
    reps = predict(make_case("2.9", 3, 3, 3))
    assert [(r.a, r.c) for r in reps] == [(0, 1), (0, -1), (1, 3), (-1, -3)]
    assert [r.intended_value for r in reps] == [1, 7, 3, 5]


def test_resolve_rep():
    res = resolve_rep(RepSpec(1, 3, ClassifierKind.MOD_8, 3), 1000)
    assert res.element.triple == (1, -333, 3) and not res.substituted

    res = resolve_rep(RepSpec(1, 3, ClassifierKind.MOD_8, 3), 216)
    assert res.substituted and res.note
    from ambigraph.classify import class_mod8

    assert class_mod8(res.element).value == 3

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
    from ambigraph import harness

    seen = []
    original = harness.resolve_rep

    def spy(spec, n, p=None, max_n=None):
        seen.append(max_n)
        return original(spec, n, p, max_n=max_n)

    monkeypatch.setattr(harness, "resolve_rep", spy)
    verify_case(make_case("2.9", 3, 5, 3), max_n=10 ** 6)
    assert seen == [10 ** 6] * 4


def test_cross_check_compares_partitions_not_group_order(monkeypatch, run_cli):
    from ambigraph import harness
    from ambigraph.cf import cf_groups
    from ambigraph.diagram import partition_graph
    from ambigraph.errors import InternalInconsistency

    groups = [list(g) for g in cf_groups(216)]
    assert len(groups) == 4
    monkeypatch.setattr(harness, "cf_groups", lambda n, max_n=None: groups[::-1])
    partition = harness.cross_checked_partition(216)
    assert partition.member_sets() == partition_graph(216).member_sets()

    merged = sorted(groups[0] + groups[1], key=lambda t: (t[0], t[2]))
    monkeypatch.setattr(
        harness, "cf_groups", lambda n, max_n=None: [merged] + groups[2:]
    )
    with pytest.raises(InternalInconsistency) as info:
        harness.cross_checked_partition(216)
    assert "n=216" in str(info.value)
    code, out = run_cli("orbits", "216")
    assert code == 3 and out == ""
