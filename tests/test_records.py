"""The records the package returns: immutable, validated on construction,
with the fields, defaults, equality and repr their callers rely on."""

import pytest

from ambigraph.cf import cf_expand, partition_cf
from ambigraph.classify import ClassifierKind, class_occupancy, invariance_audit
from ambigraph.core import Element, make_element
from ambigraph.diagram import OrbitPartition, StepType, partition_graph
from ambigraph.errors import (NonPositiveN, NotDivisible, NotPrimitive, SquareN,
                              ZeroDenominator)
from ambigraph.harness import (ExamplesReport, Finding, SweepRow, make_case,
                               predict, sweep, verify_case)
from ambigraph.words import (Circuit, Word, check_word_fixes, circuit_from_path,
                             parse_word)

RECORD_TYPES = {
    "AuditReport", "Circuit", "ClassSummary", "ClosedPath", "Element",
    "ExamplesReport", "Expansion", "Finding", "Mat2", "OrbitPartition",
    "OrbitRecord", "RepResolution", "RepSpec", "SweepRow", "TheoremCase",
    "VerdictReport", "Word", "WordVerdict",
}


def _records():
    """(record, one of its field names) for one instance of each record type."""
    pg = partition_cf(125)
    rec = pg.orbits[0]
    verdict = check_word_fixes(parse_word("(yx)^5(y^2x)^11(yx)^6"),
                               make_element(1, 2, 125))
    report = verify_case(make_case("2.1", 5, 3))
    finding = Finding("claim", True)
    return [
        (rec.representative, "a"), (rec.path, "anchor"), (rec, "path"), (pg, "reduced"),
        (cf_expand(make_element(0, 1, 125)), "cycle"),
        (verdict, "fixes"), (verdict.word, "blocks"), (verdict.matrix, "p"),
        (circuit_from_path(rec.path), "start"),
        (invariance_audit(125, ClassifierKind.MOD_P, 5, depth=2), "violations"),
        (class_occupancy(pg, lambda t: t[2] > 0), "least"),
        (report, "runtime"), (report.case, "n"), (report.rep_resolutions[0], "note"),
        (predict(report.case)[0], "a"), (finding, "details"),
        (ExamplesReport((finding,)), "findings"),
        (sweep([5], [3], [0], 10 ** 6)[0], "detail"),
    ]


def test_every_record_type_is_covered_and_immutable():
    records = _records()
    assert {type(r).__name__ for r, _ in records} == RECORD_TYPES
    for record, name in records:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before


@pytest.mark.parametrize("args, exc", [
    ((1, -1, 4, -3), NonPositiveN),
    ((0, -1, 9, 9), SquareN),
    ((1, 2, 0, 5), ZeroDenominator),
    ((1, 1, 1, 5), NotDivisible),
    ((0, -2, 4, 8), NotPrimitive),
])
def test_invalid_element_raises_on_every_construction(args, exc):
    a, b, c, n = args
    with pytest.raises(exc):
        Element(a, b, c, n)
    with pytest.raises(exc):
        Element.from_triple((a, b, c), n)
    with pytest.raises(exc):
        Element(a=a, b=b, c=c, n=n)
    with pytest.raises(exc):
        Element.parse(f"{a},{b},{c}|{n}")


def test_invalid_word_raises():
    with pytest.raises(ValueError):
        Word(((StepType.YX, 0),))
    with pytest.raises(ValueError):
        Word(((StepType.YX, 1), (StepType.YX, 2)))
    with pytest.raises(ValueError):
        Word(blocks=((StepType.YYX, 1), (StepType.YX, -1)), notices=("n",))


def test_replace_validates_elements_and_words():
    e = Element(1, -31, 4, 125)
    assert e._replace(a=-1, b=31, c=-4) == Element(-1, 31, -4, 125)
    with pytest.raises(NonPositiveN):
        e._replace(n=-5)
    w = Word(((StepType.YX, 2), (StepType.YYX, 3)))
    assert w._replace(notices=("m",)).notices == ("m",)
    with pytest.raises(ValueError):
        w._replace(blocks=((StepType.YX, 1), (StepType.YX, 1)))


def test_fields_defaults_and_repr():
    e = Element(1, -31, 4, 125)
    assert repr(e) == "Element(a=1, b=-31, c=4, n=125)" and str(e) == "1,-31,4|125"
    assert Word(((StepType.YX, 2),)).notices == ()
    assert repr(Word(((StepType.YX, 2),), ("m",))) == (
        "Word(blocks=((<StepType.YX: 'yx'>, 2),), notices=('m',))")
    assert repr(Circuit((1, 2), StepType.YYX)) == (
        "Circuit(exponents=(1, 2), start=<StepType.YYX: 'y2x'>)")
    f = Finding("c", False)
    assert (f.errata, f.details) == ("", {})
    assert repr(f) == "Finding(claim='c', holds=False, errata='', details={})"
    row = SweepRow(3, 3, 0, 27, "2.3", "pass", 2, 2)
    assert row.detail == "" and repr(row) == (
        "SweepRow(p=3, k=3, l=0, n=27, theorem='2.3', status='pass', "
        "computed_count=2, expected_count=2, detail='')")
    pg = partition_graph(5)
    assert repr(pg) == f"OrbitPartition(n=5, orbits={pg.orbits!r})"


def test_excluded_fields_stay_out_of_equality_and_hash():
    blocks = ((StepType.YX, 2), (StepType.YYX, 1))
    w, noted = Word(blocks), Word(blocks, ("merged",))
    assert w == noted and not w != noted and hash(w) == hash(noted)
    assert w != Word(blocks[:1])
    c, other = Circuit((1, 2), StepType.YX), Circuit((1, 2), StepType.YYX)
    assert c == other and not c != other and hash(c) == hash(other)
    assert c != Circuit((2, 1), StepType.YX)
    pg = partition_graph(125)
    bare = OrbitPartition(pg.n, pg.orbits, {})
    assert bare == pg and not bare != pg and hash(bare) == hash(pg)
    assert bare != OrbitPartition(pg.n, pg.orbits[:1], pg.reduced)
    assert "reduced" not in repr(pg)


def test_findings_built_without_details_share_no_dict():
    one, two = Finding("a", True), Finding("b", True, errata="e")
    assert one.details == two.details == {}
    assert one.details is not two.details
