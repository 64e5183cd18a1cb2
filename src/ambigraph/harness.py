"""Verification engine for the orbit-count theorems and published examples.

A TheoremCase fixes (p, k, l) and the claimed orbit structure of
Q*(sqrt(2^l p^k)); verify_case computes the partition by both independent
algorithms, resolves the claimed representatives (substituting class-matching
elements when a literal representative is not a valid primitive triple), and
reports count matches, orbit separations, classifier homogeneity, and errata.

Errata are findings, not failures: several published labels are
computationally refutable and the reports say so explicitly.
"""

import time
from collections import Counter
from dataclasses import dataclass, field

from .classify import ClassifierKind, classifier_for
from .core import Element, is_ambiguous, make_element
from .diagram import OrbitPartition, closed_path, partition_graph
from .cf import cf_groups
from .enumeration import checked_triples
from .errors import AmbigraphError, InternalInconsistency
from .words import check_word_fixes, circuit_from_path, parse_word, path_word

THEOREM_L = {"2.1": 0, "2.3": 0, "2.5": 1, "2.6": 1, "2.7": 2, "2.8": 2}
_P_MOD4 = {"2.1": 1, "2.3": 3, "2.5": 1, "2.6": 3, "2.7": 1, "2.8": 3}


@dataclass(frozen=True)
class TheoremCase:
    theorem: str
    p: int
    k: int
    l: int
    n: int
    expected_count: int
    exploratory: bool


def make_case(theorem: str, p: int, k: int, l: int = None) -> TheoremCase:
    if p is None or k is None:
        raise ValueError(f"theorem {theorem} needs p and k")
    if theorem == "2.9":
        if l is None or l < 3:
            raise ValueError("theorem 2.9 needs l >= 3")
    else:
        if theorem not in THEOREM_L:
            raise ValueError(f"unknown theorem {theorem}")
        want = THEOREM_L[theorem]
        if l is None:
            l = want
        if l != want:
            raise ValueError(f"theorem {theorem} requires l={want}")
        if p % 4 != _P_MOD4[theorem]:
            raise ValueError(
                f"theorem {theorem} requires p = {_P_MOD4[theorem]} (mod 4)"
            )
    if p % 2 == 0:
        raise ValueError("p must be an odd prime")
    if k < 3 or k % 2 == 0:
        raise ValueError("k must be odd and >= 3")
    n = 2 ** l * p ** k
    expected = 4 if theorem == "2.9" else 2
    exploratory = theorem in ("2.1", "2.5", "2.7") and p % 8 == 1
    return TheoremCase(theorem, p, k, l, n, expected, exploratory)


@dataclass(frozen=True)
class RepSpec:
    a: int
    c: int
    kind: ClassifierKind
    intended_value: int


def predict(case: TheoremCase):
    """Expected representatives with their intended classifier values."""
    if case.theorem == "2.9":
        return (
            RepSpec(0, 1, ClassifierKind.MOD_8, 1),
            RepSpec(0, -1, ClassifierKind.MOD_8, 7),
            RepSpec(1, 3, ClassifierKind.MOD_8, 3),
            RepSpec(-1, -3, ClassifierKind.MOD_8, 5),
        )
    if case.p % 4 == 1:
        return (
            RepSpec(0, 1, ClassifierKind.MOD_P, 1),
            RepSpec(1, 2, ClassifierKind.MOD_P, -1),
        )
    return (
        RepSpec(0, 1, ClassifierKind.MOD_P, 1),
        RepSpec(0, -1, ClassifierKind.MOD_P, -1),
    )


@dataclass(frozen=True)
class RepResolution:
    spec: RepSpec
    element: Element  # None when the intended class is empty
    substituted: bool
    note: str  # empty when the literal representative was valid


def resolve_rep(
    spec: RepSpec, n: int, p: int = None, max_n: int = None
) -> RepResolution:
    classify = classifier_for(spec.kind, n, p)
    try:
        e = make_element(spec.a, spec.c, n)
        if not is_ambiguous(e):
            raise AmbigraphError("representative is not ambiguous")
        value = classify(e.triple)
        if value == spec.intended_value:
            return RepResolution(spec, e, False, "")
        note = (
            f"literal representative ({spec.a},{spec.c}|{n}) has class "
            f"{value}, not the intended {spec.intended_value} "
            "(classifier degeneracy)"
        )
        return RepResolution(spec, e, False, note)
    except AmbigraphError as exc:
        reason = str(exc)
    for t in checked_triples(n, max_n):
        if classify(t) == spec.intended_value:
            cand = Element.from_triple(t, n)
            note = (
                f"literal representative ({spec.a},{spec.c}|{n}) is invalid "
                f"({reason}); substituted least element of class "
                f"{spec.intended_value}: {cand}"
            )
            return RepResolution(spec, cand, True, note)
    return RepResolution(
        spec,
        None,
        False,
        f"no ambiguous element of class {spec.intended_value} exists for n={n}",
    )


@dataclass(frozen=True)
class VerdictReport:
    case: TheoremCase
    computed_count: int
    count_match: bool
    rep_resolutions: tuple
    rep_orbits: tuple  # orbit index per resolved rep, None when unresolved
    reps_in_distinct_orbits: bool
    orbit_classes: tuple  # classifier value per orbit, None if not homogeneous
    class_homogeneous: bool
    class_occupancy: dict
    errata_notes: tuple
    runtime: float

    @property
    def passed(self):
        if self.case.exploratory:
            # count and rep placement are recorded, not asserted
            return self.class_homogeneous
        return (
            self.count_match
            and self.reps_in_distinct_orbits
            and self.class_homogeneous
        )

    @property
    def has_errata(self):
        return bool(self.errata_notes)


def cross_checked_partition(n: int, max_n: int = None) -> OrbitPartition:
    """Graph and CF partitions, verified identical as lists of member
    triples in enumeration order; CF is the trusted oracle."""
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


def verify_case(case: TheoremCase, max_n: int = None) -> VerdictReport:
    start = time.perf_counter()
    partition = cross_checked_partition(case.n, max_n=max_n)
    kind = ClassifierKind.MOD_8 if case.theorem == "2.9" else ClassifierKind.MOD_P
    p = None if kind is ClassifierKind.MOD_8 else case.p
    classify = classifier_for(kind, case.n, p)

    errata = []
    resolutions = tuple(
        resolve_rep(spec, case.n, case.p, max_n=max_n) for spec in predict(case)
    )
    for res in resolutions:
        if res.note:
            errata.append(res.note)

    rep_orbits = tuple(
        partition.orbit_of(res.element) if res.element is not None else None
        for res in resolutions
    )
    # an unresolvable rep (empty class) halts only that rep; the distinctness
    # check applies to the representatives that do resolve
    located = [i for i in rep_orbits if i is not None]
    distinct = len(located) == len(set(located))
    if not distinct:
        errata.append("claimed representatives do not land in distinct orbits")

    orbit_classes = []
    homogeneous = True
    occupancy = Counter()
    for record in partition.orbits:
        classes = [classify(t) for t in record.triples]
        occupancy.update(classes)
        values = set(classes)
        if len(values) == 1:
            orbit_classes.append(values.pop())
        else:
            orbit_classes.append(None)
            homogeneous = False

    count = len(partition)
    count_match = count == case.expected_count
    if not count_match and not case.exploratory:
        errata.append(
            f"computed orbit count {count} != claimed {case.expected_count} "
            f"for n={case.n}"
        )
    if case.exploratory:
        errata.append(
            f"exploratory case (p={case.p} = 1 mod 8): the mod-p classifier "
            "degenerates (nonresidue class can be empty); computed count "
            f"{count} recorded without asserting the claim"
        )

    return VerdictReport(
        case,
        count,
        count_match,
        resolutions,
        rep_orbits,
        distinct,
        tuple(orbit_classes),
        homogeneous,
        dict(sorted(occupancy.items())),
        tuple(errata),
        time.perf_counter() - start,
    )


# --- published examples --------------------------------------------------

EXAMPLE_2_2_WORD_1 = (
    "(yx)^{22}(y^2x)^{5}(yx)^{1}(y^2x)^{1}(yx)^{5}"
    "(yx)^{22}(y^2x)^{5}(yx)^{1}(y^2x)^{1}(yx)^{5}"
)
EXAMPLE_2_2_WORD_2 = "(yx)^{5}(y^2x)^{11}(yx)^{6}"
EXAMPLE_2_4_WORD = (
    "(yx)^{15}(y^2x)^{1}(yx)^{1}(y^2x)^{2}(yx)^{3}(y^2x)^{15}"
    "(yx)^{3}(y^2x)^{2}(yx)^{1}(y^2x)^{1}(yx)^{15}"
)


@dataclass(frozen=True)
class Finding:
    claim: str
    holds: bool
    errata: str = ""
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExamplesReport:
    findings: tuple

    @property
    def has_errata(self):
        return any(f.errata for f in self.findings)


def check_paper_examples(max_n: int = None) -> ExamplesReport:
    findings = []

    # first stabilizer word of the 5^5 example, against both 5^5 and 5^3
    w1 = parse_word(EXAMPLE_2_2_WORD_1)
    notes = "; ".join(w1.notices)
    v_3125 = check_word_fixes(w1, make_element(0, 1, 3125))
    v_125 = check_word_fixes(w1, make_element(0, 1, 125))
    findings.append(
        Finding(
            "first word of the sqrt(5^5) example fixes 5^2*sqrt(5)",
            v_3125.fixes,
            errata=""
            if v_3125.fixes
            else (
                "the published word (after merging its adjacent (yx)-blocks: "
                f"{notes}) fixes neither sqrt(3125) nor sqrt(125); "
                f"fixed-point quadratics {v_3125.quadratic} / {v_125.quadratic} "
                "are not proportional to either target"
            ),
            details={"fixes_125": v_125.fixes},
        )
    )

    # second word: claimed for (1+5^2 sqrt5)/2, actually fixes (1+sqrt(125))/2
    w2 = parse_word(EXAMPLE_2_2_WORD_2)
    v_claim = check_word_fixes(w2, make_element(1, 2, 3125))
    v_fix = check_word_fixes(w2, make_element(1, 2, 125))
    errata = ""
    if v_fix.fixes and not v_claim.fixes:
        errata = (
            "the word fixes (1+sqrt(125))/2, not the published "
            "(1+5^2 sqrt(5))/2: the example's n=5^5 label should read 5^3"
        )
    findings.append(
        Finding(
            "second word of the sqrt(5^5) example fixes (1+5^2 sqrt(5))/2",
            v_claim.fixes,
            errata=errata,
            details={"fixes_125_rep": v_fix.fixes},
        )
    )

    # sqrt(3^5) example: word fixes both representatives, circuit reproduced
    w4 = parse_word(EXAMPLE_2_4_WORD)
    v_pos = check_word_fixes(w4, make_element(0, 1, 243))
    v_neg = check_word_fixes(w4, make_element(0, -1, 243))
    path = closed_path(make_element(0, 1, 243))
    findings.append(
        Finding(
            "sqrt(3^5) example word fixes 3^2*sqrt(3) and its -1 companion",
            v_pos.fixes and v_neg.fixes,
            details={
                "stabilizer_word": str(path_word(path)),
                "circuit": circuit_from_path(path).exponents,
            },
        )
    )

    # four orbits of sqrt(2^5 3^7) and sqrt(2^6 3^7)
    for n in (2 ** 5 * 3 ** 7, 2 ** 6 * 3 ** 7):
        partition = cross_checked_partition(n, max_n=max_n)
        findings.append(
            Finding(
                f"exactly four orbits of Q*(sqrt({n}))",
                len(partition) == 4,
                errata=""
                if len(partition) == 4
                else f"computed {len(partition)} orbits for n={n}",
            )
        )
        # the published representative (0 + sqrt(n))/3 is not primitive
        try:
            make_element(0, 3, n)
            rep_note = ""
        except AmbigraphError as exc:
            rep_note = (
                f"published representative (0+sqrt({n}))/3 is not a valid "
                f"primitive triple ({exc}); class-3 elements exist and are "
                "substituted"
            )
        if rep_note:
            findings.append(
                Finding(
                    f"published representative sqrt({n})/3 is a valid element",
                    False,
                    errata=rep_note,
                )
            )
    return ExamplesReport(tuple(findings))


# --- sweeps --------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    p: int
    k: int
    l: int
    n: int
    theorem: str  # "" when out of theorem scope
    status: str  # pass | fail | exploratory | out-of-scope | skipped | error
    computed_count: int  # -1 when not computed
    expected_count: int  # -1 when no expectation
    detail: str = ""


def _theorem_for(p, l):
    if l == 0:
        return "2.1" if p % 4 == 1 else "2.3"
    if l == 1:
        return "2.5" if p % 4 == 1 else "2.6"
    if l == 2:
        return "2.7" if p % 4 == 1 else "2.8"
    return "2.9"


def sweep(ps, ks, ls, max_n: int) -> tuple:
    """One row per (p, k, l), in deterministic iteration order."""
    rows = []
    for p in ps:
        for k in ks:
            for l in ls:
                n = 2 ** l * p ** k
                if n > max_n:
                    rows.append(SweepRow(p, k, l, n, "", "skipped", -1, -1,
                                         f"n exceeds cap {max_n}"))
                    continue
                if k % 2 == 0 or k < 3:
                    try:
                        count = len(cross_checked_partition(n, max_n=max_n))
                        note = "k even or k < 3: no claim attached"
                    except AmbigraphError as exc:
                        count = -1
                        note = str(exc)
                    rows.append(SweepRow(p, k, l, n, "", "out-of-scope",
                                         count, -1, note))
                    continue
                theorem = _theorem_for(p, l)
                try:
                    case = make_case(theorem, p, k, l)
                    report = verify_case(case, max_n=max_n)
                except InternalInconsistency:
                    raise
                except AmbigraphError as exc:
                    rows.append(SweepRow(p, k, l, n, theorem, "error",
                                         -1, -1, str(exc)))
                    continue
                if case.exploratory:
                    status = "exploratory"
                else:
                    status = "pass" if report.passed and report.count_match else "fail"
                rows.append(
                    SweepRow(p, k, l, n, theorem, status,
                             report.computed_count, case.expected_count,
                             "; ".join(report.errata_notes))
                )
    return tuple(rows)
