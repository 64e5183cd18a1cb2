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
from collections import namedtuple
from typing import NamedTuple

from .classify import (ClassifierKind, ClassSummary, class_occupancy,
                       classifier_for, odd_prime_divisors)
from .core import Element, is_ambiguous, make_element
from .diagram import closed_path
from .cf import orbit_of, partition_cf as cross_checked_partition
from .enumeration import DEFAULT_MAX_N
from .errors import AmbigraphError, InternalInconsistency, LimitExceeded
from .words import check_word_fixes, circuit_from_word, parse_word, path_word

THEOREM_L = {"2.1": 0, "2.3": 0, "2.5": 1, "2.6": 1, "2.7": 2, "2.8": 2}
_P_MOD4 = {"2.1": 1, "2.3": 3, "2.5": 1, "2.6": 3, "2.7": 1, "2.8": 3}


class TheoremCase(NamedTuple):
    theorem: str
    p: int
    k: int
    l: int
    n: int
    expected_count: int
    exploratory: bool


def _beyond_cap(p, k, l, cap):
    """Whether n = 2^l p^k exceeds cap, decided without building n: a
    nonzero n has more than l + k(bits(p) - 1) bits."""
    return (p != 0 or k == 0) and l + k * (p.bit_length() - 1) >= cap.bit_length()


def make_case(theorem: str, p: int, k: int, l: int = None,
              max_n: int = None) -> TheoremCase:
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
    if k < 3 or k % 2 == 0:
        raise ValueError("k must be odd and >= 3")
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if _beyond_cap(p, k, l, cap):
        raise LimitExceeded(f"n=2^{l}*{p}^{k} exceeds configured cap {cap}")
    if p < 3 or odd_prime_divisors(p) != [p]:  # after the cap, which bounds p
        raise ValueError("p must be an odd prime")
    n = 2 ** l * p ** k
    expected = 4 if theorem == "2.9" else 2
    exploratory = theorem in ("2.1", "2.5", "2.7") and p % 8 == 1
    return TheoremCase(theorem, p, k, l, n, expected, exploratory)


class RepSpec(NamedTuple):
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


class RepResolution(NamedTuple):
    spec: RepSpec
    element: Element  # None when the intended class is empty
    substituted: bool
    note: str  # empty when the literal representative was valid


def resolve_rep(
    spec: RepSpec, n: int, p: int = None, max_n: int = None, *,
    summary: ClassSummary = None,
) -> RepResolution:
    """The element of spec's literal (a, c) or, when that is not a valid
    ambiguous element, the least member of the intended class, read from
    summary (class_occupancy of n's partition under spec's classifier, which
    is built when not given)."""
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
    if summary is None:
        summary = class_occupancy(cross_checked_partition(n, max_n=max_n), classify)
    t = summary.least.get(spec.intended_value)
    if t is not None:
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


class VerdictReport(NamedTuple):
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


def verify_case(case: TheoremCase, max_n: int = None) -> VerdictReport:
    start = time.perf_counter()
    partition = cross_checked_partition(case.n, max_n=max_n)
    kind = ClassifierKind.MOD_8 if case.theorem == "2.9" else ClassifierKind.MOD_P
    p = None if kind is ClassifierKind.MOD_8 else case.p
    summary = class_occupancy(partition, classifier_for(kind, case.n, p))

    resolutions = tuple(
        resolve_rep(spec, case.n, case.p, max_n=max_n, summary=summary)
        for spec in predict(case)
    )
    errata = [res.note for res in resolutions if res.note]

    rep_orbits = tuple(
        orbit_of(partition, res.element) if res.element is not None else None
        for res in resolutions
    )
    # an unresolvable rep (empty class) halts only that rep; the distinctness
    # check applies to the representatives that do resolve
    located = [i for i in rep_orbits if i is not None]
    distinct = len(located) == len(set(located))
    if not distinct:
        errata.append("claimed representatives do not land in distinct orbits")

    orbit_classes = tuple(next(iter(values)) if len(values) == 1 else None
                          for values in summary.orbit_classes)
    homogeneous = None not in orbit_classes

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
        orbit_classes,
        homogeneous,
        summary.occupancy,
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


class Finding(namedtuple("Finding", "claim holds errata details")):
    __slots__ = ()

    def __new__(cls, claim: str, holds: bool, errata: str = "", details: dict = None):
        return super().__new__(cls, claim, holds, errata,
                               {} if details is None else details)


class ExamplesReport(NamedTuple):
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
    word = path_word(closed_path(make_element(0, 1, 243)))
    findings.append(
        Finding(
            "sqrt(3^5) example word fixes 3^2*sqrt(3) and its -1 companion",
            v_pos.fixes and v_neg.fixes,
            details={
                "stabilizer_word": str(word),
                "circuit": circuit_from_word(word).exponents,
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

class SweepRow(NamedTuple):
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
    """The theorem whose l and p (mod 4) fit; p not 1 (mod 4) reads as 3."""
    mod4 = 1 if p % 4 == 1 else 3
    return next((t for t, want in THEOREM_L.items()
                 if want == l and _P_MOD4[t] == mod4), "2.9")


def sweep(ps, ks, ls, max_n: int) -> tuple:
    """One row per (p, k, l), in deterministic iteration order."""
    if any(v < 0 for v in (*ks, *ls)):
        raise AmbigraphError(f"k and l must be >= 0, got k={ks}, l={ls}")
    rows = []
    for p in ps:
        for k in ks:
            for l in ls:
                big = _beyond_cap(p, k, l, max_n)
                n = -1 if big else p ** k << l  # p^k first: 0 << l costs nothing
                if big or n > max_n:
                    rows.append(SweepRow(p, k, l, n, "", "skipped", -1, -1,
                                         f"n exceeds cap {max_n}"))
                    continue
                if k % 2 == 0 or k < 3:
                    try:
                        count = len(cross_checked_partition(n, max_n=max_n))
                        note = "k even or k < 3: no claim attached"
                    except InternalInconsistency:
                        raise
                    except AmbigraphError as exc:
                        count = -1
                        note = str(exc)
                    rows.append(SweepRow(p, k, l, n, "", "out-of-scope",
                                         count, -1, note))
                    continue
                theorem = _theorem_for(p, l)
                try:
                    case = make_case(theorem, p, k, l, max_n)
                    report = verify_case(case, max_n=max_n)
                except InternalInconsistency:
                    raise
                except (AmbigraphError, ValueError) as exc:  # ValueError: make_case
                    rows.append(SweepRow(p, k, l, n, theorem, "error",
                                         -1, -1, str(exc)))
                    continue
                if case.exploratory:
                    status = "exploratory"
                else:
                    status = "pass" if report.passed else "fail"
                rows.append(
                    SweepRow(p, k, l, n, theorem, status,
                             report.computed_count, case.expected_count,
                             "; ".join(report.errata_notes))
                )
    return tuple(rows)
