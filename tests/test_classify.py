import random
from math import isqrt

import pytest

from ambigraph.classify import (
    ClassifierKind,
    class_occupancy,
    classifier_for,
    invariance_audit,
    legendre,
    odd_prime_divisors,
)
from ambigraph.core import (
    Element,
    check_triple,
    make_element,
    x_triple,
)
from ambigraph.diagram import partition_graph
from ambigraph.enumeration import ambiguous_triples, enumerate_ambiguous
from ambigraph.errors import (
    InternalInconsistency,
    NNotDivisibleBy8,
    NotOddPrime,
    PNotDividesN,
)

from generator_action import y_triple, yy_triple


def test_legendre():
    assert legendre(1, 7) == 1
    assert legendre(2, 5) == -1
    assert legendre(3, 7) == -1
    assert legendre(10, 5) == 0
    with pytest.raises(NotOddPrime):
        legendre(3, 2)
    with pytest.raises(NotOddPrime):
        legendre(3, 9)


def class_mod_p(e, p):
    return classifier_for(ClassifierKind.MOD_P, e.n, p)(e.triple)


def class_mod8(e):
    return classifier_for(ClassifierKind.MOD_8, e.n)(e.triple)


def test_class_mod_p_examples():
    assert class_mod_p(Element(0, -125, 1, 125), 5) == 1
    assert class_mod_p(Element(1, -62, 2, 125), 5) == -1
    assert class_mod_p(Element(0, 243, -1, 243), 3) == -1
    with pytest.raises(PNotDividesN):
        class_mod_p(Element(0, -5, 1, 5), 3)


def test_class_mod8_examples():
    assert class_mod8(Element(0, -216, 1, 216)) == 1
    assert class_mod8(Element(0, 216, -1, 216)) == 7
    assert class_mod8(make_element(1, -5, 216)) == 3
    with pytest.raises(NNotDivisibleBy8):
        class_mod8(Element(0, -5, 1, 5))


def test_class_mod_p_fallback_consistency():
    # when both b and c are coprime to p, the two symbols coincide
    for n, p in ((125, 5), (243, 3), (250, 5)):
        for e in enumerate_ambiguous(n):
            if e.b % p and e.c % p and e.a % p:
                assert legendre(e.b, p) == legendre(e.c, p)


@pytest.mark.parametrize("n,p", [(125, 5), (250, 5)])
def test_audit_mod_p(n, p):
    report = invariance_audit(n, ClassifierKind.MOD_P, p=p, depth=20)
    assert report.ok and report.checked > 0


@pytest.mark.parametrize("n", [216, 1000])
def test_audit_mod8(n):
    report = invariance_audit(n, ClassifierKind.MOD_8, depth=20)
    assert report.ok


def test_class_constant_per_generator_corpus():
    for n, p in ((125, 5), (243, 3), (54, 3)):
        for e in enumerate_ambiguous(n):
            v = class_mod_p(e, p)
            for g in (x_triple, y_triple, yy_triple):
                assert class_mod_p(Element.from_triple(g(e.triple), n), p) == v
    for e in enumerate_ambiguous(216):
        v = class_mod8(e)
        for g in (x_triple, y_triple, yy_triple):
            assert class_mod8(Element.from_triple(g(e.triple), 216)) == v


def test_orbits_are_class_homogeneous():
    partition = partition_graph(216)
    classes = []
    for o in partition.orbits:
        vals = {class_mod8(Element.from_triple(t, 216)) for t in o.triples}
        assert len(vals) == 1
        classes.append(vals.pop())
    assert sorted(classes) == [1, 3, 5, 7]


def test_occupancy_reports_empty_class():
    # n = 4 * 5^3: every ambiguous element has Legendre class +1
    occ = class_occupancy(500, ClassifierKind.MOD_P, 5)
    assert set(occ) == {1}
    occ = class_occupancy(125, ClassifierKind.MOD_P, 5)
    assert set(occ) == {1, -1}


def test_legendre_rejects_non_odd_primes():
    for p in (-7, -1, 0, 1, 2, 4, 9, 15, 25, 49):
        with pytest.raises(NotOddPrime):
            legendre(3, p)


def test_odd_prime_divisors():
    from ambigraph.classify import odd_prime_divisors

    assert odd_prime_divisors(1) == []
    assert odd_prime_divisors(8) == []
    assert odd_prime_divisors(69984) == [3]
    assert odd_prime_divisors(2 * 3 ** 2 * 5 * 7 ** 3 * 101) == [3, 5, 7, 101]


def test_enumerating_classifiers_honour_max_n():
    from ambigraph.classify import class_occupancy, invariance_audit
    from ambigraph.errors import LimitExceeded

    with pytest.raises(LimitExceeded):
        class_occupancy(1000, ClassifierKind.MOD_8, max_n=999)
    with pytest.raises(LimitExceeded):
        invariance_audit(1000, ClassifierKind.MOD_8, depth=0, max_n=999)


def test_audit_rejects_negative_depth():
    with pytest.raises(ValueError):
        invariance_audit(216, ClassifierKind.MOD_8, depth=-1)


def test_audit_violations_are_valid_elements(monkeypatch):
    from ambigraph import classify

    # a "class" that is the triple itself differs on every image but the start
    monkeypatch.setattr(classify, "classifier_for", lambda kind, n, p=None: tuple)
    report = invariance_audit(216, ClassifierKind.MOD_8, depth=2)
    assert 0 < len(report.violations) <= report.checked
    moves = {"x": x_triple, "y": y_triple, "y2": yy_triple}
    for e, name, image in report.violations:
        assert isinstance(e, Element) and isinstance(image, Element)
        assert e.n == image.n == 216
        assert image.triple == moves[name](e.triple)


def test_audit_validates_every_image(tmp_path):
    """A wrong y-image formula in the audit's step raises NotDivisible at
    depth 0, where the start's images are built, and at depth 20."""
    import os
    import shutil
    import subprocess
    import sys

    import ambigraph

    package = tmp_path / "ambigraph"
    shutil.copytree(os.path.dirname(ambigraph.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = package / "classify.py"
    text = path.read_text()
    old = "v = va, vb, vc = b - a, "
    assert text.count(old) == 1
    path.write_text(text.replace(old, "v = va, vb, vc = b - a + 1, "))
    script = (
        "from ambigraph.classify import ClassifierKind, invariance_audit\n"
        "for depth in (0, 20):\n"
        "    try:\n"
        "        invariance_audit(216, ClassifierKind.MOD_8, depth=depth)\n"
        "    except Exception as exc:\n"
        "        print(depth, type(exc).__name__)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(tmp_path)))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 NotDivisible\n20 NotDivisible\n"


def test_mod_p_classifier_checks_p_once(monkeypatch):
    from ambigraph import classify

    calls = []
    original = classify.odd_prime_divisors

    def spy(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(classify, "odd_prime_divisors", spy)
    triples = ambiguous_triples(1125)
    f = classify.classifier_for(ClassifierKind.MOD_P, 1125, 5)
    values = [f(t) for t in triples]
    assert calls == [5]
    calls.clear()
    report = invariance_audit(1125, ClassifierKind.MOD_P, p=5, depth=3)
    assert report.ok and report.checked == 12 * len(triples)
    assert calls == [5]  # not once per image
    assert values == [legendre(c if c % 5 else b, 5) for a, b, c in triples]


def _images_to_depth(t, depth):
    """t and every image of t under words of at most depth generators."""
    layer, seen = [t], [t]
    for _ in range(depth):
        layer = [g(u) for u in layer for g in (x_triple, y_triple, yy_triple)]
        seen.extend(layer)
    return seen


def test_direct_classifiers_match_their_definitions():
    cases = [(125, ClassifierKind.MOD_P, 5), (250, ClassifierKind.MOD_P, 5),
             (243, ClassifierKind.MOD_P, 3), (216, ClassifierKind.MOD_8, None),
             (1000, ClassifierKind.MOD_8, None)]
    for n, kind, p in cases:
        f = classifier_for(kind, n, p)
        triples = [u for t in ambiguous_triples(n)
                   for u in _images_to_depth(t, 3)]
        assert any(min(u) < -n for u in triples) and any(max(u) > n for u in triples)
        for a, b, c in triples:
            if kind is ClassifierKind.MOD_P:
                assert f((a, b, c)) == legendre(c if c % p else b, p)
            else:
                assert f((a, b, c)) == (c if c % 2 else b) % 8


def test_classifiers_name_n_and_the_triple_when_m_divides_b_and_c():
    with pytest.raises(InternalInconsistency, match=r"0,-25,5\|125"):
        classifier_for(ClassifierKind.MOD_P, 125, 5)((0, -25, 5))
    with pytest.raises(InternalInconsistency, match=r"0,-108,2\|216"):
        classifier_for(ClassifierKind.MOD_8, 216)((0, -108, 2))


def _reference_walk(n, depth, seed):
    """The audit's walk by its plain rule: validate every image, then step
    with a fresh generator call chosen by randrange(3)."""
    generators = (("x", x_triple), ("y", y_triple), ("y2", yy_triple))
    rng = random.Random(seed)
    images = []
    for t in ambiguous_triples(n):
        cur = t
        for _ in range(depth + 1):
            for name, g in generators:
                image = g(cur)
                check_triple(image, n)
                images.append((t, cur, name, image))
            cur = generators[rng.randrange(3)][1](cur)
    return images


def _reference_violations(walk, f):
    """The violations of a reference walk under the classifier f: each
    image whose class differs from its walk's start, as (state, name,
    image)."""
    return [(cur, name, image) for t, cur, name, image in walk if f(image) != f(t)]


def _pinned(monkeypatch, n, kind, p, depth, seed, f):
    """Run the audit with the classifier f in place of the real one and
    check it against the reference walk: checked, and every violation in
    order and multiplicity."""
    from ambigraph import classify

    monkeypatch.setattr(classify, "classifier_for", lambda kind, n, p=None: f)
    report = invariance_audit(n, kind, p=p, depth=depth, seed=seed)
    walk = _reference_walk(n, depth, seed)
    assert report.checked == len(walk)
    assert [(e.triple, name, image.triple)
            for e, name, image in report.violations] == _reference_violations(walk, f)
    return report


@pytest.mark.parametrize("depth", [0, 1, 5, 20])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n,kind,p", [(216, ClassifierKind.MOD_8, None),
                                      (1125, ClassifierKind.MOD_P, 5)])
def test_audit_walk_is_pinned(monkeypatch, n, kind, p, depth, seed):
    # with the triple itself as its class, every image but the start is a
    # violation, so the violations spell out the whole walk, revisits and all
    _pinned(monkeypatch, n, kind, p, depth, seed, tuple)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n,depth", [(216, 20), (1125, 5), (12500, 20)])
def test_audit_walk_is_pinned_under_a_non_invariant_class(monkeypatch, n,
                                                          depth, seed):
    """c mod 3 changes along the walk but far from at every image, so a
    state's derived images and their classes are checked against the
    reference too; 21 * T(12500) = 43176 draws take some 14 refills of the
    draw buffer."""
    report = _pinned(monkeypatch, n, ClassifierKind.MOD_8, None, depth, seed,
                     lambda t: t[2] % 3)
    assert 0 < len(report.violations) < report.checked // 2


@pytest.mark.parametrize("seed", [0, 7, -3])
def test_bulk_draws_are_randrange_draws(seed):
    """_draws gives the draws of getrandbits(2) redrawn on 3, in order,
    across several refills of its 4096-word buffer."""
    from ambigraph.classify import _draws

    getrandbits = random.Random(seed).getrandbits
    want = []
    while len(want) < 20000:  # about 3072 draws per refill
        r = getrandbits(2)
        if r != 3:
            want.append(r)
    draw = _draws(seed)
    assert [draw() for _ in want] == want


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n,kind,p", [(216, ClassifierKind.MOD_8, None),
                                      (1125, ClassifierKind.MOD_P, 5)])
def test_audit_checks_each_state_of_a_walk_once(monkeypatch, n, kind, p, seed):
    """Per walk: the start is classified, then its three images; each later
    state, on its first visit, has only the images that its predecessor
    does not already hold built and classified, 2 after an x step and 1
    after a y or y^2 step.  Every image the reference walk checks is one of
    them.  check_triple runs only on a failure, so never here; that every
    new y and y^2 image is validated is test_audit_validates_every_image's
    part."""
    from ambigraph import classify

    depth = 20
    calls, checks = [], []
    real_classifier_for, real_check = classify.classifier_for, classify.check_triple

    def counting_classifier_for(kind, n, p=None):
        f = real_classifier_for(kind, n, p)

        def spy(t):
            calls.append(t)
            return f(t)
        return spy

    monkeypatch.setattr(classify, "classifier_for", counting_classifier_for)
    monkeypatch.setattr(classify, "check_triple",
                        lambda t, n: checks.append(t) or real_check(t, n))
    report = invariance_audit(n, kind, p=p, depth=depth, seed=seed)
    walk = _reference_walk(n, depth, seed)
    triples = ambiguous_triples(n)
    assert report.ok and report.checked == len(walk) == 3 * (depth + 1) * len(triples)
    assert checks == []  # no failure, no call

    expected, before_derivation = [], 0
    for j, t in enumerate(triples):
        rounds = [walk[i:i + 3] for i in range(3 * (depth + 1) * j,
                                               3 * (depth + 1) * (j + 1), 3)]
        built = [t, x_triple(t), y_triple(t), yy_triple(t)]
        seen = {t}
        for before, after in zip(rounds, rounds[1:]):
            cur = after[0][1]
            if cur not in seen:
                seen.add(cur)
                step = next(name for _, _, name, image in before if image == cur)
                built += ([y_triple(cur), yy_triple(cur)] if step == "x"
                          else [x_triple(cur)])
        assert {image for r in rounds for _, _, _, image in r} <= set(built)
        expected += built
        before_derivation += 1 + 3 * len(seen)  # all three images per state
    assert calls == expected
    assert len(calls) < before_derivation


@pytest.mark.parametrize("limit", [80, pytest.param(1500, marks=pytest.mark.slow)])
@pytest.mark.parametrize("seed", [0, 7])
def test_audit_reports_match_the_reference(seed, limit):
    """For every nonsquare n <= limit and every classifier that applies, at
    depths 0, 1 and 20, the report is the reference walk's: checked, and
    the violations of the real classifier, which are none."""
    for n in range(2, limit + 1):
        if isqrt(n) ** 2 == n:
            continue
        kinds = [(ClassifierKind.MOD_P, q) for q in odd_prime_divisors(n)]
        if n % 8 == 0:
            kinds.append((ClassifierKind.MOD_8, None))
        for depth in (0, 1, 20):
            walk = None
            for kind, p in kinds:
                report = invariance_audit(n, kind, p=p, depth=depth, seed=seed)
                walk = walk or _reference_walk(n, depth, seed)
                f = classifier_for(kind, n, p)
                assert report.checked == len(walk)
                assert report.violations == ()
                assert _reference_violations(walk, f) == []
