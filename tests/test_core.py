from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigraph.core import (
    Element,
    check_triple,
    is_ambiguous,
    make_element,
    triple_str,
    triples_str,
    value_approx,
    x_triple,
)
from ambigraph.enumeration import enumerate_ambiguous
from ambigraph.errors import (
    NonPositiveN,
    NotDivisible,
    NotPrimitive,
    ParseError,
    SquareN,
    ZeroDenominator,
)

from generator_action import y_triple, yy_triple


def test_make_element_sqrt5():
    e = make_element(0, 1, 5)
    assert (e.a, e.b, e.c, e.n) == (0, -5, 1, 5)


def test_make_element_golden_shape():
    e = make_element(1, 2, 125)
    assert (e.a, e.b, e.c, e.n) == (1, -62, 2, 125)


def test_make_element_rejects_imprimitive():
    # b = -72, gcd(0, -72, 3) = 3
    with pytest.raises(NotPrimitive):
        make_element(0, 3, 216)


@pytest.mark.parametrize(
    "a,c,n,exc",
    [
        (1, 0, 5, ZeroDenominator),
        (1, 3, 5, NotDivisible),
        (0, 1, 16, SquareN),
        (0, 1, -5, NonPositiveN),
        (0, 1, 0, NonPositiveN),
    ],
)
def test_make_element_errors(a, c, n, exc):
    with pytest.raises(exc):
        make_element(a, c, n)


def test_apply_x_examples():
    assert x_triple((0, -5, 1)) == (0, 1, -5)
    assert x_triple((1, -62, 2)) == (-1, 2, -62)


def test_apply_y_examples():
    assert y_triple((0, -5, 1)) == (-5, -4, -5)
    assert y_triple((-1, 2, -62)) == (3, -58, 2)


def test_apply_yy_examples():
    assert yy_triple((0, -5, 1)) == (1, 1, -4)
    assert yy_triple((0, 1, -243)) == (-243, -243, -242)


def test_conjugate_examples():
    # the conjugate (a - sqrt(n))/c is the triple (-a, -b, -c)
    e = Element(0, -5, 1, 5)
    assert Element(-e.a, -e.b, -e.c, 5).triple == (0, 5, -1)
    e = Element(1, -62, 2, 125)
    assert Element(-e.a, -e.b, -e.c, 125).triple == (-1, 62, -2)


def test_is_ambiguous_examples():
    assert is_ambiguous(Element(0, -125, 1, 125))
    assert not is_ambiguous(Element(12, 19, 1, 125))
    assert is_ambiguous(Element(1, -62, 2, 125))


def test_value_approx():
    assert value_approx(Element(0, -5, 1, 5)) == pytest.approx(2.2360679, abs=1e-6)
    assert value_approx(Element(1, -62, 2, 125)) == pytest.approx(6.0901699, abs=1e-6)
    assert value_approx(Element(0, 5, -1, 5)) == pytest.approx(-2.2360679, abs=1e-6)


def test_wire_form_roundtrip():
    e = make_element(1, 2, 125)
    assert str(e) == "1,-62,2|125"
    assert Element.parse("1,-62,2|125") == e
    with pytest.raises(ParseError):
        Element.parse("1,2|125")


@pytest.mark.parametrize("text", [
    " 0,-5 , 1|5 ", "0,-1_0,1|1_0", "0,-5,1|5\n", "0,-5,+1|5", "0,-5,1|+5",
    "0,-5,1|٥",  # ARABIC-INDIC DIGIT FIVE, which int() reads as 5
])
def test_wire_form_is_decimal_fields_only(text):
    with pytest.raises(ParseError):
        Element.parse(text)


NONSQUARES_500 = [
    n for n in range(2, 501) if int(n ** 0.5 + 0.5) ** 2 != n
]


@pytest.mark.parametrize("n", NONSQUARES_500[::17] + [5, 125, 243])
def test_generator_relations_on_ambiguous(n):
    for e in enumerate_ambiguous(n):
        t = e.triple
        assert x_triple(x_triple(t)) == t
        assert y_triple(y_triple(y_triple(t))) == t
        assert yy_triple(t) == y_triple(y_triple(t))
        conj = Element(-e.a, -e.b, -e.c, n)
        assert Element(-conj.a, -conj.b, -conj.c, n) == e
        assert is_ambiguous(Element.from_triple(x_triple(t), n)) == is_ambiguous(e)


@given(
    a=st.integers(-50, 50),
    c=st.integers(-60, 60).filter(lambda v: v != 0),
    n=st.integers(2, 2000).filter(lambda v: int(v ** 0.5 + 0.5) ** 2 != v),
)
@settings(max_examples=300)
def test_invariants_preserved_by_generators(a, c, n):
    num = a * a - n
    if num == 0 or num % c != 0:
        return
    try:
        e = make_element(a, c, n)
    except NotPrimitive:
        return
    t = e.triple
    for image in (x_triple(t), y_triple(t), yy_triple(t), (-e.a, -e.b, -e.c)):
        check_triple(image, n)  # bc = a^2 - n, primitivity, c != 0
        a, b, c = image
        assert b * c == a ** 2 - n


@given(
    a=st.integers(-30, 30),
    c=st.integers(-40, 40).filter(lambda v: v != 0),
    n=st.integers(2, 1500).filter(lambda v: int(v ** 0.5 + 0.5) ** 2 != v),
)
@settings(max_examples=300)
def test_value_approx_respects_x(a, c, n):
    if (a * a - n) % c != 0 or a * a == n:
        return
    try:
        e = make_element(a, c, n)
    except NotPrimitive:
        return
    v = value_approx(e)
    xe = Element.from_triple(x_triple(e.triple), n)
    assert value_approx(xe) == pytest.approx(-1.0 / v, rel=1e-9)


def _fraction_value(t, n):
    """The reference value: float of the exact Fraction (a*s + root)/(c*s)
    with s = 10^max(30, bits(n)) and root = isqrt(n*s*s)."""
    scale = 10 ** max(30, n.bit_length())
    return float(Fraction(t[0] * scale + isqrt(n * scale * scale), t[2] * scale))


def test_approx_values_equal_value_approx():
    from ambigraph.core import approx_values
    from ambigraph.enumeration import ambiguous_triples

    for n in [m for m in range(2, 501) if int(m ** 0.5 + 0.5) ** 2 != m] + [
        10000001
    ]:
        triples = ambiguous_triples(n)
        assert approx_values(triples, n) == [
            _fraction_value(t, n) for t in triples
        ], n


@given(
    a=st.integers(-10 ** 40, 10 ** 40),
    b=st.integers(1, 10 ** 40),
    c=st.integers(1, 10 ** 40),
    flip=st.booleans(),
)
@settings(max_examples=300)
def test_value_approx_matches_the_fraction_reference_for_big_n(a, b, c, flip):
    b, c = (b, -c) if flip else (-b, c)  # bc < 0, so n = a^2 - bc > 0
    n = a * a - b * c
    if isqrt(n) ** 2 == n or gcd(gcd(a, b), c) != 1:
        return
    assert value_approx(Element(a, b, c, n)) == _fraction_value((a, b, c), n)


def test_triples_str_is_the_wire_form_of_each_triple():
    from ambigraph.enumeration import ambiguous_triples

    cases = [(ambiguous_triples(n), n) for n in range(2, 401)
             if isqrt(n) ** 2 != n]
    big = 2 ** 64 + 1  # past 64 bits, nonsquare
    cases.append(([(a, a * a - big, 1) for a in (-3, 0, 2 ** 40)]
                  + [(-(2 ** 32), 1, -1)], big))
    for triples, n in cases:
        want = [f"{a},{b},{c}|{n}" for a, b, c in triples]
        assert triples_str(triples, n) == want, n
        assert [triple_str(t, n) for t in triples] == want, n
        assert [str(Element(*t, n)) for t in triples[:3]] == want[:3], n
    assert triples_str((), 5) == []
