import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigraph.core import (
    Element,
    apply_x,
    apply_y,
    apply_yy,
    conjugate,
    is_ambiguous,
    make_element,
    value_approx,
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
    assert apply_x(Element(0, -5, 1, 5)).triple == (0, 1, -5)
    assert apply_x(Element(1, -62, 2, 125)).triple == (-1, 2, -62)


def test_apply_y_examples():
    assert apply_y(Element(0, -5, 1, 5)).triple == (-5, -4, -5)
    assert apply_y(Element(-1, 2, -62, 125)).triple == (3, -58, 2)


def test_apply_yy_examples():
    assert apply_yy(Element(0, -5, 1, 5)).triple == (1, 1, -4)
    assert apply_yy(Element(0, 1, -243, 243)).triple == (-243, -243, -242)


def test_conjugate_examples():
    assert conjugate(Element(0, -5, 1, 5)).triple == (0, 5, -1)
    assert conjugate(Element(1, -62, 2, 125)).triple == (-1, 62, -2)


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


NONSQUARES_500 = [
    n for n in range(2, 501) if int(n ** 0.5 + 0.5) ** 2 != n
]


@pytest.mark.parametrize("n", NONSQUARES_500[::17] + [5, 125, 243])
def test_generator_relations_on_ambiguous(n):
    for e in enumerate_ambiguous(n):
        assert apply_x(apply_x(e)) == e
        assert apply_y(apply_y(apply_y(e))) == e
        assert apply_yy(e) == apply_y(apply_y(e))
        assert conjugate(conjugate(e)) == e
        assert is_ambiguous(apply_x(e)) == is_ambiguous(e)


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
    for image in (apply_x(e), apply_y(e), apply_yy(e), conjugate(e)):
        # Element construction re-validates bc = a^2 - n, primitivity, c != 0
        assert image.b * image.c == image.a ** 2 - n


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
    assert value_approx(apply_x(e)) == pytest.approx(-1.0 / v, rel=1e-9)


def test_approx_values_equal_value_approx():
    from ambigraph.core import approx_values
    from ambigraph.enumeration import ambiguous_triples

    for n in [m for m in range(2, 501) if int(m ** 0.5 + 0.5) ** 2 != m] + [
        10000001
    ]:
        triples = ambiguous_triples(n)
        assert approx_values(triples, n) == [
            value_approx(Element.from_triple(t, n)) for t in triples
        ], n
