import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigraph.core import Element, check_triple, make_element, x_triple
from ambigraph.diagram import StepType, closed_path
from ambigraph.enumeration import enumerate_ambiguous
from ambigraph.errors import OddBlockCount, ParseError
from ambigraph.words import (
    IDENTITY_WORD,
    Mat2,
    Word,
    canonical_circuit,
    check_word_fixes,
    circuit_from_path,
    circuit_from_word,
    fixed_quadratic,
    mobius_apply,
    parse_word,
    stabilizer_word,
    word_to_matrix,
)

from generator_action import y_triple, yy_triple

MAT_X = Mat2(0, -1, 1, 0)  # x: alpha -> -1/alpha
MAT_Y = Mat2(1, -1, 1, 0)  # y: alpha -> (alpha - 1)/alpha


def _det(M):
    p, q, r, s = M.entries()
    return p * s - q * r


def _proj_eq(M, N):
    """M and N are one group element: equal up to sign."""
    return M.entries() in (N.entries(), tuple(-v for v in N.entries()))


def apply_word_stepwise(w, e):
    """Reference evaluation of w on e by single generator steps, first block
    first: x, then y for a (yx) step or y^2 for a (y^2x) step, each image
    checked as a triple of n."""
    t = e.triple
    for step, m in w.blocks:
        g = y_triple if step is StepType.YX else yy_triple
        for _ in range(m):
            t = x_triple(t)
            check_triple(t, e.n)
            t = g(t)
            check_triple(t, e.n)
    return Element.from_triple(t, e.n)


def test_parse_word():
    w = parse_word("(yx)^5(y^2x)^11(yx)^6")
    assert w.blocks == ((StepType.YX, 5), (StepType.YYX, 11), (StepType.YX, 6))
    assert parse_word("") == IDENTITY_WORD
    assert parse_word("(yx)^{5}(y^2x)^{11}(yx)^{6}") == w


def test_parse_word_merges_adjacent_blocks_with_notice():
    w = parse_word("(yx)^5(yx)^22")
    assert w.blocks == ((StepType.YX, 27),)
    assert w.notices


def test_parse_word_notes_each_merge_with_its_running_total():
    w = parse_word("(yx)^1(yx)^2(yx)^3(y^2x)(y^2x)(yx)")
    assert str(w) == "(yx)^6(y2x)^2(yx)^1"
    assert w.notices == (
        "merged adjacent (yx)-blocks into (yx)^3",
        "merged adjacent (yx)-blocks into (yx)^6",
        "merged adjacent (y2x)-blocks into (y2x)^2",
    )
    assert parse_word("yxyxy2xyyxyx") == parse_word("(yx)^2(y^2x)^2(yx)")
    assert parse_word("yxyxy2xyyxyx").notices == ()


def test_parse_word_raw_string():
    w = parse_word("yxyxy2x")
    assert w.blocks == ((StepType.YX, 2), (StepType.YYX, 1))
    assert parse_word("yyx").blocks == ((StepType.YYX, 1),)
    with pytest.raises(ParseError):
        parse_word("yxz")
    with pytest.raises(ParseError):
        parse_word("(yx)^a")


def test_parse_word_reads_what_str_writes():
    assert str(IDENTITY_WORD) == "1"
    assert parse_word("1") == IDENTITY_WORD and parse_word(" 1 ") == IDENTITY_WORD
    for text in ("(yx)^5(y^2x)^11(yx)^6", "(y^2x)^1", "(yx)^7(y^2x)^1000000",
                 "yxy2xyyxyxyx"):
        w = parse_word(text)
        assert parse_word(str(w)) == w, text
    with pytest.raises(ParseError):
        parse_word("11")


def test_word_to_matrix():
    w = parse_word("(yx)^5(y^2x)^11(yx)^6")
    assert word_to_matrix(w).entries() == (67, 341, 11, 56)
    assert word_to_matrix(IDENTITY_WORD).entries() == (1, 0, 0, 1)
    assert word_to_matrix(parse_word("(yx)^1")).entries() == (1, 1, 0, 1)
    assert word_to_matrix(parse_word("(y^2x)^3")).entries() == (1, 0, 3, 1)
    # the row-operation fold against the product of the block matrices,
    # later blocks on the left, on seeded words of up to 400 blocks
    rng = random.Random(20111)
    for _ in range(60):
        start = rng.choice((StepType.YX, StepType.YYX))
        other = StepType.YYX if start is StepType.YX else StepType.YX
        blocks = tuple((start if i % 2 == 0 else other, rng.randint(1, 10**6))
                       for i in range(rng.randint(1, 400)))
        ref = Mat2(1, 0, 0, 1)
        for t, m in blocks:
            ref = (Mat2(1, m, 0, 1) if t is StepType.YX else Mat2(1, 0, m, 1)) @ ref
        M = word_to_matrix(Word(blocks))
        assert M == ref and type(M) is Mat2
        assert _det(M) == 1


def test_projective_relations():
    ident = Mat2(1, 0, 0, 1)
    assert _proj_eq(MAT_X @ MAT_X, ident)
    assert _proj_eq(MAT_Y @ MAT_Y @ MAT_Y, ident)
    assert _proj_eq(MAT_Y @ MAT_X, Mat2(1, 1, 0, 1))  # yx = translation
    assert _det(MAT_X) == 1 and _det(MAT_Y) == 1


def test_mobius_apply_examples():
    e = make_element(0, 1, 5)
    ident = Mat2(1, 0, 0, 1)
    assert mobius_apply(ident, e) == e
    assert mobius_apply(MAT_X, e).triple == (0, 1, -5)
    e125 = make_element(1, 2, 125)
    M = Mat2(67, 341, 11, 56)
    assert mobius_apply(M, e125) == e125


def test_fixed_quadratic():
    assert fixed_quadratic(Mat2(67, 341, 11, 56)) == (11, -11, -341)
    assert fixed_quadratic(Mat2(1, 1, 0, 1)) == (0, 0, -1)
    assert fixed_quadratic(Mat2(1, 0, 0, 1)) == (0, 0, 0)


def test_check_word_fixes():
    w = parse_word("(yx)^5(y^2x)^11(yx)^6")
    assert check_word_fixes(w, make_element(1, 2, 125)).fixes
    assert not check_word_fixes(w, make_element(1, 2, 3125)).fixes
    assert check_word_fixes(IDENTITY_WORD, make_element(0, 1, 5)).fixes


@st.composite
def words(draw):
    k = draw(st.integers(0, 6))
    start = draw(st.booleans())
    blocks = []
    for i in range(k):
        t = StepType.YX if (i % 2 == 0) == start else StepType.YYX
        blocks.append((t, draw(st.integers(1, 7))))
    return Word(tuple(blocks))


@given(w=words(), idx=st.integers(0, 10 ** 6))
@settings(max_examples=200)
def test_matrix_agrees_with_stepwise(w, idx):
    corpus = enumerate_ambiguous(125)
    e = corpus[idx % len(corpus)]
    M = word_to_matrix(w)
    assert _det(M) == 1
    assert mobius_apply(M, e) == apply_word_stepwise(w, e)


def test_circuit_examples():
    c = circuit_from_path(closed_path(make_element(0, 1, 5)))
    assert c.exponents == (4, 4)
    c = circuit_from_path(closed_path(make_element(1, 2, 5)))
    assert c.exponents == (1, 1)
    c = circuit_from_path(closed_path(make_element(0, 1, 243)))
    assert c == canonical_circuit((30, 1, 1, 2, 3, 15, 3, 2, 1, 1), StepType.YX)


def least_even_rotation(exponents):
    """The reference: every even rotation, compared in full."""
    return min(exponents[i:] + exponents[:i] for i in range(0, len(exponents), 2))


@st.composite
def exponent_cycles(draw):
    # a small alphabet forces ties; a repeated unit makes the cycle periodic,
    # also when the unit has odd length and so is not aligned to block pairs
    unit = draw(st.lists(st.integers(1, 3), min_size=1, max_size=9))
    seq = unit * draw(st.integers(1, 4))
    return tuple(seq + seq if len(seq) % 2 else seq)


@given(exponents=exponent_cycles())
@settings(max_examples=400)
def test_canonical_circuit_is_the_least_even_rotation(exponents):
    quadratic = least_even_rotation(exponents)
    for start in StepType:
        c = canonical_circuit(exponents, start)
        assert c.exponents == quadratic and c.start is start
    assert canonical_circuit(list(exponents), StepType.YX).exponents == quadratic


@pytest.mark.parametrize(
    "exponents",
    [(2, 2), (5, 5, 5, 5, 5, 5), (1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 1, 2, 1, 2),
     (1, 1, 2, 1, 1, 2), (3, 1, 1, 3, 1, 1, 3, 1)],
)
def test_canonical_circuit_ties(exponents):
    expected = least_even_rotation(exponents)
    assert canonical_circuit(exponents, StepType.YX).exponents == expected


def test_canonical_circuit_needs_an_even_block_count():
    for bad in ((), (1,), (1, 2, 3), (4, 4, 4, 4, 4)):
        with pytest.raises(OddBlockCount):
            canonical_circuit(bad, StepType.YX)


def test_circuit_from_word_folds_the_ends_and_needs_both_types():
    w = parse_word("(yx)^5(y^2x)^11(yx)^6")
    assert circuit_from_word(w).exponents == (11, 11)
    assert circuit_from_word(w).start is StepType.YX
    for bad in (IDENTITY_WORD, parse_word("(yx)^3")):
        with pytest.raises(OddBlockCount):
            circuit_from_word(bad)


def test_stabilizer_word_examples():
    w = stabilizer_word(make_element(0, 1, 5))
    assert str(w) == "(yx)^2(y2x)^4(yx)^2"
    w = stabilizer_word(make_element(1, 2, 125))
    assert str(w) == "(yx)^5(y2x)^11(yx)^6"


def test_stabilizer_word_fixes_rep():
    for n in (5, 54, 125, 216, 243):
        for a, c in ((0, 1), (0, -1)):
            e = make_element(a, c, n)
            v = check_word_fixes(stabilizer_word(e), e)
            assert v.fixes
            assert v.proportional


def test_circuits_do_not_separate_orbits():
    # regression: for n=243 both orbits share the canonical circuit
    c1 = circuit_from_path(closed_path(make_element(0, 1, 243)))
    c2 = circuit_from_path(closed_path(make_element(0, -1, 243)))
    assert c1 == c2
    from ambigraph.cf import psl_equivalent

    assert not psl_equivalent(make_element(0, 1, 243), make_element(0, -1, 243))


def test_circuit_matches_cf_cycle():
    # the path orientation is intrinsic to the successor rule, while the CF
    # shift direction is fixed, so the match is up to rotation and reversal
    from ambigraph.cf import cf_expand

    rng = random.Random(7)
    corpus = []
    for n in (5, 54, 125, 216, 243, 250, 621, 1000):
        corpus.extend(enumerate_ambiguous(n))
    for e in rng.sample(corpus, 60):
        circuit = circuit_from_path(closed_path(e))
        cyc = cf_expand(e).cycle
        if len(cyc) % 2 == 1:
            cyc = cyc + cyc
        rev = tuple(reversed(cyc))
        rotations = {cyc[i:] + cyc[:i] for i in range(len(cyc))}
        rotations |= {rev[i:] + rev[:i] for i in range(len(rev))}
        assert circuit.exponents in rotations
