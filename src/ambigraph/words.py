"""Words over the (yx)/(y^2x) block alphabet, their matrices, and circuits.

yx is the translation alpha -> alpha + 1 and y^2x is alpha -> alpha/(1+alpha),
so a block (yx)^m contributes [[1,m],[0,1]] and (y^2x)^m contributes
[[1,0],[m,1]].  The first-written block acts first on the argument; the
matrix of a word is therefore the product with later blocks on the left.
Under this convention the stabilizer word of (1+sqrt(125))/2 read off its
closed path is exactly (yx)^5(y^2x)^11(yx)^6.

Matrices are projective: M and -M are the same group element.
"""

import re
from collections import namedtuple
from itertools import accumulate, groupby
from operator import itemgetter
from typing import NamedTuple

from .core import Element, compared_on
from .diagram import ClosedPath, StepType, closed_path
from .errors import InternalInconsistency, NotDivisible, NotPrimitive, OddBlockCount, ParseError


class Word(namedtuple("Word", "blocks notices")):
    """Alternating sequence of ((StepType, exponent >= 1)) blocks."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __new__(cls, blocks: tuple, notices: tuple = ()):
        for i, (t, m) in enumerate(blocks):
            if m < 1:
                raise ValueError(f"block exponent must be >= 1, got {m}")
            if i and blocks[i - 1][0] is t:
                raise ValueError("adjacent blocks must alternate in type")
        return super().__new__(cls, blocks, notices)

    __eq__, __ne__, __hash__ = compared_on("blocks")  # notices are not compared

    def __str__(self):
        if not self.blocks:
            return "1"
        return "".join(f"({t.value})^{m}" for t, m in self.blocks)

    def __len__(self):
        return sum(m for _, m in self.blocks)


IDENTITY_WORD = Word(())

_BLOCK_RE = re.compile(r"\(\s*(y\^?2x|yx)\s*\)\s*(?:\^\s*(?:\{(\d+)\}|(\d+)))?")
_RAW_RE = re.compile(r"y\^?2x|yyx|yx")


def _merge_blocks(raw_blocks):
    """Merge adjacent same-type blocks by exponent addition, noting each."""
    blocks, notices = [], []
    for t, run in groupby(raw_blocks, itemgetter(0)):
        totals = list(accumulate(m for _, m in run))
        blocks.append((t, totals[-1]))
        notices += [f"merged adjacent ({t})-blocks into ({t})^{m}"
                    for m in totals[1:]]
    return Word(tuple(blocks), tuple(notices))


def parse_word(text: str) -> Word:
    """Parse "(yx)^5(y^2x)^11(yx)^6" style notation, a raw yx/y2x string or "1".

    Adjacent same-type blocks are merged by exponent addition and noted on the
    returned word, since published words occasionally contain them.
    """
    s = text.strip()
    if not s or s == "1":
        return IDENTITY_WORD
    if "(" in s:
        raw_blocks = []
        pos = 0
        while pos < len(s):
            m = _BLOCK_RE.match(s, pos)
            if m is None:
                raise ParseError(f"cannot parse word at position {pos}: {s[pos:]!r}")
            tag = StepType.YX if m.group(1) == "yx" else StepType.YYX
            exp = int(m.group(2) or m.group(3) or 1)
            raw_blocks.append((tag, exp))
            pos = m.end()
            while pos < len(s) and s[pos].isspace():
                pos += 1
        return _merge_blocks(raw_blocks)
    # raw generator string: greedy scan of yx / yyx / y2x tokens
    tags = []
    pos = 0
    while pos < len(s):
        m = _RAW_RE.match(s, pos)
        if m is None:
            raise ParseError(f"cannot parse raw word at position {pos}: {s[pos:]!r}")
        tags.append(StepType.YX if m.group(0) == "yx" else StepType.YYX)
        pos = m.end()
    return Word(tuple((t, len(list(run))) for t, run in groupby(tags)))


class Mat2(NamedTuple):
    p: int
    q: int
    r: int
    s: int

    def __matmul__(self, other):
        return Mat2(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    def entries(self):
        return (self.p, self.q, self.r, self.s)


def word_to_matrix(w: Word) -> Mat2:
    """The product of the block matrices, later blocks on the left, one row
    operation each: (yx)^m is (p, q) += m(r, s), (y^2x)^m (r, s) += m(p, q)."""
    p, q, r, s = 1, 0, 0, 1
    for t, m in w.blocks:
        if t is StepType.YX:
            p, q = p + m * r, q + m * s
        else:
            r, s = r + m * p, s + m * q
    return Mat2(p, q, r, s)


def mobius_apply(M: Mat2, e: Element) -> Element:
    """Exact image of e under alpha -> (p alpha + q)/(r alpha + s)."""
    a, c, n = e.a, e.c, e.n
    u = M.p * a + M.q * c
    w = M.r * a + M.s * c
    na, ra = divmod(u * w - M.p * M.r * n, c)
    nb, rb = divmod(u * u - M.p * M.p * n, c)
    nc, rc = divmod(w * w - M.r * M.r * n, c)
    if ra or rb or rc:
        raise InternalInconsistency(f"non-integral Mobius image of {e} under {M}")
    try:
        return Element(na, nb, nc, n)
    except (NotDivisible, NotPrimitive) as exc:
        raise InternalInconsistency(f"invalid Mobius image of {e}: {exc}") from exc


def fixed_quadratic(M: Mat2):
    """Coefficients (r, s-p, -q) of the fixed-point equation of M.

    M fixes the element (a + sqrt(n))/c iff this triple is proportional to
    (c, -2a, b); the identity yields (0, 0, 0), which fixes everything.
    """
    return (M.r, M.s - M.p, -M.q)


def _proportional(u, v):
    return (
        u[0] * v[1] == u[1] * v[0]
        and u[0] * v[2] == u[2] * v[0]
        and u[1] * v[2] == u[2] * v[1]
    )


class Circuit(NamedTuple):
    """Cyclic alternating exponent sequence, canonicalized.

    The canonical form is the even-block rotation minimizing the exponent
    sequence lexicographically; even rotations preserve the type alignment,
    so all canonical blocks of even index share the recorded start type.
    """

    exponents: tuple
    start: StepType

    __eq__, __ne__, __hash__ = compared_on("exponents")  # start is not compared

    def __str__(self):
        return "(" + ",".join(str(m) for m in self.exponents) + ")"


def canonical_circuit(exponents, start: StepType) -> Circuit:
    k = len(exponents)
    if k == 0 or k % 2 != 0:
        raise OddBlockCount(f"circuit needs a positive even block count, got {k}")
    exponents = tuple(exponents)
    # least rotation of the block pairs by a linear two-pointer scan: every
    # rotation below j but i is ruled out, and i, j agree on their first m
    pairs = list(zip(exponents[::2], exponents[1::2]))
    h = len(pairs)
    pairs += pairs
    i, j, m = 0, 1, 0
    while j < h and m < h:
        u, v = pairs[i + m], pairs[j + m]
        if u == v:
            m += 1
            continue
        if u > v:  # no rotation in i..i+m is least
            i, j = j, max(j, i + m) + 1
        else:  # no rotation in j..j+m is least
            j += m + 1
        m = 0
    return Circuit(exponents[2 * i:] + exponents[:2 * i], start)


def path_word(path: ClosedPath) -> Word:
    """Anchored word read off a closed path; evaluating it on the anchor
    returns the anchor.  The first and last blocks may share a type."""
    return Word(path.blocks)


def circuit_from_word(word: Word) -> Circuit:
    """Cyclic run-length encoding of an anchored word: its blocks, with the
    last block folded into the first when they share a type."""
    blocks = list(word.blocks)
    if len(blocks) < 2:
        raise OddBlockCount("a circuit needs both step types")
    if blocks[0][0] is blocks[-1][0]:
        t, m = blocks.pop()
        blocks[0] = (t, blocks[0][1] + m)
    return canonical_circuit([m for _, m in blocks], blocks[0][0])


def circuit_from_path(path: ClosedPath) -> Circuit:
    """The circuit of a closed path's word."""
    return circuit_from_word(path_word(path))


def stabilizer_word(e: Element) -> Word:
    """The anchored word of the closed path of e."""
    return path_word(closed_path(e))


class WordVerdict(NamedTuple):
    word: Word
    matrix: Mat2
    quadratic: tuple  # (r, s-p, -q)
    target_quadratic: tuple  # (c, -2a, b)
    proportional: bool
    image: Element
    fixes: bool


def check_word_fixes(w: Word, e: Element) -> WordVerdict:
    M = word_to_matrix(w)
    quad = fixed_quadratic(M)
    target = (e.c, -2 * e.a, e.b)
    prop = _proportional(quad, target)
    image = mobius_apply(M, e)
    return WordVerdict(w, M, quad, target, prop, image, prop and image == e)
