"""Coset-diagram traversal over ambiguous numbers.

The successor of an ambiguous element e is defined as the unique ambiguous
element among y(x(e)) and y^2(x(e)).  Iterating the successor from any
ambiguous anchor returns to it, tracing the unique closed path of its orbit;
the orbit's ambiguous members are the path vertices together with their
x-images.  x reverses the successor (s(x(s(t))) = x(t)), so an orbit is one
successor cycle or two.  Every orbit holds reduced triples
0 <= s - a < c <= s + a (s = isqrt(n)), the CF cycle states (Galois), so
partition_graph walks the cycle of each reduced triple not yet placed, once,
and checks the orbits against the sieve's reduced triples and count T(n)
with no table of the ambiguous set; the CF partition cross-checks it.  A
walk jumps each run of one step type, a circuit block (yx)^k or (y^2x)^k,
by one floor division, so it costs the circuit's blocks, not its steps.
"""

import enum
from collections import namedtuple
from itertools import compress
from math import inf, isqrt
from operator import itemgetter
from typing import NamedTuple

from .core import Element, compared_on, is_ambiguous, x_triple
from .enumeration import ambiguous_triples, reduced_triples
from .errors import DichotomyViolation, InternalInconsistency


class StepType(enum.Enum):
    YX = "yx"
    YYX = "y2x"

    def __str__(self):
        return self._value_  # not the enum property


_YX, _YYX = StepType.YX, StepType.YYX


def successor_triple(t, n=None):
    """Triple-level successor; returns ((a,b,c), StepType).  With d = b+2a+c,
    y(x(t)) = (c+a, d, c), y^2(x(t)) = (b+a, b, d); n names n in errors."""
    a, b, c = t
    d = b + 2 * a + c
    ay = d * c < 0
    if ay == (b * d < 0):
        raise DichotomyViolation(t, (c + a, d, c), (b + a, b, d), n)
    return ((c + a, d, c), StepType.YX) if ay else ((b + a, b, d), StepType.YYX)


def _runs(t, n, limit=inf):
    """The run starts from t on and the blocks ((StepType, k), ...) of the
    successor cycle through t, blocks[i] from starts[i]; the last block ends
    at t, inside a run if t is.  yx is alpha -> alpha + 1, so a YX run keeps
    c and adds c to a while (a + c)^2 < n: k = (s - a)//c for c > 0 and
    (s + a)//-c for c < 0 (s = isqrt(n)).  A Y2X run keeps b likewise.  Run
    starts get successor_triple's test, which raises the DichotomyViolation.
    Inside a run bc = a^2 - n < 0 makes (a + c)^2 < n iff a + b < -sqrt(n)
    (c > 0; a + b > sqrt(n) for c < 0): exactly one candidate is ambiguous.
    A run start met twice before t (the successor is not a bijection), or
    more than limit steps, raises InternalInconsistency.
    """
    s, (a0, b0, c0), start = isqrt(n), t, t
    starts, blocks, seen, steps = [], [], set(), 0
    while True:
        starts.append(t)
        a, b, c = t
        d = b + 2 * a + c
        ay = d * c < 0
        if ay == (b * d < 0):
            return successor_triple(t, n)
        tag, u, u0 = (_YX, c, c0) if ay else (_YYX, b, b0)
        k = (s - a) // u if u > 0 else (s + a) // -u
        if u == u0 and (a0 - a) % u == 0 and 0 < (a0 - a) // u <= k:  # passes t
            blocks.append((tag, (a0 - a) // u))
            return starts, blocks
        a += k * u
        t = (a, (a * a - n) // u, c) if tag is _YX else (a, b, (a * a - n) // u)
        blocks.append((tag, k))
        if (steps := steps + k) > limit:
            raise InternalInconsistency(f"walk from {start} passes {limit} steps (n={n})")
        if t in seen:
            raise InternalInconsistency(f"walk from {start} revisits {t} (n={n})")
        seen.add(t)


def _run_from(t, s):
    """The run (StepType, k) that _runs takes from t (s = isqrt(n))."""
    a, b, c = t
    tag, u = (_YX, c) if (b + 2 * a + c) * c < 0 else (_YYX, b)
    return tag, (s - a) // u if u > 0 else (s + a) // -u


class ClosedPath(namedtuple("ClosedPath", "n anchor blocks")):
    """The closed successor cycle through an ambiguous anchor.

    blocks are the anchored word's ((StepType, k), ...), the runs of one
    step type from the anchor, the last one back to it; the first and last
    share a type when the anchor lies inside a run.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # len is the steps

    def __len__(self):
        return sum(k for _, k in self.blocks)

    @property
    def triples(self):
        """The vertices in walk order, anchor first."""
        (a, b, c), out = self.anchor, []
        for tag, k in self.blocks:
            for _ in range(k):
                out.append((a, b, c))
                d = b + 2 * a + c
                a, b, c = (c + a, d, c) if tag is _YX else (b + a, b, d)
        return tuple(out)

    def block_ends(self):
        """[(k, first vertex, last vertex), ...] of the blocks, by _runs'
        jump: a YX run keeps c and moves a by c per step, a Y2X run keeps b
        and moves a by b."""
        (a, b, c), n, out = self.anchor, self.n, []
        for tag, k in self.blocks:
            first = (a, b, c)
            if tag is _YX:
                a += (k - 1) * c
                b = (a * a - n) // c
            else:
                a += (k - 1) * b
                c = (a * a - n) // b
            out.append((k, first, (a, b, c)))
            d = b + 2 * a + c
            a, b, c = (c + a, d, c) if tag is _YX else (b + a, b, d)
        return out

    def triples_str(self):
        """core.triples_str(self.triples, n), a block at a time: x steps by c
        in (x, (x^2 - n)//c, c) on a YX run, by b in (x, b, (x^2 - n)//b)."""
        (a, b, c), n, out, tail = self.anchor, self.n, [], f"|{self.n}"
        for tag, k in self.blocks:
            u, mid, end = (c, ",", f",{c}{tail}") if tag is _YX else (b, f",{b},", tail)
            out += [f"{x}{mid}{(x * x - n) // u}{end}" for x in range(a, a + k * u, u)]
            a += k * u
            b, c = ((a * a - n) // u, c) if tag is _YX else (b, (a * a - n) // u)
        return out


def closed_path(e: Element) -> ClosedPath:
    """Walk the successor from an ambiguous anchor until it returns.

    Every step lands in the finite ambiguous set (the walk raises
    DichotomyViolation otherwise), so the walk ends.
    """
    if not is_ambiguous(e):
        raise ValueError(f"closed_path requires an ambiguous element, got {e}")
    return ClosedPath(e.n, e.triple, tuple(_runs(e.triple, e.n)[1]))


_ac = itemgetter(0, 2)  # the (a, c) sort key of a triple
_a, _b, _c = itemgetter(0), itemgetter(1), itemgetter(2)


class OrbitRecord(NamedTuple):
    path: ClosedPath  # walked from the least member by (a, c), its anchor
    ambiguous_length: int  # the number of members

    @property
    def representative(self):
        """The least member by (a, c), as an Element built on access."""
        return Element.from_triple(self.path.anchor, self.path.n)

    @property
    def triples(self):
        """Member triples, sorted by (a, c): the path's vertices and, when x
        maps the path onto another cycle, their x-images."""
        vs = list(self.path.triples)
        if len(vs) < self.ambiguous_length:
            vs += [(-a, c, b) for a, b, c in vs]
        vs.sort(key=_c)  # then stably by a: by (a, c), with no key tuples
        vs.sort(key=_a)
        return tuple(vs)


class OrbitPartition(namedtuple("OrbitPartition", "n orbits reduced")):
    """The orbits of n as OrbitRecords, sorted by representative (a, c), and
    reduced, each reduced triple's orbit index (not compared, not in repr)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # len is the orbits

    def __len__(self):
        return len(self.orbits)

    __eq__, __ne__, __hash__ = compared_on("n", "orbits")

    def __repr__(self):
        return f"OrbitPartition(n={self.n!r}, orbits={self.orbits!r})"


def partition_graph(n: int, max_n: int = None) -> OrbitPartition:
    """Partition the ambiguous set into orbits, one run walk per orbit.

    The run walk, bounded by the sieve's count T(n), of the cycle C of each
    reduced triple not yet placed places the reduced vertices and x-images
    on it: a reduced t and x(t) are entered by YX and left by Y2X (README),
    so both are run starts, as are the extreme a on C (a is monotone in a
    run).  The orbit is C and x(C), so its length is twice the steps, or the
    steps when x maps C onto itself.  Its least member by (a, c) is the
    representative; its closed path is C's blocks rotated to start there
    or, on x(C), reversed with YX and Y2X swapped: a YX step t -> t' is a
    Y2X step x(t') -> x(t).  A path that does not start with the run from
    its anchor and end with the run out of x(anchor) swapped, a triple
    placed in two orbits, or placed reduced triples or lengths that differ
    from the sieve's raise InternalInconsistency, which alone builds the table.
    """
    reduced, count = reduced_triples(n, max_n)
    s = isqrt(n)
    placed, records = {}, []  # reduced triple -> its orbit's number
    for seed in reduced:
        if seed in placed:
            continue
        k = len(records)
        starts, blocks = _runs(seed, n, count)
        avals = list(map(_a, starts))
        lo, hi = min(avals), max(avals)
        v = min(compress(starts, map(lo.__eq__, avals)), key=_c)
        w = min(compress(starts, map(hi.__eq__, avals)), key=_b)
        if (-hi, w[1]) < (lo, v[2]):  # the least member is x(w), on x(C)
            rep, j = (-hi, w[2], w[1]), starts.index(w)
            word = [(_YYX if t is _YX else _YX, m)
                    for t, m in blocks[j - 1::-1] + blocks[:j - 1:-1]]
        else:
            rep, j = v, starts.index(v)
            word = blocks[j:] + blocks[:j]
        tag, m = _run_from(x_triple(rep), s)  # the last block, reversed by x
        if (word[0] != _run_from(rep, s)
                or word[-1] != (_YYX if tag is _YX else _YX, m)):
            raise InternalInconsistency(f"the closed path at anchor {rep} does not "
                                        f"start and end with its runs (n={n})")
        path = ClosedPath(n, rep, tuple(word))
        rx = [(-a, c, b) for a, b, c in starts if 0 <= s + a < b <= s - a]
        length = len(path) * (1 if seed in rx else 2)  # 1: x maps C onto itself
        for r in [t for t in starts if 0 <= s - t[0] < t[2] <= s + t[0]] + rx:
            if placed.setdefault(r, k) != k:
                raise InternalInconsistency(
                    f"{r} lies on the walk of another orbit (n={n})")
        records.append(OrbitRecord(path, length))
    total = sum(rec.ambiguous_length for rec in records)
    if total != count or len(placed) != len(reduced):  # each seed is placed
        odd = placed.keys() ^ set(reduced) or set(ambiguous_triples(n, max_n)) ^ {
            t for rec in records for t in rec.triples}
        raise InternalInconsistency(
            f"orbits hold {total} triples and {len(placed)} reduced ones, the "
            f"sieve {count} and {len(reduced)}; first difference "
            f"{sorted(odd, key=_ac)[:1]} (n={n})")
    order = sorted(range(len(records)), key=lambda k: _ac(records[k].path.anchor))
    rank = {k: i for i, k in enumerate(order)}
    return OrbitPartition(n, tuple(records[k] for k in order),
                          {r: rank[placed[r]] for r in reduced})


def export_dot(record: OrbitRecord) -> str:
    """Render one orbit's ambiguous closed paths as a DOT digraph.

    Successor edges are directed and labeled yx / y2x; x-pairings are
    undirected dashed edges.  Node order and edge order are sorted so the
    output is byte-reproducible.
    """
    n, members = record.path.n, sorted(record.triples)
    lines = ["digraph orbit {"]
    for t in members:
        lines.append(f'  "{t[0]},{t[1]},{t[2]}";')
    for t in members:  # distinct and sorted, so the edges come sorted
        s, tag = successor_triple(t, n)
        lines.append(
            f'  "{t[0]},{t[1]},{t[2]}" -> "{s[0]},{s[1]},{s[2]}" [label="{tag._value_}"];'
        )
    x_edges = {tuple(sorted((t, x_triple(t)))) for t in members}
    for t, s in sorted(x_edges):
        lines.append(
            f'  "{t[0]},{t[1]},{t[2]}" -> "{s[0]},{s[1]},{s[2]}"'
            " [dir=none, style=dashed];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
