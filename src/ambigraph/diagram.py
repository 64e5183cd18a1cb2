"""Coset-diagram traversal over ambiguous numbers.

The successor of an ambiguous element e is defined as the unique ambiguous
element among y(x(e)) and y^2(x(e)).  Iterating the successor from any
ambiguous anchor returns to it, tracing the unique closed path of its orbit;
the orbit's ambiguous members are the path vertices together with their
x-images.  x reverses the successor (s(x(s(t))) = x(t)), so an orbit is one
successor cycle or two, and one walk over the whole ambiguous set gives the
partition and every orbit's closed path; the CF partition cross-checks it.
"""

import enum
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .core import Element, is_ambiguous, x_triple
from .enumeration import checked_triples
from .errors import DichotomyViolation, InternalInconsistency, UnknownOrbit


class StepType(enum.Enum):
    YX = "yx"
    YYX = "y2x"

    def __str__(self):
        return self.value


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


@dataclass(frozen=True)
class ClosedPath:
    """The closed successor cycle through an ambiguous anchor.

    triples are the vertices in walk order, anchor first; step_types[i] is
    the step from triples[i] to the next vertex, the last one back to the
    anchor.
    """

    n: int
    triples: tuple
    step_types: tuple

    def __len__(self):
        return len(self.step_types)

    @property
    def vertices(self):
        """Path vertices as Elements, in walk order starting at the anchor."""
        return tuple(Element.from_triple(t, self.n) for t in self.triples)


def closed_path(e: Element) -> ClosedPath:
    """Walk the successor from an ambiguous anchor until it returns.

    Every step lands in the finite ambiguous set (successor_triple raises
    DichotomyViolation otherwise), so the walk ends; a vertex revisited
    before the anchor means the successor is not a bijection.
    """
    if not is_ambiguous(e):
        raise ValueError(f"closed_path requires an ambiguous element, got {e}")
    anchor = t = e.triple
    seen = {anchor: None}  # insertion-ordered: the vertices in walk order
    tags = []
    while True:
        t, tag = successor_triple(t, e.n)
        tags.append(tag)
        if t == anchor:
            return ClosedPath(e.n, tuple(seen), tuple(tags))
        if t in seen:
            raise InternalInconsistency(
                f"successor walk from {anchor} revisits {t} before returning "
                f"to the anchor (n={e.n})"
            )
        seen[t] = None


_ac = itemgetter(0, 2)  # the (a, c) sort key of a triple


@dataclass(frozen=True)
class OrbitRecord:
    representative: Element
    triples: tuple  # member triples, sorted by (a, c)
    path: ClosedPath

    @property
    def members(self):
        """Orbit members as Elements, sorted by (a, c)."""
        n = self.representative.n
        return tuple(Element.from_triple(t, n) for t in self.triples)

    @property
    def ambiguous_length(self):
        return len(self.triples)


@dataclass(frozen=True)
class OrbitPartition:
    n: int
    orbits: tuple  # OrbitRecord, sorted by representative (a, c)

    def __len__(self):
        return len(self.orbits)

    def sizes(self):
        return sorted(len(o.triples) for o in self.orbits)

    def member_sets(self):
        """Frozenset-of-frozensets view for partition comparisons."""
        return frozenset(frozenset(o.triples) for o in self.orbits)

    def orbit_of(self, e: Element):
        """Index of the orbit holding e, or None: a bisection on each
        orbit's members, which are sorted by (a, c)."""
        t = e.triple
        for i, o in enumerate(self.orbits):
            j = bisect_left(o.triples, _ac(t), key=_ac)
            if j < len(o.triples) and o.triples[j] == t:
                return i
        return None


def partition_graph(n: int, max_n: int = None) -> OrbitPartition:
    """Partition the ambiguous set into orbits by one successor walk.

    Each cycle, walked from its least triple, joins the orbit of its start's
    x-image if that was walked, else opens an orbit with the cycle as its
    closed path.  A set closed under the successor and x is closed under
    y and y^2: an ambiguous y or y^2 image of t is the successor of x(t).
    """
    triples = checked_triples(n, max_n)
    # triple -> its own enumerated tuple until walked, then its orbit number,
    # so a path holds the enumeration's tuples, not fresh copies of them
    orbit = {t: t for t in triples}
    paths = []
    try:
        for start in triples:
            if orbit[start].__class__ is not tuple:  # walked
                continue
            k = orbit[x_triple(start)]
            # two loops, so a cycle that is not kept records nothing per step
            if k.__class__ is not tuple:  # a further cycle of orbit k
                t = start
                while (v := orbit[t]).__class__ is tuple:
                    orbit[t] = k
                    a, b, c = v  # successor_triple, inline
                    d = b + 2 * a + c
                    if d * c < 0:
                        if b * d < 0:
                            successor_triple(v, n)  # raises DichotomyViolation
                        t = (c + a, d, c)
                    elif b * d < 0:
                        t = (b + a, b, d)
                    else:
                        successor_triple(v, n)
            else:  # an orbit's first cycle, kept as its closed path
                k = len(paths)
                t, walk, tags = start, [], []
                while (v := orbit[t]).__class__ is tuple:
                    orbit[t] = k
                    walk.append(v)
                    a, b, c = v  # successor_triple, inline
                    d = b + 2 * a + c
                    if d * c < 0:
                        if b * d < 0:
                            successor_triple(v, n)
                        t = (c + a, d, c)
                        tags.append(_YX)
                    elif b * d < 0:
                        t = (b + a, b, d)
                        tags.append(_YYX)
                    else:
                        successor_triple(v, n)
                paths.append(ClosedPath(n, tuple(walk), tuple(tags)))
            if t != start:
                raise InternalInconsistency(f"walk from {start} revisits {t} (n={n})")
        groups = [[] for _ in paths]
        for t in triples:
            k = orbit[t]
            if orbit[x_triple(t)] != k:
                raise InternalInconsistency(f"x-image of {t} is in another orbit (n={n})")
            groups[k].append(t)
    except KeyError as exc:
        raise InternalInconsistency(
            f"ambiguous image {exc.args[0]} is missing from the enumeration (n={n})"
        ) from None
    return OrbitPartition(n, tuple(
        OrbitRecord(Element.from_triple(path.triples[0], n), tuple(g), path)
        for path, g in zip(paths, groups)
    ))


def export_dot(partition: OrbitPartition, rep_a: int, rep_c: int) -> str:
    """Render one orbit's ambiguous closed paths as a DOT digraph.

    Successor edges are directed and labeled yx / y2x; x-pairings are
    undirected dashed edges.  Node order and edge order are sorted so the
    output is byte-reproducible.
    """
    record = None
    for o in partition.orbits:
        if any(t[0] == rep_a and t[2] == rep_c for t in o.triples):
            record = o
            break
    if record is None:
        raise UnknownOrbit(
            f"no orbit of n={partition.n} contains a={rep_a}, c={rep_c}"
        )
    members = sorted(record.triples)
    lines = ["digraph orbit {"]
    for t in members:
        lines.append(f'  "{t[0]},{t[1]},{t[2]}";')
    for t in members:  # distinct and sorted, so the edges come sorted
        s, tag = successor_triple(t, partition.n)
        lines.append(
            f'  "{t[0]},{t[1]},{t[2]}" -> "{s[0]},{s[1]},{s[2]}" [label="{tag.value}"];'
        )
    x_edges = set()
    for t in members:
        xt = x_triple(t)
        x_edges.add(tuple(sorted((t, xt))))
    for t, s in sorted(x_edges):
        lines.append(
            f'  "{t[0]},{t[1]},{t[2]}" -> "{s[0]},{s[1]},{s[2]}"'
            " [dir=none, style=dashed];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
