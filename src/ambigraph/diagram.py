"""Coset-diagram traversal over ambiguous numbers.

The successor of an ambiguous element e is defined as the unique ambiguous
element among y(x(e)) and y^2(x(e)).  Iterating the successor from any
ambiguous anchor returns to it, tracing the unique closed path of its orbit;
the orbit's ambiguous members are the path vertices together with their
x-images.  A union-find over the whole ambiguous set with generator edges
gives the same partition independently of the traversal, and the two are
cross-checked against each other.
"""

import enum
from dataclasses import dataclass
from functools import cached_property

from .core import Element, is_ambiguous, x_triple
from .enumeration import checked_triples
from .errors import DichotomyViolation, InternalInconsistency, UnknownOrbit


class StepType(enum.Enum):
    YX = "yx"
    YYX = "y2x"

    def __str__(self):
        return self.value


def successor_triple(t, n=None):
    """Triple-level successor; returns ((a,b,c), StepType).  With d = b+2a+c,
    y(x(t)) = (c+a, d, c), y^2(x(t)) = (b+a, b, d); n names n in errors."""
    a, b, c = t
    d = b + 2 * a + c
    ay = d * c < 0
    if ay == (b * d < 0):
        raise DichotomyViolation(t, (c + a, d, c), (b + a, b, d), n)
    return ((c + a, d, c), StepType.YX) if ay else ((b + a, b, d), StepType.YYX)


def successor(e: Element):
    """The unique ambiguous element among y(x(e)), y^2(x(e)), with its tag."""
    if not is_ambiguous(e):
        raise ValueError(f"successor requires an ambiguous element, got {e}")
    t, tag = successor_triple(e.triple, e.n)
    return Element.from_triple(t, e.n), tag


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


def _closure(path: ClosedPath):
    """The member triples of an orbit: path vertices plus their x-images."""
    return set(path.triples) | {x_triple(t) for t in path.triples}


def orbit_members(path: ClosedPath):
    """Orbit members as Elements, sorted by (a, c)."""
    return tuple(
        Element.from_triple(t, path.n)
        for t in sorted(_closure(path), key=lambda t: (t[0], t[2]))
    )


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

    @cached_property
    def _orbit_index(self):
        return {t: i for i, o in enumerate(self.orbits) for t in o.triples}

    def orbit_of(self, e: Element):
        return self._orbit_index.get(e.triple)


def partition_from_groups(n, groups) -> OrbitPartition:
    """Orbit partition from groups of member triples.

    Members, and groups by first member, come in enumeration ((a, c)) order,
    as partition_graph and cf.cf_groups give them.  Each group must equal the
    closed path of its first member together with its vertices' x-images.
    """
    records = []
    for members in groups:
        rep = Element.from_triple(members[0], n)
        path = closed_path(rep)
        if _closure(path) != set(members):
            raise InternalInconsistency(
                f"component of {rep} != path-plus-x-images closure"
            )
        records.append(OrbitRecord(rep, tuple(members), path))
    return OrbitPartition(n, tuple(records))


def partition_graph(n: int, max_n: int = None) -> OrbitPartition:
    """Partition the ambiguous set into orbits by union-find over generator edges.

    Triples are named by their index in the sorted enumeration; parent[i]
    is an index, find halves the path, and the smaller index becomes the
    root of a union.  y^2 = y^-1, so x and y edges suffice.  x is an
    involution of the ambiguous set, taken from the end with a > 0 (or a = 0,
    c > 0); y(t) = (b-a, b', b), b' = b-2a+c, only if ambiguous: b*b' < 0.
    """
    triples = checked_triples(n, max_n)
    index = {t: i for i, t in enumerate(triples)}
    parent = list(range(len(triples)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri < rj:
            parent[rj] = ri
        elif rj < ri:
            parent[ri] = rj

    try:
        for i, (a, b, c) in enumerate(triples):
            if a > 0 or (a == 0 and c > 0):
                union(i, index[(-a, c, b)])
            d = b - 2 * a + c
            if b * d < 0:
                union(i, index[(b - a, d, b)])
    except KeyError as exc:
        raise InternalInconsistency(
            f"ambiguous image {exc.args[0]} of {(a, b, c)} is missing from "
            f"the enumeration (n={n})"
        ) from None
    components = {}
    for i, t in enumerate(triples):
        components.setdefault(find(i), []).append(t)
    return partition_from_groups(n, components.values())


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
    succ_edges = []
    for t in members:
        s, tag = successor_triple(t, partition.n)
        succ_edges.append((t, s, tag.value))
    for t, s, lab in sorted(succ_edges):
        lines.append(
            f'  "{t[0]},{t[1]},{t[2]}" -> "{s[0]},{s[1]},{s[2]}" [label="{lab}"];'
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
