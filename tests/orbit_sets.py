"""The orbits of a partition as sets, the tests' view for comparing two
partitions: the engine's records keep their member triples in (a, c) order."""


def member_sets(partition):
    """The orbits' member triples, a frozenset of frozensets."""
    return frozenset(frozenset(o.triples) for o in partition.orbits)
