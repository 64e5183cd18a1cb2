import functools
import io
import os

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture
def run_cli():
    from ambigraph.cli import dispatch

    def _run(*argv):
        out = io.StringIO()
        code = dispatch(list(argv), out=out)
        return code, out.getvalue()

    return _run


@pytest.fixture
def golden():
    def _golden(name, actual):
        path = os.path.join(GOLDEN_DIR, name)
        if os.environ.get("AMBIGRAPH_REGEN_GOLDEN"):
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(actual)
        with open(path) as fh:
            assert actual == fh.read()

    return _golden


class _PerN:
    """The references of one n, each built on first use: the graph and the
    cross-checked partitions, the latter's member lists, and any test's own
    reference through get(build), which is build(n)."""

    def __init__(self, n):
        self.n = n
        self._built = {}

    @functools.cached_property
    def graph(self):
        from ambigraph.diagram import partition_graph

        return partition_graph(self.n)

    @functools.cached_property
    def cf(self):
        from ambigraph.cf import partition_cf

        return partition_cf(self.n)

    @functools.cached_property
    def members(self):
        return [list(rec.triples) for rec in self.cf.orbits]

    def get(self, build):
        if build not in self._built:
            self._built[build] = build(self.n)
        return self._built[build]


@pytest.fixture(scope="session")
def per_n():
    """One _PerN per n for the whole session, so the sweeps over every
    nonsquare n <= 1500 build each partition and reference once."""
    return functools.lru_cache(maxsize=None)(_PerN)
