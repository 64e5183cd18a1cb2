"""Hypothesis fuzz of the command line and its parsers.

`dispatch` must end every argv in exit 0, 1, 2 or 3; `Element.parse` and
`parse_word` must return or raise their own input errors.  A traceback of
any other kind fails.  Every argv carries `--max-n 5000`, so no run does
more than a small n's work.
"""

import io
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ambigraph.cli import dispatch
from ambigraph.core import Element
from ambigraph.errors import AmbigraphError, ParseError
from ambigraph.words import parse_word

OUT, MISSING = "<out>", "<missing>"  # -o targets, made real in a temp dir

INT = st.one_of(
    st.integers(-4, 130).map(str),
    st.sampled_from(["0", "-1", "4999", "5001", str(2 ** 61 - 1), str(-2 ** 70),
                     "x", "", "1.5", " 3"]),
)
EXP = st.integers(-3, 40).map(str) | st.sampled_from(["x", "", "1000000000000"])
PAIR = st.one_of(
    st.builds("{},{}".format, st.integers(-15, 15), st.integers(-15, 15)),
    st.text(",|0123456789-x ", max_size=7),
)
ELEMENT = st.one_of(
    st.builds("{},{}|{}".format, st.integers(-15, 15), st.integers(-15, 15), INT),
    st.text(",|0123456789-x ", max_size=8),
)
WORD = st.text("()yx^2{}0123456789 ", max_size=12)
TARGET = st.sampled_from([OUT, MISSING])


def _list(values):
    return st.lists(values, max_size=3).map(",".join)


def _command(name, *required, **optional):
    """argv for one subcommand: its required arguments in order, then up to
    four optional ones (None marks a bare flag)."""
    picks = [st.just([flag]) if v is None else v.map(lambda x, f=flag: [f, x])
             for flag, v in optional.items()]
    extra = st.lists(st.one_of(*picks), max_size=4) if picks else st.just([])
    return st.builds(
        lambda req, opts: [name, *(t for r in req for t in r), *(t for o in opts for t in o)],
        st.tuples(*[r.map(lambda x: x if isinstance(x, list) else [x]) for r in required]),
        extra,
    )


def _opt(flag, values):
    return values.map(lambda x: [flag, x])


ARGV = st.one_of(
    _command("ambiguous", INT, **{"--count-only": None, "--json": None, "--csv": None}),
    _command("orbits", INT, **{"--method": st.sampled_from(["graph", "cf", "both", "x"]),
                               "--json": None}),
    _command("classify", INT, **{"--mod-p": INT, "--mod8": None, "--seed": INT,
                                 "--audit-depth": st.integers(-2, 6).map(str),
                                 "--json": None}),
    _command("cf", ELEMENT),
    _command("equivalent", PAIR, PAIR, _opt("--n", INT)),
    _command("circuit", INT, _opt("--rep", PAIR)),
    _command("check-word", INT, WORD, _opt("--rep", PAIR), **{"--json": None}),
    _command("verify", _opt("--theorem", st.sampled_from(["2.1", "2.3", "2.5", "2.6",
                                                          "2.7", "2.8", "2.9"])),
             _opt("--p", INT), _opt("--k", EXP), **{"--l": EXP, "--json": None}),
    _command("verify", **{"--examples": None, "--json": None}),
    _command("sweep", _opt("--p", _list(INT)), _opt("--k", _list(EXP)),
             _opt("--l", _list(EXP)), **{"--json": None, "--csv": None, "-o": TARGET}),
    _command("export-dot", INT, _opt("--rep", PAIR), **{"-o": TARGET}),
    st.lists(st.text(max_size=6), max_size=4),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
@example(["sweep", "--p", "3", "--k", "-1", "--l", "0"])
@example(["sweep", "--p", "3", "--k", "3", "--l", "0", "-o", MISSING])
@example(["export-dot", "5", "--rep", "1,2", "-o", MISSING])
def test_dispatch_ends_in_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {OUT: os.path.join(tmp, "out"),
                 MISSING: os.path.join(tmp, "missing", "out")}
        argv = ["--max-n", "5000", *(paths.get(t, t) for t in argv)]
        assert dispatch(argv, out=io.StringIO()) in (0, 1, 2, 3), argv


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.builds("{},{},{}|{}".format, *[st.integers(-30, 30)] * 3, st.integers(-5, 200)),
    st.text(",|0123456789- ", max_size=14),
    st.text(max_size=10),
))
def test_element_parse_raises_only_input_errors(text):
    # ParseError, and the validation errors of the element itself (square
    # or nonpositive n, bc != a^2 - n, ...), are all AmbigraphErrors
    try:
        e = Element.parse(text)
    except AmbigraphError:
        return
    assert Element.parse(f"{e.a},{e.b},{e.c}|{e.n}") == e


@settings(max_examples=200, deadline=None)
@given(st.text("()yx^2{}0123456789 ", max_size=20) | st.text(max_size=10))
def test_parse_word_raises_only_parse_errors(text):
    try:
        parse_word(text)
    except (ParseError, ValueError):  # ValueError: an exponent int() rejects
        pass
