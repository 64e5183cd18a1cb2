import json
import math
import os
import subprocess
import sys
import tempfile
import time

import pytest


def test_ambiguous_count_only(run_cli):
    code, out = run_cli("ambiguous", "5", "--count-only")
    assert code == 0 and out == "20\n"


def test_ambiguous_json(run_cli, golden):
    code, out = run_cli("ambiguous", "5", "--json")
    assert code == 0
    golden("ambiguous_5.json", out)


def test_ambiguous_csv(run_cli, golden):
    code, out = run_cli("ambiguous", "5", "--csv")
    assert code == 0
    golden("ambiguous_5.csv", out)


def test_ambiguous_human(run_cli, golden):
    code, out = run_cli("ambiguous", "8")
    assert code == 0
    golden("ambiguous_8.txt", out)


def test_orbits_json(run_cli, golden):
    code, out = run_cli("orbits", "125", "--json")
    assert code == 0
    golden("orbits_125.json", out)
    # two orbit records in the JSON
    import json

    doc = json.loads(out)
    assert doc["orbit_count"] == 2 and len(doc["orbits"]) == 2


def test_orbits_methods_agree(run_cli):
    for n in (125, 216, 1944):
        docs = {}
        for method in ("graph", "cf", "both"):
            code, out = run_cli("orbits", str(n), "--method", method, "--json")
            assert code == 0
            docs[method] = json.loads(out)
            assert docs[method].pop("method") == method
        assert docs["graph"] == docs["cf"] == docs["both"], n


def test_orbits_human(run_cli, golden):
    code, out = run_cli("orbits", "5")
    assert code == 0
    golden("orbits_5.txt", out)


def test_classify_json(run_cli, golden):
    code, out = run_cli("classify", "216", "--mod8", "--json")
    assert code == 0
    golden("classify_216.json", out)
    code, out = run_cli("classify", "125", "--mod-p", "5", "--json")
    assert code == 0
    golden("classify_125.json", out)


def test_classify_69984_json_golden(run_cli, golden):
    """Both classifiers on T = 7416 triples, each with its depth-20 audit."""
    code, out = run_cli("classify", "69984", "--mod-p", "3", "--mod8", "--json")
    assert code == 0
    golden("classify_69984.json", out)


def _reference_classify(n, kinds, depth):
    """classify --json's document with each occupancy counted member by
    member over the ambiguous table, as classify counted it before it read
    the run blocks; kinds maps JSON names to (kind, p)."""
    from collections import Counter

    from ambigraph.cf import partition_cf
    from ambigraph.classify import classifier_for, invariance_audit
    from ambigraph.enumeration import ambiguous_triples

    classifiers = {name: classifier_for(kind, n, p)
                   for name, (kind, p) in kinds.items()}
    doc = {"schema": 1, "n": n, "orbits": [
        {"rep": str(o.representative),
         "classes": {name: f(o.representative.triple)
                     for name, f in classifiers.items()}}
        for o in partition_cf(n).orbits], "audits": []}
    for name, (kind, p) in kinds.items():
        rpt = invariance_audit(n, kind, p=p, depth=depth)
        doc["audits"].append({"kind": name, **({"p": p} if p else {}),
                              "checked": rpt.checked,
                              "violations": len(rpt.violations)})
        counts = Counter(map(classifiers[name], ambiguous_triples(n)))
        doc[f"occupancy_{name}"] = {str(k): v for k, v in sorted(counts.items())}
    return json.dumps(doc, indent=2) + "\n"


def test_classify_occupancy_equals_the_per_member_count(run_cli):
    """classify --json reads each class's occupancy from the run blocks; the
    document equals the per-member reference for each classifier of every
    nonsquare n <= 400 that has one (audits at depth 0 there), and at 69984
    with both classifiers and the default depth."""
    from ambigraph.classify import ClassifierKind, odd_prime_divisors

    runs = 0
    for n in range(2, 401):
        if math.isqrt(n) ** 2 == n:
            continue
        kinds = [("mod_p", (ClassifierKind.MOD_P, p)) for p in odd_prime_divisors(n)]
        if n % 8 == 0:
            kinds.append(("mod8", (ClassifierKind.MOD_8, None)))
        for name, (kind, p) in kinds:
            flag = ("--mod-p", str(p)) if p else ("--mod8",)
            code, out = run_cli("classify", str(n), *flag, "--audit-depth", "0",
                                "--json")
            assert code == 0 and out == _reference_classify(
                n, {name: (kind, p)}, 0), (n, name, p)
            runs += 1
    assert runs > 500
    code, out = run_cli("classify", "69984", "--mod-p", "3", "--mod8", "--json")
    assert code == 0 and out == _reference_classify(69984, {
        "mod_p": (ClassifierKind.MOD_P, 3), "mod8": (ClassifierKind.MOD_8, None)}, 20)


def test_cf_command(run_cli, golden):
    code, out = run_cli("cf", "0,1|125")
    assert code == 0
    golden("cf_sqrt125.txt", out)


def test_equivalent_command(run_cli):
    code, out = run_cli("equivalent", "0,1", "0,-1", "--n", "5")
    assert code == 0 and out == "equivalent\n"
    code, out = run_cli("equivalent", "0,1", "0,-1", "--n", "3")
    assert code == 0 and out == "not equivalent\n"


def test_circuit_command(run_cli, golden):
    code, out = run_cli("circuit", "125", "--rep", "1,2")
    assert code == 0
    golden("circuit_125.txt", out)


def test_check_word_command(run_cli, golden):
    code, out = run_cli(
        "check-word", "125", "(yx)^5(y^2x)^11(yx)^6", "--rep", "1,2", "--json"
    )
    assert code == 0
    golden("check_word_125.json", out)


def test_verify_theorem_json(run_cli, golden):
    code, out = run_cli("verify", "--theorem", "2.1", "--p", "5", "--k", "3", "--json")
    assert code == 0
    golden("verify_2_1.json", out)


def test_verify_substituted_reps_json(run_cli, golden):
    """The literal representatives (1, 3) and (-1, -3) of n = 1944 are
    invalid: each is replaced by the least member of its class, and the 12
    orbits refute the claimed 4."""
    code, out = run_cli(
        "verify", "--theorem", "2.9", "--p", "3", "--k", "5", "--l", "3", "--json")
    assert code == 2
    golden("verify_2_9_substituted.json", out)


def test_verify_paper_example_69984_json(run_cli, golden):
    """The paper's example n = 2^5 3^7: the four representatives, two of
    them substituted, land in orbits 0, 1, 3 and 2 of the 12."""
    code, out = run_cli(
        "verify", "--theorem", "2.9", "--p", "3", "--k", "7", "--l", "5", "--json")
    assert code == 2
    golden("verify_2_9_69984.json", out)


def test_verify_3_15_json(run_cli, golden):
    """n = 3^15 has 2 orbits, and sqrt(n) and -sqrt(n) land in orbits 0
    and 1."""
    code, out = run_cli("verify", "--theorem", "2.3", "--p", "3", "--k", "15", "--json")
    assert code == 0
    golden("verify_2_3_3_15.json", out)


def test_verify_empty_class_json(run_cli, golden):
    """n = 500 has no member of the nonresidue class, so the second
    representative stays unresolved and the case still passes."""
    code, out = run_cli(
        "verify", "--theorem", "2.7", "--p", "5", "--k", "3", "--l", "2", "--json")
    assert code == 2
    golden("verify_2_7_empty_class.json", out)


def test_verify_examples_exit_code(run_cli):
    code, out = run_cli("verify", "--examples")
    assert code == 2  # errata found


def test_sweep_json(run_cli, golden):
    code, out = run_cli("sweep", "--p", "3,5", "--k", "3", "--l", "0,1", "--json")
    assert code == 0
    golden("sweep_small.json", out)


def test_sweep_csv(run_cli, golden):
    code, out = run_cli("sweep", "--p", "3,5", "--k", "3", "--l", "0,1", "--csv")
    assert code == 0
    golden("sweep_small.csv", out)


def test_sweep_csv_to_file(run_cli):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.csv")
        code, out = run_cli(
            "sweep", "--p", "3", "--k", "3", "--l", "0", "--csv", "-o", path
        )
        assert code == 0 and out == ""
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("p,k,l,n,theorem,status")
        assert len(lines) == 2


def test_export_dot(run_cli, golden):
    code, out = run_cli("export-dot", "5", "--rep", "1,2")
    assert code == 0
    golden("orbit_5_golden_ratio.dot", out)


def _scan_export_dot(partition, rep_a, rep_c):
    """export_dot as it was before the command placed (a, c): it scanned the
    orbits in order for one whose members hold (a, c), then rendered that
    orbit's sorted members; the scan is split out as _scan_orbit."""
    from ambigraph.core import x_triple
    from ambigraph.diagram import successor_triple
    from ambigraph.errors import UnknownOrbit

    keys = [{(t[0], t[2]) for t in o.triples} for o in partition.orbits]
    record = _scan_orbit(partition.orbits, keys, rep_a, rep_c)
    if record is None:
        raise UnknownOrbit(
            f"no orbit of n={partition.n} contains a={rep_a}, c={rep_c}"
        )
    members = sorted(record.triples)
    lines = ["digraph orbit {"]
    for t in members:
        lines.append(f'  "{t[0]},{t[1]},{t[2]}";')
    for t in members:
        s, tag = successor_triple(t, partition.n)
        lines.append(
            f'  "{t[0]},{t[1]},{t[2]}" -> "{s[0]},{s[1]},{s[2]}" [label="{tag.value}"];'
        )
    x_edges = {tuple(sorted((t, x_triple(t)))) for t in members}
    for t, s in sorted(x_edges):
        lines.append(
            f'  "{t[0]},{t[1]},{t[2]}" -> "{s[0]},{s[1]},{s[2]}"'
            " [dir=none, style=dashed];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _scan_orbit(orbits, keys, rep_a, rep_c):
    """The first of orbits whose members hold (a, c), or None; keys are the
    orbits' (a, c) sets."""
    return next((o for o, k in zip(orbits, keys) if (rep_a, rep_c) in k), None)


def test_export_dot_places_as_the_scan_did(run_cli):
    """export-dot places (a, c) by CF reduction and renders that record
    alone: for every member of every orbit of each nonsquare n <= 300 its
    orbit is the one the old scan found, each orbit renders as the scan's
    output did, and at 69984 the command prints the scan's output for every
    representative."""
    from ambigraph.cf import orbit_of
    from ambigraph.core import make_element
    from ambigraph.diagram import export_dot, partition_graph

    members = 0
    for n in range(2, 301):
        if math.isqrt(n) ** 2 == n:
            continue
        partition = partition_graph(n)
        orbits = partition.orbits
        keys = [{(t[0], t[2]) for t in o.triples} for o in orbits]
        for o in orbits:
            rep = o.representative
            assert export_dot(o) == _scan_export_dot(partition, rep.a, rep.c), n
            for a, _, c in o.triples:
                i = orbit_of(partition, make_element(a, c, n))
                assert orbits[i] is _scan_orbit(orbits, keys, a, c), (n, a, c)
                members += 1
    assert members == 64580
    partition = partition_graph(69984)
    for o in partition.orbits:
        rep = o.representative
        code, out = run_cli("export-dot", "69984", f"--rep={rep.a},{rep.c}")
        assert code == 0 and out == _scan_export_dot(partition, rep.a, rep.c), rep


@pytest.mark.parametrize("n, rep", [
    ("5", "99,1"),  # c divides a^2 - n, but a^2 > n: not ambiguous
    ("5", "1,3"),  # 3 does not divide 1 - 5
    ("5", "1,0"),  # no denominator
    ("8", "0,2"),  # (0, -4, 2) is not primitive
])
def test_export_dot_of_no_orbit_is_a_usage_error(run_cli, capsys, n, rep):
    """An (a, c) that is no ambiguous element of n is in no orbit: exit 1
    with the UnknownOrbit message, whatever make_element says of it."""
    a, c = rep.split(",")
    code, out = run_cli("export-dot", n, "--rep", rep)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: no orbit of n={n} contains a={a}, c={c}\n"


def test_usage_errors(run_cli):
    code, _ = run_cli("orbits", "notanumber")
    assert code == 1
    code, _ = run_cli("nosuchcommand")
    assert code == 1
    code, _ = run_cli("equivalent", "0,1", "bogus", "--n", "5")
    assert code == 1
    code, out = run_cli("sweep", "--p", "3", "--k", "3", "--l", "0", "--json", "--csv")
    assert code == 1 and out == ""


def test_parser_is_built_once_per_process(run_cli):
    from ambigraph.cli import build_parser

    build_parser.cache_clear()
    for argv in (("ambiguous", "5", "--count-only"), ("orbits", "5"),
                 ("orbits",), ("--version",), ("cf", "0,1|5")):
        run_cli(*argv)
    assert build_parser.cache_info().misses == 1


def test_reused_parser_carries_nothing_between_calls(run_cli, golden):
    code, out = run_cli("orbits", "125", "--json")
    assert code == 0
    golden("orbits_125.json", out)
    code, out = run_cli("orbits", "5")
    assert code == 0
    golden("orbits_5.txt", out)

    code, out = run_cli("--max-n", "10", "orbits", "125")
    assert code == 1 and out == ""
    code, out = run_cli("orbits", "125")
    assert code == 0 and out.startswith("2 orbits of ambiguous numbers for n=125")

    code, out = run_cli("orbits")
    assert code == 1 and out == ""
    code, out = run_cli("circuit", "125", "--rep=-1,2")
    assert code == 0
    assert out.splitlines()[0] == "path length 22"
    assert out.splitlines()[-1] == "word fixes anchor: True"

    code, out = run_cli("classify", "216", "--mod8", "--json")
    assert code == 0
    golden("classify_216.json", out)
    code, out = run_cli("classify", "125", "--mod-p", "5", "--json")
    assert code == 0
    golden("classify_125.json", out)
    doc = json.loads(out)
    assert [a["kind"] for a in doc["audits"]] == ["mod_p"]
    assert "occupancy_mod8" not in doc


def test_help_and_version_are_written_to_out(run_cli, capsys):
    from ambigraph import __version__

    code, out = run_cli("--version")
    assert code == 0 and out == f"{__version__}\n"
    code, out = run_cli("orbits", "--help")
    assert code == 0 and out.startswith("usage: ambigraph orbits")
    assert "--method" in out
    assert capsys.readouterr().out == ""


def test_console_entry_point():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "ambigraph.cli"]
    done = subprocess.run(cmd + ["orbits", "125", "--json"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "orbits_125.json")) as fh:
        assert done.stdout == fh.read()
    done = subprocess.run(cmd + ["orbits", "4"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error:")


def test_outputs_are_deterministic(run_cli):
    for argv in (
        ("orbits", "125", "--json"),
        ("ambiguous", "5", "--json"),
        ("verify", "--theorem", "2.1", "--p", "5", "--k", "3", "--json"),
    ):
        _, first = run_cli(*argv)
        _, second = run_cli(*argv)
        assert first == second


def test_big_integer_serialization():
    from ambigraph.cli import _int

    assert _int(5) == 5
    assert _int(-(2 ** 70)) == str(-(2 ** 70))
    assert _int(2 ** 62) == 2 ** 62


def test_point_queries_honour_max_n(run_cli):
    for argv in (
        ("--max-n", "1000", "circuit", "1009", "--rep", "1,2"),
        ("--max-n", "1000", "equivalent", "0,1", "1,2", "--n", "1009"),
        ("--max-n", "1000", "cf", "0,1|1009"),
        ("--max-n", "1000", "check-word", "1009", "(yx)^1", "--rep", "1,2"),
    ):
        code, out = run_cli(*argv)
        assert code == 1 and out == "", argv


def test_circuit_above_default_cap_fails_fast(run_cli):
    import time

    start = time.perf_counter()
    code, _ = run_cli("circuit", "1000000000000003", "--rep", "1,2")
    assert code == 1
    assert time.perf_counter() - start < 1.0


def test_verify_over_cap_exponent_fails_fast(run_cli, capsys):
    import time

    start = time.perf_counter()
    code, out = run_cli("verify", "--theorem", "2.9", "--p", "3", "--k", "3",
                        "--l", "1000000000000")
    assert code == 1 and out == ""
    assert time.perf_counter() - start < 1.0
    assert "exceeds configured cap" in capsys.readouterr().err


def test_negative_literals(run_cli):
    code, out = run_cli("circuit", "125", "--rep=-1,2")
    assert code == 0 and out.startswith("path length")
    code, out = run_cli("cf", "--", "-1,2|5")
    assert code == 0 and out.startswith("preperiod")


@pytest.mark.parametrize(
    "argv",
    [
        ("orbits", "125", "--json"),
        ("verify", "--theorem", "2.9", "--p", "3", "--k", "5", "--l", "3"),
        ("classify", "216", "--mod8"),
        ("ambiguous", "216"),
        ("ambiguous", "216", "--count-only"),
        ("export-dot", "216", "--rep", "0,1"),
        ("classify", "69984", "--mod-p", "3", "--mod8"),
    ],
)
def test_one_enumeration_per_command(monkeypatch, run_cli, argv):
    """Each command factors n once, for the one sieve product it hands on:
    orbits, verify (whose fallback representatives come from the orbits)
    and export-dot the reduced triples with T(n), ambiguous the table or
    T(n).  classify also factors once per audit, which reads the table."""
    from ambigraph import enumeration

    passes, factor = [], enumeration._factor_rows
    monkeypatch.setattr(enumeration, "_factor_rows",
                        lambda n: passes.append(n) or factor(n))
    code, _ = run_cli(*argv)
    audits = argv.count("--mod-p") + argv.count("--mod8")
    assert code in (0, 2)
    assert len(passes) == (1 + audits if argv[0] == "classify" else 1)


@pytest.mark.parametrize("argv, tables", [
    (("orbits", "1105"), 0),
    (("orbits", "1105", "--json"), 0),
    (("orbits", "1105", "--method", "graph"), 0),
    (("verify", "--theorem", "2.1", "--p", "5", "--k", "3"), 0),
    (("classify", "216", "--mod8"), 1),  # for its audit
    # the literal representatives (1, 3) and (-1, -3) are invalid here, and
    # their fallbacks take the least member of the class from the orbits'
    # run blocks; the claimed count fails, so the command exits 2
    (("verify", "--theorem", "2.9", "--p", "3", "--k", "5", "--l", "3"), 0),
])
def test_orbit_commands_build_no_table(monkeypatch, run_cli, argv, tables):
    """orbits and verify run on the reduced triples and T(n) alone and never
    ask for the ambiguous table; classify builds it once per audit."""
    calls = _spy_tables(monkeypatch)
    code, _ = run_cli(*argv)
    assert code == (2 if "2.9" in argv else 0) and len(calls) == tables


def _spy_tables(monkeypatch):
    """Record the n of every table built, each call of ambiguous_triples
    through any module's binding of it."""
    from ambigraph import enumeration

    calls, table = [], enumeration.ambiguous_triples
    for name, module in list(sys.modules.items()):  # every binding of table
        if name.startswith("ambigraph") and getattr(
                module, "ambiguous_triples", None) is table:
            monkeypatch.setattr(
                module, "ambiguous_triples",
                lambda n, max_n=None: calls.append(n) or table(n, max_n))
    return calls


def test_count_only_builds_no_table(monkeypatch, run_cli):
    """ambiguous --count-only prints T(n) from the reduced sieve: the
    table's length for every nonsquare n <= 400, with no table built."""
    from ambigraph.enumeration import ambiguous_triples

    want = {n: len(ambiguous_triples(n)) for n in range(1, 401)
            if math.isqrt(n) ** 2 != n}
    calls = _spy_tables(monkeypatch)
    for n, count in want.items():
        code, out = run_cli("ambiguous", str(n), "--count-only")
        assert code == 0 and out == f"{count}\n", n
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--theorem", "2.1"),
        ("verify", "--theorem", "2.1", "--p", "5"),
        ("verify", "--theorem", "2.9", "--l", "3"),
    ],
)
def test_verify_without_p_or_k_is_a_usage_error(run_cli, argv):
    code, out = run_cli(*argv)
    assert code == 1 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "1000", "--mod-p", "3"),
        ("classify", "243", "--mod-p", "9"),
        ("classify", "125", "--mod-p", "0"),
        ("classify", "125", "--mod8"),
        ("classify", "216", "--mod8", "--audit-depth", "-1"),
    ],
)
def test_classify_rejects_bad_input_before_partitioning(run_cli, monkeypatch, argv):
    from test_diagram import _forbid_enumeration

    _forbid_enumeration(monkeypatch)
    code, out = run_cli(*argv)
    assert code == 1 and out == ""


def test_orbits_json_builds_one_element_per_orbit(monkeypatch, run_cli, golden):
    from ambigraph import core

    built = []
    original = core.check_triple

    def spy(t, n):
        built.append(t)
        return original(t, n)

    monkeypatch.setattr(core, "check_triple", spy)  # run by every Element
    code, out = run_cli("orbits", "216", "--json")
    assert code == 0
    doc = json.loads(out)
    assert 0 < len(built) <= doc["orbit_count"] == 4
    assert sum(len(o["members"]) for o in doc["orbits"]) > 4 * len(built)
    built.clear()
    code, out = run_cli("orbits", "125", "--json")
    golden("orbits_125.json", out)
    assert len(built) <= json.loads(out)["orbit_count"]


def test_cf_builds_only_the_parsed_element(monkeypatch, run_cli):
    from ambigraph import core

    built = []
    original = core.check_triple

    def spy(t, n):
        built.append(t)
        return original(t, n)

    monkeypatch.setattr(core, "check_triple", spy)  # run by every Element
    code, out = run_cli("cf", "--", "-60,65717|200751")
    assert code == 0
    states = out.splitlines()[2]
    assert states.startswith("cycle states ['447,-3,314|200751', ")
    assert states.count("|200751") > 100
    assert built == [(-60, -3, 65717)]


@pytest.mark.parametrize("form", [[], ["--json"], ["--csv"], ["--count-only"]])
def test_ambiguous_builds_no_element_per_triple(monkeypatch, run_cli, form):
    from ambigraph import core

    calls = []
    original = core.check_triple

    def spy(t, n):
        calls.append(t)
        return original(t, n)

    monkeypatch.setattr(core, "check_triple", spy)  # run by every Element
    code, out = run_cli("ambiguous", "1000", *form)
    assert code == 0 and out
    assert len(calls) <= 1


@pytest.mark.slow
def test_verify_at_3_to_the_17_above_the_default_cap(run_cli):
    # n = 129140163 exceeds DEFAULT_MAX_N; about 2 s and 113 MB peak RSS
    code, out = run_cli(
        "--max-n", "200000000", "verify", "--theorem", "2.3", "--p", "3",
        "--k", "17",
    )
    assert code == 0
    assert out == (
        "theorem 2.3 n=129140163: computed 2 orbits (claimed 2), pass\n"
    )


def test_sweep_rejects_negative_exponents(run_cli, capsys):
    for k, l in (("-1", "0"), ("3", "-2")):
        code, out = run_cli("sweep", "--p", "3", "--k", k, "--l", l)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error: k and l must be >= 0")


def test_sweep_skips_an_exponent_far_past_the_cap_unbuilt(run_cli):
    start = time.perf_counter()
    code, out = run_cli("sweep", "--p", "3", "--k", "1000000000000", "--l", "0")
    assert code == 0 and time.perf_counter() - start < 1
    (row,) = json.loads(out)["rows"]
    assert row["status"] == "skipped" and row["n"] == -1


def test_output_to_a_missing_directory_is_a_usage_error(run_cli, tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    for argv in (("export-dot", "5", "--rep", "1,2"),
                 ("sweep", "--p", "3", "--k", "3", "--l", "0")):
        code, out = run_cli(*argv, "-o", str(target))
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv, classes",
    [
        (("orbits", "216", "--json"), 2),  # mod_p[3] and mod8, for 4 orbits
        (("orbits", "69984", "--json"), 2),  # the same, for 12 orbits
        (("classify", "1125"), 2),  # mod_p[3] and mod_p[5]
    ],
)
def test_classifiers_are_built_once_per_command(monkeypatch, run_cli, argv, classes):
    from ambigraph import cli

    built = []
    original = cli.classifier_for

    def spy(kind, n, p=None):
        built.append((kind, p))
        return original(kind, n, p)

    monkeypatch.setattr(cli, "classifier_for", spy)
    code, _ = run_cli(*argv)
    assert code == 0 and len(built) == classes, built


@pytest.mark.parametrize("p", ["9", "15"])
def test_verify_refuses_a_composite_p_before_enumerating(run_cli, monkeypatch,
                                                         capsys, p):
    from test_diagram import _forbid_enumeration

    _forbid_enumeration(monkeypatch)
    theorem = "2.1" if p == "9" else "2.3"
    code, out = run_cli("verify", "--theorem", theorem, "--p", p, "--k", "3")
    assert code == 1 and out == ""
    assert "p must be an odd prime" in capsys.readouterr().err


def test_sweep_turns_a_bad_p_into_an_error_row(run_cli):
    code, out = run_cli("sweep", "--p", "2,3", "--k", "3", "--l", "0", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["p"], r["status"]) for r in rows] == [(2, "error"), (3, "pass")]


def test_classify_checks_p_divides_n_before_testing_p_prime(run_cli, capsys):
    # trial division of this prime would take minutes; 2^61 - 1 does not divide 125
    code, out = run_cli("classify", "125", "--mod-p", str(2 ** 61 - 1))
    assert code == 1 and out == ""
    assert "does not divide n=125" in capsys.readouterr().err


NONSQUARES_400 = [n for n in range(2, 401) if math.isqrt(n) ** 2 != n]


@pytest.mark.parametrize("method", ["graph", "both"])
def test_streamed_orbits_json_equals_the_whole_document(run_cli, method):
    from ambigraph import cli
    from ambigraph.core import triple_str
    from ambigraph.diagram import partition_graph
    from ambigraph.words import circuit_from_word, path_word

    for n in NONSQUARES_400 + [1105, 69984]:
        classifiers = cli._classifiers(n)
        orbits = []
        for rec in partition_graph(n).orbits:
            word = path_word(rec.path)
            circuit = circuit_from_word(word)
            rep = rec.representative
            orbits.append({
                "n": n,
                "rep": str(rep),
                "members": [triple_str(t, n) for t in rec.triples],
                "circuit": {"exponents": list(circuit.exponents),
                            "start": circuit.start.value},
                "word": str(word),
                "classes": {name: f(rep.triple) for name, f in classifiers.items()},
                "length": len(rec.triples),
            })
        doc = {"schema": cli.SCHEMA_VERSION, "n": n, "method": method,
               "orbit_count": len(orbits), "orbits": orbits}
        code, out = run_cli("orbits", str(n), "--json", "--method", method)
        assert code == 0 and out == json.dumps(doc, indent=2) + "\n", n


def test_streamed_ambiguous_json_equals_the_whole_document(run_cli):
    from ambigraph.cli import SCHEMA_VERSION
    from ambigraph.core import triple_str
    from ambigraph.enumeration import ambiguous_triples

    for n in NONSQUARES_400 + [69984]:
        triples = ambiguous_triples(n)
        doc = {"schema": SCHEMA_VERSION, "n": n, "count": len(triples),
               "elements": [triple_str(t, n) for t in triples]}
        code, out = run_cli("ambiguous", str(n), "--json")
        assert code == 0 and out == json.dumps(doc, indent=2) + "\n", n


class _CountingStream:
    """A text stream that records the length of each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return len(text)


@pytest.mark.parametrize("argv", [["ambiguous", "69984", "--json"],
                                  ["orbits", "69984", "--json"]])
def test_streamed_json_is_written_in_chunks(argv):
    from ambigraph.cli import _CHUNK, dispatch

    out = _CountingStream()
    assert dispatch(argv, out) == 0
    size = sum(out.writes)
    assert size > 2 * _CHUNK
    assert len(out.writes) <= size // _CHUNK + 4, (len(out.writes), size)


def test_streamed_json_of_an_empty_list():
    import io

    from ambigraph.cli import _emit_streamed

    for doc in ({"xs": []}, {"n": 5, "s": "a\nb", "xs": []}):
        out = io.StringIO()
        _emit_streamed(doc, iter(()), out)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_orbits_json_writes_nothing_when_the_engines_disagree(monkeypatch,
                                                               run_cli):
    """The CF cycles of n = 216 are both even; swapping the first two states
    of each mixes its two parity classes, so no CF class is a graph orbit's."""
    from ambigraph import cf

    cycle = cf._cycle

    def swapped(t, s, limit, origin):
        states, quotients = cycle(t, s, limit, origin)
        return [states[1], states[0], *states[2:]], quotients

    monkeypatch.setattr(cf, "_cycle", swapped)
    for method in ("both", "cf"):
        code, out = run_cli("orbits", "216", "--json", "--method", method)
        assert code == 3 and out == "", method


def test_orbits_1105_json_golden(run_cli, golden):
    code, out = run_cli("orbits", "1105", "--json")
    assert code == 0
    golden("orbits_1105.json", out)
    doc = json.loads(out)
    assert doc["orbit_count"] == 8
    assert {name for o in doc["orbits"] for name in o["classes"]} == {
        "mod_p[5]", "mod_p[13]", "mod_p[17]"}


def test_orbits_1194127_text_golden(run_cli, golden):
    """Twelve orbits of up to 7996 members at a large n: pins the paths and
    circuits derived from one successor walk per orbit."""
    code, out = run_cli("orbits", "1194127")
    assert code == 0
    golden("orbits_1194127.txt", out)
    assert out.startswith("12 orbits of ambiguous numbers for n=1194127")


def test_orbits_2607543_text_golden(run_cli, golden):
    """The other large n of the benchmark's seed-0 pass: 1043 of its 1615
    sieve rows keep a prime above s + a and are skipped, and the other 572
    are pruned from both sides, so the output rests on the windowed sieve."""
    code, out = run_cli("orbits", "2607543")
    assert code == 0
    golden("orbits_2607543.txt", out)
    assert out.startswith("12 orbits of ambiguous numbers for n=2607543")


def test_orbits_69984_text_golden(run_cli, golden):
    """The errata case of Example 2.10: twelve orbits, not the four claimed."""
    code, out = run_cli("orbits", "69984")
    assert code == 0
    golden("orbits_69984.txt", out)
    assert out.startswith("12 orbits of ambiguous numbers for n=69984")


def test_circuit_from_a_mid_run_anchor_golden(run_cli, golden):
    """circuit from (341 + sqrt(1194127))/66, which lies inside a YX run: the
    step into it and the step from it are both YX, so the walk closes inside
    its last run, and the anchored word's first and last blocks are YX."""
    from ambigraph.core import Element, x_triple
    from ambigraph.diagram import StepType, closed_path, successor_triple

    n, t = 1194127, (341, -16331, 66)
    before = x_triple(successor_triple(x_triple(t), n)[0])
    assert successor_triple(before, n) == ((341, -16331, 66), StepType.YX)
    assert successor_triple(t, n)[1] is StepType.YX
    blocks = closed_path(Element(*t, n)).blocks
    assert blocks[0][0] is blocks[-1][0] is StepType.YX
    code, out = run_cli("circuit", str(n), "--rep", "341,66")
    assert code == 0
    golden("circuit_1194127_midrun.txt", out)


def _run_mutant(tmp_path, module, old, new, *argv):
    """Run the CLI from a copy of the package in which old, which must occur
    once in module, reads new: (exit code, stdout, stderr)."""
    import shutil

    import ambigraph

    package = tmp_path / "ambigraph"
    shutil.copytree(os.path.dirname(ambigraph.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = package / module
    text = path.read_text()
    assert text.count(old) == 1, (module, old)
    path.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    done = subprocess.run([sys.executable, "-m", "ambigraph.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("module, old, new, message", [
    # a wrong successor branch: a YX run ends at the y2x form of its vertex
    ("diagram.py", "if tag is _YX else (a, b, (a * a - n) // u)",
     "if tag is _YYX else (a, b, (a * a - n) // u)", "dichotomy violated"),
    # a run length off by one, which ends the run past the ambiguous set
    ("diagram.py", "k = (s - a) // u if u > 0", "k = (s - a) // u + 1 if u > 0",
     "dichotomy violated"),
    # a CF quotient off by one
    ("cf.py", "quotients.append(q)", "quotients.append(q + 1)",
     "graph and CF partitions disagree"),
    # a dropped reduced triple: the sieve's last one, (s, -1, n - s^2), which
    # the walk of another reduced triple on its cycle still places
    ("enumeration.py", "tuple(reduced), count", "tuple(reduced[:-1]), count",
     "orbits hold 232 triples and 12 reduced ones, the sieve 232 and 11; "
     "first difference [(14, -1, 20)]"),
    # a T(n) factor off by one: e in place of e + 1 for p not dividing a
    ("enumeration.py", "else e + 1", "else e",
     "orbits hold 232 triples and 12 reduced ones, the sieve 124 and 12; "
     "first difference []"),
    # the sieve's lower prune one too high: a partial divisor on the lower
    # edge of the reduced window is dropped, with its reduced triples
    ("enumeration.py", "low < (x := d * q)", "low + 1 < (x := d * q)",
     "orbits hold 232 triples and 12 reduced ones, the sieve 232 and 6; "
     "first difference [(6, -20, 9)]"),
], ids=["successor-branch", "run-length", "cf-quotient", "dropped-reduced",
        "count-off-by-one", "lower-prune"])
def test_engine_mutations_exit_3(tmp_path, module, old, new, message):
    code, out, err = _run_mutant(tmp_path, module, old, new, "orbits", "216")
    assert code == 3 and out == "", (code, out)
    assert err.startswith("internal inconsistency:") and message in err, err
    assert "n=216" in err


def test_sweep_exits_3_when_the_engines_disagree_out_of_scope(tmp_path):
    """k = 2 is out of theorem scope; an engine disagreement in such a row
    is still an internal inconsistency, not a row of the sweep."""
    code, out, err = _run_mutant(
        tmp_path, "cf.py", "            return states, quotients",
        "            return [states[1], states[0], *states[2:]], quotients",
        "sweep", "--p", "3", "--k", "2", "--l", "3", "--json")
    assert code == 3 and out == "", (code, out)
    assert err.startswith("internal inconsistency:") and "n=72" in err, err


def test_orbits_216_json_golden(run_cli, golden):
    code, out = run_cli("orbits", "216", "--json")
    assert code == 0
    golden("orbits_216.json", out)
    doc = json.loads(out)
    assert doc["orbit_count"] == 4
    assert {name for o in doc["orbits"] for name in o["classes"]} == {
        "mod_p[3]", "mod8"}
