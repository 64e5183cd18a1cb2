import json
import os
import tempfile

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
    _, graph = run_cli("orbits", "216", "--method", "graph", "--json")
    _, cf = run_cli("orbits", "216", "--method", "cf", "--json")
    import json

    dg, dc = json.loads(graph), json.loads(cf)
    assert [o["members"] for o in dg["orbits"]] == [o["members"] for o in dc["orbits"]]


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


def test_verify_examples_exit_code(run_cli):
    code, out = run_cli("verify", "--examples")
    assert code == 2  # errata found


def test_sweep_json(run_cli, golden):
    code, out = run_cli("sweep", "--p", "3,5", "--k", "3", "--l", "0,1", "--json")
    assert code == 0
    golden("sweep_small.json", out)


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


def test_usage_errors(run_cli):
    code, _ = run_cli("orbits", "notanumber")
    assert code == 1
    code, _ = run_cli("nosuchcommand")
    assert code == 1
    code, _ = run_cli("equivalent", "0,1", "bogus", "--n", "5")
    assert code == 1


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
    ],
)
def test_one_enumeration_per_command(run_cli, argv):
    from ambigraph.enumeration import ambiguous_triples

    ambiguous_triples.cache_clear()
    run_cli(*argv)
    assert ambiguous_triples.cache_info().misses == 1


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
    # n = 129140163 exceeds DEFAULT_MAX_N; about 6 s and 200 MB peak RSS
    code, out = run_cli(
        "--max-n", "200000000", "verify", "--theorem", "2.3", "--p", "3",
        "--k", "17",
    )
    assert code == 0
    assert out == (
        "theorem 2.3 n=129140163: computed 2 orbits (claimed 2), pass\n"
    )
