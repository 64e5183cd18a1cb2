"""Tests of the benchmark itself: inputs, output checks and failure counting.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from math import gcd, isqrt
from pathlib import Path

import pytest

from arith import count_ambiguous, valid_triple
from checks import check
from gen import (EXPECTED_CODES, THEOREM_PASS_TRIPLES, WORKLOADS, make_jobs,
                 random_rep, theorem_cases, theorem_pairs)
from passrun import run_pass
from run import mark_digest_mismatches

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _brute_count(n):
    count = 0
    for a in range(-isqrt(n), isqrt(n) + 1):
        m = a * a - n
        for c in range(1, -m + 1):
            if m % c == 0:
                count += 2 * (gcd(gcd(a, m // c), c) == 1)
    return count


def test_count_ambiguous_matches_brute_force():
    for n in range(2, 300):
        if isqrt(n) ** 2 != n:
            assert count_ambiguous(n) == _brute_count(n), n


@pytest.mark.parametrize("workload", WORKLOADS)
def test_jobs_are_deterministic_per_seed(workload):
    assert make_jobs(workload, 7) == make_jobs(workload, 7)
    assert make_jobs(workload, 7) != make_jobs(workload, 8)


def _ac(text):
    a, c = text.removeprefix("--rep=").split("|")[0].split(",")
    return int(a), int(c)


def _is_element(a, c, n):
    m = a * a - n
    return m % c == 0 and gcd(gcd(a, m // c), c) == 1


@pytest.mark.parametrize("seed", range(4))
def test_generated_inputs_are_valid(seed):
    for workload in WORKLOADS:
        for job in make_jobs(workload, seed):
            if job["kind"] == "sweep":
                assert all(str(case["p"]) in job["argv"] for case in job["cases"])
                continue
            n = int(job["n"])
            assert isqrt(n) ** 2 != n
            if job["kind"] == "verify":
                assert n == 2 ** job["l"] * job["p"] ** job["k"]
            else:
                assert any(str(n) in arg for arg in job["argv"])
            if "rep" in job:
                assert valid_triple(*job["rep"], n)
            argv = job["argv"]
            # negative reps must not be read as options
            for i, arg in enumerate(argv):
                if arg.startswith("-") and arg[1:2].isdigit():
                    assert "--" in argv[:i], argv
            if job["kind"] == "equivalent":
                (a1, c1), (a2, c2) = _ac(argv[-2]), _ac(argv[-1])
                assert a1 * a1 < n and _is_element(a1, c1, n)
                assert _is_element(a2, c2, n)
            if job["kind"] == "cf":
                a, c = _ac(argv[-1])
                assert a * a < n and _is_element(a, c, n)


def test_random_reps_are_ambiguous_triples():
    import random

    rng = random.Random(1)
    for n in (7, 125, 69984, 999999):
        for _ in range(50):
            assert valid_triple(*random_rep(rng, n), n)


def test_theorem_cases_lie_in_range():
    cases = theorem_cases()
    assert len(cases) == 75
    for theorem, p, k, l, n in cases:
        assert n == 2 ** l * p ** k and 10 ** 4 <= n <= 2 * 10 ** 5
        assert k % 2 == 1 and k >= 3


def test_theorem_pairs_are_alike_and_drawn_per_seed():
    pairs = theorem_pairs()
    assert len(pairs) >= 4
    for pair in pairs:
        total = sum(case["triples"] for grid in pair for case in grid)
        assert THEOREM_PASS_TRIPLES[0] <= total <= THEOREM_PASS_TRIPLES[1]
        assert all(len({(c["p"], c["k"]) for c in grid}) == 1 for grid in pair)
    sweeps = {tuple(j["argv"][2::2][:3]) for s in range(20)
              for j in make_jobs("theorem-audit", s) if j["kind"] == "sweep"}
    assert len(sweeps) >= 3


def _fake_dispatch(replies):
    """A dispatch that answers job i with replies[i]: (code, stdout) or an
    exception to raise."""
    calls = iter(replies)

    def dispatch(argv, out):
        reply = next(calls)
        if isinstance(reply, Exception):
            raise reply
        code, text = reply
        out.write(text)
        return code

    return dispatch


def test_failures_are_counted_and_the_pass_goes_on():
    jobs = [{"kind": "equivalent", "n": 5, "argv": ["equivalent"]}] * 4
    replies = [(1, "equivalent\n"), RuntimeError("boom"),
               (0, "not equivalent\n"), (0, "equivalent\n")]
    result = run_pass(jobs, (0,), _fake_dispatch(replies))
    assert [i for i, _ in result["failures"]] == [0, 1, 2]
    assert len(result["latencies_ms"]) == 4
    assert "exit code 1" in result["failures"][0][1]
    assert "RuntimeError" in result["failures"][1][1]


def test_digest_mismatch_counts_as_failure():
    passes = [{"digests": ["a", "b"], "failures": []},
              {"digests": ["a", "c"], "failures": []}]
    mark_digest_mismatches(passes, None)
    assert passes[0]["failures"] == [] and [i for i, _ in passes[1]["failures"]] == [1]

    passes = [{"digests": ["a", "b"], "failures": [[1, "exit code 1"]]}]
    mark_digest_mismatches(passes, ["x", "y"])
    assert sorted(i for i, _ in passes[0]["failures"]) == [0, 1]


def _orbits_doc(n):
    sys.path.insert(0, str(ROOT / "src"))
    import io

    from ambigraph.cli import dispatch

    out = io.StringIO()
    assert dispatch(["orbits", str(n), "--json"], out=out) == 0
    return out.getvalue()


def test_orbits_check_accepts_the_program_output_and_rejects_corruption():
    job = {"kind": "orbits-json", "n": 125, "triples": count_ambiguous(125)}
    text = _orbits_doc(125)
    assert check(job, text) is None

    doc = json.loads(text)
    doc["orbits"][1]["members"][0] = doc["orbits"][0]["members"][0]
    assert check(job, json.dumps(doc)) is not None  # overlapping orbits

    doc = json.loads(text)
    doc["orbit_count"] += 1
    assert check(job, json.dumps(doc)) is not None

    doc = json.loads(text)
    doc["orbits"][0]["members"][0] = "1,2,3|125"
    assert check(job, json.dumps(doc)) is not None  # not an element

    assert check(job, text[:-10]) is not None  # truncated


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-n-orbits",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_expected_codes_cover_every_workload():
    assert set(EXPECTED_CODES) == set(WORKLOADS)
