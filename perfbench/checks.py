"""Output checks, one per job kind.

`check(job, stdout)` returns None when the output is right and a short
reason when it is not.  The checks use only facts the generator derived
with the benchmark's own arithmetic, plus the identities every ambiguous
number must satisfy; stdout digests are compared separately (run.py).
"""

import csv
import io
import json
import re

from arith import valid_triple

_ELEMENT = re.compile(r"(-?\d+),(-?\d+),(-?\d+)\|(\d+)")


def _elements(text, n):
    """Every "a,b,c|n" literal in text, each required to be ambiguous of n."""
    out = []
    for m in _ELEMENT.finditer(text):
        a, b, c, m_n = (int(v) for v in m.groups())
        if m_n != n or not valid_triple(a, b, c, n):
            raise ValueError(f"invalid element {m.group(0)} for n={n}")
        out.append((a, b, c))
    return out


def _check_orbits_json(job, out):
    doc = json.loads(out)
    if doc["n"] != job["n"] or doc["method"] != "both":
        return "wrong n or method"
    if doc["orbit_count"] != len(doc["orbits"]):
        return "orbit_count != len(orbits)"
    seen = set()
    for orbit in doc["orbits"]:
        members = _elements(" ".join(orbit["members"]), job["n"])
        if len(members) != orbit["length"] or seen.intersection(members):
            return "orbit member sets overlap or miscounted"
        seen.update(members)
    if len(seen) != job["triples"]:
        return f"orbits cover {len(seen)} triples, expected {job['triples']}"
    return None


def _check_orbits_text(job, out):
    lines = out.splitlines()
    head = re.fullmatch(r"(\d+) orbits of ambiguous numbers for n=(\d+) "
                        r"\(method: both\)", lines[0])
    if not head or int(head[2]) != job["n"] or int(head[1]) != len(lines) - 1:
        return "bad header"
    total = 0
    for line in lines[1:]:
        m = re.fullmatch(r"  rep (\S+)  length (\d+)  circuit \([\d,]+\)", line)
        if not m:
            return f"bad orbit line {line!r}"
        _elements(m[1], job["n"])
        total += int(m[2])
    if total != job["triples"]:
        return f"orbit lengths sum to {total}, expected {job['triples']}"
    return None


def _check_verify(job, out):
    doc = json.loads(out)
    for key in ("theorem", "p", "k", "l", "n"):
        if doc[key] != job[key]:
            return f"wrong {key}"
    if doc["count_match"] != (doc["computed_count"] == doc["expected_count"]):
        return "count_match inconsistent"
    if sum(doc["class_occupancy"].values()) != job["triples"]:
        return "class occupancy does not cover the ambiguous set"
    return None


def _check_classify(job, out):
    doc = json.loads(out)
    if doc["n"] != job["n"] or not doc["orbits"]:
        return "wrong n or no orbits"
    _elements(" ".join(o["rep"] for o in doc["orbits"]), job["n"])
    (audit,) = doc["audits"]
    if audit["violations"] or audit["checked"] != 3 * 21 * job["triples"]:
        return f"audit {audit}"
    (occupancy,) = (v for k, v in doc.items() if k.startswith("occupancy_"))
    if sum(occupancy.values()) != job["triples"]:
        return "class occupancy does not cover the ambiguous set"
    return None


def _check_sweep(job, out):
    if "--csv" in job["argv"]:
        header, *rows = csv.reader(io.StringIO(out))
        if header[:6] != ["p", "k", "l", "n", "theorem", "status"]:
            return "wrong CSV header"
        rows = [dict(zip(header, row)) for row in rows]
        for row in rows:
            for key in ("p", "k", "l", "n"):
                row[key] = int(row[key])
    else:
        rows = json.loads(out)["rows"]
    if len(rows) != len(job["cases"]):
        return "wrong number of rows"
    for row, case in zip(rows, job["cases"]):
        for key in ("theorem", "p", "k", "l", "n"):
            if row[key] != case[key]:
                return f"wrong {key}"
        if row["status"] not in ("pass", "fail", "exploratory"):
            return f"status {row['status']}"
    return None


def _check_circuit(job, out):
    lines = out.splitlines()
    length = int(lines[0].removeprefix("path length "))
    vertices = _elements(lines[1], job["n"])
    if len(vertices) != length or list(vertices[0]) != job["rep"]:
        return "path does not start at the rep or has the wrong length"
    if lines[-1] != "word fixes anchor: True":
        return "stabilizer word does not fix the anchor"
    return None


def _check_equivalent(job, out):
    # the pair is related by generator moves, so it must be equivalent
    return None if out == "equivalent\n" else f"verdict {out!r}"


def _check_cf(job, out):
    lines = out.splitlines()
    cycle = json.loads(lines[1].removeprefix("cycle "))
    states = _elements(lines[2], job["n"])
    if not cycle or len(cycle) != len(states):
        return "cycle and cycle states differ in length"
    return None


def _check_word(job, out):
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    a, b, c = job["rep"]
    if fields["target_quadratic"] != f"[{c}, {-2 * a}, {b}]":
        return "wrong target quadratic"
    m = _ELEMENT.fullmatch(fields["image"])
    if m is None or int(m[4]) != job["n"]:
        return "bad image"
    ia, ib, ic = (int(v) for v in m.groups()[:3])
    if ib * ic != ia * ia - job["n"] or fields["fixes"] not in ("True", "False"):
        return "image is not an element of n"
    return None


_CHECKS = {
    "orbits-json": _check_orbits_json,
    "orbits-text": _check_orbits_text,
    "verify": _check_verify,
    "classify": _check_classify,
    "sweep": _check_sweep,
    "circuit": _check_circuit,
    "equivalent": _check_equivalent,
    "cf": _check_cf,
    "check-word": _check_word,
}


def check(job, out):
    """None if `out` is a right answer to `job`, else the reason it is not."""
    try:
        return _CHECKS[job["kind"]](job, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
