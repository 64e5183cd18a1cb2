"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 errata found, 3 internal
inconsistency (the two partition algorithms disagree, or an engine
invariant broke).  All output is deterministic for fixed inputs.
"""

import argparse
import contextlib
import csv
import functools
import io
import json
import sys

from . import __version__, harness
from .cf import cf_expand, orbit_of, psl_equivalent
from .classify import (
    ClassifierKind,
    class_occupancy,
    classifier_for,
    invariance_audits,
    odd_prime_divisors,
)
from .core import approx_values, make_element, triple_str, triples_str
from .diagram import closed_path, export_dot, partition_graph
from .enumeration import DEFAULT_MAX_N, ambiguous_count, ambiguous_triples, check_cap
from .errors import AmbigraphError, InternalInconsistency, UnknownOrbit
from .harness import (
    SweepRow,
    check_paper_examples,
    cross_checked_partition,
    make_case,
    sweep,
    verify_case,
)
from .words import (check_word_fixes, circuit_from_path, circuit_from_word,
                    parse_word, path_word)

SCHEMA_VERSION = 1
_I64 = 2 ** 63 - 1
_CHUNK = 1 << 16  # characters per write of a streamed document
_RUN = 1024  # triples formatted per batch by ambiguous and orbits --json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ERRATA = 2
EXIT_INCONSISTENT = 3


def _int(v):
    """Integers beyond 64-bit range become decimal strings in JSON."""
    return str(v) if abs(v) > _I64 else v


def _classifiers(n):
    """JSON name -> classifier, for every class invariant that n has."""
    classifiers = {
        f"mod_p[{p}]": classifier_for(ClassifierKind.MOD_P, n, p)
        for p in odd_prime_divisors(n)
    }
    if n % 8 == 0:
        classifiers["mod8"] = classifier_for(ClassifierKind.MOD_8, n)
    return classifiers


def _orbit_json(rec, n, classifiers):
    """The JSON text of one orbit's record, as json.dumps(record, indent=2),
    laid out directly: its strings (wire strings, the word, the step type
    and class names) need no escaping, and its other values are ints.  The
    members' array is laid out by joins of _RUN strings at a time, so no
    list of one string per member is held."""
    word = path_word(rec.path)
    circuit = circuit_from_word(word)
    exponents = ",\n      ".join(map(str, circuit.exponents))
    t = rec.path.anchor
    classes = ",\n    ".join(f'"{name}": {f(t)}' for name, f in classifiers.items())
    classes = "{\n    " + classes + "\n  }" if classes else "{}"
    ts, sep = rec.triples, '",\n    "'
    members = sep.join(sep.join(triples_str(ts[i:i + _RUN], n))
                       for i in range(0, len(ts), _RUN))
    return (f'{{\n  "n": {json.dumps(_int(n))},\n  "rep": "{triple_str(t, n)}",\n'
            f'  "members": [\n    "{members}"\n  ],\n  "circuit": {{\n'
            f'    "exponents": [\n      {exponents}\n    ],\n'
            f'    "start": "{circuit.start.value}"\n  }},\n  "word": "{word}",\n'
            f'  "classes": {classes},\n  "length": {rec.ambiguous_length}\n}}')


def _emit(doc, out):
    out.write(json.dumps(doc, indent=2) + "\n")


def _emit_streamed(doc, parts, out):
    """_emit of doc with its last value, an empty list, filled from parts.
    Each part is the JSON text of one or more of the list's values as laid
    out at depth 1: indented by four spaces and, when several, separated by
    ",\\n    ".  Parts are joined into chunks of about _CHUNK characters, one
    write each, so a chunk and a part are all that is held."""
    head = json.dumps(doc, indent=2)
    chunk, size, sep = [head[:-len("]\n}")]], 0, "\n    "
    for part in parts:
        chunk += sep, part
        size += len(part)
        if size >= _CHUNK:
            out.write("".join(chunk))
            chunk, size = [], 0
        sep = ",\n    "
    chunk.append("]\n}\n" if sep == "\n    " else "\n  ]\n}\n")
    out.write("".join(chunk))


def _write(text, path, out):
    """Write text to the file at path, or to out when no path is given."""
    if not path:
        out.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise AmbigraphError(f"cannot write {path}: {exc.strerror or exc}") from None


# --- subcommands ---------------------------------------------------------

def _cmd_ambiguous(args, out):
    n = args.n
    if args.count_only:
        out.write(f"{ambiguous_count(n, args.max_n)}\n")
        return EXIT_OK
    triples = ambiguous_triples(n, args.max_n)
    runs = (triples[i:i + _RUN] for i in range(0, len(triples), _RUN))
    if args.json:
        _emit_streamed(
            {
                "schema": SCHEMA_VERSION,
                "n": _int(n),
                "count": len(triples),
                "elements": [],
            },
            ('"' + '",\n    "'.join(triples_str(run, n)) + '"' for run in runs),
            out,
        )
    elif args.csv:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["a", "b", "c", "n"])
        w.writerows((a, b, c, n) for a, b, c in triples)
    else:
        out.write(f"{len(triples)} ambiguous numbers in Q*(sqrt({n}))\n")
        for run in runs:
            out.write("".join(
                f"  {text}  ~ {value:.6f}\n"
                for text, value in zip(triples_str(run, n), approx_values(run, n))
            ))
    return EXIT_OK


def _cmd_orbits(args, out):
    # graph runs the successor walk alone; cf and both check it against the CF
    engine = partition_graph if args.method == "graph" else cross_checked_partition
    partition = engine(args.n, max_n=args.max_n)
    if args.json:
        classifiers = _classifiers(args.n)
        _emit_streamed(
            {
                "schema": SCHEMA_VERSION,
                "n": _int(args.n),
                "method": args.method,
                "orbit_count": len(partition),
                "orbits": [],
            },
            (_orbit_json(o, args.n, classifiers).replace("\n", "\n    ")
             for o in partition.orbits),
            out,
        )
    else:
        out.write(
            f"{len(partition)} orbits of ambiguous numbers for n={args.n} "
            f"(method: {args.method})\n"
        )
        for o in partition.orbits:
            out.write(f"  rep {triple_str(o.path.anchor, args.n)}"
                      f"  length {o.ambiguous_length}"
                      f"  circuit {circuit_from_path(o.path)}\n")
    return EXIT_OK


def _cmd_classify(args, out):
    kinds = {}  # JSON name -> (kind, p); p is None for mod 8
    if args.mod_p is not None:
        kinds["mod_p"] = (ClassifierKind.MOD_P, args.mod_p)
    if args.mod8:
        kinds["mod8"] = (ClassifierKind.MOD_8, None)
    classifiers = {name: classifier_for(kind, args.n, p)
                   for name, (kind, p) in kinds.items()}
    if args.audit_depth < 0:
        raise AmbigraphError(f"--audit-depth must be >= 0, got {args.audit_depth}")
    partition = cross_checked_partition(args.n, max_n=args.max_n)
    classifiers = classifiers or _classifiers(args.n)
    doc = {"schema": SCHEMA_VERSION, "n": _int(args.n), "orbits": [], "audits": []}
    for o in partition.orbits:
        classes = {name: f(o.path.anchor) for name, f in classifiers.items()}
        doc["orbits"].append({"rep": triple_str(o.path.anchor, args.n),
                              "classes": classes})
    reports = invariance_audits(args.n, list(kinds.values()), args.audit_depth,
                                args.seed, args.max_n)
    for (name, (_, p)), rpt in zip(kinds.items(), reports):
        doc["audits"].append({"kind": name, **({"p": p} if p else {}),
                              "checked": rpt.checked,
                              "violations": len(rpt.violations)})
        summary = class_occupancy(partition, classifiers[name])
        doc[f"occupancy_{name}"] = {str(k): v for k, v in summary.occupancy.items()}
    if args.json:
        _emit(doc, out)
    else:
        for entry in doc["orbits"]:
            out.write(f"  rep {entry['rep']}  classes {entry['classes']}\n")
        for audit in doc["audits"]:
            out.write(f"  audit {audit}\n")
    return EXIT_OK


def _cmd_cf(args, out):
    e = _parse_rep_with_n(args.element)
    check_cap(e.n, args.max_n)
    x = cf_expand(e)
    out.write(f"preperiod {list(x.preperiod)}\n")
    out.write(f"cycle {list(x.cycle)}\n")
    out.write(f"cycle states {triples_str(x.cycle_triples, e.n)}\n")
    return EXIT_OK


def _cmd_equivalent(args, out):
    verdict = psl_equivalent(_element(args.first, args.n),
                             _element(args.second, args.n))
    out.write(f"{'equivalent' if verdict else 'not equivalent'}\n")
    return EXIT_OK


def _cmd_circuit(args, out):
    e = _element(args.rep, args.n)
    path = closed_path(e)
    word = path_word(path)
    circuit = circuit_from_word(word)
    verdict = check_word_fixes(word, e)
    out.write(f"path length {len(path)}\n")
    out.write(f"vertices {' '.join(path.triples_str())}\n")
    out.write(f"circuit {circuit} starting {circuit.start}\n")
    out.write(f"word {word}\n")
    out.write(f"word fixes anchor: {verdict.fixes}\n")
    return EXIT_OK


def _cmd_check_word(args, out):
    e = _element(args.rep, args.n)
    w = parse_word(args.word)
    verdict = check_word_fixes(w, e)
    doc = {
        "schema": SCHEMA_VERSION,
        "word": str(w),
        "notices": list(w.notices),
        "matrix": [_int(v) for v in verdict.matrix.entries()],
        "fixed_quadratic": [_int(v) for v in verdict.quadratic],
        "target_quadratic": [_int(v) for v in verdict.target_quadratic],
        "image": str(verdict.image),
        "fixes": verdict.fixes,
    }
    if args.json:
        _emit(doc, out)
    else:
        for k, v in doc.items():
            if k != "schema":
                out.write(f"{k}: {v}\n")
    return EXIT_OK


def _verdict_dict(report):
    case = report.case
    return {
        "theorem": case.theorem,
        "p": case.p,
        "k": case.k,
        "l": case.l,
        "n": _int(case.n),
        "expected_count": case.expected_count,
        "computed_count": report.computed_count,
        "count_match": report.count_match,
        "exploratory": case.exploratory,
        "reps": [
            {
                "claimed": f"{res.spec.a},{res.spec.c}",
                "resolved": str(res.element) if res.element else None,
                "substituted": res.substituted,
                "orbit": orbit,
                "note": res.note,
            }
            for res, orbit in zip(report.rep_resolutions, report.rep_orbits)
        ],
        "reps_in_distinct_orbits": report.reps_in_distinct_orbits,
        "orbit_classes": list(report.orbit_classes),
        "class_homogeneous": report.class_homogeneous,
        "class_occupancy": {str(k): v for k, v in report.class_occupancy.items()},
        "errata": list(report.errata_notes),
        "passed": report.passed,
    }


def _cmd_verify(args, out):
    if args.examples:
        report = check_paper_examples(max_n=args.max_n)
        doc = {
            "schema": SCHEMA_VERSION,
            "findings": [
                {**f._asdict(),
                 "details": {k: _int(v) if isinstance(v, int) else v
                             for k, v in sorted(f.details.items())}}
                for f in report.findings
            ],
        }
        if args.json:
            _emit(doc, out)
        else:
            for f in report.findings:
                mark = "ok" if f.holds else "ERRATA"
                out.write(f"[{mark}] {f.claim}\n")
                if f.errata:
                    out.write(f"        {f.errata}\n")
        return EXIT_ERRATA if report.has_errata else EXIT_OK
    if not args.theorem:
        raise AmbigraphError("verify needs --theorem or --examples")
    case = make_case(args.theorem, args.p, args.k, args.l, args.max_n)
    report = verify_case(case, max_n=args.max_n)
    doc = {"schema": SCHEMA_VERSION, **_verdict_dict(report)}
    if args.json:
        _emit(doc, out)
    else:
        out.write(
            f"theorem {case.theorem} n={case.n}: computed {report.computed_count} "
            f"orbits (claimed {case.expected_count}), "
            f"{'pass' if report.passed else 'FAIL'}\n"
        )
        for note in report.errata_notes:
            out.write(f"  errata: {note}\n")
    return EXIT_ERRATA if not report.passed or report.has_errata else EXIT_OK


def _cmd_sweep(args, out):
    rows = sweep(*([int(v) for v in arg.split(",") if v]
                   for arg in (args.p, args.k, args.l)), args.max_n)
    records = [{**r._asdict(), "n": _int(r.n)} for r in rows]
    doc = {
        "schema": SCHEMA_VERSION,
        "rows": records,
        "totals": {
            status: sum(1 for r in rows if r.status == status)
            for status in sorted({r.status for r in rows})
        },
    }
    if args.csv:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(SweepRow._fields)
        w.writerows(rec.values() for rec in records)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2) + "\n"
    _write(text, args.output, out)
    return EXIT_ERRATA if any(r.status == "fail" for r in rows) else EXIT_OK


def _cmd_export_dot(args, out):
    a, c = _parse_pair(args.rep)
    partition = partition_graph(args.n, max_n=args.max_n)
    try:
        e = make_element(a, c, args.n)
    except AmbigraphError:  # (a, c) is no element of n
        e = None
    i = None if e is None else orbit_of(partition, e)
    if i is None:
        raise UnknownOrbit(f"no orbit of n={args.n} contains a={a}, c={c}")
    _write(export_dot(partition.orbits[i]), args.output, out)
    return EXIT_OK


# --- argument plumbing ---------------------------------------------------

def _parse_pair(text):
    try:
        a, c = text.split(",")
        return int(a), int(c)
    except ValueError as exc:
        raise AmbigraphError(f"expected 'a,c', got {text!r}") from exc


def _element(text, n):
    """The element (a + sqrt(n))/c of an "a,c" argument."""
    return make_element(*_parse_pair(text), n)


def _parse_rep_with_n(text):
    try:
        ac, n = text.split("|")
        a, c = ac.split(",")
        return make_element(int(a), int(c), int(n))
    except ValueError as exc:
        raise AmbigraphError(f"expected 'a,c|n', got {text!r}") from exc


@functools.cache
def build_parser():
    """Built once per process: parse_args returns a fresh Namespace, no
    default is mutable and each func is a fixed _cmd_* function."""
    parser = argparse.ArgumentParser(
        prog="ambigraph",
        description="Orbits of real quadratic irrationals under the modular group",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                        help="guard cap on n (default 1e8)")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("ambiguous", help="enumerate ambiguous numbers")
    s.add_argument("n", type=int)
    s.add_argument("--count-only", action="store_true")
    fmt = s.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    s.set_defaults(func=_cmd_ambiguous)

    s = sub.add_parser("orbits", help="orbit partition of the ambiguous set")
    s.add_argument("n", type=int)
    s.add_argument("--method", choices=["graph", "cf", "both"], default="both")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_orbits)

    s = sub.add_parser("classify", help="residue classes per orbit, with audits")
    s.add_argument("n", type=int)
    s.add_argument("--mod-p", type=int, default=None)
    s.add_argument("--mod8", action="store_true")
    s.add_argument("--audit-depth", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_classify)

    s = sub.add_parser("cf", help="continued fraction of an element 'a,c|n'")
    s.add_argument("element")
    s.set_defaults(func=_cmd_cf)

    s = sub.add_parser("equivalent", help="PSL(2,Z)-equivalence of two elements")
    s.add_argument("first", metavar="a1,c1")
    s.add_argument("second", metavar="a2,c2")
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=_cmd_equivalent)

    s = sub.add_parser("circuit", help="closed path, circuit, stabilizer word")
    s.add_argument("n", type=int)
    s.add_argument("--rep", required=True, metavar="a,c")
    s.set_defaults(func=_cmd_circuit)

    s = sub.add_parser("check-word", help="evaluate a word against an element")
    s.add_argument("n", type=int)
    s.add_argument("word")
    s.add_argument("--rep", required=True, metavar="a,c")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_check_word)

    s = sub.add_parser("verify", help="verify an orbit-count theorem or the examples")
    s.add_argument("--theorem", choices=harness.THEOREMS)
    s.add_argument("--p", type=int)
    s.add_argument("--k", type=int)
    s.add_argument("--l", type=int, default=None)
    s.add_argument("--examples", action="store_true")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_verify)

    s = sub.add_parser("sweep", help="verify cases over (p, k, l) grids")
    s.add_argument("--p", required=True, help="comma list of odd primes")
    s.add_argument("--k", required=True, help="comma list of exponents")
    s.add_argument("--l", required=True, help="comma list of powers of two")
    fmt = s.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=_cmd_sweep)

    s = sub.add_parser("export-dot", help="DOT rendering of one orbit's closed paths")
    s.add_argument("n", type=int)
    s.add_argument("--rep", required=True, metavar="a,c")
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=_cmd_export_dot)

    return parser


def dispatch(argv, out=None) -> int:
    out = out or sys.stdout
    try:
        with contextlib.redirect_stdout(out):  # --help and --version
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        if hasattr(args, "n"):  # cf's n is in its element, checked there
            check_cap(args.n, args.max_n)
        return args.func(args, out)
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (AmbigraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
