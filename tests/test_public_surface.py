"""The package's public names, and the functions the benchmark traces."""

import importlib
import importlib.util
import os
import subprocess
import sys
import types

import ambigraph

PUBLIC = [
    "Circuit", "ClassifierKind", "ClosedPath", "Element", "Expansion", "Mat2",
    "OrbitPartition", "StepType", "TheoremCase", "VerdictReport", "Word",
    "cf_expand", "check_paper_examples", "check_word_fixes", "circuit_from_path",
    "circuit_from_word", "closed_path", "enumerate_ambiguous", "export_dot",
    "fixed_quadratic", "invariance_audit", "is_ambiguous", "legendre",
    "make_case", "make_element", "mobius_apply", "parse_word", "partition_cf",
    "partition_graph", "path_word", "predict", "psl_equivalent", "resolve_rep",
    "stabilizer_word", "sweep", "value_approx", "verify_case", "word_to_matrix",
]

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")


def test_public_names_are_pinned():
    names = sorted(n for n, v in vars(ambigraph).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC


def test_every_traced_function_resolves():
    # a traced name that no longer resolves would read 0 in every benchmark pass
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TRACED
    for home, names in layers.TRACED.items():
        module = importlib.import_module(f"ambigraph.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{home}.{name}"


def test_element_post_init_counts_every_construction(monkeypatch):
    """The tracer counts Element constructions by wrapping the class's
    __post_init__, so every way of building one must call it, once."""
    from ambigraph.core import Element, make_element

    validate, calls = Element.__post_init__, []

    def counted(obj):
        calls.append(obj)
        validate(obj)

    monkeypatch.setattr(Element, "__post_init__", counted)
    built = [Element(1, -31, 4, 125), make_element(1, 4, 125),
             Element.from_triple((1, -31, 4), 125)]
    assert calls == built and len(calls) == 3


def test_cli_import_loads_no_dataclass_machinery():
    """Importing the CLI pulls in neither dataclasses nor inspect, which
    would add their import and exec time to every process's set-up."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys; before = set(sys.modules); import ambigraph.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_readme_library_example_runs(capsys):
    """The README's library example runs against the package and prints
    what its comments say."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    want = [line.split("# ", 1)[1] for line in code.splitlines()
            if line.startswith("print(")]
    assert want and capsys.readouterr().out.splitlines() == want
