"""The package's public names, and the functions the benchmark traces."""

import importlib
import importlib.util
import os
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
