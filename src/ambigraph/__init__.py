"""Exact toolkit for the modular group acting on real quadratic irrationals.

Enumerates the ambiguous numbers of Q*(sqrt(n)), computes their orbit
partition by two independent algorithms (coset-diagram traversal and a
continued-fraction equivalence oracle), classifies elements by residue
invariants, extracts circuits and stabilizer words, and verifies published
orbit-count claims, reporting errata where computation refutes them.
"""

__version__ = "0.1.0"

from .core import Element, is_ambiguous, make_element, value_approx
from .enumeration import enumerate_ambiguous
from .diagram import (
    ClosedPath,
    OrbitPartition,
    StepType,
    closed_path,
    export_dot,
    partition_graph,
)
from .cf import Expansion, cf_expand, partition_cf, psl_equivalent
from .classify import ClassifierKind, invariance_audit, legendre
from .words import (
    Circuit,
    Mat2,
    Word,
    check_word_fixes,
    circuit_from_path,
    circuit_from_word,
    fixed_quadratic,
    mobius_apply,
    parse_word,
    path_word,
    stabilizer_word,
    word_to_matrix,
)
from .harness import (
    TheoremCase,
    VerdictReport,
    check_paper_examples,
    make_case,
    predict,
    resolve_rep,
    sweep,
    verify_case,
)
