"""Exact toolkit for the modular group acting on real quadratic irrationals.

Enumerates the ambiguous numbers of Q*(sqrt(n)), computes their orbit
partition by two independent algorithms (coset-diagram traversal and a
continued-fraction equivalence oracle), classifies elements by residue
invariants, extracts circuits and stabilizer words, and verifies published
orbit-count claims, reporting errata where computation refutes them.
"""

__version__ = "0.1.0"

from .core import (
    Element,
    apply_x,
    apply_y,
    apply_yy,
    conjugate,
    is_ambiguous,
    make_element,
    value_approx,
)
from .enumeration import AmbiguousSet, divisors_signed, enumerate_ambiguous, isqrt
from .diagram import (
    ClosedPath,
    OrbitPartition,
    StepType,
    closed_path,
    export_dot,
    orbit_members,
    partition_graph,
    successor,
)
from .cf import Expansion, cf_expand, floor_element, partition_cf, psl_equivalent
from .classify import (
    ClassifierKind,
    ResidueClass,
    class_mod8,
    class_mod_p,
    invariance_audit,
    legendre,
)
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
