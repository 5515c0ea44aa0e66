"""Solver for CSPs over constraint languages preserved by a special weak
near-unanimity operation, with the finite universal-algebra machinery the
decision procedure needs and a brute-force oracle for differential testing.
"""

from .algebra import (
    Algebra,
    Congruence,
    LinearIso,
    OperationTable,
    all_congruences,
    binary_terms,
    is_polynomially_complete,
    linear_structure,
    make_algebra,
    quotient_algebra,
    search_special_wnu,
    verify_special_wnu,
)
from .classify import (
    CenterWitness,
    StructureReport,
    classify_domain,
    con_lin,
    find_binary_absorbing,
    find_center,
    pc_structure,
    verify_structure_report,
)
from .consistency import (
    check_irreducibility,
    enforce_cycle_consistency,
    linked_components,
)
from .errors import CspError
from .fileformat import parse_instance, serialize_instance
from .harness import GenParams, brute_force, differential_test, random_instance
from .instance import (
    Constraint,
    Instance,
    apply_reduction,
    factorize_to_linear,
    make_crucial,
    relation_to_equations,
    weaken_all,
)
from .linsolve import (
    AffineParam,
    Equation,
    LinearSystem,
    basis_points,
    learn_hyperplane,
    solve_linear_system,
)
from .relation import Relation, factorize, project
from .solver import SolveOutcome, Solver, SolverConfig, solve

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
