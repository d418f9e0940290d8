"""Workbench for biplanes: symmetric 2-(v,k,2) designs and their symmetries.

The package constructs and verifies the known small biplanes, computes
automorphism groups and canonical forms, searches difference sets and
develops them into designs, certifies the fixed-point theorems against
concrete automorphisms, carries the admissibility tables and Sylow bounds
for the open (121,16,2) case, and verifies cartesian decompositions and the
associated Diophantine exclusion arithmetic.
"""

from .design import (Design, DesignParams, VerifyReport, brc_brute_force,
                     brc_feasible, dual, k_for_point_power, params_from_k,
                     restrict_subdesign, verify_symmetric_design)
from .errors import BiplaneError, InputError, ScaleError
from .perm import CycleType, PermGroup, Permutation, cycle_type
from .aut import (AutResult, CanonicalCertificate, IsoResult, SearchStats,
                  are_isomorphic, automorphism_group, canonical_form,
                  isomorphism)
from .diffset import (DifferenceSet, GroupTable, develop, is_difference_set,
                      lander_excluded, search_difference_sets)
from .fixcert import (CertResult, FixReport, admissible_cycle_types_121,
                      certify_79, certify_conjugacy_bound, certify_fix_lemmas,
                      fix_report, fixed_subdesign, sylow_bounds_121)
from .cartdecomp import (CartesianDecomposition, PellSolution,
                         block_coordinate_pairs, coordinatize, pell_solutions,
                         preserved_by, psp4_degree_excluded, verify_cartesian)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "Design", "DesignParams", "VerifyReport", "verify_symmetric_design",
    "dual", "params_from_k", "k_for_point_power", "brc_feasible",
    "brc_brute_force", "restrict_subdesign",
    "Permutation", "PermGroup", "CycleType", "cycle_type",
    "AutResult", "CanonicalCertificate", "IsoResult", "SearchStats",
    "automorphism_group", "canonical_form", "are_isomorphic", "isomorphism",
    "GroupTable", "DifferenceSet", "is_difference_set", "develop",
    "search_difference_sets", "lander_excluded",
    "FixReport", "CertResult", "fix_report", "certify_fix_lemmas",
    "fixed_subdesign", "certify_conjugacy_bound",
    "admissible_cycle_types_121", "sylow_bounds_121", "certify_79",
    "CartesianDecomposition", "PellSolution", "verify_cartesian",
    "coordinatize", "preserved_by", "block_coordinate_pairs",
    "pell_solutions", "psp4_degree_excluded",
    "catalog",
    "BiplaneError", "InputError", "ScaleError",
]
