"""Workbench for biplanes: symmetric 2-(v,k,2) designs and their symmetries.

The package constructs and verifies the known small biplanes, computes
automorphism groups and canonical forms, searches difference sets and
develops them into designs, certifies the fixed-point theorems against
concrete automorphisms, carries the admissibility tables and Sylow bounds
for the open (121,16,2) case, and verifies cartesian decompositions and the
associated Diophantine exclusion arithmetic.

`import biplane` loads no submodule: each name of `__all__` is imported from
its module on first access (PEP 562), so a CLI call or a script that needs
one module does not pay for the others.
"""

from importlib import import_module

__version__ = "0.1.0"

# Re-exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("Design", "DesignParams", "VerifyReport", "verify_symmetric_design",
         "dual", "params_from_k", "k_for_point_power", "brc_feasible",
         "brc_brute_force", "restrict_subdesign"), "design"),
    **dict.fromkeys(("Permutation", "PermGroup", "CycleType", "cycle_type"), "perm"),
    **dict.fromkeys(
        ("AutResult", "CanonicalCertificate", "IsoResult", "SearchStats",
         "automorphism_group", "canonical_form", "are_isomorphic", "isomorphism"), "aut"),
    **dict.fromkeys(
        ("GroupTable", "DifferenceSet", "DiffsetSearchStats",
         "is_difference_set", "develop", "difference_set_search",
         "search_difference_sets", "lander_excluded"), "diffset"),
    **dict.fromkeys(
        ("FixReport", "CertResult", "fix_report", "certify_fix_lemmas",
         "fixed_subdesign", "certify_conjugacy_bound",
         "admissible_cycle_types_121", "sylow_bounds_121", "certify_79"), "fixcert"),
    **dict.fromkeys(
        ("CartesianDecomposition", "PellSolution", "verify_cartesian",
         "coordinatize", "preserved_by", "block_coordinate_pairs",
         "pell_solutions", "psp4_degree_excluded"), "cartdecomp"),
    "catalog": None,  # the submodule itself
    **dict.fromkeys(("BiplaneError", "InputError", "ScaleError"), "errors"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _EXPORTS[name]
    if module is None:
        value = import_module(f".{name}", __name__)
    else:
        value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
