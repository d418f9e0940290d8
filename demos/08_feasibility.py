"""Parameter arithmetic and Bruck-Ryser-Chowla feasibility.

Biplane parameters are rigid: k determines v. The BRC obstruction is
decided by Legendre's theorem on the ternary form, one quadratic-residue
test per odd prime, cross-checked by a bounded search for a solution of
the form; by Holzer's bound that search is complete, so its "no" is a
proof too.
"""

from biplane.design import (DesignParams, brc_brute_force, brc_feasible,
                            k_for_point_power, params_from_k)

print("Forced parameters (v determined by k):")
for k in (4, 5, 6, 9, 11, 13, 16):
    p = params_from_k(k)
    print(f"  k={k:>2} -> v={p.v}")

print("\nBRC feasibility for all biplane parameter sets with k <= 20:")
excluded = []
for k in range(3, 21):
    p = params_from_k(k)
    feasible = brc_feasible(p)
    oracle = brc_brute_force(p)
    assert feasible == oracle
    mark = "feasible" if feasible else "EXCLUDED"
    print(f"  ({p.v:>3},{k:>2},2): {mark}")
    if not feasible and k != 12:
        excluded.append(str(k))

print(f"\nThe k=12 exclusion is the classical one; k={', '.join(excluded)}")
print("fall as well, each confirmed by the independent bounded search.")

print("\nBlock sizes forced on point counts v = c^d:")
for c, d in ((11, 2), (4, 2), (5, 3)):
    k = k_for_point_power(c, d)
    print(f"  v = {c}^{d}: k = {k if k is not None else 'impossible'}")
