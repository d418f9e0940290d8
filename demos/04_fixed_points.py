"""Fixed-point structure of biplane automorphisms.

Every theorem about fixed points is certified against concrete
automorphisms: equal fixed counts, matching cycle structure, the counting
formulas, and the fixed-substructure subdesign.
"""

from biplane import catalog
from biplane.aut import automorphism_group
from biplane.fixcert import certify_fix_lemmas, fix_report, fixed_subdesign

d = catalog.build("biplane16_primitive")
group = automorphism_group(d).group

print("Sweeping the 11520-element automorphism group of the primitive")
print("(16,6,2) biplane through every fixed-point check...")
worst = 0
for g in group.elements():
    if g.is_identity():
        continue
    result = certify_fix_lemmas(d, g)
    assert result.ok, (g, result.failures())
    worst = max(worst, result.report.f_points)
print(f"all checks pass; the largest fixed-point count seen is {worst}")
print(f"(the bound k + sqrt(k-2) = {d.k} + 2 = 8 is attained by involutions)")

print("\nAn involution attaining the bound:")
inv = min((g for g in group.elements()
           if g.order() == 2 and len(g.fixed_points()) == 8), key=lambda g: g.images)
rep = fix_report(d, inv)
print(f"  {inv.cycle_string()}")
print(f"  fixes {rep.f_points} points and {rep.f_blocks} blocks; "
      f"s-values on fixed points: {sorted(set(rep.s_point.values()))}")

print("\nThe fixed structure of an odd-order automorphism can itself be a biplane:")
for g in sorted((g for g in group.elements() if g.order() % 2 == 1 and not g.is_identity()),
                key=lambda g: g.images):
    sub, reason = fixed_subdesign(d, g)
    if sub is not None:
        print(f"  {g.cycle_string()} of order {g.order()}")
        print(f"  fixed structure = ({sub.v},{sub.k},{sub.lam}) design: "
              "the complete design on 4 points")
        break
