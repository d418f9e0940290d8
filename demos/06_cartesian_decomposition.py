"""A biplane whose symmetries preserve a grid structure.

The primitive (16,6,2) biplane admits a flag-transitive subgroup of order
1152 preserving a homogeneous cartesian decomposition: the 16 points form
a 4 x 4 grid, and each block meets the rows/columns in a fixed pattern.
"""

from biplane import catalog
from biplane.aut import automorphism_group
from biplane.cartdecomp import (CartesianDecomposition, block_coordinate_pairs,
                                coordinatize, preserved_by, verify_cartesian)

cd = CartesianDecomposition(catalog.CART16_PARTITIONS)
report = verify_cartesian(cd, 16)
print(f"decomposition: d={report.d}, part counts {report.part_counts}, "
      f"homogeneous={report.homogeneous}")

coords = coordinatize(cd, 16)
print("\nThe 4 x 4 grid (rows = first coordinate, columns = second):")
grid = {}
for point, (r, c) in coords.items():
    grid[(r, c)] = point
for r in range(4):
    print("   " + "  ".join(f"{grid[(r, c)]:>2}" for c in range(4)))

d = catalog.build("biplane16_primitive")
sub = catalog.primitive16_group()
full = automorphism_group(d).group
print(f"\npreserved by the order-{sub.order()} subgroup: {preserved_by(cd, sub)}")
print(f"preserved by the full order-{full.order()} group:  {preserved_by(cd, full)}")
print(f"order-{sub.order()} subgroup point-primitive: {sub.is_primitive()}")
print(f"order-{sub.order()} subgroup orbits on flags: {catalog.flag_orbit_count(d, sub)}")

counts = block_coordinate_pairs(d, cd, group=sub)
print(f"\ncoordinate-sharing pairs per block: {sorted(set(counts))}")
print("each block has exactly 2(c-1) = 6 pairs of points agreeing in a")
print("coordinate; summed over all 16 blocks that is 2 c^2 (c-1) = 96.")
