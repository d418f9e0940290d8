"""Workbench for biplanes: symmetric 2-(v,k,2) designs and their symmetries.

The package constructs and verifies the known small biplanes, computes
automorphism groups and canonical forms, searches difference sets and
develops them into designs, certifies the fixed-point theorems against
concrete automorphisms, carries the admissibility tables and Sylow bounds
for the open (121,16,2) case, and verifies cartesian decompositions and the
associated Diophantine exclusion arithmetic.

Import each name from its module (`from biplane.aut import
automorphism_group`, `from biplane import catalog`). `import biplane` loads
no submodule, so a CLI call or a script pays only for the modules it uses.
"""
