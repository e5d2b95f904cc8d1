"""Exact Griess-algebra machinery for doubled root lattices.

The package constructs, entirely in exact arithmetic over Q(z12):

* the theta-even weight-two algebras of sqrt(2)-scaled root lattices,
  their distinguished Virasoro vectors and coset highest-weight sums;
* the node commutant algebras of the affine E6 diagram and their
  doubled-E8 counterparts, as explicit structure-constant algebras
  checked entry-for-entry against the reference tables;
* Miyamoto involutions (tau and sigma type) with automorphism checks,
  pairwise-order scans and exact group closures;
* the unitary minimal-model fusion calculus and parity-extension module
  census;
* the ternary-code lattice chain: tetracode, length-12 Golay code, the
  glued E8, the rank-24 A2-block lattice, its rootless index-3 kernel and
  the Leech lattice, with certified short-vector enumeration and isometry
  tests.

The command-line entry point griess-forge runs every identity as a named
verification suite and writes exact JSON reports.

The package root imports no submodule: import griess_forge.<module>
for its names, as in ``from griess_forge.gluing import leech``.
"""

__version__ = "0.1.0"
