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
"""

from .exact import CycNum, zeta, sqrt3
from .lattices import (IntegralLattice, Sublattice, build_root_lattice,
                       affine_e6, node_sublattice, short_vectors,
                       isometry_test, annihilator, cosets, quotient_structure)
from .codes import TernaryCode, tetracode, tetracode_slope, golay12
from .gluing import e8_glue, niemeier_a2_12, n0_sublattice, leech
from .w2 import (W2Algebra, W2Element, conformal_vector, tilde_omega,
                 coset_sum, virasoro_check, CosetCharacter)
from .minimal import (central_charge, highest_weight, fusion, sigma_type_set,
                      w_module_classification, u3a_module_table)
from .commutants import (FDAlgebra, node_case, g2a_table, g3a_table,
                         u3a_table, u6a_table, tilde_v_pair, u3a_griess,
                         vnx_griess, nine_orbit_algebra, span_closure)
from .involutions import (ad_spectrum, tau_involution, sigma_involution,
                          is_automorphism, map_order, transposition_scan,
                          group_closure, restrict_map, W2Space)
from .su3 import su3_data, su3_identities, theta_matrix_relations
from .appendix import e8_perp_e8_triple, leech_embedding_check

__version__ = "0.1.0"
