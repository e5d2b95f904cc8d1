"""The order-3 permutation, its diagonalizer, and their transpose relations.

All entries live in Q(z) (z a primitive 12th root of unity): the cube
roots of unity are z^4-powers and 1/sqrt(3) = (2z - z^3)/3.  The checks
are exact matrix identities: the conjugation tau = s r s^{-1} with r the
diagonal of cube roots, unitarity and symmetry of s, s^4 = 1, and the
transpose-inverse relations that drive the order-8 dihedral interplay
with the lattice involution X -> (X^T)^{-1}.
"""

from fractions import Fraction

from .exact import CycNum, cyc, zeta, sqrt3
from .linalg import mat_mul, identity, inverse, det, transpose

__all__ = ["su3_data", "su3_identities", "theta_matrix_relations",
           "conj_transpose", "is_unitary"]

F = Fraction


def su3_data():
    """(tau, s, r): the 3-cycle, the unitary symmetric diagonalizer, and
    the diagonal of cube roots; su3_identities checks that s^{-1} tau s = r."""
    z = zeta(3)
    z2 = zeta(3, 2)
    one = CycNum(1)
    zero = CycNum(0)
    tau = [[zero, one, zero], [zero, zero, one], [one, zero, zero]]
    inv_sqrt3 = sqrt3() * F(1, 3)
    s = [[z * inv_sqrt3, z2 * inv_sqrt3, inv_sqrt3],
         [z2 * inv_sqrt3, z * inv_sqrt3, inv_sqrt3],
         [inv_sqrt3, inv_sqrt3, inv_sqrt3]]
    r = [[z, zero, zero], [zero, z2, zero], [zero, zero, one]]
    return tau, s, r


def su3_identities():
    """Verification record for the matrices of su3_data.

    Returns {name: bool}; everything must hold exactly.
    """
    tau, s, r = su3_data()
    s2 = mat_mul(s, s)
    # the displayed normalization of s is unitary with det(s) = -i (a
    # primitive fourth root, consistent with s^4 = 1); rescaling it into
    # the special unitary group would destroy s = s^T and s^4 = 1, so the
    # determinant is recorded rather than forced to 1
    return {
        "det(tau) = 1": det(tau) == 1,
        "det(r) = 1": det(r) == 1,
        "det(s) = -i": det(s) == zeta(4, 3),
        "det(s)^4 = 1": det(s) ** 4 == 1,
        "s unitary": is_unitary(s),
        "tau unitary": is_unitary(tau),
        "s^{-1} tau s = r": mat_mul(inverse(s), mat_mul(tau, s)) == r,
        "tau^3 = 1": mat_mul(tau, mat_mul(tau, tau)) == identity(3),
        "s symmetric": transpose(s) == s,
        "s^4 = 1": mat_mul(s2, s2) == identity(3),
    }


def conj_transpose(a):
    return [[cyc(x).conjugate() for x in row] for row in zip(*a)]


def is_unitary(a):
    return mat_mul(a, conj_transpose(a)) == identity(len(a))


def theta_matrix_relations():
    """Verification record for the transpose-inverse action theta(X) = (X^T)^{-1}.

    Returns {name: bool}; everything must hold exactly.
    """
    tau, s, r = su3_data()

    def theta(x):
        return transpose(inverse(x))

    record = {
        "theta is an involution on s": theta(theta(s)) == s,
        "theta is an involution on tau": theta(theta(tau)) == tau,
        "theta(s) = s^3": theta(s) == mat_mul(s, mat_mul(s, s)),
        "theta(tau) = tau": theta(tau) == tau,
        "theta(r) = conj(r)": theta(r) == [[cyc(x).conjugate() for x in row]
                                           for row in r],
        # in the group generated by s and theta one has theta s theta = theta(s),
        # so theta s theta s^{-1} = s^2 reduces to theta(s) s^{-1} = s^2
        "theta(s) s^{-1} = s^2": mat_mul(theta(s), inverse(s)) == mat_mul(s, s),
    }
    return record
