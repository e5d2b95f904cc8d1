"""Output checks for the benchmark workloads.

Every expected value is derived here from a formula or a property the
method must have, never read from a report's own ``expected`` field:
central charges from rank and Coxeter number, eigenvalues from the
minimal-model weight formula, and eigenspace dimensions from a rank
computed modulo a large prime.  Each checker returns (attempted, failed,
errors); an empty error list means the output is correct.
"""

import json
import operator
import os
from fractions import Fraction
from math import lcm

from spans import SUITE_NAMES

PRIME = (1 << 61) - 1

# <v, v'> of the distinguished pair at the affine E6 nodes
NODE_PAIRINGS = {"1A": Fraction(3, 7), "2A": Fraction(1, 49), "3A": Fraction(3, 196)}


# -- formulas -----------------------------------------------------------------

def coxeter_number(kind, n):
    if kind == "A":
        return n + 1
    if kind == "D":
        return 2 * n - 2
    return {6: 12, 7: 18, 8: 30}[n]


def central_charge(kind, n):
    """c = 2n / (h + 2) for the doubled root lattice of rank n."""
    return Fraction(2 * n, coxeter_number(kind, n) + 2)


def minimal_weights(p):
    """Weights of the unitary minimal model of charge 1 - 6/(p(p-1)):
    ((p r - (p-1) s)^2 - 1) / (4 p (p-1)), 1 <= r <= p-2, 1 <= s <= p-1."""
    return {Fraction((p * r - (p - 1) * s) ** 2 - 1, 4 * p * (p - 1))
            for r in range(1, p - 1) for s in range(1, p)}


# -- reports --------------------------------------------------------------------

# the norm-4 Leech count, which --skip-slow leaves out
SKIPPED = ("leech", "leech-minimal")


def _expect(errors, reports, suite, cid, value):
    computed = reports.get(suite, {}).get(cid, {}).get("computed")
    if computed != str(value):
        errors.append("%s/%s computed %r, expected %r" % (suite, cid, computed, str(value)))


def check_report_fast(outdir, exit_code):
    """`report-all --skip-slow`: every report present, every check passed
    but the skipped Leech count, and the values derived here.  Returns
    (attempted, failed, errors); each check that ran is one operation."""
    reports, errors = {}, []
    for suite in SUITE_NAMES:
        path = os.path.join(outdir, "report-%s.json" % suite)
        if not os.path.exists(path):
            errors.append("report-%s.json is missing" % suite)
            continue
        with open(path) as f:
            reports[suite] = {c["id"]: c for c in json.load(f)["checks"]}
    status = {(suite, cid): c["status"]
              for suite, rep in reports.items() for cid, c in rep.items()}
    attempted = sum(1 for s in status.values() if s != "skipped")
    failed = sum(1 for s in status.values() if s == "fail")
    for key, s in sorted(status.items()):
        if s not in ("pass", "fail") and key != SKIPPED:
            errors.append("%s/%s has status %r" % (key + (s,)))
    if status.get(SKIPPED) != "skipped":
        errors.append("%s/%s was not skipped" % SKIPPED)
    if exit_code != (1 if failed else 0):
        errors.append("exit status %r with %d failed checks" % (exit_code, failed))
    charges = [cid for cid in reports.get("charges", {}) if cid.startswith("charge-")]
    if not charges:
        errors.append("the charges report has no charge checks")
    for cid in charges:
        kind, n = cid[len("charge-")], int(cid[len("charge-") + 1:])
        _expect(errors, reports, "charges", cid,
                "%s (Virasoro)" % central_charge(kind, n))
    for node, pairing in NODE_PAIRINGS.items():
        _expect(errors, reports, "commutant-%s" % node, "vv-pairing", pairing)
    # 36 Heisenberg pairs of rank 8 and the 240 norm-4 vectors up to sign
    _expect(errors, reports, "ising", "dim", 8 * 9 // 2 + 240 // 2)
    _expect(errors, reports, "involutions-e8-orbit", "pairwise-orders", [3])
    _expect(errors, reports, "involutions-e8-orbit", "group-order-exact", 3 ** 2 * 2)
    _expect(errors, reports, "codes", "tetracode-size", 3 ** 2)
    _expect(errors, reports, "codes", "golay-size", 3 ** 6)
    return attempted, failed, errors


# -- eigenspaces ------------------------------------------------------------------

def _mod(x):
    x = Fraction(x)
    if x.denominator % PRIME == 0:
        raise ArithmeticError("denominator divisible by the check prime")
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def rank_mod_p(rows):
    """Rank of a rational matrix modulo PRIME; never more than its rank over Q."""
    rows = [[_mod(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, PRIME)
        prow = [x * inv % PRIME for x in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % PRIME for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


class IntegerMatrix:
    """D * M as integers, D clearing M's denominators and those of the
    eigenvalues to be tested, so M b = lam b is checked exactly in Z."""

    def __init__(self, mat, eigenvalues):
        entries = [Fraction(x) for row in mat for x in row] + [Fraction(x) for x in eigenvalues]
        self.scale = lcm(*(x.denominator for x in entries))
        self.rows = [[int(Fraction(x) * self.scale) for x in row] for row in mat]

    def is_eigenvector(self, vec, lam):
        den = lcm(*(Fraction(x).denominator for x in vec))
        b = [int(Fraction(x) * den) for x in vec]
        if len(b) != len(self.rows) or not any(b):
            return False
        scaled_lam = int(Fraction(lam) * self.scale)
        return all(sum(map(operator.mul, row, b)) == scaled_lam * x
                   for row, x in zip(self.rows, b))


def eigenspace_errors(label, mat, eigen, candidates):
    """Check the eigenspaces {lam: basis} of M found over the candidates.

    For each candidate: every basis vector b has M b = lam b, the basis is
    independent (rank mod p), and its size is n - rank_p(M - lam I).  As
    rank_p <= rank_Q, these three give dim ker(M - lam I) = len(basis).
    """
    n = len(mat)
    errors = []
    stray = set(eigen) - set(candidates)
    if stray:
        errors.append("%s: eigenvalues %s are not minimal-model weights"
                      % (label, sorted(map(str, stray))))
    imat = IntegerMatrix(mat, candidates)
    for lam in sorted(candidates):
        basis = eigen.get(lam, [])
        bad = sum(1 for b in basis if not imat.is_eigenvector(b, lam))
        if bad:
            errors.append("%s: %d vectors fail M b = %s b" % (label, bad, lam))
        if basis and rank_mod_p(basis) != len(basis):
            errors.append("%s: the %s-eigenvectors are dependent" % (label, lam))
        shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(mat)]
        dim = n - rank_mod_p(shifted)
        if dim != len(basis):
            errors.append("%s: eigenvalue %s has %d vectors, dimension %d"
                          % (label, lam, len(basis), dim))
    return errors


def _dimension_errors(label, eigen, n):
    total = sum(len(b) for b in eigen.values())
    return [] if total == n else [
        "%s: eigenspace dimensions sum to %d, not %d" % (label, total, n)]


def is_multiple(u, v):
    """u = c v for some c != 0."""
    k = next((i for i, x in enumerate(v) if x), None)
    if k is None or not u[k]:
        return False
    c = Fraction(u[k]) / Fraction(v[k])
    return all(Fraction(a) == c * b for a, b in zip(u, v))


def _line_errors(label, vec, target):
    """vec (None if the 2-eigenspace is not a line) must be a multiple of target."""
    if vec is None or not is_multiple(vec, target):
        return ["%s: the 2-eigenspace is not the line through the vector" % label]
    return []


def check_e8_spectra(out, ad_ehat, ehat, omega_e6):
    """The e8-spectra outputs.  ad_ehat is ad(e-hat) from the program's
    ad_matrix; ehat and omega_E6 are in the 156-dim coordinates.  Returns
    (attempted, failed, errors) with one operation per candidate weight and
    one for the commutant kernel; the program reports no failures here."""
    # e-hat has central charge 1/2 (p = 4), omega_E6 has 6/7 (p = 7)
    ising = {Fraction(2)} | minimal_weights(4)
    sigma = {Fraction(2)} | minimal_weights(7)
    label = "ad(ehat)"
    eigen = out["ehat_eigen"]
    errors = eigenspace_errors(label, ad_ehat, eigen, ising)
    errors += _dimension_errors(label, eigen, len(ehat))
    two = eigen.get(Fraction(2), [])
    errors += _line_errors(label, two[0] if len(two) == 1 else None, ehat)
    # the commutant of omega_Q is the 0-eigenspace of ad(omega_Q)
    commutant = out["commutant"]
    errors += eigenspace_errors("ad(omega_Q)", out["ad_omega_q"],
                                {Fraction(0): commutant}, [Fraction(0)])
    label = "ad(omega_E6) on the commutant"
    sectors = {lam: b for lam, b in out["sectors"].items() if b}
    errors += eigenspace_errors(label, out["ad_omega_e6"], sectors, sigma)
    errors += _dimension_errors(label, sectors, len(commutant))
    # omega_E6 lies in the commutant: map its 2-eigenvector back to 156 dims
    two = sectors.get(Fraction(2), [])
    line = None
    if len(two) == 1:
        line = [sum((c * k[t] for c, k in zip(two[0], commutant) if c), Fraction(0))
                for t in range(len(omega_e6))]
    errors += _line_errors(label, line, omega_e6)
    return len(ising) + 1 + len(sigma), 0, errors
