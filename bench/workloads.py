"""The benchmark workloads: set-up, the timed part, and the output check.

A workload is three functions.  ``setup(seed, workdir)`` builds the
inputs; it runs before the clock starts and its time is ``setup_s``.
``run(inputs)`` is the timed part, the wait of a user for a verified
answer.  ``check(inputs, output)`` runs after the clock stops and returns
``(attempted, failed, errors)``: operations run, operations the program
itself reported as failed, and disagreements with the benchmark's own
derivations (an empty list means correct).

report-fast runs a CLI command, which takes no input a seed could vary;
e8-spectra uses the seed to order the candidate weights of the sector
search, an order the result must not depend on.
"""

import random
from fractions import Fraction

import checks
# called through their modules, so that a traced run sees the wrapped names
from griess_forge import cli, commutants, involutions, linalg, minimal


# -- report-fast: griess-forge report-all --skip-slow ----------------------------

def setup_report_fast(seed, workdir):
    return workdir


def run_report_fast(outdir):
    return cli.main(["--out", outdir, "report-all", "--skip-slow"])


# -- e8-spectra: adjoint spectra on the 156-dim doubled-E8 space -----------------

def setup_e8(seed, workdir):
    side = commutants.e8_side()
    space = involutions.W2Space(side.alg)
    # the candidate sector weights at charge 6/7, in an order set by the seed
    weights = sorted({Fraction(2)} | {minimal.highest_weight(4, r, s)
                                       for r, s in minimal.all_labels(4)})
    random.Random(seed).shuffle(weights)
    return {
        "space": space,
        "ehat": space.element_vec(side.ehat),
        "omega_q": space.element_vec(side.omega_q),
        "omega_e6": space.element_vec(side.omega_e6),
        "weights": weights,
    }


def run_e8(inp):
    space = inp["space"]
    ehat_eigen = involutions.ad_spectrum(space, inp["ehat"])
    ad_q = involutions.ad_matrix(space, inp["omega_q"])
    commutant = linalg.kernel(ad_q)
    ad_e6 = involutions.restrict_map(
        space, involutions.ad_matrix(space, inp["omega_e6"]), commutant)
    sectors = {}
    for lam in inp["weights"]:
        sectors[lam] = linalg.kernel([[x - lam if i == j else x for j, x in enumerate(row)]
                                      for i, row in enumerate(ad_e6)])
    return {"ehat_eigen": ehat_eigen, "ad_omega_q": ad_q, "commutant": commutant,
            "ad_omega_e6": ad_e6, "sectors": sectors}


def check_e8(inp, out):
    ad_ehat = involutions.ad_matrix(inp["space"], inp["ehat"])
    return checks.check_e8_spectra(out, ad_ehat, inp["ehat"], inp["omega_e6"])


WORKLOADS = {
    "report-fast": (setup_report_fast, run_report_fast, checks.check_report_fast),
    "e8-spectra": (setup_e8, run_e8, check_e8),
}
