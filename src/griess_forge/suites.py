"""Named verification suites: every reproduced identity as a checklist.

Each suite returns a Report whose checks compare exact serialized values;
the CLI renders them and the acceptance tests assert them.  The expected
values are the reference-table constants and the independently derived
counts; nothing here is computed twice through the same code path.
"""

import random
import time
import traceback
from fractions import Fraction
from functools import cache

from .exact import zeta
from .report import Report, fmt, skipped

F = Fraction

__all__ = ["SUITES", "run_suite", "nine_orbit_scan"]


def suite_charges():
    from .w2 import root_algebra, tilde_omega, virasoro_check
    rep = Report("charges")
    cases = [("A", 1, F(1, 2)), ("A", 2, F(4, 5)), ("A", 5, F(5, 4)),
             ("D", 4, F(1)), ("E", 6, F(6, 7)), ("E", 7, F(7, 10)),
             ("E", 8, F(1, 2))]
    for kind, n, want in cases:
        alg = root_algebra(kind, n)
        w = tilde_omega(alg.vectors4, alg.lattice.coxeter)
        rep.add("charge-%s%d" % (kind, n),
                "central charge of the distinguished Virasoro vector of %s%d"
                % (kind, n),
                "tilde-omega central charge table", _charge(True, want),
                _charge(*virasoro_check(alg, w)))
    return rep


def _charge(ok, c):
    """"c (Virasoro)" or "c (not Virasoro)", from virasoro_check's answer."""
    return fmt(c) + (" (Virasoro)" if ok else " (not Virasoro)")


def suite_ising():
    from .w2 import root_algebra, tilde_omega, conformal_vector, virasoro_check
    rep = Report("ising")
    alg = root_algebra("E", 8)
    rep.add("dim", "dimension of the doubled-E8 even weight-two space",
            "36 Heisenberg pairs + 120 exponential classes", 156, alg.dim)
    e = tilde_omega(alg.vectors4, 30)
    ok, c = virasoro_check(alg, e)
    rep.add("ising-idempotent", "e . e = 2 e for the special Ising vector",
            "Virasoro axiom", "true", ok)
    rep.add("ising-norm", "<e, e> for the special Ising vector",
            "central charge 1/2", F(1, 4), c / 2)
    w = conformal_vector(alg)
    rep.add("conformal-action", "the conformal vector acts as 2 on e",
            "weight-two grading", "true", alg.product(w, e) == e.scale(F(2)))
    return rep


def _table_checks(rep, fd, ref, label):
    same_names = fd.names == ref.names
    rep.add("%s-basis" % label, "basis labels", "reference basis",
            ",".join(ref.names), ",".join(fd.names))
    for i in range(ref.dim):
        for j in range(i, ref.dim):
            rep.add("%s-prod-%s.%s" % (label, ref.names[i], ref.names[j]),
                    "product %s . %s" % (ref.names[i], ref.names[j]),
                    "structure-constant table",
                    fmt([fmt(c) for c in ref.mult[i][j]]),
                    fmt([fmt(c) for c in fd.mult[i][j]]) if same_names else "basis mismatch")
            rep.add("%s-form-%s.%s" % (label, ref.names[i], ref.names[j]),
                    "form <%s, %s>" % (ref.names[i], ref.names[j]),
                    "invariant form table",
                    fmt(ref.gram[i][j]),
                    fmt(fd.gram[i][j]) if same_names else "basis mismatch")


def suite_commutant(node):
    from .commutants import (node_case, g2a_table, g3a_table, tilde_v_pair,
                             orthogonal_complement_virasoro,
                             weight2_dimension_census, _closed_form_v)
    from .w2 import virasoro_check
    rep = Report("commutant-%s" % node)
    case = node_case(node)
    fd = case.fd
    expected, computed = weight2_dimension_census(case)
    rep.add("census", "weight-two commutant dimension", "module decomposition",
            expected, computed)
    if node == "2A":
        _table_checks(rep, fd, g2a_table(), "g2a")
    elif node == "3A":
        _table_checks(rep, fd, g3a_table(), "g3a")
    else:
        rep.add("1a-charge", "the one-dimensional commutant is Virasoro of charge 6/7",
                "distinguished vector", "6/7 (Virasoro)",
                _charge(*virasoro_check(fd, fd.element("w1"))))
    v, vp = tilde_v_pair(case)
    want = {"1A": F(3, 7), "2A": F(1, 49), "3A": F(3, 196)}[node]
    rep.add("vv-pairing", "<v, v'> for the distinguished pair",
            "node pairing diagram", want, case.alg.form(v, vp))
    rep.add("v-two-ways", "closed-form v equals the lattice construction",
            "coefficient identities", "true", _closed_form_v(case) == v)
    if node == "2A":
        u = orthogonal_complement_virasoro(case)
        ok, c = virasoro_check(fd, u)
        rep.add("complement-charge", "complement Virasoro vector charge",
                "orthogonal frame pair", F(25, 28), c if ok else _charge(ok, c))
        vc, = fd.coordinates([v])
        rep.add("complement-orthogonal", "<v, u> = 0", "orthogonal frame pair",
                0, fd.form_vec(vc, u))
    return rep


def suite_u3a(from_orbit=False):
    from .commutants import u3a_griess, u3a_table
    from .involutions import ad_spectrum
    from .w2 import virasoro_check
    rep = Report("u3a" + ("-orbit" if from_orbit else ""))
    fd = u3a_table()
    rep.add("table-xpxm", "X+ . X- in the table algebra", "four-dim table",
            fmt([fmt(c) for c in fd.combo(w1=135, w2=252)]),
            fmt([fmt(c) for c in fd.mult[fd.index("Xp")][fd.index("Xm")]]))
    rep.add("table-gram", "<X+, X->", "four-dim table", 81,
            fd.gram[fd.index("Xp")][fd.index("Xm")])
    if from_orbit:
        orb, dim = u3a_griess()
        rep.add("orbit-dim", "orbit closure dimension", "span closure", 4, dim)
        rep.add("orbit-match", "orbit algebra matches the table",
                "structure-constant comparison", "true",
                orb.mult == fd.mult and orb.gram == fd.gram)
    # the checks below read only mult and gram, which orbit-match compares,
    # so they run on the table and a mismatched orbit cannot derail them
    z = zeta(3)
    e_vecs = []
    for i in range(3):
        zi = z ** i
        e_vecs.append([F(5, 32), F(7, 16), zi * F(1, 32),
                       zi.conjugate() * F(1, 32)])
    for i, ev in enumerate(e_vecs):
        rep.add("e%d-ising" % i, "e%d is an Ising vector" % i,
                "three Ising vectors", "1/2 (Virasoro)",
                _charge(*virasoro_check(fd, ev)))
    rep.add("e0-e1-pairing", "<e0, e1>", "Ising pair inner product",
            F(13, 1024), fd.form_vec(e_vecs[0], e_vecs[1]))
    x0 = [F(1, 16), F(7, 8), -F(1, 48), -F(1, 48)]
    rep.add("x0-charge", "x0 is a c = 4/5 Virasoro vector",
            "non-extendable charge-4/5 vectors", "4/5 (Virasoro)",
            _charge(*virasoro_check(fd, x0)))
    eig = ad_spectrum(fd, x0)
    rep.add("x0-thirteen-eighths", "13/8 is an adjoint eigenvalue of x0",
            "adjoint spectrum", "true", F(13, 8) in eig)
    return rep


def rho_orders(node):
    """(rho, order of rho^-2, order of rho) for the node coset character rho
    as a map of the node Griess algebra."""
    from .commutants import node_case
    from .involutions import map_order
    from .linalg import inverse, mat_mul, transpose
    case = node_case(node)
    fd = case.fd
    rho_mat = transpose(fd.coordinates([case.rho.apply(e) for e in fd.embedding]))
    rho_inv = inverse(rho_mat)
    return rho_mat, map_order(mat_mul(rho_inv, rho_inv)), map_order(rho_mat)


def suite_involutions(node):
    from .commutants import node_case, tilde_v_pair
    from .involutions import sigma_involution, map_order, is_automorphism
    from .linalg import mat_mul
    rep = Report("involutions-%s" % node)
    case = node_case(node)
    fd = case.fd
    v, vp = tilde_v_pair(case)
    vc, vpc = fd.coordinates([v, vp])
    s1 = sigma_involution(fd, vc)
    s2 = sigma_involution(fd, vpc)
    rep.add("sigma-automorphism", "both sigma maps pass the automorphism check",
            "parity involution", "true",
            _all_hold({"sigma_v": is_automorphism(fd, s1),
                       "sigma_v'": is_automorphism(fd, s2)}))
    # v' = rho(v) and sigma_v acts as theta, so sigma_v sigma_v' is
    # theta rho theta rho^-1 = rho^-2; its order is the expected value
    rho_mat, want, rho_order = rho_orders(node)
    order = map_order(mat_mul(s1, s2))
    rep.add("sigma-product-order",
            "order of sigma_v sigma_v' on the node Griess algebra, "
            "against the order of rho^-2 there",
            "sigma_v sigma_v' = theta rho theta rho^-1 = rho^-2", want, order)
    # the node coset character restricted to the algebra realizes the mark
    rep.add("character-order",
            "order of the node coset character on the Griess algebra",
            "node mark", case.mark, rho_order)
    rep.add("character-automorphism", "the coset character is an automorphism",
            "lattice symmetry", "true", is_automorphism(fd, rho_mat))
    return rep


@cache
def nine_orbit_scan():
    """The closure algebra of the nine twisted Ising vectors and the tau
    scan over them, (algebra, closure dimension, orders, violations, maps);
    computed once per process and shared read-only."""
    from .commutants import nine_orbit_algebra
    from .involutions import transposition_scan
    fd12, dim, _chars, orbit = nine_orbit_algebra()
    return (fd12, dim) + tuple(transposition_scan(fd12, orbit, "tau_ising"))


def suite_e8_orbit():
    from .involutions import group_closure
    rep = Report("involutions-e8-orbit")
    _fd12, dim, orders, violations, maps = nine_orbit_scan()
    rep.add("orbit-dim", "closure dimension of the nine twisted Ising vectors",
            "span closure in the 3A commutant", 12, dim)
    off = sorted({orders[i][j] for i in range(9) for j in range(9) if i != j})
    rep.add("pairwise-orders", "off-diagonal tau pair orders",
            "pairwise scan", [3], off)
    rep.add("sakuma-bound", "no pair order exceeds 6", "six-transposition bound",
            "true", _first_witness(violations))
    n, _ = group_closure([maps[0], maps[1], maps[3]])
    rep.add("group-order-exact", "the computed group order", "closure size",
            18, n)
    return rep


def suite_minimal():
    from .minimal import (sigma_type_set, fusion, highest_weight,
                          w_module_classification, u3a_module_table)
    rep = Report("minimal")
    b4 = sigma_type_set(4)
    rep.add("b4", "the sigma-type weight set at m = 4", "parity sector list",
            fmt(sorted([F(0), F(1, 7), F(5, 7), F(12, 7), F(22, 7), F(5)])),
            fmt(sorted(b4)))
    labels = [(1, 1), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5)]
    closed = all(highest_weight(4, *lab) in b4
                 for a in labels for b in labels for lab in fusion(4, a, b))
    rep.add("b4-closed", "the sigma-type sectors close under fusion",
            "fusion closure", "true", closed)
    u4, _t4 = w_module_classification(4)
    rep.add("census-67", "irreducible module count of the charge-6/7 extension",
            "module census", 9, len(u4))
    u3, _t3 = w_module_classification(3)
    rep.add("census-45", "irreducible module count of the charge-4/5 extension",
            "module census", 6, len(u3))
    table = u3a_module_table()
    rep.add("u3a-modules", "six irreducible module types with consistent "
            "minimal weights", "component table", 6, len(table))
    rep.add("u3a-weight-sum", "2/5 + 1/7 = 19/35 appears as a top weight",
            "component arithmetic", "true",
            (F(2, 5), F(1, 7)) in u3a_module_table()[F(19, 35)][0])
    f = fusion(4, (5, 1), (5, 1))
    rep.add("fusion-simple-current", "the parity module squares to the vacuum",
            "fusion rule", fmt([[[1, 1], 1]]), fmt(sorted(f.items())))
    return rep


def suite_codes():
    from .codes import tetracode, tetracode_slope, golay12
    rep = Report("codes")
    t = tetracode()
    rep.add("tetracode-size", "tetracode word count", "code enumeration", 9, len(t))
    rep.add("tetracode-weight", "tetracode minimum weight", "weight enumerator",
            3, t.minimum_weight())
    g = golay12()
    rep.add("golay-size", "length-12 code word count", "code enumeration",
            729, len(g))
    rep.add("golay-weight", "length-12 code minimum weight", "weight enumerator",
            6, g.minimum_weight())
    rep.add("golay-self-dual", "the code is self-dual", "dual check", "true",
            g.is_self_dual())
    from .appendix import D1, D2
    rep.add("glue-word-1", "first glue word is a codeword", "membership",
            "true", tuple(x % 3 for x in D1) in g)
    rep.add("glue-word-2", "second glue word is a codeword", "membership",
            "true", tuple(x % 3 for x in D2) in g)
    rep.add("repetition-block", "(0^4, c, c) lies in the code for tetracode c",
            "block inclusion", "true",
            all((0, 0, 0, 0) + c + c in g for c in tetracode_slope().words()))
    return rep


def _first_witness(witnesses):
    """"true" without a failure witness, else "false: " and the first."""
    for w in witnesses:
        return "false: %s" % (w,)
    return "true"


def _all_hold(record):
    """"true" when every entry of a {name: bool} record holds, else
    "false: " and the names of the failing entries."""
    bad = [name for name, ok in record.items() if not ok]
    return "false: " + ", ".join(bad) if bad else "true"


def suite_leech(skip_slow=False):
    from .gluing import niemeier_a2_12, n0_sublattice, leech
    from .lattices import short_vectors
    from .appendix import leech_embedding_check
    rep = Report("leech")
    niem = niemeier_a2_12()
    rep.add("niemeier-even", "the glued rank-24 lattice is even", "Gram parity",
            "true", niem.lattice.is_even())
    rep.add("niemeier-det", "determinant 1", "glue index 3^6 against 3^12",
            1, niem.lattice.det())
    rep.add("niemeier-roots", "root count 72 (twelve A2 blocks)",
            "norm-2 enumeration", 72, len(short_vectors(niem.lattice, 2)))
    n0 = n0_sublattice()
    rep.add("n0-index", "index of the rootless kernel", "quotient order", 3,
            niem.sublattice_in_basis(n0.basis).index())
    rep.add("n0-rootless", "the kernel has no roots", "norm-2 enumeration",
            0, len(short_vectors(n0.lattice, 2)))
    lam = leech()
    rep.add("leech-even", "the extension is even", "Gram parity", "true",
            lam.lattice.is_even())
    rep.add("leech-det", "determinant 1", "unimodularity", 1, lam.lattice.det())
    rep.add("leech-rootless", "no norm-2 vectors", "norm-2 enumeration", 0,
            len(short_vectors(lam.lattice, 2)))
    emb = leech_embedding_check()
    rep.add("embedding-record", "all embedding checks hold",
            "doubled-E8 triple embedding", "true", _all_hold(emb))
    if skip_slow:
        rep.checks.append(skipped("leech-minimal",
                                  "minimal vector count (skipped)",
                                  "norm-4 enumeration"))
    else:
        rep.add("leech-minimal", "number of norm-4 vectors",
                "exact enumeration", 196560, len(short_vectors(lam.lattice, 4)))
    return rep


def suite_appendix():
    from .su3 import su3_identities, theta_matrix_relations
    from .appendix import e8_perp_e8_triple
    rep = Report("appendix")
    rep.add("su3-identities", "conjugation, symmetry and order identities",
            "matrix identity record", "true", _all_hold(su3_identities()))
    rel = theta_matrix_relations()
    for name, ok in sorted(rel.items()):
        rep.add("theta-%s" % name.replace(" ", "-"), name,
                "transpose-inverse action", "true", ok)
    _r, _r1, _r2, _l, record = e8_perp_e8_triple()
    for name, ok in sorted(record.items()):
        rep.add("triple-%s" % name.replace(" ", "-"), name,
                "doubled-E8 triple", "true", ok)
    return rep


def suite_properties():
    from .w2 import root_algebra, conformal_vector
    from .commutants import (node_case, u3a_table, u6a_table, g2a_table,
                             g3a_table)
    from .linalg import is_positive_definite
    rep = Report("properties")
    alg = root_algebra("A", 2)
    n = alg.dim
    basis = [alg.basis_element(i) for i in range(n)]
    # the ordered basis products, each taken once and converted once for
    # the forms below
    table = [[alg.product(a, b) for b in basis] for a in basis]
    rep.add("commutative", "basis products commute (doubled A2 space)",
            "theta-even product", "true",
            _first_witness((i, j) for i in range(n) for j in range(n)
                           if table[i][j] != table[j][i]))
    rep.add("invariant", "form invariance on basis triples (doubled A2 space)",
            "associativity of the form", "true",
            _first_witness((i, j, k) for i in range(n) for j in range(n)
                           for k in range(n) if alg.form(table[i][j], basis[k])
                           != alg.form(basis[j], table[i][k])))
    w = conformal_vector(alg)
    rep.add("conformal", "conformal vector acts as 2 on every basis element",
            "grading axiom", "true",
            _first_witness(k for k, b in enumerate(basis)
                           if alg.product(w, b) != b.scale(F(2))))
    gram = [[alg.form(a, b) for b in basis] for a in basis]
    rep.add("positive-definite", "the form Gram matrix is positive definite",
            "exact pivot test", "true", is_positive_definite(gram))
    # complex-conjugation swaps the coset-sum pairs; positivity is the
    # statement that the Hermitian pairing <a, conj(b)> is positive definite
    tables = (("g2a", g2a_table(), {}),
              ("g3a", g3a_table(), {"X1": "X2"}),
              ("u3a", u3a_table(), {"Xp": "Xm"}),
              ("u6a", u6a_table(), {"X1": "X5", "X2": "X4"}))
    for label, fd, swaps in tables:
        bad = fd.check_invariance()
        rep.add("invariant-%s" % label,
                "form invariance of the %s table algebra" % label, "tensor identity",
                "true", "false: (%s, %s, %s)" % bad[0] if bad else "true")
        sigma = list(range(fd.dim))
        for a, b in swaps.items():
            sigma[fd.index(a)] = fd.index(b)
            sigma[fd.index(b)] = fd.index(a)
        herm = [[fd.gram[i][sigma[j]] for j in range(fd.dim)]
                for i in range(fd.dim)]
        rep.add("positive-%s" % label,
                "positive definiteness of the %s Hermitian form" % label,
                "exact pivot test", "true", is_positive_definite(herm))
    rng = random.Random(11)
    rep.add("norton", "product-form inequality on 120 random rational pairs",
            "positivity sampling", "true",
            _first_witness(k for k in range(120) if not _norton(
                alg, _random_even(alg, rng), _random_even(alg, rng))))
    # eigenspace completeness for the analyzed vector: the dimensions of
    # the eigenspaces of ad(v) over the candidate weights of its unitary
    # series, which eigenspaces returns without asking that they fill the
    # algebra, so a shortfall is a count, not a raise
    from .commutants import tilde_v_pair
    from .involutions import ad_matrix, eigenspaces, series_weights
    case = node_case("3A")
    fd = case.fd
    v, _vp = tilde_v_pair(case)
    vc, = fd.coordinates([v])
    weights = {F(2)} | series_weights(2 * fd.form_vec(vc, vc))
    filled = sum(map(len, eigenspaces(ad_matrix(fd, vc), sorted(weights)).values()))
    rep.add("eigen-complete", "adjoint eigenspaces fill the 3A node algebra",
            "semisimplicity", fd.dim, filled)
    return rep


def _norton(alg, a, b):
    """Norton's inequality <a.a, b.b> >= <a.b, a.b> >= 0."""
    ab = alg.product(a, b)
    return alg.form(alg.product(a, a), alg.product(b, b)) >= alg.form(ab, ab) >= 0


def _random_even(alg, rng):
    coords = [F(0)] * alg.dim
    for _ in range(4):
        coords[rng.randrange(alg.dim)] += F(rng.randint(-3, 3), rng.randint(1, 4))
    return alg.from_class_coords(coords)


SUITES = {
    "charges": suite_charges,
    "ising": suite_ising,
    "commutant-1A": lambda: suite_commutant("1A"),
    "commutant-2A": lambda: suite_commutant("2A"),
    "commutant-3A": lambda: suite_commutant("3A"),
    "u3a": suite_u3a,
    "u3a-orbit": lambda: suite_u3a(from_orbit=True),
    "involutions-1A": lambda: suite_involutions("1A"),
    "involutions-2A": lambda: suite_involutions("2A"),
    "involutions-3A": lambda: suite_involutions("3A"),
    "involutions-e8-orbit": suite_e8_orbit,
    "minimal": suite_minimal,
    "codes": suite_codes,
    "appendix": suite_appendix,
    "properties": suite_properties,
    "leech": suite_leech,
}


def run_suite(name, skip_slow=False):
    """The suite's report, timed; skip_slow skips the leech suite's large
    enumeration.  An exception raised inside the suite becomes one failed
    check, id "error", carrying its type and message; its traceback goes
    to standard error."""
    if name not in SUITES:
        raise KeyError("unknown suite %r" % name)
    fn = SUITES[name]
    t0 = time.perf_counter()
    try:
        rep = fn(skip_slow=skip_slow) if name == "leech" else fn()
    except Exception as exc:
        traceback.print_exc()
        rep = Report(name)
        rep.add("error", "the suite runs to its end", "suite completion",
                "no exception", "%s: %s" % (type(exc).__name__, exc))
    rep.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return rep
