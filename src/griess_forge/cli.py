"""Batch verification driver.

Every reproduced identity is exposed as a named suite; reports are
written as JSON (always) and markdown (with --md).  Exit status 0 means
every executed check passed, 1 means at least one check failed, 2 means
the command line or an input file could not be parsed.
"""

import argparse
import os
import re
import sys

from . import suites
from .report import (Report, fd_to_json, fd_to_markdown, fmt, fusion_to_json,
                     fusion_to_markdown, node_diagram, scan_to_json, skipped,
                     to_json, w2_to_dict, wmodules_to_json,
                     wmodules_to_markdown)
from .suites import SUITES, run_suite


def _write(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "w") as f:
        f.write(text)


def _write_report(rep, args):
    _write(args.out, "report-%s.json" % rep.suite, rep.to_json())
    if args.md:
        _write(args.out, "report-%s.md" % rep.suite, rep.to_markdown())
    print(rep.summary())
    for c in rep.checks:
        if c.status == "fail":
            print("  FAIL %s: %s (expected %s, computed %s)"
                  % (c.id, c.description, c.expected, c.computed))
    return rep.ok()


def _parse_kv_file(path, blocks):
    """Small structured text format: 'key: value' lines, and for each key in
    blocks a 'key:' line followed by the rows of an integer matrix."""
    fields = {}
    rows = None
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" in line and not line.lstrip("-").split(":")[0].strip().isdigit():
                key, _, val = line.partition(":")
                key = key.strip().lower()
                val = val.strip()
                if (key in blocks) == bool(val):
                    raise ValueError(
                        "%r takes matrix rows on the lines below it, not a value"
                        % key if val else "%r takes a value on its line" % key)
                rows = None if val else []
                fields[key] = val or rows
            else:
                if rows is None:
                    raise ValueError("stray matrix row %r" % line)
                try:
                    rows.append([int(t) for t in line.split()])
                except ValueError:
                    raise ValueError("line %d: the %r block takes rows of "
                                     "integers, not %r" % (lineno, key, line)) from None
    for key in blocks:
        if fields.get(key) == []:
            raise ValueError("the %r block has no rows" % key)
    return fields


def _int_value(fields, key):
    """The value of a 'key: value' line, which must be an integer."""
    try:
        return int(fields[key])
    except ValueError:
        raise ValueError("%r takes an integer, not %r" % (key, fields[key])) from None


def _load_lattice(arg):
    """(lattice, known theta coefficients {norm: count}) for a name or a file.

    The coefficients are the classical ones of the named lattices: the
    n h roots of a root lattice of rank n and Coxeter number h (at norm 4
    once scaled by sqrt 2), the 72 roots of twelve A2 blocks and the
    rootless Leech lattice's 196560 minimal vectors.  Files have none, and
    are named by their name line or else their base name.
    """
    from .lattices import build_root_lattice, IntegralLattice
    from .gluing import niemeier_a2_12, leech
    named = {
        "leech": lambda: (leech().lattice, {2: 0, 4: 196560}),
        "niemeier-a2-12": lambda: (niemeier_a2_12().lattice, {2: 72}),
    }
    key = arg.lower()
    if key in named:
        return named[key]()
    if os.path.exists(arg):
        fields = _parse_kv_file(arg, {"gram"})
        gram = fields.get("gram")
        if gram is None:
            raise ValueError("lattice file needs a gram block")
        name = fields.get("name", os.path.basename(arg))
        if os.path.basename(name) != name:
            raise ValueError("lattice name %r contains a path separator" % name)
        lat = IntegralLattice(gram, name=name)
        if "rank" in fields and _int_value(fields, "rank") != lat.rank:
            raise ValueError("declared rank does not match the Gram matrix")
        return lat, {}
    m = re.fullmatch(r"(sqrt2)?([ADE])(\d+)", arg, re.IGNORECASE)
    if m is None:
        raise ValueError("unknown lattice %r: name leech, niemeier-a2-12, a "
                         "lattice file, or A/D/E<n> with an optional sqrt2 "
                         "prefix, as in A2 or sqrt2E8" % arg)
    scale = 2 if m[1] else 1
    n = int(m[3])
    lat = build_root_lattice(m[2].upper(), n, scale=scale)
    return lat, {2 * scale: n * lat.coxeter}


def _box_count(lat, norm):
    """The number of vectors of the given norm, by scanning every integer
    point of the box x_i^2 <= norm (G^-1)_ii; None above rank 4 or when
    the box holds more than 200,000 points."""
    from itertools import product
    from math import isqrt, prod
    from .intmat import int_det
    if lat.rank > 4:
        return None
    g, det = lat.gram, int_det(lat.gram)
    bounds = []
    for i in range(lat.rank):
        # (G^-1)_ii is the i-th diagonal cofactor over det G
        minor = [[x for j, x in enumerate(row) if j != i]
                 for k, row in enumerate(g) if k != i]
        bounds.append(isqrt(max(0, norm * int_det(minor) // det)))
    if prod(2 * b + 1 for b in bounds) > 200_000:
        return None
    return sum(1 for x in product(*(range(-b, b + 1) for b in bounds))
               if lat.norm(x) == norm)


def _load_code(path):
    from .codes import TernaryCode
    fields = _parse_kv_file(path, {"generators"})
    if "length" not in fields or "generators" not in fields:
        raise ValueError("code file needs a length line and a generators block")
    code = TernaryCode(_int_value(fields, "length"), fields["generators"])
    if code.dimension() == 0:
        raise ValueError("the code has no nonzero word, so it has no minimum weight")
    return code


def cmd_lattice(args):
    from .intmat import int_det
    from .lattices import lll_reduce, short_vectors
    from .linalg import det
    try:
        if args.short_vectors < 0:
            raise ValueError("--short-vectors needs a norm >= 0, not %d"
                             % args.short_vectors)
        lat, theta = _load_lattice(args.which)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    rep = Report("lattice-%s" % (lat.name or args.which))
    rep.add("rank", "rank", "input", lat.rank, lat.rank)
    rep.add("det", "determinant", "integer Hermite form against elimination "
            "over Q", int_det(lat.gram), det(lat.gram))
    reduced = lll_reduce(lat.gram)[0]
    rep.add("even", "even lattice", "Gram parity against the parity of the "
            "LLL-reduced Gram", fmt(lat.is_even()),
            fmt(all(row[i] % 2 == 0 for i, row in enumerate(reduced))))
    norm = args.short_vectors
    if norm:
        cid, desc = "short-%d" % norm, "vectors of norm %d" % norm
        n = len(short_vectors(lat, norm))
        if norm in theta:
            rep.add(cid, desc, "exact enumeration against the theta series",
                    theta[norm], n)
        elif (box := _box_count(lat, norm)) is not None:
            rep.add(cid, desc, "exact enumeration against a box search", box, n)
        else:
            rep.checks.append(skipped(
                cid, desc, "exact enumeration, unchecked: no known theta "
                "coefficient, and a box search needs rank at most 4 and a "
                "small box", fmt(n)))
    return 0 if _write_report(rep, args) else 1


def cmd_fusion(args):
    from .minimal import fusion, central_charge, highest_weight
    a, b = (args.r1, args.s1), (args.r2, args.s2)
    try:
        c = central_charge(args.m)
        result, swapped = fusion(args.m, a, b), fusion(args.m, b, a)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    def terms(res):
        out = []
        for (r, s), k in sorted(res.items()):
            label = "L(%s, %s)" % (fmt(c), fmt(highest_weight(args.m, r, s)))
            out.append(label if k == 1 else "%d %s" % (k, label))
        return " + ".join(out)

    print(terms(result))
    rep = Report("fusion")
    rep.add("fusion", "fusion of (%d,%d) and (%d,%d) at m = %d"
            % (args.r1, args.s1, args.r2, args.s2, args.m),
            "double-sum rule against the fusion with the factors swapped",
            terms(swapped), terms(result))
    return 0 if _write_report(rep, args) else 1


def cmd_code(args):
    try:
        code = _load_code(args.file)
    except (OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    rep = Report("code")
    rep.add("size", "word count", "3^dimension", 3 ** code.dimension(),
            len(code))
    rep.add("min-weight", "minimum weight", "least nonzero degree of the "
            "weight enumerator", min(d for d in code.weight_enumerator() if d),
            code.minimum_weight())
    # a word orthogonal to every generator is orthogonal to every word
    orthogonal = all(sum(x * y for x, y in zip(w, g)) % 3 == 0
                     for w in code.words() for g in code.generators)
    rep.add("self-dual", "self-duality", "dimension length/2 and every word "
            "orthogonal to every generator, against the word count and the "
            "generator pairs", fmt(2 * code.dimension() == code.length and orthogonal),
            fmt(code.is_self_dual()))
    return 0 if _write_report(rep, args) else 1


def _suite_cmd(names, export=None):
    """A command that runs the suites names(args), writes their reports and
    then calls export(args), when given, for the command's other files."""
    def run(args):
        ok = True
        for name in names(args):
            ok = _write_report(run_suite(name, args.skip_slow), args) and ok
        if export:
            export(args)
        return 0 if ok else 1
    return run


def _export_tables(args):
    if args.export_tables:
        from .commutants import node_case, tilde_v_pair
        case, node = node_case(args.node), args.node
        v, vp = tilde_v_pair(case)
        pair = {"v": w2_to_dict(case.alg, v)}
        if vp.is_theta_even():
            pair["v_twist"] = w2_to_dict(case.alg, vp)
        _write(args.out, "algebra-%s.json" % node, fd_to_json(case.fd))
        _write(args.out, "algebra-%s.md" % node, fd_to_markdown(case.fd))
        _write(args.out, "elements-%s.json" % node, to_json(pair))


def _export_scan(args):
    if args.node == "e8-orbit":
        _fd12, _dim, orders, violations, _maps = suites.nine_orbit_scan()
        _write(args.out, "scan-e8-orbit.json", scan_to_json(orders, violations))


def _export_minimal(args):
    if args.export_tables:
        from .minimal import (all_labels, fusion, highest_weight,
                              w_module_classification)
        for m in (3, 4):
            hw = {a: highest_weight(m, *a) for a in all_labels(m)}
            table = {(a, b): fusion(m, a, b) for a in hw for b in hw}
            modules = sum(w_module_classification(m), [])
            _write(args.out, "fusion-m%d.md" % m, fusion_to_markdown(table, hw))
            _write(args.out, "fusion-m%d.json" % m, fusion_to_json(table))
            _write(args.out, "wmodules-m%d.json" % m, wmodules_to_json(modules))
            _write(args.out, "wmodules-m%d.md" % m, wmodules_to_markdown(modules))


def cmd_diagram(args):
    from .commutants import node_case, tilde_v_pair
    nodes = {1: "1A", 2: "2A", 3: "3A"}
    pairings, products, marks = {}, {}, {}
    for mark, node in nodes.items():
        case = node_case(node)
        pairings[mark] = fmt(case.alg.form(*tilde_v_pair(case)))
        _rho, product_order, rho_order = suites.rho_orders(node)
        products[mark], marks[mark] = fmt(product_order), fmt(rho_order)
    print("pairings of the distinguished vector with its character twist:")
    print(node_diagram(pairings))
    print()
    print("involution-product orders, sigma_v sigma_v' = rho^-2 on the node "
          "Griess algebra:")
    print(node_diagram(products))
    print()
    print("node coset-character orders (the diagram marks):")
    print(node_diagram(marks))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="griess-forge",
        description="exact verification suites for the node commutant algebras")
    parser.add_argument("--out", default="reports", help="report directory")
    parser.add_argument("--md", action="store_true",
                        help="also write markdown tables")
    parser.set_defaults(skip_slow=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report-all", help="run every suite")
    p.add_argument("--skip-slow", action="store_true",
                   help="skip the large enumeration")
    p.set_defaults(func=_suite_cmd(lambda a: SUITES))

    p = sub.add_parser("lattice", help="inspect a lattice by name or file")
    p.add_argument("which")
    p.add_argument("--short-vectors", type=int, default=0, metavar="N")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("code", help="inspect a ternary code file")
    p.add_argument("file")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("fusion", help="fuse two irreducibles")
    for name in ("m", "r1", "s1", "r2", "s2"):
        p.add_argument(name, type=int)
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("commutant", help="node commutant suite")
    p.add_argument("node", choices=["1A", "2A", "3A"])
    p.add_argument("--export-tables", action="store_true")
    p.set_defaults(func=_suite_cmd(lambda a: ["commutant-%s" % a.node],
                                   _export_tables))

    p = sub.add_parser("involutions", help="involution suite")
    p.add_argument("node", choices=["1A", "2A", "3A", "e8-orbit"])
    p.set_defaults(func=_suite_cmd(lambda a: ["involutions-%s" % a.node],
                                   _export_scan))

    p = sub.add_parser("u3a", help="the four-dimensional dihedral algebra")
    p.add_argument("--from-orbit", action="store_true")
    p.set_defaults(func=_suite_cmd(
        lambda a: ["u3a-orbit" if a.from_orbit else "u3a"]))

    p = sub.add_parser("leech", help="the lattice chain suite")
    p.add_argument("--skip-slow", action="store_true")
    p.set_defaults(func=_suite_cmd(lambda a: ["leech"]))

    p = sub.add_parser("minimal", help="fusion and module census suite")
    p.add_argument("--export-tables", action="store_true",
                   help="write fusion and module-census tables for m = 3, 4")
    p.set_defaults(func=_suite_cmd(lambda a: ["minimal"], _export_minimal))

    for name, about in (("appendix", "matrix identity suite"),
                        ("codes", "ternary code suite"),
                        ("charges", "central charge table suite"),
                        ("properties", "algebra axiom property suite")):
        sub.add_parser(name, help=about).set_defaults(
            func=_suite_cmd(lambda a, name=name: [name]))

    p = sub.add_parser("diagram", help="print the labeled node diagrams")
    p.set_defaults(func=cmd_diagram)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except OSError as exc:
        print("error: cannot write %s: %s" % (exc.filename, exc.strerror),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
