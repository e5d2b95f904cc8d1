"""Batch verification driver.

Every reproduced identity is exposed as a named suite; reports are
written as JSON (always) and markdown (with --md).  Exit status 0 means
every executed check passed, 1 means at least one check failed, 2 means
the command line or an input file could not be parsed.
"""

import argparse
import json
import os
import sys

from .report import Report, fmt, skipped
from .suites import SUITES, run_suite


def _write_report(rep, outdir, md=False):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "report-%s.json" % rep.suite)
    with open(path, "w") as f:
        f.write(rep.to_json())
    if md:
        with open(os.path.join(outdir, "report-%s.md" % rep.suite), "w") as f:
            f.write(rep.to_markdown())
    print(rep.summary())
    for c in rep.checks:
        if c.status == "fail":
            print("  FAIL %s: %s (expected %s, computed %s)"
                  % (c.id, c.description, c.expected, c.computed))
    return rep.ok()


def _parse_kv_file(path):
    """Small structured text format: 'key: value' lines plus matrix blocks."""
    fields = {}
    rows = []
    current = None
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" in line and not line.lstrip("-").split(":")[0].strip().isdigit():
                key, _, val = line.partition(":")
                key = key.strip().lower()
                val = val.strip()
                if val:
                    fields[key] = val
                    current = None
                else:
                    current = key
                    fields[key] = rows = []
            else:
                if current is None:
                    raise ValueError("stray matrix row %r" % line)
                rows.append([int(t) for t in line.split()])
    return fields


def _load_lattice(arg):
    """(lattice, known theta coefficients {norm: count}) for a name or a file.

    The coefficients are the classical ones of the named lattices: the
    n h roots of a root lattice of rank n and Coxeter number h (at norm 4
    once scaled by sqrt 2), the 72 roots of twelve A2 blocks and the
    rootless Leech lattice's 196560 minimal vectors.  Files have none.
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
        fields = _parse_kv_file(arg)
        gram = fields.get("gram")
        if gram is None:
            raise ValueError("lattice file needs a gram block")
        lat = IntegralLattice(gram, name=fields.get("name"))
        if int(fields.get("rank", lat.rank)) != lat.rank:
            raise ValueError("declared rank does not match the Gram matrix")
        return lat, {}
    # names like A2, D4, E8, sqrt2E8
    scale = 1
    if key.startswith("sqrt2"):
        scale = 2
        key = key[5:]
    kind = key[0].upper()
    n = int(key[1:])
    lat = build_root_lattice(kind, n, scale=scale)
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
    fields = _parse_kv_file(path)
    gens = fields.get("generators")
    if gens is None:
        raise ValueError("code file needs a generators block")
    code = TernaryCode(int(fields["length"]), gens)
    if code.dimension() == 0:
        raise ValueError("the code has no nonzero word, so it has no minimum weight")
    return code


def cmd_lattice(args):
    from .intmat import int_det
    from .lattices import lll_reduce, short_vectors
    from .linalg import det
    try:
        lat, theta = _load_lattice(args.which)
    except (ValueError, KeyError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    rep = Report("lattice-%s" % (lat.name or args.which))
    rep.add("rank", "rank", "input", lat.rank, lat.rank)
    rep.add("det", "determinant", "integer Bareiss elimination against "
            "elimination over Q", int_det(lat.gram), det(lat.gram))
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
    return 0 if _write_report(rep, args.out, args.md) else 1


def cmd_fusion(args):
    from .minimal import fusion, central_charge, highest_weight
    a, b = (args.r1, args.s1), (args.r2, args.s2)
    try:
        result, swapped = fusion(args.m, a, b), fusion(args.m, b, a)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    c = central_charge(args.m)

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
    return 0 if _write_report(rep, args.out, args.md) else 1


def cmd_code(args):
    try:
        code = _load_code(args.file)
    except (ValueError, KeyError) as exc:
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
    return 0 if _write_report(rep, args.out, args.md) else 1


def _suite_cmd(names):
    def run(args):
        ok = True
        for name in names(args) if callable(names) else names:
            kwargs = {}
            if name == "leech" and getattr(args, "skip_slow", False):
                kwargs["skip_slow"] = True
            rep = run_suite(name, **kwargs)
            if getattr(args, "export_tables", False) and name.startswith("commutant"):
                _export_tables(args.out, name)
            if name == "involutions-e8-orbit":
                _export_scan(args.out)
            ok = _write_report(rep, args.out, args.md) and ok
        return 0 if ok else 1
    return run


def _export_scan(outdir):
    from .report import scan_to_json
    from .suites import nine_orbit_scan
    _fd12, orders, violations, _maps = nine_orbit_scan()
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "scan-e8-orbit.json"), "w") as f:
        f.write(scan_to_json(orders, violations))


def cmd_minimal(args):
    if args.export_tables:
        from .minimal import (all_labels, fusion, highest_weight,
                              w_module_classification)
        from .report import fmt
        os.makedirs(args.out, exist_ok=True)
        for m in (3, 4):
            labels = all_labels(m)
            rows = []
            lines = ["| x | " + " | ".join("h=%s" % fmt(highest_weight(m, *b))
                                           for b in labels) + " |",
                     "|" + "---|" * (len(labels) + 1)]
            for a in labels:
                cells = []
                for b in labels:
                    out = fusion(m, a, b)
                    cells.append(" + ".join(
                        ("%d " % k if k > 1 else "") + fmt(highest_weight(m, *lab))
                        for lab, k in sorted(out.items())))
                    rows.append({"a": list(a), "b": list(b),
                                 "result": [[list(lab), k]
                                            for lab, k in sorted(out.items())]})
                lines.append("| h=%s | " % fmt(highest_weight(m, *a))
                             + " | ".join(cells) + " |")
            with open(os.path.join(args.out, "fusion-m%d.md" % m), "w") as f:
                f.write("\n".join(lines) + "\n")
            with open(os.path.join(args.out, "fusion-m%d.json" % m), "w") as f:
                f.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
            untwisted, twisted = w_module_classification(m)
            data = [{"label": list(w.label), "partner": list(w.partner),
                     "delta": fmt(w.delta), "kind": w.kind,
                     "weights": [fmt(x) for x in w.weights()]}
                    for w in untwisted + twisted]
            with open(os.path.join(args.out, "wmodules-m%d.json" % m), "w") as f:
                f.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
            wlines = ["| label | partner | delta | kind | weights |",
                      "|---|---|---|---|---|"]
            for w in untwisted + twisted:
                wlines.append("| %s | %s | %s | %s | %s |" % (
                    w.label, w.partner, fmt(w.delta), w.kind,
                    ", ".join(fmt(x) for x in w.weights())))
            with open(os.path.join(args.out, "wmodules-m%d.md" % m), "w") as f:
                f.write("\n".join(wlines) + "\n")
    return _suite_cmd(["minimal"])(args)


def cmd_diagram(args):
    from .commutants import node_case, tilde_v_pair
    from .report import node_diagram
    from .suites import rho_orders
    nodes = {1: "1A", 2: "2A", 3: "3A"}
    pairings, products, marks = {}, {}, {}
    for mark, node in nodes.items():
        case = node_case(node)
        pairings[mark] = fmt(case.alg.form(*tilde_v_pair(case)))
        _rho, product_order, rho_order = rho_orders(node)
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


def _export_tables(outdir, name):
    from .commutants import node_case, tilde_v_pair
    from .report import fd_to_json, fd_to_markdown, w2_to_json
    node = name.split("-")[1]
    case = node_case(node)
    fd = case.fd
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "algebra-%s.json" % node), "w") as f:
        f.write(fd_to_json(fd))
    with open(os.path.join(outdir, "algebra-%s.md" % node), "w") as f:
        f.write(fd_to_markdown(fd))
    v, vp = tilde_v_pair(case)
    pair = {"v": json.loads(w2_to_json(case.alg, v))}
    if vp.is_theta_even():
        pair["v_twist"] = json.loads(w2_to_json(case.alg, vp))
    with open(os.path.join(outdir, "elements-%s.json" % node), "w") as f:
        f.write(json.dumps(pair, indent=2, sort_keys=True) + "\n")


def cmd_report_all(args):
    ok = True
    for name in SUITES:
        kwargs = {"skip_slow": args.skip_slow} if name == "leech" else {}
        ok = _write_report(run_suite(name, **kwargs), args.out, args.md) and ok
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="griess-forge",
        description="exact verification suites for the node commutant algebras")
    parser.add_argument("--out", default="reports", help="report directory")
    parser.add_argument("--md", action="store_true",
                        help="also write markdown tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report-all", help="run every suite")
    p.add_argument("--skip-slow", action="store_true",
                   help="skip the large enumeration")
    p.set_defaults(func=cmd_report_all)

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
    p.set_defaults(func=_suite_cmd(lambda a: ["commutant-%s" % a.node]))

    p = sub.add_parser("involutions", help="involution suite")
    p.add_argument("node", choices=["1A", "2A", "3A", "e8-orbit"])
    p.set_defaults(func=_suite_cmd(lambda a: ["involutions-%s" % a.node]))

    p = sub.add_parser("u3a", help="the four-dimensional dihedral algebra")
    p.add_argument("--from-orbit", action="store_true")
    p.set_defaults(func=_suite_cmd(
        lambda a: ["u3a-orbit" if a.from_orbit else "u3a"]))

    p = sub.add_parser("leech", help="the lattice chain suite")
    p.add_argument("--skip-slow", action="store_true")
    p.set_defaults(func=_suite_cmd(lambda a: ["leech"]))

    p = sub.add_parser("appendix", help="matrix identity suite")
    p.set_defaults(func=_suite_cmd(["appendix"]))

    p = sub.add_parser("minimal", help="fusion and module census suite")
    p.add_argument("--export-tables", action="store_true",
                   help="write fusion and module-census tables for m = 3, 4")
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("codes", help="ternary code suite")
    p.set_defaults(func=_suite_cmd(["codes"]))

    p = sub.add_parser("charges", help="central charge table suite")
    p.set_defaults(func=_suite_cmd(["charges"]))

    p = sub.add_parser("properties", help="algebra axiom property suite")
    p.set_defaults(func=_suite_cmd(["properties"]))

    p = sub.add_parser("diagram", help="print the labeled node diagrams")
    p.set_defaults(func=cmd_diagram)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
