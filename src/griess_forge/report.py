"""Check records and every file format the package writes.

Reports, structure-constant tables, element and scan exports, and the
fusion and module-census tables all go through one JSON form (to_json)
and one markdown table layout (md_table).  All numeric values are
serialized exactly through the coefficient serializers; no floats appear
anywhere in a file.  Reports are deterministic byte-for-byte except for
the elapsed-time field.

The package root imports no submodule: import griess_forge.<module>.
"""

import json
from dataclasses import dataclass, field

from .exact import coeff_str

__all__ = ["Check", "Report", "to_json", "md_table", "fd_to_json",
           "fd_to_markdown", "w2_to_dict", "scan_to_json", "fusion_to_json",
           "fusion_to_markdown", "wmodules_to_json", "wmodules_to_markdown"]

SCHEMA = 1


def to_json(obj):
    """The one JSON form of every file: indented, keys sorted, newline-ended."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def md_table(head, rows):
    """The one markdown table layout: a header line, the rule and one line
    per row, each line newline-ended."""
    lines = ["| " + " | ".join(cells) + " |" for cells in [head, *rows]]
    lines.insert(1, "|" + "---|" * len(head))
    return "\n".join(lines) + "\n"


@dataclass
class Check:
    id: str
    description: str
    anchor: str
    expected: str
    computed: str
    status: str = ""

    def __post_init__(self):
        if not self.status:
            self.status = "pass" if self.expected == self.computed else "fail"


def check(cid, description, anchor, expected, computed):
    return Check(cid, description, anchor, fmt(expected), fmt(computed))


def skipped(cid, description, anchor, computed=""):
    return Check(cid, description, anchor, "", computed, status="skipped")


def fmt(x):
    """Exact string form of a check value."""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(fmt(t) for t in x) + "]"
    return coeff_str(x)


@dataclass
class Report:
    suite: str
    checks: list = field(default_factory=list)
    elapsed_ms: int = 0

    def add(self, *args, **kwargs):
        self.checks.append(check(*args, **kwargs))

    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    def to_json(self):
        return to_json({
            "schema": SCHEMA,
            "suite": self.suite,
            "checks": [{
                "id": c.id, "description": c.description, "anchor": c.anchor,
                "expected": c.expected, "computed": c.computed,
                "status": c.status,
            } for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
        })

    def to_markdown(self):
        return "# suite: %s\n\n" % self.suite + md_table(
            ["id", "description", "expected", "computed", "status"],
            ([c.id, c.description, c.expected, c.computed, c.status]
             for c in self.checks))

    def summary(self):
        n_pass = sum(1 for c in self.checks if c.status == "pass")
        n_fail = sum(1 for c in self.checks if c.status == "fail")
        n_skip = sum(1 for c in self.checks if c.status == "skipped")
        return "%s: %d pass, %d fail, %d skipped" % (self.suite, n_pass, n_fail, n_skip)


def fd_to_json(fd):
    """FDAlgebra export: names, sparse structure-constant triples, Gram."""
    n, names = range(fd.dim), fd.names
    mult = [[names[i], names[j], names[k], fmt(c)] for i in n for j in n[i:]
            for k, c in enumerate(fd.mult[i][j]) if c]
    gram = [[names[i], names[j], fmt(fd.gram[i][j])] for i in n for j in n[i:]
            if fd.gram[i][j]]
    return to_json({"basis": names, "mult": mult, "gram": gram})


def fd_to_markdown(fd):
    """Product and form tables in the layout of the reference tables."""
    def term_str(row):
        parts = [fd.names[k] if fmt(c) == "1" else "%s %s" % (fmt(c), fd.names[k])
                 for k, c in enumerate(row) if c]
        return " + ".join(parts) if parts else "0"

    n = range(fd.dim)
    products = [[fd.names[i]] + [term_str(fd.mult[i][j]) if j >= i else ""
                                 for j in n] for i in n]
    forms = [[fd.names[i]] + [fmt(fd.gram[i][j]) if j >= i and fd.gram[i][j]
                              else "" for j in n] for i in n]
    return (md_table(["a.b", *fd.names], products) + "\n"
            + md_table(["<a,b>", *fd.names], forms))


def scan_to_json(orders, violations):
    """Pairwise-order scan export: {pairs: [{i, j, order}], violations: []}."""
    k = len(orders)
    pairs = [{"i": i, "j": j, "order": orders[i][j]}
             for i in range(k) for j in range(i + 1, k)]
    return to_json({"pairs": pairs,
                    "violations": [{"i": i, "j": j, "order": o}
                                   for i, j, o in violations]})


def fusion_to_json(table):
    """Fusion export: {a, b, result: [[label, multiplicity]]} per pair."""
    return to_json([{"a": list(a), "b": list(b),
                     "result": [[list(lab), k] for lab, k in sorted(out.items())]}
                    for (a, b), out in table.items()])


def fusion_to_markdown(table, hw):
    """The fusion table with each label shown by its weight hw[label]."""
    def terms(out):
        return " + ".join(("%d " % k if k > 1 else "") + fmt(hw[lab])
                          for lab, k in sorted(out.items()))
    return md_table(["x", *("h=%s" % fmt(hw[b]) for b in hw)],
                    [["h=%s" % fmt(hw[a]), *(terms(table[a, b]) for b in hw)]
                     for a in hw])


def wmodules_to_json(modules):
    """Module-census export: label, partner, delta, kind, weights per module."""
    return to_json([{"label": list(w.label), "partner": list(w.partner),
                     "delta": fmt(w.delta), "kind": w.kind,
                     "weights": [fmt(x) for x in w.weights()]} for w in modules])


def wmodules_to_markdown(modules):
    return md_table(["label", "partner", "delta", "kind", "weights"],
                    [[str(w.label), str(w.partner), fmt(w.delta), w.kind,
                      ", ".join(fmt(x) for x in w.weights())] for w in modules])


def node_diagram(labels):
    """The affine diagram with one label per node class, for terminal output.

    labels maps the three node classes (by mark 1, 2, 3) to strings; the
    horizontal chain reads mark 1, 2, 3, 2, 1 with the vertical leg 2, 1.
    """
    l1, l2, l3 = labels[1], labels[2], labels[3]
    w = max(len(l1), len(l2), len(l3)) + 3
    pad = " " * (2 * w)
    return "\n".join([
        pad + "o %s" % l1,
        pad + "|",
        pad + "o %s" % l2,
        pad + "|",
        ("o".ljust(w) + "o".ljust(w) + "o".ljust(w)
         + "o".ljust(w) + "o"),
        (l1.ljust(w) + l2.ljust(w) + l3.ljust(w) + l2.ljust(w) + l1),
    ])


def w2_to_dict(alg, elem):
    """Weight-two element export over the theta-even basis.

    heis holds [i, j, coeff] triples; exps holds [class_id, coeff] with
    class_id indexing the deterministic short-vector class ordering.
    """
    coords = alg.class_coords(elem)
    nh = len(alg.heis_pairs)
    heis = [[alg.heis_pairs[k][0], alg.heis_pairs[k][1], fmt(c)]
            for k, c in enumerate(coords[:nh]) if c]
    exps = [[k, fmt(c)] for k, c in enumerate(coords[nh:]) if c]
    return {"heis": heis, "exps": exps}
