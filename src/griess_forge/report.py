"""Check records and report serialization (JSON and markdown).

All numeric values are serialized exactly through the coefficient
serializers; no floats appear anywhere in a report.  Reports are
deterministic byte-for-byte except for the elapsed-time field.
"""

import json
from dataclasses import dataclass, field

from .exact import coeff_str

__all__ = ["Check", "Report", "fd_to_json", "fd_to_markdown", "w2_to_json"]

SCHEMA = 1


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
        return json.dumps({
            "schema": SCHEMA,
            "suite": self.suite,
            "checks": [{
                "id": c.id, "description": c.description, "anchor": c.anchor,
                "expected": c.expected, "computed": c.computed,
                "status": c.status,
            } for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
        }, indent=2, sort_keys=True) + "\n"

    def to_markdown(self):
        lines = ["# suite: %s" % self.suite, "",
                 "| id | description | expected | computed | status |",
                 "|---|---|---|---|---|"]
        for c in self.checks:
            lines.append("| %s | %s | %s | %s | %s |"
                         % (c.id, c.description, c.expected, c.computed, c.status))
        lines.append("")
        return "\n".join(lines)

    def summary(self):
        n_pass = sum(1 for c in self.checks if c.status == "pass")
        n_fail = sum(1 for c in self.checks if c.status == "fail")
        n_skip = sum(1 for c in self.checks if c.status == "skipped")
        return "%s: %d pass, %d fail, %d skipped" % (self.suite, n_pass, n_fail, n_skip)


def fd_to_json(fd):
    """FDAlgebra export: names, sparse structure-constant triples, Gram."""
    triples = []
    for i in range(fd.dim):
        for j in range(i, fd.dim):
            for k, c in enumerate(fd.mult[i][j]):
                if c:
                    triples.append([fd.names[i], fd.names[j], fd.names[k],
                                    fmt(c)])
    gram = []
    for i in range(fd.dim):
        for j in range(i, fd.dim):
            if fd.gram[i][j]:
                gram.append([fd.names[i], fd.names[j], fmt(fd.gram[i][j])])
    return json.dumps({"basis": fd.names, "mult": triples, "gram": gram},
                      indent=2, sort_keys=True) + "\n"


def fd_to_markdown(fd):
    """Product and form tables in the layout of the reference tables."""
    def term_str(row):
        parts = []
        for k, c in enumerate(row):
            if c:
                cs = fmt(c)
                parts.append(fd.names[k] if cs == "1"
                             else "%s %s" % (cs, fd.names[k]))
        return " + ".join(parts) if parts else "0"

    head = "| a.b | " + " | ".join(fd.names) + " |"
    sep = "|" + "---|" * (fd.dim + 1)
    lines = [head, sep]
    for i in range(fd.dim):
        cells = []
        for j in range(fd.dim):
            cells.append(term_str(fd.mult[i][j]) if j >= i else "")
        lines.append("| %s | " % fd.names[i] + " | ".join(cells) + " |")
    lines.append("")
    lines.append("| <a,b> | " + " | ".join(fd.names) + " |")
    lines.append(sep)
    for i in range(fd.dim):
        cells = []
        for j in range(fd.dim):
            cells.append(fmt(fd.gram[i][j]) if j >= i and fd.gram[i][j] else "")
        lines.append("| %s | " % fd.names[i] + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def scan_to_json(orders, violations):
    """Pairwise-order scan export: {pairs: [{i, j, order}], violations: []}."""
    k = len(orders)
    pairs = [{"i": i, "j": j, "order": orders[i][j]}
             for i in range(k) for j in range(i + 1, k)]
    return json.dumps({"pairs": pairs,
                       "violations": [{"i": i, "j": j, "order": o}
                                      for i, j, o in violations]},
                      indent=2, sort_keys=True) + "\n"


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


def w2_to_json(alg, elem):
    """Weight-two element export over the theta-even basis.

    heis holds [i, j, coeff] triples; exps holds [class_id, coeff] with
    class_id indexing the deterministic short-vector class ordering.
    """
    coords = alg.class_coords(elem)
    nh = len(alg.heis_pairs)
    heis = [[alg.heis_pairs[k][0], alg.heis_pairs[k][1], fmt(c)]
            for k, c in enumerate(coords[:nh]) if c]
    exps = [[k, fmt(c)] for k, c in enumerate(coords[nh:]) if c]
    return json.dumps({"heis": heis, "exps": exps}, sort_keys=True)
