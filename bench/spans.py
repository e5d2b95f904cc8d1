"""Spans and counters around the package's public functions.

The benchmark measures the layers from outside: a Tracer replaces each
listed function with a wrapper that times the call (a span) or only
counts it, and puts the wrapper into every namespace that holds the
original, since modules copy names with ``from .linalg import kernel``.
A module's self time is the time of its spans minus the time their child
spans cover, so time spent in an unwrapped helper counts for the
innermost wrapped caller.

Exact scalar arithmetic gets no span: wrapping every field operation
would swamp the timing, so only ``CycNum.__mul__`` is counted and exact's
time stays in its callers' self time.
"""

import importlib
import pkgutil
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "griess_forge"

# (module, attribute path, metric stem, quantity measured from (args, result))
_SPANS = [
    ("cli", "main", "main", None),
    ("suites", "run_suite", None, None),   # one span per suite name
    ("w2", "W2Algebra.__init__", "W2Algebra", None),
    ("w2", "W2Algebra.product", "product", None),
    ("w2", "tilde_omega", "tilde_omega", None),
    ("w2", "conformal_vector", "conformal_vector", None),
    ("w2", "virasoro_check", "virasoro_check", None),
    ("w2", "coset_sum", "coset_sum", None),
    ("w2", "CosetCharacter.apply", "character_apply", None),
    ("commutants", "FDAlgebra.product_vec", "fd_product", None),
    ("commutants", "FDAlgebra.form_vec", "fd_form", None),
    ("commutants", "FDAlgebra.check_invariance", "check_invariance", None),
    ("commutants", "span_closure", "span_closure",
     lambda args, res: ("dim", len(res))),
    ("commutants", "fd_from_elements", "fd_from_elements", None),
    ("commutants", "node_case", "node_case", None),
    ("commutants", "tilde_v_pair", "tilde_v_pair", None),
    ("commutants", "orthogonal_complement_virasoro", "complement", None),
    ("commutants", "weight2_dimension_census", "census", None),
    ("commutants", "e8_side", "e8_side", None),
    ("commutants", "vnx_griess", "vnx_griess", None),
    ("commutants", "u3a_griess", "u3a_griess", None),
    ("commutants", "nine_orbit_algebra", "nine_orbit_algebra", None),
    ("involutions", "W2Space.product_vec", "w2space_product", None),
    ("involutions", "W2Space.form_vec", "w2space_form", None),
    ("involutions", "ad_matrix", "ad_matrix", None),
    ("involutions", "ad_spectrum", "ad_spectrum", None),
    ("involutions", "tau_involution", "tau_involution", None),
    ("involutions", "sigma_involution", "sigma_involution", None),
    ("involutions", "is_automorphism", "is_automorphism", None),
    ("involutions", "map_order", "map_order", None),
    ("involutions", "transposition_scan", "transposition_scan", None),
    ("involutions", "group_closure", "group_closure", None),
    ("involutions", "restrict_map", "restrict_map", None),
    ("linalg", "kernel", "kernel",
     lambda args, res: ("cells", len(args[0]) * len(args[0][0]) if args[0] else 0)),
    ("linalg", "solve_matrix", "solve_matrix", None),
    ("linalg", "row_span_coords", "row_span_coords", None),
    ("linalg", "rank", "rank", None),
    ("linalg", "inverse", "inverse", None),
    ("linalg", "det", "det", None),
    ("linalg", "mat_mul", "mat_mul", None),
    ("linalg", "mat_vec", "mat_vec", None),
    ("linalg", "is_positive_definite", "is_positive_definite", None),
    ("lattices", "IntegralLattice.det", "lattice_det", None),
    ("lattices", "build_root_lattice", "build_root_lattice", None),
    ("lattices", "node_sublattice", "node_sublattice", None),
    ("lattices", "short_vectors", "short_vectors",
     lambda args, res: ("vectors", len(res))),
    ("lattices", "isometry_test", "isometry_test", None),
    ("lattices", "quotient_structure", "quotient_structure", None),
    ("lattices", "cosets", "cosets", None),
    ("lattices", "annihilator", "annihilator", None),
    ("lattices", "kernel_sublattice", "kernel_sublattice", None),
    ("intmat", "hnf", "hnf", None),
    ("intmat", "snf_with_transform", "snf", None),
    ("intmat", "int_det", "int_det", None),
    ("intmat", "int_inverse_unimodular", "int_inverse_unimodular", None),
    ("gluing", "glue_lattice", "glue_lattice", None),
    ("gluing", "e8_glue", "e8_glue", None),
    ("gluing", "niemeier_a2_12", "niemeier_a2_12", None),
    ("gluing", "n0_sublattice", "n0_sublattice", None),
    ("gluing", "leech", "leech", None),
    ("gluing", "GlueLattice.sublattice_in_basis", "sublattice_in_basis", None),
    ("gluing", "codeword_isometry", "codeword_isometry", None),
    ("gluing", "e_copies_rows", "e_copies_rows", None),
    ("appendix", "h_matrices", "h_matrices", None),
    ("appendix", "e8_perp_e8_triple", "e8_perp_e8_triple", None),
    ("appendix", "leech_embedding_check", "leech_embedding_check", None),
]

_COUNTS = [
    ("exact", "CycNum.__mul__", "cycnum_mul"),
    ("w2", "W2Algebra.form", "form"),
]

# the names in griess_forge.suites.SUITES
SUITE_NAMES = [
    "charges", "ising", "commutant-1A", "commutant-2A", "commutant-3A", "u3a",
    "u3a-orbit", "involutions-1A", "involutions-2A", "involutions-3A",
    "involutions-e8-orbit", "minimal", "codes", "appendix", "properties",
    "leech",
]

# the per-layer metrics a traced run reports: (name, unit)
PER_LAYER = (
    [("suites.%s.s" % s, "s") for s in SUITE_NAMES]
    + [("w2.self_s", "s"), ("w2.product.s", "s"), ("w2.product.calls", "count"),
       ("w2.form.calls", "count"),
       ("exact.cycnum_mul.calls", "count"),
       ("commutants.self_s", "s"), ("commutants.span_closure.s", "s"),
       ("commutants.span_closure.dim", "count"),
       ("commutants.nine_orbit_algebra.calls", "count"),
       ("involutions.self_s", "s"), ("involutions.is_automorphism.s", "s"),
       ("involutions.is_automorphism.calls", "count"),
       ("involutions.ad_spectrum.calls", "count"),
       ("linalg.self_s", "s"), ("linalg.kernel.s", "s"),
       ("linalg.kernel.calls", "count"), ("linalg.kernel.cells", "count"),
       ("linalg.row_span_coords.calls", "count"),
       ("linalg.mat_mul.calls", "count"),
       ("lattices.self_s", "s"), ("lattices.short_vectors.s", "s"),
       ("lattices.short_vectors.calls", "count"),
       ("lattices.short_vectors.vectors", "count"),
       ("lattices.isometry_test.s", "s"), ("lattices.isometry_test.calls", "count"),
       ("intmat.self_s", "s"), ("gluing.self_s", "s"), ("appendix.self_s", "s"),
       ("cli.self_s", "s")]
)


def _resolve(module, path):
    """(owner, original function) for 'f' or 'Class.f' in module."""
    owner = importlib.import_module("%s.%s" % (PACKAGE, module))
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    original = vars(owner)[parts[-1]]
    if not callable(original):
        raise TypeError("%s.%s is not a function" % (module, path))
    return owner, original


class Tracer:
    """Inclusive time, self time per module, calls and quantities per span."""

    def __init__(self):
        self.inclusive = defaultdict(float)   # span name -> seconds
        self.self_time = defaultdict(float)   # module -> seconds
        self.calls = Counter()                # span or counter name -> calls
        self.quantity = Counter()             # "name.kind" -> summed quantity
        self.edges = Counter()                # (parent span, span) -> calls
        self._stack = []                      # [span name, child seconds]
        self._undo = []                       # (home, name, original)

    # -- wrappers ------------------------------------------------------------

    def _span(self, module, stem, fn, measure):
        stack, clock = self._stack, time.perf_counter
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls
        quantity, edges = self.quantity, self.edges

        def wrapper(*args, **kwargs):
            name = "%s.%s" % (module, stem if stem else args[0])
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self_time[module] += dur - frame[1]
                inclusive[name] += dur
                calls[name] += 1
            if measure is not None:
                kind, amount = measure(args, result)
                quantity["%s.%s" % (name, kind)] += amount
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, owner, original, wrapper):
        """Put wrapper wherever original is bound: on its owner (aliases such
        as __rmul__ = __mul__ included) and in every package module."""
        homes = [owner] + [m for n, m in list(sys.modules.items())
                           if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for home in homes:
            for name, value in list(vars(home).items()):
                if value is original:
                    setattr(home, name, wrapper)
                    self._undo.append((home, name, original))

    def install(self):
        """Wrap every listed function; import all package modules first so
        that every ``from ... import`` copy exists before it is replaced."""
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module("%s.%s" % (PACKAGE, info.name))
        for module, path, stem, measure in _SPANS:
            owner, original = _resolve(module, path)
            self._replace_everywhere(
                owner, original, self._span(module, stem, original, measure))
        for module, path, stem in _COUNTS:
            owner, original = _resolve(module, path)
            self._replace_everywhere(
                owner, original, self._counter("%s.%s" % (module, stem), original))
        return self

    def uninstall(self):
        while self._undo:
            home, name, original = self._undo.pop()
            setattr(home, name, original)

    # -- results -------------------------------------------------------------

    def metrics(self):
        """The PER_LAYER metrics, by name; layers that did no work read 0."""
        out = {}
        for name, _unit in PER_LAYER:
            stem, kind = name.rsplit(".", 1)
            if kind == "self_s":
                out[name] = self.self_time.get(stem, 0.0)
            elif kind == "s":
                out[name] = self.inclusive.get(stem, 0.0)
            elif kind == "calls":
                out[name] = self.calls.get(stem, 0)
            else:
                out[name] = self.quantity.get(name, 0)
        return out

    def table(self):
        """Everything recorded, for the trace file."""
        return {
            "spans": {name: {"calls": self.calls[name], "s": self.inclusive[name]}
                      for name in sorted(self.inclusive)},
            "self_s": dict(sorted(self.self_time.items())),
            "counters": {name: n for name, n in sorted(self.calls.items())
                         if name not in self.inclusive},
            "quantities": dict(sorted(self.quantity.items())),
            "edges": [[parent, child, n] for (parent, child), n
                      in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
        }
