"""Tests of the benchmark's own code: checkers, tracer and runner.

    python3 -m pytest bench

Each workload runs once, traced and in-process; its output feeds both the
checker tests (a corrupted copy must be rejected) and the trace tests.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER, SUITE_NAMES, Tracer  # noqa: E402


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request, tmp_path_factory):
    """(workload name, inputs, output, tracer) of one traced round."""
    name = request.param
    setup, run, _check = workloads.WORKLOADS[name]
    inputs = setup(7, str(tmp_path_factory.mktemp(name)))
    tracer = Tracer().install()
    try:
        output = run(inputs)
    finally:
        tracer.uninstall()
    return name, inputs, output, tracer


def test_formulas():
    assert checks.central_charge("E", 6) == Fraction(6, 7)
    assert checks.central_charge("A", 5) == Fraction(5, 4)
    assert checks.minimal_weights(4) == {0, Fraction(1, 2), Fraction(1, 16)}
    assert len({Fraction(2)} | checks.minimal_weights(7)) == 16


def _rewrite(outdir, suite, cid, computed):
    path = os.path.join(outdir, "report-%s.json" % suite)
    with open(path) as f:
        rep = json.load(f)
    for c in rep["checks"]:
        if c["id"] == cid:
            c["computed"] = computed
            c["status"] = "pass"
    with open(path, "w") as f:
        json.dump(rep, f)


def test_checker_accepts_and_rejects(traced, tmp_path):
    name, inputs, output, _tracer = traced
    _setup, _run, check = workloads.WORKLOADS[name]
    attempted, failed, errors = check(inputs, output)
    assert errors == [] and attempted > 0 and failed == 0
    if name == "e8-spectra":
        bad = copy.deepcopy(output)
        vec = bad["sectors"][Fraction(5, 7)][0]
        vec[vec.index(next(x for x in vec if x))] += 1
        errs = check(inputs, bad)[2]
        assert any("fail M b" in e for e in errs), errs
    else:
        corrupted = str(tmp_path / "reports")
        shutil.copytree(inputs, corrupted)
        _rewrite(corrupted, "charges", "charge-E6", "5/4 (Virasoro)")
        errs = check(corrupted, output)[2]
        assert any(e.startswith("charges/charge-E6") for e in errs), errs


def test_traced_run_counts_work(traced):
    name, _inputs, _output, tracer = traced
    metrics = tracer.metrics()
    assert set(metrics) == {n for n, _unit in PER_LAYER}
    if name == "e8-spectra":
        # ad_spectrum's four kernels come through involutions' own binding
        assert metrics["linalg.kernel.calls"] == 4 + 1 + 16
        assert tracer.edges[("involutions.ad_spectrum", "linalg.kernel")] == 4
    else:
        assert metrics["w2.product.calls"] > 0
        assert metrics["lattices.short_vectors.vectors"] > 0
        # cli calls its own binding of run_suite
        assert all(metrics["suites.%s.s" % s] > 0 for s in SUITE_NAMES)


def test_tracer_replaces_every_binding():
    from griess_forge import cli, involutions, linalg, suites
    original_kernel, original_run_suite = linalg.kernel, suites.run_suite
    tracer = Tracer().install()
    try:
        assert cli.run_suite is suites.run_suite is not original_run_suite
        assert involutions.kernel is linalg.kernel is not original_kernel
        # no module, nor the class of a wrapped method, still holds an original
        originals = {id(original) for _home, _name, original in tracer._undo}
        homes = [m for n, m in sys.modules.items() if n.startswith("griess_forge")]
        homes += [home for home, _name, _original in tracer._undo]
        for home in homes:
            for attr, value in vars(home).items():
                assert id(value) not in originals, "%s.%s is unwrapped" % (home, attr)
    finally:
        tracer.uninstall()
    assert involutions.kernel is linalg.kernel is original_kernel


def test_metric_lists_agree():
    from griess_forge.suites import SUITES
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _u in PER_LAYER]
    assert SUITE_NAMES == list(SUITES)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
