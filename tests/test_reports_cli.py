import json
import subprocess
import sys
from fractions import Fraction

import pytest

from griess_forge import cli, suites
from griess_forge.commutants import g2a_table, node_case
from griess_forge.report import Report, fd_to_json, fd_to_markdown, w2_to_dict, fmt
from griess_forge.suites import run_suite

F = Fraction


def test_fmt_exact():
    assert fmt(F(3, 196)) == "3/196"
    assert fmt(True) == "true"
    assert fmt([1, F(1, 2)]) == "[1, 1/2]"


def test_report_roundtrip():
    rep = Report("demo")
    rep.add("a", "a check", "anchor", 1, 1)
    rep.add("b", "another", "anchor", "x", "y")
    data = json.loads(rep.to_json())
    assert data["schema"] == 1
    assert data["checks"][0]["status"] == "pass"
    assert data["checks"][1]["status"] == "fail"
    assert not rep.ok()
    md = rep.to_markdown()
    assert "| a |" in md


def test_fd_export():
    fd = g2a_table()
    data = json.loads(fd_to_json(fd))
    assert data["basis"] == ["w1", "w2", "X"]
    assert ["X", "X", "w1", "80"] in data["mult"]
    md = fd_to_markdown(fd)
    assert "80 w1 + 96 w2" in md
    assert "| <a,b> |" in md


def test_w2_element_json():
    case = node_case("2A")
    x = case.xs[0]
    data = w2_to_dict(case.alg, x)
    assert data["heis"] == []
    assert len(data["exps"]) == 20        # forty exponentials in twenty classes
    assert all(c == "1" for _k, c in data["exps"])


def test_report_determinism():
    # byte-identical modulo the elapsed field
    da = json.loads(run_suite("codes").to_json())
    db = json.loads(run_suite("codes").to_json())
    da.pop("elapsed_ms"), db.pop("elapsed_ms")
    assert da == db


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "griess_forge.cli", *args],
        capture_output=True, text=True)


def test_cli_fusion(tmp_path):
    r = _cli("--out", str(tmp_path), "fusion", "4", "5", "1", "5", "1")
    assert r.returncode == 0
    assert "L(6/7, 0)" in r.stdout


def test_cli_bad_fusion(tmp_path):
    r = _cli("--out", str(tmp_path), "fusion", "4", "9", "1", "5", "1")
    assert r.returncode == 2


def test_cli_fusion_below_the_unitary_series_exits_2(tmp_path):
    r = _cli("--out", str(tmp_path), "fusion", "0", "1", "1", "1", "1")
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "m >= 1" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "report-fusion.json").exists()


def test_cli_usage_error():
    r = _cli("definitely-not-a-command")
    assert r.returncode == 2


def test_cli_lattice_by_name(tmp_path):
    r = _cli("--out", str(tmp_path), "lattice", "A2", "--short-vectors", "2")
    assert r.returncode == 0
    data = json.loads((tmp_path / "report-lattice-A2.json").read_text())
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id["short-2"]["computed"] == "6"


def test_cli_lattice_file(tmp_path):
    spec = tmp_path / "latt.txt"
    spec.write_text("name: demo\nrank: 2\ngram:\n2 -1\n-1 2\n")
    r = _cli("--out", str(tmp_path), "lattice", str(spec), "--short-vectors", "2")
    assert r.returncode == 0


def test_cli_lattice_file_without_a_name_is_named_by_its_base_name(tmp_path):
    spec = tmp_path / "specs" / "latt.txt"
    spec.parent.mkdir()
    spec.write_text("rank: 2\ngram:\n2 -1\n-1 2\n")
    r = _cli("--out", str(tmp_path / "out"), "lattice", str(spec))
    assert r.returncode == 0, r.stderr
    data = json.loads((tmp_path / "out" / "report-lattice-latt.txt.json").read_text())
    assert data["suite"] == "lattice-latt.txt"


def test_cli_lattice_name_with_a_path_separator_exits_2(tmp_path):
    spec = tmp_path / "latt.txt"
    spec.write_text("name: sub/demo\nrank: 2\ngram:\n2 -1\n-1 2\n")
    r = _cli("--out", str(tmp_path / "out"), "lattice", str(spec))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "path separator" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out").exists()


def test_cli_negative_short_vector_norm_exits_2(tmp_path):
    r = _cli("--out", str(tmp_path), "lattice", "A2", "--short-vectors", "-2")
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "-2" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "report-lattice-A2.json").exists()


_FORMS = ("name leech, niemeier-a2-12, a lattice file, or A/D/E<n> with an "
          "optional sqrt2 prefix")


@pytest.mark.parametrize("name, message", [
    ("A0", "A_n needs n >= 1"),
    ("a-1", "unknown lattice 'a-1': " + _FORMS),
    ("sqrt2", "unknown lattice 'sqrt2': " + _FORMS),
    ("sqrt3E8", "unknown lattice 'sqrt3E8': " + _FORMS),
], ids=["A0", "a-1", "sqrt2", "sqrt3E8"])
def test_cli_malformed_lattice_name_exits_2(tmp_path, name, message):
    r = _cli("--out", str(tmp_path), "lattice", name)
    assert r.returncode == 2
    assert r.stderr.startswith("error: " + message)
    assert list(tmp_path.iterdir()) == []


def test_cli_lattice_bad_file(tmp_path):
    spec = tmp_path / "bad.txt"
    spec.write_text("name: demo\nrank: 3\ngram:\n2 -1\n-1 2\n")
    r = _cli("--out", str(tmp_path), "lattice", str(spec))
    assert r.returncode == 2


def test_cli_lattice_indefinite_file(tmp_path):
    spec = tmp_path / "indefinite.txt"
    spec.write_text("name: hyperbolic\nrank: 2\ngram:\n0 1\n1 0\n")
    r = _cli("--out", str(tmp_path), "lattice", str(spec))
    assert r.returncode == 2
    assert "not positive definite" in r.stderr


def test_cli_lattice_ragged_gram_file_exits_2(tmp_path):
    spec = tmp_path / "ragged.txt"
    spec.write_text("name: demo\nrank: 3\ngram:\n2 1 0\n1 2 0\n0\n")
    r = _cli("--out", str(tmp_path), "lattice", str(spec))
    assert r.returncode == 2
    assert r.stderr.strip() == "error: Gram matrix is not square"


@pytest.mark.parametrize("command, text, message", [
    ("lattice", "gram: 4\n", "'gram' takes matrix rows on the lines below it"),
    ("lattice", "name: demo\ngram:\n", "the 'gram' block has no rows"),
    ("lattice", "rank:\n1\ngram:\n2\n", "'rank' takes a value on its line"),
    ("lattice", "name:\n1\ngram:\n2\n", "'name' takes a value on its line"),
    ("code", "length: 1\ngenerators: 1\n",
     "'generators' takes matrix rows on the lines below it"),
    ("code", "length:\n1\ngenerators:\n1\n", "'length' takes a value on its line"),
    ("code", "generators:\n1 1\n", "code file needs a length line"),
], ids=["gram-on-one-line", "empty-gram", "rank-block", "name-block",
        "generators-on-one-line", "length-block", "no-length"])
def test_cli_input_file_keys_of_the_wrong_kind_exit_2(tmp_path, command, text,
                                                       message):
    spec = tmp_path / "spec.txt"
    spec.write_text(text)
    r = _cli("--out", str(tmp_path / "out"), command, str(spec))
    assert r.returncode == 2
    assert r.stderr.startswith("error: " + message)
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, message", [
    ("lattice", "name: demo\ngram:\n2 x\n",
     "line 3: the 'gram' block takes rows of integers, not '2 x'"),
    ("lattice", "name: demo\n# a comment\ngram:\n2 1.5\n",
     "line 4: the 'gram' block takes rows of integers, not '2 1.5'"),
    ("code", "length: 4\ngenerators:\n1 a 1 0\n",
     "line 3: the 'generators' block takes rows of integers, not '1 a 1 0'"),
    ("code", "length: four\ngenerators:\n1 0 1 1\n",
     "'length' takes an integer, not 'four'"),
    ("lattice", "rank: two\ngram:\n2\n", "'rank' takes an integer, not 'two'"),
], ids=["gram-letter", "gram-fraction", "generators-letter", "length-word",
        "rank-word"])
def test_cli_input_file_values_that_are_not_integers_exit_2(tmp_path, command,
                                                            text, message):
    spec = tmp_path / "spec.txt"
    spec.write_text(text)
    r = _cli("--out", str(tmp_path / "out"), command, str(spec))
    assert r.returncode == 2
    assert r.stderr.strip() == "error: " + message
    assert not (tmp_path / "out").exists()


def test_cli_out_naming_a_file_exits_2(tmp_path):
    # a report directory that cannot be made is a bad command line
    taken = tmp_path / "taken"
    taken.write_text("")
    r = _cli("--out", str(taken), "codes")
    assert r.returncode == 2
    assert r.stderr.startswith("error: cannot write %s" % taken)
    assert "Traceback" not in r.stderr
    assert taken.read_text() == ""


def test_cli_rejects_removed_verify_flags():
    assert cli.main(["leech", "--verify"]) == 2
    assert cli.main(["appendix", "--verify"]) == 2


def test_cli_code_file(tmp_path):
    spec = tmp_path / "code.txt"
    spec.write_text("name: tetra\nlength: 4\ngenerators:\n1 1 1 0\n1 -1 0 1\n")
    r = _cli("--out", str(tmp_path), "code", str(spec))
    assert r.returncode == 0
    data = json.loads((tmp_path / "report-code.json").read_text())
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id["size"]["computed"] == "9"
    assert by_id["min-weight"]["computed"] == "3"


def test_cli_zero_code_exits_2(tmp_path):
    # a code whose only word is zero has no minimum weight: a bad input
    spec = tmp_path / "zero.txt"
    spec.write_text("length: 2\ngenerators:\n0 0\n")
    r = _cli("--out", str(tmp_path), "code", str(spec))
    assert r.returncode == 2
    assert "no nonzero word" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "report-code.json").exists()


def test_cli_missing_code_file_exits_2(tmp_path):
    r = _cli("--out", str(tmp_path), "code", str(tmp_path / "missing.txt"))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "missing.txt" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_lattice_directory_exits_2(tmp_path):
    r = _cli("--out", str(tmp_path / "out"), "lattice", str(tmp_path))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


def test_cli_lattice_and_code_checks_compare_independent_values(tmp_path, monkeypatch):
    # det is the integer Hermite form against elimination over Q, and the
    # code size is the word count against 3^(rank of the generators mod 3)
    from griess_forge import codes, intmat, linalg
    spec = tmp_path / "code.txt"
    spec.write_text("name: tetra\nlength: 4\ngenerators:\n1 1 1 0\n1 -1 0 1\n")
    argv_lattice = ["--out", str(tmp_path), "lattice", "E8"]
    argv_code = ["--out", str(tmp_path), "code", str(spec)]
    assert cli.main(argv_lattice) == 0
    assert cli.main(argv_code) == 0
    with monkeypatch.context() as m:
        m.setattr(linalg, "det", lambda a: F(2))
        assert cli.main(argv_lattice) == 1
    with monkeypatch.context() as m:
        m.setattr(intmat, "int_det", lambda a: 2)
        assert cli.main(argv_lattice) == 1
    with monkeypatch.context() as m:
        m.setattr(codes.TernaryCode, "dimension", lambda self: 3)
        assert cli.main(argv_code) == 1
    with monkeypatch.context() as m:
        m.setattr(codes.TernaryCode, "__len__", lambda self: 27)
        assert cli.main(argv_code) == 1


def test_cli_code_and_fusion_checks_compare_independent_values(tmp_path, monkeypatch):
    # min-weight is the least nonzero degree of the weight enumerator against
    # the least weight of a nonzero word; self-dual is dimension length/2 and
    # every word orthogonal to every generator, against is_self_dual; fusion
    # is the fusion against the fusion with the factors swapped
    from collections import Counter
    from griess_forge import codes, minimal
    spec = tmp_path / "code.txt"
    spec.write_text("name: tetra\nlength: 4\ngenerators:\n1 1 1 0\n1 -1 0 1\n")
    argv_code = ["--out", str(tmp_path), "code", str(spec)]
    argv_fusion = ["--out", str(tmp_path), "fusion", "4", "2", "1", "3", "1"]

    def status(argv, report, cid):
        code = cli.main(argv)
        checks = json.loads((tmp_path / report).read_text())["checks"]
        return code, {c["id"]: c["status"] for c in checks}[cid]

    assert status(argv_code, "report-code.json", "min-weight") == (0, "pass")
    assert status(argv_code, "report-code.json", "self-dual") == (0, "pass")
    assert status(argv_fusion, "report-fusion.json", "fusion") == (0, "pass")
    code_patches = [("weight_enumerator", lambda self: {0: 1, 2: 8}, "min-weight"),
                    ("minimum_weight", lambda self: 2, "min-weight"),
                    ("dimension", lambda self: 1, "self-dual"),
                    ("is_self_dual", lambda self: False, "self-dual")]
    for name, wrong, cid in code_patches:
        with monkeypatch.context() as m:
            m.setattr(codes.TernaryCode, name, wrong)
            assert status(argv_code, "report-code.json", cid) == (1, "fail"), name
    fusion = minimal.fusion
    for wrong_order in ((2, 1), (3, 1)):
        with monkeypatch.context() as m:
            m.setattr(minimal, "fusion", lambda mm, a, b, w=wrong_order:
                      Counter() if a == w else fusion(mm, a, b))
            assert status(argv_fusion, "report-fusion.json", "fusion") == (1, "fail")

def test_cli_lattice_counts_compare_independent_values(tmp_path, monkeypatch):
    # short-N is the enumeration against the theta series of a named lattice
    # or a box search at rank <= 4; even is the input Gram's parity against
    # the parity of the LLL-reduced Gram
    from griess_forge import lattices
    spec = tmp_path / "d4.txt"
    spec.write_text("name: d4\ngram:\n2 -1 0 0\n-1 2 -1 -1\n0 -1 2 0\n0 -1 0 2\n")
    named = ["--out", str(tmp_path), "lattice", "A2", "--short-vectors", "2"]
    boxed = ["--out", str(tmp_path), "lattice", str(spec), "--short-vectors", "2"]
    assert cli.main(named) == 0
    assert cli.main(boxed) == 0
    by_id = {c["id"]: c for c in json.loads(
        (tmp_path / "report-lattice-d4.json").read_text())["checks"]}
    assert by_id["short-2"]["expected"] == by_id["short-2"]["computed"] == "24"
    sv = lattices.short_vectors
    with monkeypatch.context() as m:
        m.setattr(lattices, "short_vectors", lambda lat, norm: sv(lat, norm)[1:])
        assert cli.main(named) == 1
        assert cli.main(boxed) == 1
    with monkeypatch.context() as m:
        m.setattr(lattices, "lll_reduce",
                  lambda gram: ([[1] + row[1:] for row in gram], None, None, None))
        assert cli.main(["--out", str(tmp_path), "lattice", "A2"]) == 1
    # E8 at norm 4: no coefficient on record and rank 8, so the count is
    # recorded as unchecked
    assert cli.main(["--out", str(tmp_path), "lattice", "E8", "--short-vectors", "4"]) == 0
    by_id = {c["id"]: c for c in json.loads(
        (tmp_path / "report-lattice-E8.json").read_text())["checks"]}
    assert by_id["short-4"]["status"] == "skipped"
    assert by_id["short-4"]["computed"] == "2160"


def test_cli_commutant_exports_tables(tmp_path):
    r = _cli("--out", str(tmp_path), "--md", "commutant", "2A", "--export-tables")
    assert r.returncode == 0
    assert (tmp_path / "algebra-2A.json").exists()
    assert (tmp_path / "algebra-2A.md").exists()
    assert (tmp_path / "report-commutant-2A.md").exists()


def _files(path):
    return sorted(p.name for p in path.iterdir())


def test_cli_report_all_writes_exactly_the_reports(tmp_path):
    reports = ["report-%s" % name for name in suites.SUITES]
    assert cli.main(["--out", str(tmp_path / "json"), "report-all",
                     "--skip-slow"]) == 0
    assert _files(tmp_path / "json") == sorted(r + ".json" for r in reports)
    assert cli.main(["--out", str(tmp_path / "md"), "--md", "report-all",
                     "--skip-slow"]) == 0
    assert _files(tmp_path / "md") == sorted(
        [r + ".json" for r in reports] + [r + ".md" for r in reports])
    assert len(reports) == 16


@pytest.mark.parametrize("argv, files", [
    (["involutions", "3A"], ["report-involutions-3A.json"]),
    (["involutions", "e8-orbit"],
     ["report-involutions-e8-orbit.json", "scan-e8-orbit.json"]),
    (["commutant", "2A"], ["report-commutant-2A.json"]),
    (["commutant", "2A", "--export-tables"],
     ["algebra-2A.json", "algebra-2A.md", "elements-2A.json",
      "report-commutant-2A.json"]),
    (["minimal"], ["report-minimal.json"]),
    (["minimal", "--export-tables"],
     ["fusion-m3.json", "fusion-m3.md", "fusion-m4.json", "fusion-m4.md",
      "report-minimal.json", "wmodules-m3.json", "wmodules-m3.md",
      "wmodules-m4.json", "wmodules-m4.md"]),
], ids=["involutions-3A", "involutions-e8-orbit", "commutant-2A",
        "commutant-2A-export", "minimal", "minimal-export"])
def test_cli_command_writes_exactly_its_files(tmp_path, argv, files):
    assert cli.main(["--out", str(tmp_path), *argv]) == 0
    assert _files(tmp_path) == files


def test_package_root_imports_no_submodule():
    r = subprocess.run(
        [sys.executable, "-c", "import sys, griess_forge; print(sorted("
         "m for m in sys.modules if m.startswith('griess_forge.')))"],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_cli_involutions_2a_reports_failure(tmp_path, monkeypatch, capsys):
    # a failed check makes the command exit 1 and name the check
    def failing():
        rep = Report("involutions-2A")
        rep.add("sigma-product-order", "order of sigma_v sigma_v'",
                "order of rho^-2", 1, 2)
        return rep

    monkeypatch.setitem(suites.SUITES, "involutions-2A", failing)
    assert cli.main(["--out", str(tmp_path), "involutions", "2A"]) == 1
    assert "sigma-product-order" in capsys.readouterr().out
    # the real suite passes: sigma_v sigma_v' = rho^-2 at the mark-2 node
    r = _cli("--out", str(tmp_path), "involutions", "2A")
    assert r.returncode == 0, r.stdout


def test_cli_involutions_records_a_sigma_map_that_is_not_an_automorphism(
        tmp_path, monkeypatch):
    # -sigma is not an automorphism, but (-s1)(-s2) = s1 s2: the constructor
    # does not check the map, so the suite's own check fails and the
    # product order still passes
    from griess_forge import involutions
    signed = involutions._signed_map

    def negated(space, eigen, minus):
        return [[-x for x in row] for row in signed(space, eigen, minus)]

    monkeypatch.setattr(involutions, "_signed_map", negated)
    assert cli.main(["--out", str(tmp_path), "involutions", "2A"]) == 1
    data = json.loads((tmp_path / "report-involutions-2A.json").read_text())
    by_id = {c["id"]: c for c in data["checks"]}
    assert "error" not in by_id
    assert by_id["sigma-automorphism"]["status"] == "fail"
    assert by_id["sigma-automorphism"]["computed"] == "false: sigma_v, sigma_v'"
    assert by_id["sigma-product-order"]["status"] == "pass"


def test_cli_commutant_records_a_complement_that_is_not_virasoro(
        tmp_path, monkeypatch):
    # a wrong X coefficient in the complement vector is a failed
    # complement-charge check in a written report, not an exception
    from griess_forge.commutants import FDAlgebra
    combo = FDAlgebra.combo

    def wrong_x(self, **coeffs):
        if "X" in coeffs:
            coeffs["X"] = 2 * coeffs["X"]
        return combo(self, **coeffs)

    monkeypatch.setattr(FDAlgebra, "combo", wrong_x)
    assert cli.main(["--out", str(tmp_path), "commutant", "2A"]) == 1
    data = json.loads((tmp_path / "report-commutant-2A.json").read_text())
    by_id = {c["id"]: c for c in data["checks"]}
    assert "error" not in by_id
    assert by_id["complement-charge"]["status"] == "fail"
    assert by_id["complement-charge"]["computed"].endswith(" (not Virasoro)")


def test_cli_minimal_exports(tmp_path):
    r = _cli("--out", str(tmp_path), "minimal", "--export-tables")
    assert r.returncode == 0
    assert (tmp_path / "fusion-m4.json").exists()
    assert (tmp_path / "wmodules-m3.md").exists()
    data = json.loads((tmp_path / "wmodules-m4.json").read_text())
    assert len(data) == 12   # nine untwisted (six split) plus three twisted
    assert sum(1 for w in data if w["kind"] == "twisted") == 3


def test_cli_diagram():
    r = _cli("diagram")
    assert r.returncode == 0
    assert "3/196" in r.stdout


def test_cli_diagram_prints_computed_values(monkeypatch, capsys):
    # the pairings come from tilde_v_pair and the orders from rho_orders, so
    # a wrong value in either shows in the printed diagram
    from griess_forge import commutants
    pair = commutants.tilde_v_pair
    monkeypatch.setattr(commutants, "tilde_v_pair",
                        lambda case: (lambda v, vp: (v, vp.scale(F(2))))(*pair(case)))
    assert cli.main(["diagram"]) == 0
    out = capsys.readouterr().out
    assert "6/7" in out and "2/49" in out and "3/98" in out
    assert "1/49" not in out and "3/196" not in out
    orders = suites.rho_orders
    monkeypatch.setattr(suites, "rho_orders",
                        lambda node: orders(node)[:2] + (5,) if node == "2A"
                        else orders(node))
    assert cli.main(["diagram"]) == 0
    marks = capsys.readouterr().out.split("diagram marks")[1]
    assert "1   5   3   5   1" in marks


def test_cli_scan_export(tmp_path):
    r = _cli("--out", str(tmp_path), "involutions", "e8-orbit")
    assert r.returncode == 0
    data = json.loads((tmp_path / "scan-e8-orbit.json").read_text())
    assert len(data["pairs"]) == 36
    assert all(p["order"] == 3 for p in data["pairs"])
    assert data["violations"] == []


def test_cli_e8_orbit_builds_orbit_and_scan_once(tmp_path, monkeypatch):
    # the suite and the scan export share one orbit closure and one tau scan
    from griess_forge import commutants, involutions
    calls = {"closure": 0, "scan": 0}
    closure, scan = commutants.nine_orbit_algebra, involutions.transposition_scan

    def counted_closure():
        calls["closure"] += 1
        return closure()

    def counted_scan(*args):
        calls["scan"] += 1
        return scan(*args)

    commutants.nine_orbit_algebra.cache_clear()
    suites.nine_orbit_scan.cache_clear()
    monkeypatch.setattr(commutants, "nine_orbit_algebra", counted_closure)
    monkeypatch.setattr(involutions, "transposition_scan", counted_scan)
    assert cli.main(["--out", str(tmp_path), "involutions", "e8-orbit"]) == 0
    assert (tmp_path / "scan-e8-orbit.json").exists()
    assert calls == {"closure": 1, "scan": 1}


def test_cli_report_all_records_a_short_nine_orbit_closure(tmp_path, monkeypatch):
    # a nine-vector closure one vector short is a failed orbit-dim check in
    # a written report; every other report is still written and passes
    from griess_forge import commutants
    closure = commutants.span_closure

    def short(alg, gens):
        closed = closure(alg, gens)
        return closed[:-1] if len(gens) == 9 else closed

    monkeypatch.setattr(commutants, "span_closure", short)
    commutants.nine_orbit_algebra.cache_clear()
    suites.nine_orbit_scan.cache_clear()
    try:
        assert cli.main(["--out", str(tmp_path), "report-all", "--skip-slow"]) == 1
    finally:
        commutants.nine_orbit_algebra.cache_clear()
        suites.nine_orbit_scan.cache_clear()
    written = sorted(p.name for p in tmp_path.glob("report-*.json"))
    assert written == sorted("report-%s.json" % name for name in suites.SUITES)
    failed = {}
    for name in suites.SUITES:
        data = json.loads((tmp_path / ("report-%s.json" % name)).read_text())
        failed.update({(name, c["id"]): c["computed"]
                       for c in data["checks"] if c["status"] == "fail"})
    assert failed == {("involutions-e8-orbit", "orbit-dim"): "11"}


def test_cli_report_all_records_a_short_u3a_orbit_closure(tmp_path, monkeypatch):
    # a three-vector closure one vector short is a failed orbit-dim check
    # with the algebra still matching the table; every report is written
    from griess_forge import commutants
    closure = commutants.span_closure

    def short(alg, gens):
        closed = closure(alg, gens)
        return closed[:-1] if len(gens) == 3 else closed

    monkeypatch.setattr(commutants, "span_closure", short)
    assert cli.main(["--out", str(tmp_path), "report-all", "--skip-slow"]) == 1
    written = sorted(p.name for p in tmp_path.glob("report-*.json"))
    assert written == sorted("report-%s.json" % name for name in suites.SUITES)
    failed = {}
    for name in suites.SUITES:
        data = json.loads((tmp_path / ("report-%s.json" % name)).read_text())
        failed.update({(name, c["id"]): c["computed"]
                       for c in data["checks"] if c["status"] == "fail"})
    assert failed == {("u3a-orbit", "orbit-dim"): "3"}
    data = json.loads((tmp_path / "report-u3a-orbit.json").read_text())
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id["orbit-match"]["status"] == "pass"


def test_cli_properties_records_eigenspaces_that_do_not_fill(tmp_path, monkeypatch):
    # twice the adjoint matrix of v has eigenvalues outside the candidate
    # weights: a failed eigen-complete count in a written report
    from griess_forge import involutions
    ad = involutions.ad_matrix

    monkeypatch.setattr(involutions, "ad_matrix",
                        lambda space, v: [[2 * x for x in row] for row in ad(space, v)])
    assert cli.main(["--out", str(tmp_path), "properties"]) == 1
    data = json.loads((tmp_path / "report-properties.json").read_text())
    by_id = {c["id"]: c for c in data["checks"]}
    assert "error" not in by_id
    assert by_id["eigen-complete"]["status"] == "fail"
    assert int(by_id["eigen-complete"]["computed"]) < 5
    assert [c["id"] for c in data["checks"] if c["status"] == "fail"] == [
        "eigen-complete"]


def test_cli_u3a_orbit_reports_mismatch(tmp_path, monkeypatch):
    # an orbit algebra with one wrong constant is a failed check in a
    # written report, not a crash
    from griess_forge import commutants

    def wrong_orbit():
        fd = commutants.u3a_table()
        xp, xm = fd.index("Xp"), fd.index("Xm")
        fd.mult[xp][xp] = [F(21) if k == xm else F(0) for k in range(fd.dim)]
        return fd, 4

    monkeypatch.setattr(commutants, "u3a_griess", wrong_orbit)
    assert cli.main(["--out", str(tmp_path), "u3a", "--from-orbit"]) == 1
    data = json.loads((tmp_path / "report-u3a-orbit.json").read_text())
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id["orbit-match"]["status"] == "fail"
    assert by_id["orbit-match"]["computed"] == "false"


def test_cli_report_all_records_v_two_ways_mismatch(tmp_path, monkeypatch):
    # a closed form that disagrees with the lattice construction is a failed
    # check in a written report; every other report is still written
    from griess_forge import commutants
    from griess_forge.w2 import W2Element

    monkeypatch.setattr(commutants, "_closed_form_v", lambda case: W2Element())
    assert cli.main(["--out", str(tmp_path), "report-all", "--skip-slow"]) == 1
    data = json.loads((tmp_path / "report-commutant-2A.json").read_text())
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id["v-two-ways"]["status"] == "fail"
    assert by_id["v-two-ways"]["computed"] == "false"
    assert by_id["vv-pairing"]["status"] == "pass"
    written = sorted(p.name for p in tmp_path.glob("report-*.json"))
    assert written == sorted("report-%s.json" % name for name in suites.SUITES)


def test_cli_report_all_records_a_failed_isometry(tmp_path, monkeypatch):
    # an isometry search that finds nothing is a failed triple check and a
    # failed embedding record in written reports, not an "error" check
    from griess_forge import appendix

    monkeypatch.setattr(appendix, "isometry_test", lambda lat_l, lat_m: None)
    appendix.e8_perp_e8_triple.cache_clear()
    try:
        assert cli.main(["--out", str(tmp_path), "report-all", "--skip-slow"]) == 1
    finally:
        appendix.e8_perp_e8_triple.cache_clear()
    written = sorted(p.name for p in tmp_path.glob("report-*.json"))
    assert written == sorted("report-%s.json" % name for name in suites.SUITES)
    checks = {}
    for name in ("appendix", "leech"):
        data = json.loads((tmp_path / ("report-%s.json" % name)).read_text())
        assert "error" not in {c["id"] for c in data["checks"]}, name
        checks.update({c["id"]: c for c in data["checks"]})
    assert checks["triple-R-is-doubled-E8"]["status"] == "fail"
    assert checks["triple-h1-has-order-3"]["status"] == "pass"
    assert checks["embedding-record"]["status"] == "fail"
    assert checks["embedding-record"]["computed"].startswith(
        "false: Rt is doubled E8, ")
    assert checks["leech-det"]["status"] == "pass"


def test_cli_appendix_names_a_broken_su3_identity(tmp_path, monkeypatch):
    # the conjugate diagonal of cube roots breaks s^{-1} tau s = r alone,
    # and the su3-identities check names it
    from griess_forge import su3
    tau, s, r = su3.su3_data()

    assert su3.su3_identities()["s^{-1} tau s = r"]
    monkeypatch.setattr(su3, "su3_data",
                        lambda: (tau, s, su3.conj_transpose(r)))
    assert cli.main(["--out", str(tmp_path), "appendix"]) == 1
    data = json.loads((tmp_path / "report-appendix.json").read_text())
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id["su3-identities"]["status"] == "fail"
    assert by_id["su3-identities"]["computed"] == "false: s^{-1} tau s = r"
    assert [c["id"] for c in data["checks"] if c["status"] == "fail"] == [
        "su3-identities"]


def test_cli_properties_records_a_broken_invariance(tmp_path, monkeypatch):
    # a table constant that breaks the invariance of the form is a failed
    # invariant check in a written report, and the exit status is 1
    from griess_forge import commutants
    table = commutants.u3a_table

    def broken():
        # w1 . X+ = X+ where the table has 2/3 X+
        fd = table()
        w1, xp = fd.index("w1"), fd.index("Xp")
        fd.mult[w1][xp] = fd.mult[xp][w1] = [F(int(k == xp)) for k in range(fd.dim)]
        return fd

    assert table().check_invariance() == []
    assert ("w1", "Xp", "Xm") in broken().check_invariance()
    monkeypatch.setattr(commutants, "u3a_table", broken)
    assert cli.main(["--out", str(tmp_path), "properties"]) == 1
    data = json.loads((tmp_path / "report-properties.json").read_text())
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id["invariant-u3a"]["status"] == "fail"
    assert by_id["invariant-u3a"]["computed"] == "false"
    assert by_id["positive-u3a"]["status"] == "pass"
    for label in ("g2a", "g3a", "u6a"):
        assert by_id["invariant-%s" % label]["status"] == "pass"


def test_cli_report_all_records_a_suite_exception(tmp_path, monkeypatch):
    # an exception inside one suite is one failed "error" check in its
    # report; every other report is still written and the exit status is 1
    from griess_forge import commutants

    def raising():
        raise ValueError("product Xp . Xp leaves the span")

    monkeypatch.setattr(commutants, "u3a_griess", raising)
    assert cli.main(["--out", str(tmp_path), "report-all", "--skip-slow"]) == 1
    data = json.loads((tmp_path / "report-u3a-orbit.json").read_text())
    assert data["suite"] == "u3a-orbit"
    assert data["checks"] == [{
        "id": "error", "description": "the suite runs to its end",
        "anchor": "suite completion", "expected": "no exception",
        "computed": "ValueError: product Xp . Xp leaves the span",
        "status": "fail"}]
    written = sorted(p.name for p in tmp_path.glob("report-*.json"))
    assert written == sorted("report-%s.json" % name for name in suites.SUITES)
    for name in suites.SUITES:
        if name != "u3a-orbit":
            data = json.loads((tmp_path / ("report-%s.json" % name)).read_text())
            assert all(c["status"] != "fail" for c in data["checks"]), name


def test_report_all_builds_each_fixed_object_once(tmp_path, monkeypatch):
    # with the caches cleared, one round builds each node case once, one
    # W2Algebra per distinct Gram matrix, and one each of the E8 side, N,
    # N0, the Leech lattice and the doubled-E8 triple (whose sum is "L")
    from collections import Counter
    from griess_forge import appendix, commutants, gluing, w2
    for cached in (commutants.node_case, commutants.e8_side,
                   commutants.nine_orbit_algebra, suites.nine_orbit_scan,
                   gluing.niemeier_a2_12, gluing.n0_sublattice, gluing.leech,
                   appendix.e8_perp_e8_triple, w2.root_algebra):
        cached.cache_clear()
    built = Counter()

    def count(cls, key):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built[key(self)] += 1

        monkeypatch.setattr(cls, "__init__", counted)

    count(commutants.NodeCase, lambda case: ("NodeCase", case.node))
    count(commutants.E8Side, lambda side: ("E8Side",))
    count(w2.W2Algebra, lambda alg: ("W2Algebra", str(alg.lattice.gram)))
    count(gluing.GlueLattice, lambda gl: ("GlueLattice", gl.lattice.name))
    assert cli.main(["--out", str(tmp_path), "report-all", "--skip-slow"]) == 0
    for key in [("NodeCase", n) for n in ("1A", "2A", "3A")] + [("E8Side",)] + [
            ("GlueLattice", n) for n in ("N(A2^12)", "N0", "Leech", "L")]:
        assert built[key] == 1, key
    algebras = {k: n for k, n in built.items() if k[0] == "W2Algebra"}
    # sqrt(2) A1, A2, A5, D4, E6, E7, E8, all in the root basis: the E8 side
    # shares root_algebra("E", 8)
    assert len(algebras) == 7
    assert set(algebras.values()) == {1}
