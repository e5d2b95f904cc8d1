"""Report bytes of the ten report-writing commands, as sha256 digests.

``write_reports(outdir)`` runs each command of ``COMMANDS`` with ``--md``
through ``cli.main`` in this process and returns ``diagram``'s stdout.
``digests(outdir, diagram)`` hashes every file with its ``"elapsed_ms"``
line dropped, every check of a JSON report on its own (keyed
``<file>#<check id>``, so that a mismatch names the check), and the
diagram text.

Run as a script, it writes the reports to a temporary directory and prints
the manifest, one ``<sha256>  <key>`` line per digest::

    PYTHONPATH=src python tests/report_bytes.py > tests/data/reports.sha256

A change that means to alter report bytes regenerates the manifest this way
and names each changed file in its change log.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from griess_forge import cli

TETRACODE = "name: tetra\nlength: 4\ngenerators:\n1 1 1 0\n1 -1 0 1\n"

COMMANDS = [
    ["report-all", "--skip-slow"],
    ["commutant", "1A", "--export-tables"],
    ["commutant", "2A", "--export-tables"],
    ["commutant", "3A", "--export-tables"],
    ["involutions", "e8-orbit"],
    ["minimal", "--export-tables"],
    ["lattice", "niemeier-a2-12", "--short-vectors", "2"],
    ["lattice", "sqrt2E8", "--short-vectors", "4"],
    ["code", "TETRACODE"],
    ["fusion", "4", "5", "1", "5", "1"],
]

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "data", "reports.sha256")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def write_reports(outdir):
    """Run every command into outdir; return diagram's stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        code_file = os.path.join(tmp, "tetracode.txt")
        with open(code_file, "w") as f:
            f.write(TETRACODE)
        with contextlib.redirect_stdout(io.StringIO()):
            for cmd in COMMANDS:
                argv = [code_file if t == "TETRACODE" else t for t in cmd]
                if cli.main(["--out", outdir, "--md", *argv]) != 0:
                    raise RuntimeError("command %s failed" % " ".join(cmd))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["diagram"])
    return out.getvalue()


def digests(outdir, diagram):
    """{key: sha256} for every file in outdir, every JSON check and diagram."""
    found = {"diagram (stdout)": _sha(diagram)}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name)) as f:
            text = f.read()
        found[name] = _sha("".join(line for line in text.splitlines(True)
                                   if '"elapsed_ms"' not in line))
        if name.startswith("report-") and name.endswith(".json"):
            for c in json.loads(text)["checks"]:
                found["%s#%s" % (name, c["id"])] = _sha(json.dumps(c, sort_keys=True))
    return found


def format_manifest(found):
    return "".join("%s  %s\n" % (sha, key) for key, sha in sorted(found.items()))


def read_manifest(text):
    return {key: sha for sha, key in (line.split("  ", 1)
                                      for line in text.splitlines() if line)}


def differences(expected, found):
    """One line per file whose digest differs, naming the changed checks."""
    lines = []
    for key in sorted(set(expected) | set(found)):
        if "#" in key or expected.get(key) == found.get(key):
            continue
        if key not in found:
            lines.append("%s: not written" % key)
        elif key not in expected:
            lines.append("%s: not in the manifest" % key)
        else:
            checks = sorted(k.split("#", 1)[1] for k in set(expected) | set(found)
                            if k.startswith(key + "#")
                            and expected.get(k) != found.get(k))
            lines.append("%s: bytes changed%s" % (
                key, "; checks " + ", ".join(checks) if checks else ""))
    return lines


def main():
    with tempfile.TemporaryDirectory() as outdir:
        sys.stdout.write(format_manifest(digests(outdir, write_reports(outdir))))


if __name__ == "__main__":
    main()
