"""The report bytes of the report-writing commands against the committed
manifest ``tests/data/reports.sha256``: in this process, and in fresh
processes under two hash seeds and under ``python -O`` (which drops assert
statements, so no check may rely on one).  ``tests/report_bytes.py`` says
how the manifest is made."""

import os
import subprocess
import sys

import pytest

import report_bytes as rb

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _assert_matches_manifest(found):
    with open(rb.MANIFEST) as f:
        expected = rb.read_manifest(f.read())
    diff = rb.differences(expected, found)
    assert not diff, "report bytes differ from the manifest:\n" + "\n".join(diff)


def test_report_bytes_match_the_manifest(tmp_path):
    out = str(tmp_path)
    _assert_matches_manifest(rb.digests(out, rb.write_reports(out)))


@pytest.mark.parametrize("flags, seed", [([], "1"), ([], "2"), (["-O"], "random")],
                         ids=["hash-seed-1", "hash-seed-2", "optimized"])
def test_report_bytes_match_the_manifest_in_a_fresh_process(flags, seed):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
    run = subprocess.run([sys.executable, *flags, rb.__file__],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    _assert_matches_manifest(rb.read_manifest(run.stdout))


def test_a_mismatch_names_each_file_and_each_changed_check():
    expected = {"a.md": "1", "report-x.json": "1", "report-x.json#p": "1",
                "report-x.json#q": "1", "report-y.json": "1", "report-y.json#r": "1"}
    found = {"b.md": "1", "report-x.json": "2", "report-x.json#p": "1",
             "report-x.json#q": "2", "report-x.json#s": "1", "report-y.json": "1",
             "report-y.json#r": "1"}
    assert rb.differences(expected, found) == [
        "a.md: not written",
        "b.md: not in the manifest",
        "report-x.json: bytes changed; checks q, s",
    ]
