"""tools/bench_pairs.py: a run stopped with SIGTERM leaves no exported tree."""

import os
import signal
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the run, with an export that blocks once its tree exists
_SCRIPT = textwrap.dedent("""
    import os, sys, time
    sys.path.insert(0, os.path.join(%r, "tools"))
    import bench_pairs

    def export(ref, dest):
        os.makedirs(os.path.join(dest, "tree"))
        print("exporting", flush=True)
        time.sleep(120)

    bench_pairs.export = export
    bench_pairs.main(["--base", "HEAD", "--out", sys.argv[1]])
""") % ROOT


def test_sigterm_during_export_removes_the_temporary_trees(tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    out = tmp_path / "bench.json"
    proc = subprocess.Popen([sys.executable, "-c", _SCRIPT, str(out)],
                            stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, TMPDIR=str(tmp)))
    try:
        assert proc.stdout.readline() == "exporting\n"
        base, change = sorted(p.name for p in tmp.iterdir())
        assert base.startswith("bench-base-") and change.startswith("bench-change-")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert list(tmp.iterdir()) == []
    assert not out.exists()
