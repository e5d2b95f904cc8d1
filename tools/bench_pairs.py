"""Alternating base/change runs of the benchmark, summarised as one JSON file.

    python3 tools/bench_pairs.py --base REF --out BENCH_N.json

The change is the working tree this script sits in: the files that
``git ls-files -co --exclude-standard`` lists, copied into one temporary
directory.  The base is the committed tree of REF, exported with ``git
archive`` into another next to it.  So both sides run from the same kind
of path, and a run leaves nothing in the repository; a run stopped with
SIGTERM removes both directories and the benchmark processes it started.
Each tree runs its own unchanged ``bench/run.py`` for the run length that
BENCHMARK.json sets.  For every workload of BENCHMARK.json, pair i of
PAIRS runs both trees with seed SEED + i, base first in even pairs and
change first in odd ones, so slow drift of the machine falls on both
sides.  Then TRACED_PAIRS pairs run with ``--trace 1``.

The output holds, per workload and end-to-end metric, each side's runs,
median and quartiles and the number of pairs the change won; whether
every run was correct and the operations attempted and failed; and the
medians of every traced per-layer figure.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS, TRACED_PAIRS, SEED = 10, 3, 1


def export(ref, dest):
    """The committed tree of ref, unpacked under dest; returns its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "archive", "--output", archive, commit],
                   cwd=ROOT, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return commit, tree


def copy_worktree(dest):
    """The files of the working tree that git does not ignore, tracked or
    not, copied under dest; returns the copy's root."""
    names = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"],
                           cwd=ROOT, check=True, capture_output=True).stdout
    tree = os.path.join(dest, "tree")
    for name in os.fsdecode(names).split("\0"):
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):    # a tracked file may be deleted
            os.makedirs(os.path.dirname(os.path.join(tree, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(tree, name))
    return tree


def bench(tree, workload, seed, seconds, trace):
    """The JSON summary that tree's bench/run.py prints last."""
    # its own process group, so that an interrupted run stops its workers too
    proc = subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("bench/run.py in %s printed nothing:\n%s"
                           % (tree, stderr[-2000:]))
    return json.loads(lines[-1])


def summary(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(workload, trees, seconds, metrics):
    sides = ("base", "change")
    runs = {side: [] for side in sides}
    for i in range(PAIRS):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            runs[side].append(bench(trees[side], workload, SEED + i, seconds, 0))
            print("%s pair %d %s: %s" % (workload, i, side, json.dumps(
                runs[side][-1]["metrics"])), file=sys.stderr)
    out = {"pairs": PAIRS, "end_to_end": {}}
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]]
                  for side in sides}
        sign = 1 if m["better"] == "lower" else -1
        out["end_to_end"][m["name"]] = dict(
            unit=m["unit"], better=m["better"],
            change_wins=sum(sign * (c - b) < 0
                            for b, c in zip(values["base"], values["change"])),
            **{side: summary(values[side]) for side in sides})
    for key in ("correct", "attempted", "failed"):
        out[key] = {side: [r[key] for r in runs[side]] for side in sides}
    traced = {side: [] for side in sides}
    for i in range(TRACED_PAIRS):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            traced[side].append(bench(trees[side], workload, SEED + i,
                                      seconds, 1)["metrics"])
    out["traced"] = {n: {side: statistics.median(t[n]["value"] for t in traced[side])
                         for side in sides} for n in traced["base"][0]}
    return out


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base tree")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    # SystemExit unwinds the with block, which removes both directories
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_tmp, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_tmp:
        base_commit, base_tree = export(args.base, base_tmp)
        trees = {"base": base_tree, "change": copy_worktree(change_tmp)}
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
        result = {
            "base": base_commit,
            "change": "working tree on %s" % head,
            "command": "bench/run.py --seconds %d --trace 0|1" % seconds,
            "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                        "system": platform.system()},
            "workloads": {w["name"]: compare(w["name"], trees, seconds,
                                             spec["end_to_end"])
                          for w in spec["workloads"]},
        }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
