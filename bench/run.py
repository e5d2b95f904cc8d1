"""Benchmark of griess-forge: one workload, checked, with its metrics.

    python3 bench/run.py --workload report-fast|e8-spectra
                         --seed N --seconds S --trace 0|1

Runs whole rounds of the workload until S seconds have passed (at least
one round), each round in a fresh single-threaded interpreter, since the
package caches state at module level.  In untraced runs a further
SETUP_REPEATS interpreters only set up, so set-up time is a median of
several.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0
the metrics are the end-to-end ones (medians over rounds); with --trace 1
they are the per-layer ones from wrappers around the package's public
functions, and the full span table goes to
bench/out/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from spans import PER_LAYER

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("report-fast", "e8-spectra")
SETUP_REPEATS = 6
TIME_LIMIT = 175.0   # seconds for the whole run, workers included


def spawn(args, deadline, setup_only=False):
    """Run one worker to its end and return its result, with setup_s."""
    fd, result_path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=OUT)
    os.close(fd)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(0 if setup_only else args.trace), "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    # measure the default serial path of report-all
    env.pop("GRIESS_FORGE_THREADS", None)
    try:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError("worker exited with status %d" % code)
        with open(result_path) as f:
            result = json.load(f)
    finally:
        os.remove(result_path)
    result["setup_s"] = result["ready"] - start
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "griess_forge")):
        print("error: no griess_forge source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)

    start = time.monotonic()
    deadline = start + TIME_LIMIT
    rounds = []
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(spawn(args, deadline))

    errors = [e for r in rounds for e in r["errors"]]
    for e in errors:
        print("check failed: %s" % e, file=sys.stderr)
    if args.trace:
        units = dict(PER_LAYER)
        # counts repeat exactly between rounds; keep them whole numbers
        metrics = {name: (statistics.median_low if units[name] == "count"
                          else statistics.median)(r["layers"][name] for r in rounds)
                   for name in rounds[0]["layers"]}
        trace_path = os.path.join(OUT, "trace-%s-%d.json" % (args.workload, args.seed))
        with open(trace_path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": [{"wall_s": r["wall_s"], "table": r["table"]}
                                  for r in rounds]}, f, indent=1)
        out = {name: {"value": value, "unit": units[name]}
               for name, value in metrics.items()}
    else:
        setups = [r["setup_s"] for r in rounds]
        setups += [spawn(args, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUP_REPEATS)]
        out = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not errors,
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": out}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
