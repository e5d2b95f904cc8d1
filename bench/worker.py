"""One round of one workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --result PATH
                            [--setup-only]

Imports the package from the checkout's ``src``, builds the inputs, runs
the timed part (under the Tracer when --trace is 1), checks the output
and writes one JSON object to PATH.  ``ready`` is the CLOCK_MONOTONIC
time at which the timed part began, so the parent can take set-up time
from the moment it started this process.  With --setup-only the worker
stops at that moment.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from spans import Tracer

    setup, run, check = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="round-", dir=OUT)
    try:
        inputs = setup(args.seed, workdir)
        tracer = Tracer().install() if args.trace else None
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        result = {"ready": ready}
        if not args.setup_only:
            t0 = time.perf_counter()
            output = run(inputs)
            wall = time.perf_counter() - t0
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer:
                tracer.uninstall()
            attempted, failed, errors = check(inputs, output)
            result.update(wall_s=wall, peak_rss_mb=peak_kb / 1024,
                          attempted=attempted, failed=failed, errors=errors)
            if tracer:
                result.update(layers=tracer.metrics(), table=tracer.table())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
