"""Benchmark of cvgme's four sweep patterns.

    python3 perfbench/run.py --workload loss-scan --seed 1 --seconds 26 --trace 0

Runs one workload (or, without ``--workload``, every workload one after the
other), each in its own process, and prints as its last line of standard
output one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(set-up time, time per pass over the workload, median time per operation,
peak memory); with ``--trace 1`` they are the per-layer ones of
``perfbench/tracing.py``.  A record of the run, with its environment, is
written to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("loss-scan", "grid-sweep", "settings-opt", "fock-oracle")

#: Set-up is measured in this many processes: the worker plus probes that
#: only import and build the inputs.
SETUP_SAMPLES = 3
#: Everything the child processes of one run may take, in seconds.
DEADLINE_S = 170.0

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(args, workload, deadline, setup_only):
    """Start one worker process and return its result object."""
    env = dict(os.environ, **THREAD_ENV)
    out_dir = os.path.join(OUT, workload)
    t0 = time.time()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0), "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker for %s failed (exit %d): %s"
                           % (workload, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def run_workload(args, workload):
    deadline = time.monotonic() + DEADLINE_S
    setups = [run_worker(args, workload, deadline, True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = run_worker(args, workload, deadline, False)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    result["env"]["commit"] = git_commit()
    if args.trace:
        import tracing

        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in tracing.METRICS.items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                          % (workload, args.seed, args.trace))
    with open(record, "w", encoding="ascii") as fh:
        json.dump({"workload": workload, "seed": args.seed, "seconds": args.seconds,
                   "summary": summary, "detail": result}, fh, indent=1)
    print(json.dumps({"workload": workload, "env": result["env"],
                      "problems": result["problems"], "errors": result["errors"]}),
          file=sys.stderr)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them, one after the other)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cvgme", "__init__.py")):
        print("perfbench: no cvgme sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    try:
        if args.workload:
            print(json.dumps(run_workload(args, args.workload)))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            summary = run_workload(args, workload)
            print(json.dumps(dict(summary, workload=workload)))
            combined["correct"] = combined["correct"] and summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            for name, metric in summary["metrics"].items():
                combined["metrics"]["%s/%s" % (workload, name)] = metric
        print(json.dumps(combined))
        return 0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
