"""One workload in its own process: set-up, timed rounds, then checks.

Started by ``run.py`` with the BLAS/OpenMP thread variables already set.  A
round is one pass over the workload's fixed list of operations, one at a time,
back to back.  Rounds repeat while the next one still fits in ``--seconds``
(at least one runs).  Outputs are checked after every round has run: the
first successful output of each operation against :mod:`reference`, later
ones for being identical to it.  The last line of standard output is a JSON
object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_cvgme():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from cvgme import cli, families, gaussian_ops, numerics, phase_space, witnesses

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise ImportError("cvgme was not imported from %s" % src)
    return {"cli": cli, "families": families, "gaussian_ops": gaussian_ops,
            "numerics": numerics, "phase_space": phase_space, "witnesses": witnesses}


def _fingerprint(output):
    return json.dumps(output, sort_keys=True,
                      default=lambda z: [z.real, z.imag] if isinstance(z, complex) else z)


def _environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                        "PYTHONHASHSEED")},
    }


def run_rounds(ops, seconds, tracer):
    """Run whole rounds.

    Returns the outputs of each round, every operation's time in order, each
    round's busy time, the per-layer values of each round (traced runs) and
    the errors of failed operations.
    """
    outputs, op_times, round_times, layers, errors = [], [], [], [], []
    started = time.perf_counter()
    longest = 0.0
    while True:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        round_start = time.perf_counter()
        round_out, busy = [], 0.0
        for op in ops:
            begin = time.perf_counter()
            try:
                raw = tracer.run_op(op.run)[0] if tracer else op.run()
            except Exception as exc:  # an operation that raises counts as failed
                op_times.append(time.perf_counter() - begin)
                busy += op_times[-1]
                errors.append("%s: %s: %s" % (op.label, type(exc).__name__, exc))
                round_out.append(None)
                continue
            op_times.append(time.perf_counter() - begin)
            busy += op_times[-1]
            output = op.collect(raw)
            if tracer and isinstance(output, dict) and "bytes" in output:
                tracer.add("cli.write.bytes", output["bytes"])
            round_out.append(output)
        outputs.append(round_out)
        round_times.append(busy)
        if tracer:
            after = resource.getrusage(resource.RUSAGE_SELF)
            row = tracer.take()
            row["trace.round_s"] = busy
            row["process.cpu_s"] = (after.ru_utime + after.ru_stime
                                    - usage.ru_utime - usage.ru_stime)
            row["process.minor_faults"] = float(after.ru_minflt - usage.ru_minflt)
            layers.append(row)
        longest = max(longest, time.perf_counter() - round_start)
        if time.perf_counter() - started + longest > seconds:
            return outputs, op_times, round_times, layers, errors


def check_outputs(ops, outputs):
    """Check every output; return the list of problems found."""
    problems = []
    for i, op in enumerate(ops):
        reference = None
        for round_no, round_out in enumerate(outputs):
            output = round_out[i]
            if output is None:
                continue
            if reference is None:
                try:
                    op.check(output)
                except Exception as exc:  # any failed check marks the run incorrect
                    problems.append("%s: %s: %s" % (op.label, type(exc).__name__, exc))
                reference = _fingerprint(output)
            elif _fingerprint(output) != reference:
                problems.append("%s: round %d output differs from round 1"
                                % (op.label, round_no + 1))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="wall-clock time at which the parent started this process")
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cvgme = _import_cvgme()
    import workloads

    os.makedirs(args.out, exist_ok=True)
    ops = workloads.build(args.workload, cvgme, args.out, args.seed)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(cvgme)
    outputs, op_times, round_times, layers, errors = run_rounds(ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_outputs(ops, outputs)
    # each operation's median over the rounds, so that a slow spell of the
    # machine during one round moves the figures less
    per_op = {op.label: statistics.median(op_times[i::len(ops)])
              for i, op in enumerate(ops)}

    result = {
        "correct": not problems,
        "attempted": len(op_times),
        "failed": len(errors),
        "rounds": len(round_times),
        "setup_s": setup_s,
        "run_s": sum(per_op.values()),
        "op_p50_s": statistics.median(per_op.values()),
        "peak_rss_mb": peak_rss_mb,
        "round_times": round_times,
        "op_s": per_op,
        "problems": problems[:20],
        "errors": errors[:20],
        "env": _environment(),
    }
    if tracer:
        result["layers"] = {name: statistics.median(row[name] for row in layers)
                            for name in layers[0]}
        result["layer_rounds"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
