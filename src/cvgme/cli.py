"""Command-line front end.

Each experiment regenerates one of the package's reference studies as
machine-readable data: a CSV with one row per sweep point and a JSON summary
embedding the witness reports.  Output is data, not rendered plots; the
``--gnuplot`` flag additionally writes a plain-text plotting script that
references the CSV, so figures can be rebuilt with no extra dependencies.

Exit codes: 0 when the run succeeded and at least one row certified,
2 when the run succeeded but nothing certified, 1 on any error (including
usage errors).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np

from . import families, numerics, witnesses
from .gaussian_ops import ResourceLimitError

#: Fixed six-point settings set used by the kernel scan: a conjugate pair,
#: its negatives, and the shared real part with its negative.
KERNEL_SCAN_XI0 = 10.0 / 11.0 + 1j * 7.0 / 17.0
KERNEL_SCAN_XI = (
    KERNEL_SCAN_XI0,
    -KERNEL_SCAN_XI0,
    KERNEL_SCAN_XI0.conjugate(),
    -KERNEL_SCAN_XI0.conjugate(),
    complex(KERNEL_SCAN_XI0.real),
    complex(-KERNEL_SCAN_XI0.real),
)


class CliError(ValueError):
    """A fatal problem with the requested run (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1, not 2.

    Exit code 2 is reserved for "ran but nothing certified"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


@dataclass
class ExperimentResult:
    columns: list
    rows: list
    reports: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def certified_any(self) -> bool:
        return any(bool(r.get("certified")) for r in self.rows)


def parse_range(text: str):
    """Parse `start:stop:step` (inclusive, floats) or `lo..hi` (inclusive ints)."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise CliError("empty integer range %r" % text)
        return [float(k) for k in range(lo_i, hi_i + 1)]
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError("range must be start:stop:step, got %r" % text)
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise CliError("range bounds and step must be finite, got %r" % text)
        if step <= 0:
            raise CliError("range step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise CliError("empty range %r" % text)
        return [start + k * step for k in range(count)]
    return [float(text)]


def parse_int_range(text: str):
    vals = parse_range(text)
    out = []
    for v in vals:
        if abs(v - round(v)) > 1e-9:
            raise CliError("expected integers in range, got %g" % v)
        out.append(int(round(v)))
    return out


def _fmt_number(value) -> str:
    """CSV cell formatting: '.' decimals, scientific below 1e-4."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    x = float(value)
    if math.isnan(x):
        return "nan"
    if x == 0.0:
        return "0"
    if abs(x) < 1e-4:
        return "%.12e" % x
    return repr(x)


def write_csv(path: str, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_number(row[c]) for c in columns))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_gnuplot(path: str, csv_name: str, columns, title: str) -> None:
    x = columns[0]
    try:
        y_idx = columns.index("value") + 1
    except ValueError:
        y_idx = 2
    script = [
        "# plotting script for %s" % csv_name,
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel '%s'" % x,
        "set ylabel 'value'",
        "set title '%s'" % title,
        "plot '%s' using 1:%d with linespoints" % (csv_name, y_idx),
    ]
    if "threshold" in columns:
        script[-1] += (
            ", '%s' using 1:%d with lines dashtype 2 title 'threshold'"
            % (csv_name, columns.index("threshold") + 1)
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(script) + "\n")


def _limit_threads(n) -> None:
    if n is None:
        return
    if n < 1:
        raise CliError("--threads must be at least 1")
    # numpy is loaded by now, so only threadpoolctl can still resize its pools
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=n)
    except ImportError:
        pass


def _budget(args) -> numerics.OptimizerBudget:
    return numerics.OptimizerBudget(
        restarts=args.restarts,
        max_evals=args.max_evals,
        tol=1e-7,
        seed=args.seed,
    )


def v2d_quadrature(spec: families.FamilySpec, delta: float,
                   radius: float | None = None) -> float:
    """Absolute slice volume by midpoint quadrature of the closed-form slice."""
    if radius is None:
        radius = numerics.tail_radius(families.slice_abs_envelope(spec))
    value = witnesses.abs_slice_integral(spec, numerics.disc_grid(delta, radius))
    scale = (2.0 / math.pi) * (math.pi / 2.0) ** spec.modes
    return scale * value


def _volume_report(spec, value, estimator, extra=None) -> witnesses.WitnessReport:
    thr = witnesses.volume_threshold(spec.modes)
    params = {"quantity": "v2d", "estimator": estimator, "modes": spec.modes}
    if extra:
        params.update(extra)
    return witnesses.WitnessReport(
        witness="A",
        value=value,
        threshold=thr,
        certified=value > thr + witnesses.GUARD,
        family=spec.label(),
        params=params,
        rigorous_error=0.0 if estimator == "closed_form" else None,
    )


#: The value/threshold/violation/certified tail shared by most row layouts.
_TAIL = ["value", "threshold", "violation", "certified"]


def _row(value, threshold, certified=None, violation=None, **lead) -> dict:
    """One result row: the columns `lead` plus the value/threshold/violation/
    certified tail.  The violation defaults to value - threshold and the
    verdict to value > threshold + GUARD."""
    if violation is None:
        violation = value - threshold
    if certified is None:
        certified = value > threshold + witnesses.GUARD
    return dict(lead, value=value, threshold=threshold, violation=violation,
                certified=certified)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _run_closed_form_violation(build, args) -> ExperimentResult:
    """The closed-form slice volume of `build(m)` for each M of --m-range."""
    rows, reports = [], []
    for m in parse_int_range(args.m_range):
        spec = build(m)
        value = families.v2d_closed_form(spec)
        rows.append(_row(value, witnesses.volume_threshold(m), m=m))
        reports.append(_volume_report(spec, value, "closed_form"))
    return ExperimentResult(["m"] + _TAIL, rows, reports)


def _run_cat_violation(args) -> ExperimentResult:
    rows, reports = [], []
    for m in parse_int_range(args.m_range):
        thr = witnesses.volume_threshold(m)
        best = None
        for gamma in parse_range(args.gamma_range):
            spec = families.cat_family(m, gamma, eta=args.eta)
            value = v2d_quadrature(spec, args.delta)
            rows.append(_row(value, thr, m=m, gamma=gamma))
            if best is None or value > best[1]:
                best = (spec, value)
        reports.append(
            _volume_report(best[0], best[1], "quadrature", {"delta": args.delta})
        )
    return ExperimentResult(["m", "gamma"] + _TAIL, rows, reports)


def _run_asym_volumes(args) -> ExperimentResult:
    rows, reports = [], []
    for tag in ("psi1", "psi2"):
        spec = families.psi_family(tag)
        value = v2d_quadrature(spec, args.delta, radius=args.r)
        rows.append(_row(value, witnesses.volume_threshold(spec.modes), state=tag))
        reports.append(_volume_report(spec, value, "quadrature", {"delta": args.delta}))
    return ExperimentResult(["state"] + _TAIL, rows, reports)


def _w_sweep(args):
    """wstate-loss rows: the W state on each M of --m-range."""
    return "m", [(m, partial(families.w_family, m))
                 for m in parse_int_range(args.m_range)]


def _cat_sweep(args):
    """cat-loss rows: the cat state on --m modes for each gamma of --gamma-range."""
    return "gamma", [(gamma, partial(families.cat_family, args.m, gamma))
                     for gamma in parse_range(args.gamma_range)]


def _run_loss_threshold(sweep, args) -> ExperimentResult:
    """The loss threshold eta_max of each row of `sweep(args)`.

    The sweep gives the name of its column and, per row, the column value x
    and the builder of the row's family at loss eta, `build(eta=eta)`.
    """
    column, points = sweep(args)
    rows, reports = [], []
    for x, build in points:
        lossless = build()
        thr = witnesses.volume_threshold(lossless.modes)
        value0 = v2d_quadrature(lossless, args.delta)

        def detects(eta, build=build, thr=thr, value0=value0):
            # the volume margin over the bound: the search interpolates on it
            if eta == 0.0:  # the search's first probe: the lossless family
                return value0 - thr
            return v2d_quadrature(build(eta=eta), args.delta) - thr

        try:
            eta_max = numerics.bisect_threshold(detects, 0.0, 0.5, args.tol)
            found = True
        except numerics.NoBoundaryError:
            eta_max = float("nan")
            found = False
        rows.append(_row(value0, thr, found and value0 > thr + witnesses.GUARD,
                         **{column: x, "eta_max": eta_max}))
        reports.append(
            _volume_report(
                lossless, value0, "quadrature",
                {"delta": args.delta, "eta_max": eta_max},
            )
        )
    return ExperimentResult([column, "eta_max"] + _TAIL, rows, reports)


def _run_rmin_scan(args) -> ExperimentResult:
    rows, reports = [], []
    m = args.m
    thr = witnesses.volume_threshold(m)
    for eta in parse_range(args.eta_range):
        spec = families.w_family(m, eta=eta)

        def detects(r, spec=spec):
            # monotone in r: a larger disc only adds cells of |W| >= 0
            return v2d_quadrature(spec, args.delta, radius=r) - thr

        try:
            r_min = numerics.monotone_boundary(detects, args.r_lo, args.r_hi, args.tol)
            value = v2d_quadrature(spec, args.delta, radius=r_min + args.tol)
        except numerics.NoBoundaryError:
            r_min = float("nan")
            value = v2d_quadrature(spec, args.delta, radius=args.r_hi)
        rows.append(_row(value, thr, eta=eta, r_min=r_min))
        reports.append(
            _volume_report(
                spec, value, "quadrature",
                {"delta": args.delta, "r_min": r_min},
            )
        )
    return ExperimentResult(["eta", "r_min"] + _TAIL, rows, reports)


def _run_numint(args) -> ExperimentResult:
    spec = families.parse_family(args.family)
    deltas = parse_range(args.delta_range) if args.delta_range else [args.delta]
    rows, reports = [], []
    for delta in deltas:
        grid = numerics.disc_grid(delta, args.r, energy_bound=args.energy)
        rep = witnesses.witness_a(spec, grid, spec.modes)
        err = rep.params["error"]
        rows.append(_row(rep.value, rep.threshold, rep.certified,
                         rep.value - err - rep.threshold, delta=delta, error=err))
        reports.append(rep)
    return ExperimentResult(
        ["delta", "value", "error", "threshold", "violation", "certified"],
        rows,
        reports,
    )


def _run_settings(build, args) -> ExperimentResult:
    """The settings-matrix witness of `build(args)`, optimized over its points."""
    rep = witnesses.optimize_witness_b(build(args), args.n_points, _budget(args))
    row = _row(rep.value, rep.threshold, rep.certified, n_points=args.n_points,
               n_settings=rep.n_settings)
    return ExperimentResult(
        ["n_points", "value", "threshold", "violation", "n_settings", "certified"],
        [row],
        [rep],
    )


def zeta_to_eta(zeta: float, modes: int) -> float:
    """Collective-noise parameter -> per-mode transmissivity loss."""
    return (2.0 * (modes - 1) * zeta - (modes - 2)) / modes


def _run_zeta_scan(args) -> ExperimentResult:
    m = args.m
    kernel = families.vacuum_kernel(m - 2)
    budget = _budget(args)
    rows, reports, skipped = [], [], []
    for zeta in parse_range(args.zeta_range):
        eta = zeta_to_eta(zeta, m)
        if eta < 0.0 or eta > 1.0:
            skipped.append(zeta)
            continue
        spec = families.w_family(m, eta=eta)
        rep = witnesses.optimize_witness_e(spec, kernel, args.n_points, budget)
        rows.append(_row(rep.value, rep.threshold, rep.certified, zeta=zeta, eta=eta))
        reports.append(rep)
    notes = {"skipped_zeta": skipped} if skipped else {}
    return ExperimentResult(["zeta", "eta"] + _TAIL, rows, reports, notes)


def kernel_scan_values(spec: families.FamilySpec, s_values) -> np.ndarray:
    """Trace norm of C o K(s) on the fixed six-point settings set."""
    if spec.modes != 3:
        raise CliError("the kernel scan uses a single squeezed ancilla (M = 3)")
    entry = lambda d: families.family_c_entry(spec, d)
    out = np.empty(len(s_values))
    for k, s in enumerate(s_values):
        kernel = families.squeezed_kernel(1, s)
        mat = witnesses.build_settings_matrix(
            entry, KERNEL_SCAN_XI, kernel_fn=lambda d: families.kernel_c_entry(kernel, d)
        )
        out[k] = witnesses.trace_norm_hermitian(mat)
    return out


def _run_kernel_scan(args) -> ExperimentResult:
    spec = families.parse_family(args.family)
    s_values = parse_range(args.s_range)
    values = kernel_scan_values(spec, s_values)
    rows = [_row(float(value), 1.0, s=s) for s, value in zip(s_values, values)]
    k_best = int(np.argmax(values))
    kernel = families.squeezed_kernel(1, s_values[k_best])
    rep = witnesses.witness_e(
        lambda d: families.family_c_entry(spec, d),
        KERNEL_SCAN_XI,
        kernel,
        spec.modes,
        family=spec.label(),
    )
    notes = {"s_at_max": s_values[k_best], "max_value": float(values[k_best])}
    return ExperimentResult(["s"] + _TAIL, rows, [rep], notes)


def _run_mc_witness4(args) -> ExperimentResult:
    spec = families.parse_family(args.family)
    m = spec.modes
    scale = args.cov_scale
    if scale is None:
        scale = (m - 2.0) / (4.0 * m**2)
    alpha = complex(args.alpha)
    scheme = witnesses.RandomDisplacementScheme(
        alpha=alpha, cov=((scale, 0.0), (0.0, scale)), modes=m
    )
    rep = witnesses.witness_d(spec, scheme, args.shots, args.seed)
    err = 3.0 * rep.stderr
    row = _row(rep.value, rep.threshold, rep.certified, rep.threshold - rep.value - err,
               n_samples=args.shots, error=err)
    return ExperimentResult(
        ["n_samples", "value", "error", "threshold", "violation", "certified"],
        [row],
        [rep],
    )


# ---------------------------------------------------------------------------
# registry / parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One experiment: the reference study its output regenerates, its runner,
    its own options as (option, type, default[, help]) in --help order, and
    whether it is stochastic (needs a --seed)."""

    anchor: str
    run: Callable[[argparse.Namespace], ExperimentResult]
    flags: tuple
    stochastic: bool = False


#: Every experiment by name, in the order `cvgme list` and --help show them.
EXPERIMENTS = {
    "wstate-violation": Experiment(
        "violation-vs-mode-count curve for W states",
        partial(_run_closed_form_violation, families.w_family),
        (("--m-range", str, "3..8"),)),
    "cat-violation": Experiment(
        "violation-vs-cat-size curves", _run_cat_violation,
        (("--m-range", str, "3..3"), ("--gamma-range", str, "0.1:2:0.05"),
         ("--eta", float, 0.0), ("--delta", float, 0.01))),
    "dicke-violation": Experiment(
        "violation-vs-mode-count curve for two-excitation Dicke states",
        partial(_run_closed_form_violation, families.dicke2_family),
        (("--m-range", str, "3..8"),)),
    "asym-volumes": Experiment(
        "slice-volume table for the two asymmetric three-mode states",
        _run_asym_volumes, (("--delta", float, 0.01), ("--r", float, 3.0))),
    "wstate-loss": Experiment(
        "loss-threshold curve for W states", partial(_run_loss_threshold, _w_sweep),
        (("--m-range", str, "3..6"), ("--delta", float, 0.005), ("--tol", float, 2e-4))),
    "cat-loss": Experiment(
        "loss-threshold-vs-cat-size curve", partial(_run_loss_threshold, _cat_sweep),
        (("--m", int, 3), ("--gamma-range", str, "0.5:1.5:0.25"),
         ("--delta", float, 0.005), ("--tol", float, 5e-4))),
    "rmin-scan": Experiment(
        "minimal certification radius against loss", _run_rmin_scan,
        (("--m", int, 3), ("--eta-range", str, "0:0.3:0.05"), ("--delta", float, 0.01),
         ("--tol", float, 0.01), ("--r-lo", float, 0.2), ("--r-hi", float, 3.0))),
    "numint": Experiment(
        "discretized-integration certification study", _run_numint,
        (("--family", str, "w:M=3"), ("--delta", float, 0.01), ("--delta-range", str, None),
         ("--r", float, 0.9),
         ("--energy", float, None,
          "mean-photon bound enabling the rigorous error ledger"))),
    "settings-w": Experiment(
        "optimized settings-matrix certification for lossy W states",
        partial(_run_settings, lambda args: families.w_family(args.m, eta=args.eta)),
        (("--m", int, 3), ("--eta", float, 0.03), ("--n-points", int, 4),
         ("--restarts", int, 64), ("--max-evals", int, 2000)),
        stochastic=True),
    "settings-cat": Experiment(
        "optimized settings-matrix certification for lossy cat states",
        partial(_run_settings, lambda args: families.cat_family(
            args.m, args.gamma, eta=args.eta)),
        (("--m", int, 3), ("--gamma", float, 1.0), ("--eta", float, 0.1),
         ("--n-points", int, 5), ("--restarts", int, 64), ("--max-evals", int, 2000)),
        stochastic=True),
    "zeta-scan": Experiment(
        "kernel-witness value against the collective-noise parameter", _run_zeta_scan,
        (("--m", int, 3), ("--zeta-range", str, "0.25:0.6:0.025"), ("--n-points", int, 6),
         ("--restarts", int, 16), ("--max-evals", int, 1500)),
        stochastic=True),
    "kernel-scan": Experiment(
        "kernel-witness value against the squeezing of the kernel", _run_kernel_scan,
        (("--family", str, "cat:M=3,gamma=1"), ("--s-range", str, "0.2:1.2:0.005"))),
    "mc-witness4": Experiment(
        "Monte-Carlo randomized-displacement certification", _run_mc_witness4,
        (("--family", str, "w:M=3"),
         ("--alpha", str, "0", "phase-space point, python complex syntax"),
         ("--cov-scale", float, None,
          "isotropic covariance scale (default: soundness bound)"),
         ("--shots", int, 100000)),
        stochastic=True),
}

# the dispatch table of run_experiment; perfbench/tracing.py wraps its values
_RUNNERS = {name: exp.run for name, exp in EXPERIMENTS.items()}


def build_parser() -> _Parser:
    """The cvgme parser: one subparser per experiment, its own options first."""
    parser = _Parser(
        prog="cvgme",
        description="Phase-space certification of genuine multipartite "
                    "entanglement: reference experiments as CSV/JSON data.",
    )
    sub = parser.add_subparsers(dest="experiment", parser_class=_Parser)
    sub.required = True
    sub.add_parser("list", help="list available experiments").set_defaults(
        experiment="list")
    for name, exp in EXPERIMENTS.items():
        p = sub.add_parser(name, help=exp.anchor)
        for option, type_, default, *help_ in exp.flags:
            p.add_argument(option, type=type_, default=default,
                           help=help_[0] if help_ else None)
        p.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="RNG seed (required for stochastic experiments)")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory (default: current)")
        p.add_argument("--threads", type=int, default=None, metavar="N",
                       help="cap the BLAS/OpenMP thread pools (needs threadpoolctl; "
                            "otherwise set OMP_NUM_THREADS etc. before starting)")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both",
                       help="which files to write (default: both)")
        p.add_argument("--gnuplot", action="store_true",
                       help="also write a plotting script referencing the CSV")
    return parser


def _config_dict(args) -> dict:
    skip = {"experiment"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = val if not isinstance(val, (list, tuple)) else list(val)
    return out


def run_experiment(args) -> int:
    """Run one experiment, write its artifacts, and return the exit code."""
    name = args.experiment
    if EXPERIMENTS[name].stochastic and args.seed is None:
        raise CliError("experiment %r is stochastic; a --seed is required" % name)
    _limit_threads(args.threads)
    result = _RUNNERS[name](args)

    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, name)
    csv_name = name + ".csv"
    want_csv = args.format in ("csv", "both") or args.gnuplot
    if want_csv:
        write_csv(base + ".csv", result.columns, result.rows)
    if args.format in ("json", "both"):
        payload = {
            "experiment": name,
            "config": _config_dict(args),
            "columns": result.columns,
            "rows": result.rows,
            "certified_any": result.certified_any,
            "reports": [rep.to_json_dict() for rep in result.reports],
        }
        payload.update(result.notes)
        with open(base + ".json", "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
    if args.gnuplot:
        write_gnuplot(base + ".gp", csv_name, result.columns, name)

    n_cert = sum(1 for r in result.rows if r.get("certified"))
    print(
        "%s: %d row(s), %d certified -> %s"
        % (name, len(result.rows), n_cert, args.out)
    )
    return 0 if result.certified_any else 2


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError("not JSON serializable: %r" % type(obj))


@cache
def _parser() -> _Parser:
    """The parser that every main() call in this process shares: building it
    takes milliseconds, a parse tens of microseconds."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.experiment == "list":
        for name, exp in EXPERIMENTS.items():
            flags = [flag[0] for flag in exp.flags]
            if exp.stochastic:
                flags.append("--seed")
            print("%-18s %s" % (name, exp.anchor))
            print("%-18s   flags: %s" % ("", " ".join(flags)))
        return 0
    try:
        return run_experiment(args)
    except (ValueError, OSError) as exc:
        print("cvgme: error: %s" % exc, file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print("cvgme: resource error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
