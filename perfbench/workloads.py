"""The four workloads: their operations, inputs drawn from the seed, and checks.

A workload is a fixed list of operations.  Inputs come only from
``random.Random(seed)``; cvgme sees nothing but the generated arguments.  Every
CLI flag an experiment accepts is passed explicitly, except two whose absence
is the only way to ask for what the workload wants: the ``--gnuplot`` switch,
and ``--energy`` on the heuristic ``numint`` rows.

Checks compare each output with :mod:`reference`, or with a property the
method must have.  They raise :class:`CheckError`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import numpy as np

import reference as ref

#: Loss thresholds of W(M), M = 3..6, at delta 0.005.
W_LOSS_THRESHOLDS = {3: 0.3548, 4: 0.2446, 5: 0.1522, 6: 0.0710}
#: c07 optimum of the settings witness for W(3, eta=0.03) with 4 points.
C07_OPTIMUM = 1.0683364156772102

#: Lossless cat sizes with a clear violation, one per mode count.
CAT_SIZES = {3: 0.83, 4: 0.76, 5: 0.72, 6: 0.71}


class CheckError(AssertionError):
    """An output of cvgme disagrees with its reference."""


class OpError(RuntimeError):
    """An operation did not complete (counted as failed, not as incorrect)."""


def expect(condition, message, *args):
    if not condition:
        raise CheckError(message % args if args else message)


def close(got, want, tol, what):
    expect(abs(got - want) <= tol, "%s: got %r, want %r (tol %g)", what, got, want, tol)


class Op:
    """One operation: `run()` is timed; `collect(raw)` and `check(output)` are not."""

    def __init__(self, label, run, check, collect=None):
        self.label = label
        self.run = run
        self.check = check
        self.collect = collect or (lambda raw: raw)


# ---------------------------------------------------------------------------
# CLI operations


class CliOps:
    """Builds operations that call ``cli.main`` and read the JSON it writes."""

    def __init__(self, cvgme, out_dir, rng):
        self.cli = cvgme["cli"]
        self.out_dir = out_dir
        self.rng = rng

    def op(self, label, experiment, flags, check):
        argv = [experiment] + [str(x) for x in flags] + [
            "--seed", str(self.rng.randrange(2 ** 31)), "--out", self.out_dir,
            "--threads", "1", "--format", "both"]
        base = os.path.join(self.out_dir, experiment)

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
            if code not in (0, 2):
                raise OpError("cvgme %s exited with %d" % (" ".join(argv), code))
            return code

        def collect(code):
            with open(base + ".json", encoding="ascii") as fh:
                payload = json.load(fh)
            return {"code": code, "rows": payload["rows"], "reports": payload["reports"],
                    "bytes": os.path.getsize(base + ".json") + os.path.getsize(base + ".csv")}

        def check_all(output):
            expect(output["code"] == (0 if any(r["certified"] for r in output["rows"]) else 2),
                   "%s: exit code %d does not match its certified rows", label,
                   output["code"])
            check(output)

        return Op(label, run, check_all, collect)


def _uniform(rng, lo, hi, digits=4):
    return round(rng.uniform(lo, hi), digits)


def _same_radii(families, base):
    return [ref.auto_radius(f) for f in families] == [ref.auto_radius(f) for f in base]


def _draw_keeping_radii(rng, draw, families_of, base):
    """Draw parameters until every lattice they lead to has the radius of `base`.

    The automatic radius moves in steps of 0.25, and a step changes the number
    of cells by a fifth or more; keeping it fixed keeps the work of a
    seed-drawn input the same as that of every other seed.
    """
    for _ in range(100):
        params = draw()
        if _same_radii(families_of(*params), families_of(*base)):
            return params
    return base


def _check_crossing(family_at, lo, hi, threshold, delta, what):
    """The reference volume is above `threshold` at lo and not above it at hi."""
    v_lo = ref.family_volume(family_at(lo), delta)
    v_hi = ref.family_volume(family_at(hi), delta)
    expect(v_lo > threshold and not v_hi > threshold,
           "%s: volume %r at %r and %r at %r do not cross %r", what, v_lo, lo, v_hi,
           hi, threshold)


def loss_scan(cvgme, out_dir, rng):
    """cat-loss at two grid/tolerance settings and wstate-loss, one search per op."""
    cli = CliOps(cvgme, out_dir, rng)
    ops = []

    def cat_loss(m, gamma, delta, tol):
        def check(output):
            (row,) = output["rows"]
            thr = ref.volume_threshold(m)
            close(row["threshold"], thr, 1e-15, "threshold")
            close(row["value"], ref.family_volume(("cat", m, gamma, 0.0), delta), 1e-9,
                  "lossless cat(%d, %g) volume" % (m, gamma))
            eta = row["eta_max"]
            expect(math.isfinite(eta), "cat(%d, %g): no loss threshold", m, gamma)
            _check_crossing(lambda e: ("cat", m, gamma, e), eta - tol, eta + tol, thr,
                            delta, "cat(%d, %g) threshold" % (m, gamma))
            expect(row["certified"] == (row["value"] > thr + ref.GUARD),
                   "cat(%d, %g): certified flag", m, gamma)

        ops.append(cli.op("cat-loss M=%d delta=%g" % (m, delta), "cat-loss",
                          ["--m", m, "--gamma-range", "%.4f" % gamma, "--delta", delta,
                           "--tol", tol], check))

    def gamma_near(m, size):
        return _draw_keeping_radii(
            rng, lambda: (_uniform(rng, size - 0.01, size + 0.01),),
            lambda gamma: [("cat", m, gamma, k / 20.0) for k in range(11)], (size,))[0]

    cat_loss(6, gamma_near(6, CAT_SIZES[6]), 0.0025, 2e-6)
    for m, size in CAT_SIZES.items():
        cat_loss(m, gamma_near(m, size), 0.005, 5e-4)

    for m, target in W_LOSS_THRESHOLDS.items():
        def check(output, m=m, target=target, delta=0.005, tol=2e-4):
            (row,) = output["rows"]
            thr = ref.volume_threshold(m)
            close(row["value"], ref.family_volume(("w", m, 0.0), delta), 1e-9,
                  "lossless W(%d) volume" % m)
            eta = row["eta_max"]
            close(eta, target, 5e-4, "W(%d) loss threshold" % m)
            _check_crossing(lambda e: ("w", m, e), eta - tol, eta + tol, thr, delta,
                            "W(%d) threshold" % m)
            expect(row["certified"] == (row["value"] > thr + ref.GUARD),
                   "W(%d): certified flag", m)

        ops.append(cli.op("wstate-loss M=%d" % m, "wstate-loss",
                          ["--m-range", "%d..%d" % (m, m), "--delta", 0.005, "--tol", 2e-4],
                          check))
    return ops


def grid_sweep(cvgme, out_dir, rng):
    """numint (rigorous and heuristic), rmin-scan and cat-violation, delta >= 0.005."""
    cli = CliOps(cvgme, out_dir, rng)
    ops = []

    closed = {"w": lambda m: ref.w_volume(m), "dicke2": ref.dicke_volume}

    def numint(tag, m, delta_range, radius, energy):
        def check(output):
            whole_plane = (math.pi / 2.0) * closed[tag](m)
            for row in output["rows"]:
                what = "numint %s:M=%d delta=%g" % (tag, m, row["delta"])
                if energy is not None:
                    expect(row["value"] - row["error"] <= whole_plane + 1e-12,
                           "%s: value - error %r exceeds the whole-plane integral %r",
                           what, row["value"] - row["error"], whole_plane)
                if radius >= 3.0:
                    close((2.0 / math.pi) * row["value"], closed[tag](m), 1e-4, what)
                expect(row["certified"] == (row["value"] - row["error"]
                                            > ref.integral_threshold(m) + ref.GUARD),
                       "%s: certified flag", what)
            kinds = {rep["params"]["error_kind"] for rep in output["reports"]}
            expect(kinds == {"rigorous" if energy else "heuristic"},
                   "numint %s:M=%d: error kinds %s", tag, m, sorted(kinds))

        flags = ["--family", "%s:M=%d" % (tag, m), "--delta", delta_range.split(":")[0],
                 "--delta-range", delta_range, "--r", radius]
        if energy is not None:
            flags += ["--energy", energy]
        ops.append(cli.op("numint %s:M=%d r=%g %s" % (tag, m, radius, "rigorous" if energy
                                                      else "heuristic"),
                          "numint", flags, check))

    numint("w", 3, "0.005:0.0065:0.0005", 0.9, 1.0)
    for tag, m, energy in (("w", 3, 1.0), ("w", 4, 1.0), ("dicke2", 3, 2.0),
                           ("dicke2", 4, 2.0)):
        numint(tag, m, "0.005:0.02:0.005", 3.0, energy)
    for tag, m in (("w", 5), ("dicke2", 5)):
        numint(tag, m, "0.005:0.02:0.005", 3.0, None)

    for m, centre in ((3, 0.03), (3, 0.1), (3, 0.17), (3, 0.24), (4, 0.05), (4, 0.15)):
        eta = _uniform(rng, centre - 0.005, centre + 0.005)

        def check(output, m=m, eta=eta, delta=0.005, tol=0.01):
            (row,) = output["rows"]
            thr = ref.volume_threshold(m)
            family = ("w", m, eta)
            r_min = row["r_min"]
            expect(math.isfinite(r_min), "rmin-scan eta=%g: no radius", eta)
            v_lo = ref.family_volume(family, delta, r_min - tol)
            v_hi = ref.family_volume(family, delta, r_min + tol)
            expect(not v_lo > thr and v_hi > thr,
                   "rmin-scan eta=%g: volume %r at %r and %r at %r do not cross %r",
                   eta, v_lo, r_min - tol, v_hi, r_min + tol, thr)
            close(row["value"], v_hi, 1e-9, "rmin-scan eta=%g value" % eta)
            expect(row["certified"] == (row["value"] > thr + ref.GUARD),
                   "rmin-scan eta=%g: certified flag", eta)

        ops.append(cli.op("rmin-scan M=%d eta~%g" % (m, centre), "rmin-scan",
                          ["--m", m, "--eta-range", "%.4f" % eta, "--delta", 0.005,
                           "--tol", 0.01, "--r-lo", 0.2, "--r-hi", 3.0], check))

    for m in (3, 4, 5, 6):
        start, eta = _draw_keeping_radii(
            rng, lambda: (_uniform(rng, 0.5, 0.52), _uniform(rng, 0.02, 0.06)),
            lambda start, eta: [("cat", m, start + 0.1 * k, eta) for k in range(11)],
            (0.51, 0.04))
        gamma_range = "%.4f:%.4f:0.1" % (start, start + 1.05)

        def check(output, m=m, eta=eta, delta=0.005):
            thr = ref.volume_threshold(m)
            expect(len(output["rows"]) == 11, "cat-violation: %d rows",
                   len(output["rows"]))
            for row in output["rows"]:
                family = ("cat", m, row["gamma"], eta)
                close(row["value"], ref.family_volume(family, delta), 1e-9,
                      "cat-violation %r" % (family,))
                expect(row["certified"] == (row["value"] > thr + ref.GUARD),
                       "cat-violation %r: certified flag", family)

        ops.append(cli.op("cat-violation M=%d" % m, "cat-violation",
                          ["--m-range", "%d..%d" % (m, m), "--gamma-range", gamma_range,
                           "--eta", "%.4f" % eta, "--delta", 0.005], check))
    return ops


def settings_opt(cvgme, out_dir, rng):
    """settings-w, settings-cat and single-zeta zeta-scan at 8 restarts."""
    cli = CliOps(cvgme, out_dir, rng)
    ops = []
    budget = ["--restarts", 8, "--max-evals", 800]

    def check_report(output, family, witness, ancillas):
        (row,) = output["rows"]
        (rep,) = output["reports"]
        m = family[1]
        xi = np.array([complex(re, im) for re, im in rep["xi_points"]])
        value = ref.trace_norm(ref.settings_matrix(family, xi, ancillas))
        what = "%s %r" % (witness, family)
        close(rep["value"], value, 1e-9, what + " trace norm")
        close(row["value"], rep["value"], 0.0, what + " row value")
        expect(rep["value"] >= 1.0 - 1e-12, "%s: value %r below 1", what, rep["value"])
        thr = ref.settings_threshold(m) if witness == "B" else 1.0
        close(rep["threshold"], thr, 1e-15, what + " threshold")
        expect(rep["certified"] == (rep["value"] > thr + ref.GUARD),
               "%s: certified flag", what)
        expect(rep["n_settings"] == ref.sign_folded_count(xi), "%s: n_settings %r",
               what, rep["n_settings"])
        return rep

    def settings_w(m, eta, n_points, pin=None):
        family = ("w", m, eta)

        def check(output):
            rep = check_report(output, family, "B", 0)
            if pin is not None:
                close(rep["value"], pin, 1e-6, "c07 optimum")

        ops.append(cli.op("settings-w M=%d N=%d" % (m, n_points), "settings-w",
                          ["--m", m, "--eta", eta, "--n-points", n_points] + budget,
                          check))

    def settings_cat(gamma, eta, n_points):
        family = ("cat", 3, gamma, eta)
        ops.append(cli.op("settings-cat N=%d" % n_points, "settings-cat",
                          ["--m", 3, "--gamma", gamma, "--eta", eta, "--n-points",
                           n_points] + budget,
                          lambda output: check_report(output, family, "B", 0)))

    def zeta_scan(zeta, n_points):
        eta = (4.0 * zeta - 1.0) / 3.0

        def check(output):
            (row,) = output["rows"]
            close(row["eta"], eta, 1e-12, "zeta-scan eta")
            rep = check_report(output, ("w", 3, row["eta"]), "E", 1)
            expect(not rep["certified"], "zeta-scan zeta=%g N=%d certified", zeta,
                   n_points)

        ops.append(cli.op("zeta-scan N=%d" % n_points, "zeta-scan",
                          ["--m", 3, "--zeta-range", "%.4f" % zeta, "--n-points",
                           n_points] + budget, check))

    settings_w(3, 0.03, 4, pin=C07_OPTIMUM)
    settings_w(4, _uniform(rng, 0.05, 0.12), 8)
    settings_cat(1.0, 0.1, 5)
    settings_cat(_uniform(rng, 0.9, 1.1), _uniform(rng, 0.05, 0.12), 7)
    zeta_scan(0.25, 5)
    zeta_scan(_uniform(rng, 0.30, 0.55), 6)
    return ops


def fock_oracle(cvgme, out_dir, rng):
    """Characteristic, slice-Wigner and collective-parity points on Fock expansions.

    Four operations of about a second each (psi5 takes two); each builds the
    Fock expansions it needs and evaluates a list of points on them.
    """
    fam = cvgme["families"]
    ps = cvgme["phase_space"]
    wit = cvgme["witnesses"]
    ops = []

    def image(point):
        """One of the four images of `point` under z -> -z and z -> conj z.

        The states here have real amplitudes and fixed total photon-number
        parity, so every image costs the oracle the same work.
        """
        point = np.asarray(point, dtype=complex)
        return rng.choice((1, -1)) * (np.conj(point) if rng.random() < 0.5 else point)

    def chi_cases(tag, spec, family, xi, paired):
        cases = [
            (tag + " chi", spec, lambda st: ps.characteristic_point(st, xi),
             lambda out, v: close(v, complex(ref.family_chi(family, xi)), 1e-8,
                                  tag + " chi")),
            (tag + " chi(0)", spec,
             lambda st: ps.characteristic_point(st, np.zeros(spec.modes)),
             lambda out, v: close(v, 1.0, 1e-8, tag + " chi(0)"))]
        if paired:
            cases.append((tag + " chi(-xi)", spec,
                          lambda st: ps.characteristic_point(st, -xi),
                          lambda out, v: close(v, np.conj(out[tag + " chi"]), 1e-8,
                                               tag + " chi(-xi)")))
        return cases

    def wigner_case(tag, spec, family, alpha):
        def check(out, v):
            close(v, float(ref.family_slice(family, alpha)), 1e-8, tag + " slice Wigner")
            expect(abs(v) <= (2.0 / math.pi) ** spec.modes, "%s: |W| %r too large", tag, v)

        return (tag + " W", spec,
                lambda st: ps.wigner_slice_point(st, ps.diagonal_slice(spec.modes), alpha),
                check)

    def parity_case(tag, spec, kernel, alpha, want):
        def evaluate(st):
            rep = wit.witness_c(st, kernel, alpha, max_photons=8)
            return [rep.value, bool(rep.certified)]

        def check(out, v):
            close(v[0], want(), 1e-8, tag + " collective parity")
            expect(v[1] == (v[0] < -ref.GUARD), "%s: certified flag", tag)

        return (tag + " parity", spec, evaluate, check)

    def points_op(label, cases):
        def run():
            states, out = {}, {}
            for name, spec, evaluate, _ in cases:
                if spec not in states:
                    states[spec] = fam.family_fock_expansion(spec)
                out[name] = evaluate(states[spec])
            return out

        def check(out):
            for name, _, _, check_case in cases:
                check_case(out, out[name])

        ops.append(Op(label, run, check, _plain))

    xi3 = 0.45 * np.exp(1j * np.array([0.3, 1.1, 2.0]))
    alpha0 = 0.3 * np.exp(0.7j)

    cat = fam.cat_family(3, 0.9)
    points_op("cat(3, 0.9) points",
              chi_cases("cat(3, 0.9)", cat, ("cat", 3, 0.9, 0.0), image(xi3), True)
              + [wigner_case("cat(3, 0.9)", cat, ("cat", 3, 0.9, 0.0), image(alpha0))])
    points_op("cat(3, 1, eta=0.1) points",
              chi_cases("cat(3, 1, 0.1)", fam.cat_family(3, 1.0, eta=0.1),
                        ("cat", 3, 1.0, 0.1), image(xi3), False))

    cases = []
    for m, eta in ((3, 0.0), (4, 0.2), (5, 0.0)):
        tag, spec = "W(%d, %g)" % (m, eta), fam.w_family(m, eta=eta)
        cases += chi_cases(tag, spec, ("w", m, eta),
                           image(0.45 * np.exp(1j * np.linspace(0.3, 2.0, m))), True)
        cases.append(wigner_case(tag, spec, ("w", m, eta), complex(image(alpha0))))
    for m in (3, 4, 5):
        alpha = 0.3 * np.exp(2j * math.pi * rng.random())
        cases.append(parity_case("W(%d)" % m, fam.w_family(m), fam.vacuum_kernel(m - 2),
                                 alpha, lambda m=m, alpha=alpha: ref.w_com_parity(m, alpha)))
        cases.append(parity_case("Dicke(%d)" % m, fam.dicke2_family(m),
                                 fam.vacuum_kernel(m - 2), 0.0,
                                 lambda m=m: ref.dicke_com_parity(m)))
    for n in range(1, 7):
        photons = 1 if n % 2 == 0 else 0
        cases.append(parity_case("N00N(%d)" % n, fam.noon3_family(n),
                                 fam.fock_kernel(1, photons), 0.0,
                                 lambda n=n, k=photons: ref.noon_com_parity(n, k)))
    cases.append(parity_case("psi1", fam.psi_family("psi1"), fam.vacuum_kernel(1), 0.0,
                             lambda: ref.com_parity_by_permanents(ref.PSI1, (0,))))
    cases.append(parity_case("psi4", fam.psi_family("psi4"), fam.fock_kernel(2, 1), 0.0,
                             lambda: ref.PSI4_COM_PARITY))
    points_op("W points and witness_c sweep", cases)
    points_op("witness_c psi5", [parity_case("psi5", fam.psi_family("psi5"),
                                             fam.fock_kernel(3, 1), 0.0,
                                             lambda: ref.PSI5_COM_PARITY)])
    return ops


def _plain(out):
    return {k: complex(v) if np.iscomplexobj(v) else v if isinstance(v, list) else float(v)
            for k, v in out.items()}


WORKLOADS = {
    "loss-scan": loss_scan,
    "grid-sweep": grid_sweep,
    "settings-opt": settings_opt,
    "fock-oracle": fock_oracle,
}


def build(name, cvgme, out_dir, seed):
    """The operations of workload `name`, with inputs drawn from `seed`."""
    return WORKLOADS[name](cvgme, out_dir, random.Random(seed))
