"""Per-layer tracing of cvgme from outside the package.

The traced run replaces cvgme's functions where they are looked up (a module
attribute, a name one module imported from another, or a method on its class)
with wrappers that record spans.  A span's self time is its duration minus the
time its child spans cover, so the self times of every span inside one
operation add up to that operation's wall time.  Functions whose calls can
exceed 1e5 per pass over a workload (the displacement matrix element) are
counted, not spanned.

Counters and self times accumulate per pass ("round") and are read with
:meth:`Tracer.take`.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

#: Every per-layer metric the traced run reports, with its unit.
METRICS = {
    "bench.op.self_s": "s",
    "trace.round_s": "s",
    "cli.runner.self_s": "s",
    "cli.write.bytes": "bytes",
    "cli.v2d_quadrature.calls": "count",
    "cli.v2d_quadrature.self_s": "s",
    "numerics.lattice.calls": "count",
    "numerics.lattice.reused": "count",
    "numerics.lattice.cells": "count",
    "numerics.lattice.self_s": "s",
    "numerics.midpoint.self_s": "s",
    "numerics.tail_radius.calls": "count",
    "numerics.tail_radius.self_s": "s",
    "numerics.search.thresholds": "count",
    "numerics.search.predicate_calls": "count",
    "numerics.search.self_s": "s",
    "numerics.rigorous_error.calls": "count",
    "numerics.rigorous_error.self_s": "s",
    "numerics.optimize.restarts": "count",
    "numerics.optimize.objective_evals": "count",
    "numerics.optimize.improving_restarts": "count",
    "numerics.optimize.self_s": "s",
    "families.slice.calls": "count",
    "families.slice.cells": "count",
    "families.slice.self_s": "s",
    "families.c_entry.calls": "count",
    "families.c_entry.self_s": "s",
    "families.kernel_entry.calls": "count",
    "families.kernel_entry.self_s": "s",
    "families.fock_expansion.calls": "count",
    "families.fock_expansion.self_s": "s",
    "witnesses.objective.calls": "count",
    "witnesses.objective.self_s": "s",
    "witnesses.objective.eigvalsh_s": "s",
    "witnesses.settings_matrix.entry_calls": "count",
    "witnesses.settings_matrix.self_s": "s",
    "witnesses.witness_a.calls": "count",
    "witnesses.witness_a.self_s": "s",
    "witnesses.witness_c.calls": "count",
    "witnesses.witness_c.self_s": "s",
    "witnesses.com_density.self_s": "s",
    "numpy.eigvalsh.self_s": "s",
    "phase_space.characteristic.calls": "count",
    "phase_space.characteristic.self_s": "s",
    "phase_space.wigner.calls": "count",
    "phase_space.wigner.self_s": "s",
    "gaussian_ops.displacement.calls": "count",
    "gaussian_ops.displacement.self_s": "s",
    "gaussian_ops.displacement.amps_out": "count",
    "gaussian_ops.matrix_element.calls": "count",
    "gaussian_ops.linear_optical.calls": "count",
    "gaussian_ops.linear_optical.self_s": "s",
    "gaussian_ops.parity.self_s": "s",
    "fock_core.tensor.self_s": "s",
    "fock_core.inner_product.self_s": "s",
    "process.cpu_s": "s",
    "process.minor_faults": "count",
}


class _Frame:
    __slots__ = ("layer", "kind", "child")

    def __init__(self, layer, kind):
        self.layer = layer
        self.kind = kind
        self.child = 0.0


class Tracer:
    """Span stack plus the counters of the current round."""

    def __init__(self):
        self.stack = []
        self.values = defaultdict(float)
        self.self_sum = 0.0
        self.lattices = set()
        self.restart = None

    # -- spans --------------------------------------------------------------

    def _enter(self, layer, kind):
        frame = _Frame(layer, kind)
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _leave(self, frame, start):
        duration = time.perf_counter() - start
        self.stack.pop()
        own = duration - frame.child
        self.values[frame.layer + ".self_s"] += own
        self.self_sum += own
        if self.stack:
            self.stack[-1].child += duration
        return duration

    def parent_kind(self):
        return self.stack[-1].kind if self.stack else None

    def run_op(self, fn):
        """Run one operation as the root span; return (result, wall seconds).

        Raises AssertionError if the self times of the spans inside the
        operation do not add up to its wall time.
        """
        self.self_sum = 0.0
        self.lattices = set()
        frame, start = self._enter("bench.op", "op")
        try:
            result = fn()
        finally:
            duration = self._leave(frame, start)
        if abs(self.self_sum - duration) > 1e-9 * max(1.0, duration):
            raise AssertionError("span self times %.12g s do not add up to the "
                                 "operation's %.12g s" % (self.self_sum, duration))
        return result, duration

    def add(self, name, amount=1):
        self.values[name] += amount

    def take(self):
        """Return this round's values for every metric and start a new round."""
        out = {name: float(self.values.get(name, 0.0)) for name in METRICS}
        self.values = defaultdict(float)
        return out

    # -- wrapping -----------------------------------------------------------

    @staticmethod
    def patch(owner, attr, wrapper_factory):
        setattr(owner, attr, wrapper_factory(getattr(owner, attr)))

    def spanned(self, layer, kind=None, calls=True, before=None, after=None):
        """Factory for a span wrapper.

        `before(args, kwargs)` returns the (args, kwargs) to call with;
        `after(result, args, duration)` records what the call produced.
        """
        kind = kind or layer

        def factory(fn):
            def wrapper(*args, **kwargs):
                if calls:
                    self.values[layer + ".calls"] += 1
                if before is not None:
                    args, kwargs = before(args, kwargs)
                frame, start = self._enter(layer, kind)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = self._leave(frame, start)
                if after is not None:
                    after(result, args, duration)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return factory

    def counted(self, name):
        def factory(fn):
            def wrapper(*args, **kwargs):
                self.values[name] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return factory

    # -- the optimizer's restarts ---------------------------------------------

    def _close_restart(self):
        state = self.restart
        if state is not None and state["current"] is not None:
            if state["current"] > state["best"]:
                self.values["numerics.optimize.improving_restarts"] += 1
                state["best"] = state["current"]
            state["current"] = None

    def _objective_value(self, value):
        """Track restarts: a start-point evaluation made by optimize_settings
        itself opens a restart; Nelder-Mead results extend it."""
        state = self.restart
        if state is None:
            return
        kind = self.parent_kind()
        if kind == "numerics.optimize":
            self._close_restart()
            self.values["numerics.optimize.restarts"] += 1
            state["current"] = value if math.isfinite(value) else -math.inf
        if kind in ("numerics.optimize", "numerics.nelder_mead"):
            self.values["numerics.optimize.objective_evals"] += 1

    def install(self, cvgme_modules):
        """Wrap every traced layer of cvgme."""
        import numpy as np

        cli = cvgme_modules["cli"]
        numerics = cvgme_modules["numerics"]
        families = cvgme_modules["families"]
        witnesses = cvgme_modules["witnesses"]
        phase_space = cvgme_modules["phase_space"]
        gaussian_ops = cvgme_modules["gaussian_ops"]

        for name, runner in list(cli._RUNNERS.items()):
            cli._RUNNERS[name] = self.spanned("cli.runner", calls=False)(runner)
        self.patch(cli, "v2d_quadrature", self.spanned("cli.v2d_quadrature"))

        def lattice_after(result, args, duration):
            grid = args[0]
            key = (grid.delta, grid.radius)
            if key in self.lattices:
                self.values["numerics.lattice.reused"] += 1
            self.lattices.add(key)
            self.values["numerics.lattice.cells"] += result[0].size

        self.patch(numerics.GridSpec, "indices",
                   self.spanned("numerics.lattice", after=lattice_after))
        self.patch(numerics.GridSpec, "centers",
                   self.spanned("numerics.lattice", calls=False))
        self.patch(numerics, "midpoint_integral",
                   self.spanned("numerics.midpoint", calls=False))
        self.patch(numerics, "tail_radius", self.spanned("numerics.tail_radius"))
        self.patch(numerics, "rigorous_error", self.spanned("numerics.rigorous_error"))

        def search_before(args, kwargs):
            if self.parent_kind() == "numerics.search":
                return args, kwargs
            self.values["numerics.search.thresholds"] += 1
            predicate = args[0]

            def counted_predicate(x):
                self.values["numerics.search.predicate_calls"] += 1
                return predicate(x)

            return (counted_predicate,) + tuple(args[1:]), kwargs

        for attr in ("bisect_threshold", "monotone_boundary"):
            self.patch(numerics, attr, self.spanned(
                "numerics.search", calls=False, before=search_before))

        def optimize_before(args, kwargs):
            self.restart = {"best": -math.inf, "current": None}
            return args, kwargs

        def optimize_after(result, args, duration):
            self._close_restart()
            self.restart = None

        self.patch(numerics, "optimize_settings", self.spanned(
            "numerics.optimize", calls=False, before=optimize_before,
            after=optimize_after))

        def minimize_after(result, args, duration):
            state = self.restart
            if state is not None and state["current"] is not None:
                value = -float(result.fun)
                if math.isfinite(value) and value > state["current"]:
                    state["current"] = value

        self.patch(numerics, "minimize", self.spanned(
            "numerics.optimize", kind="numerics.nelder_mead", calls=False,
            after=minimize_after))

        def slice_after(result, args, duration):
            self.values["families.slice.cells"] += np.size(args[1])

        self.patch(families, "family_wigner_slice",
                   self.spanned("families.slice", after=slice_after))
        self.patch(families, "family_c_entry", self.spanned("families.c_entry"))
        self.patch(families, "kernel_c_entry", self.spanned("families.kernel_entry"))
        self.patch(families, "family_fock_expansion",
                   self.spanned("families.fock_expansion"))

        objective_span = self.spanned("witnesses.objective")

        def objective_factory(make_objective):
            def wrapper(*args, **kwargs):
                spanned = objective_span(make_objective(*args, **kwargs))

                def objective(xi):
                    value = spanned(xi)
                    self._objective_value(float(value))
                    return value

                return objective

            return wrapper

        self.patch(witnesses, "settings_objective", objective_factory)

        def eigvalsh_after(result, args, duration):
            if self.parent_kind() == "witnesses.objective":
                self.values["witnesses.objective.eigvalsh_s"] += duration

        self.patch(np.linalg, "eigvalsh",
                   self.spanned("numpy.eigvalsh", calls=False, after=eigvalsh_after))

        def matrix_before(args, kwargs):
            entry = args[0]

            def counted_entry(d):
                self.values["witnesses.settings_matrix.entry_calls"] += 1
                return entry(d)

            return (counted_entry,) + tuple(args[1:]), kwargs

        self.patch(witnesses, "build_settings_matrix", self.spanned(
            "witnesses.settings_matrix", calls=False, before=matrix_before))
        self.patch(witnesses, "witness_a", self.spanned("witnesses.witness_a"))
        self.patch(witnesses, "witness_c", self.spanned("witnesses.witness_c"))
        self.patch(witnesses, "_com_density_matrix",
                   self.spanned("witnesses.com_density", calls=False))
        self.patch(witnesses, "apply_linear_optical",
                   self.spanned("gaussian_ops.linear_optical"))
        self.patch(witnesses, "tensor", self.spanned("fock_core.tensor", calls=False))
        self.patch(witnesses, "displacement_matrix_element",
                   self.counted("gaussian_ops.matrix_element.calls"))
        self.patch(gaussian_ops, "displacement_matrix_element",
                   self.counted("gaussian_ops.matrix_element.calls"))

        self.patch(phase_space, "characteristic_point",
                   self.spanned("phase_space.characteristic"))
        self.patch(phase_space, "wigner_slice_point",
                   self.spanned("phase_space.wigner"))

        def displacement_after(result, args, duration):
            self.values["gaussian_ops.displacement.amps_out"] += len(result.amps)

        self.patch(phase_space, "apply_displacement", self.spanned(
            "gaussian_ops.displacement", after=displacement_after))
        self.patch(phase_space, "parity_expectation",
                   self.spanned("gaussian_ops.parity", calls=False))
        self.patch(phase_space, "inner_product",
                   self.spanned("fock_core.inner_product", calls=False))

