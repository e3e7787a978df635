"""Spans and counters around the package's layer boundaries, from outside.

The package binds most names with ``from ... import``, so each wrapper is
installed where the name is used (``tclkraus.tcl.integrate_array``,
``tclkraus.scenario.damping_term``, ...) or on the class whose method is
called.  :meth:`Tracer.install` patches them and :meth:`Tracer.uninstall`
puts the originals back, so untraced solves run the package untouched.

A span records (id, parent id, name, start, end).  Spans stay in memory and
are written out by :meth:`Tracer.write` when the run ends.  Self time is a
span's duration minus that of its direct children; it keeps the nested
quadratures (an ohmic correlation quadrature inside the memory-integral
quadrature) from being counted twice, and the self times of one solve add
up to its root span.  Very fine calls (``commutator``, bath correlations of
the discrete bath, quadrature integrand evaluations) are only counted: timing
each of them would cost more than the work.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter

import tclkraus.baths as baths
import tclkraus.channel as channel
import tclkraus.dephasing as dephasing
import tclkraus.oracle as oracle
import tclkraus.scenario as scenario
import tclkraus.tcl as tcl

ROOT = "solve"

#: per-layer metrics: name -> (unit, better, source); a source is
#: ("self", span names...) summed self seconds, ("calls", span name),
#: ("count", counter name) or ("value", observed value name)
LAYER_METRICS = {
    "tcl.memory_operator_calls": ("count", "lower", ("calls", "tcl.memory_operator")),
    "tcl.memory_operator_s": ("s", "lower", ("self", "tcl.memory_operator")),
    "tcl.rhs_calls": ("count", "lower", ("calls", "tcl.rhs")),
    "tcl.rhs_s": ("s", "lower", ("self", "tcl.rhs")),
    "tcl.ode_s": ("s", "lower", ("self", "tcl.integrate")),
    "linalg.commutator_calls": ("count", "lower", ("count", "linalg.commutator")),
    "quadrature.array_calls": ("count", "lower", ("calls", "quadrature.array")),
    "quadrature.array_evals": ("count", "lower", ("count", "quadrature.array_evals")),
    "quadrature.array_s": ("s", "lower", ("self", "quadrature.array")),
    "quadrature.scalar_calls": ("count", "lower", ("calls", "quadrature.scalar")),
    "quadrature.scalar_evals": ("count", "lower", ("count", "quadrature.scalar_evals")),
    "quadrature.scalar_s": ("s", "lower", ("self", "quadrature.scalar")),
    "channel.damping_calls": ("count", "lower", ("calls", "channel.damping")),
    "channel.damping_s": ("s", "lower", ("self", "channel.damping")),
    "channel.jump_s": ("s", "lower", ("self", "channel.jump")),
    "channel.kraus_extract_s": ("s", "lower", ("self", "channel.kraus_extract")),
    "channel.clipped_eigs": ("count", "lower", ("count", "channel.clipped_eigs")),
    "channel.completeness_dev": ("ratio", "lower", ("value", "channel.completeness_dev")),
    "channel.trace_dev": ("ratio", "lower", ("value", "channel.trace_dev")),
    "oracle.total_dim": ("count", "lower", ("value", "oracle.total_dim")),
    "oracle.build_s": ("s", "lower", ("self", "oracle.build")),
    "oracle.diag_s": ("s", "lower", ("self", "oracle.diag")),
    "oracle.propagate_s": ("s", "lower", ("self", "oracle.propagate", "oracle.evolve")),
    "baths.memory_integral_calls": ("count", "lower", ("calls", "baths.memory_integral")),
    "baths.memory_integral_s": ("s", "lower", ("self", "baths.memory_integral")),
    "baths.correlation_calls": ("count", "lower", ("count", "baths.correlation")),
    "baths.correlation_s": ("s", "lower", ("self", "baths.correlation")),
    "dephasing.kraus_s": ("s", "lower", ("self", "dephasing.kraus")),
    "dephasing.trajectory_s": ("s", "lower", ("self", "dephasing.trajectory")),
    "scenario.load_s": ("s", "lower", ("self", "scenario.load")),
    "scenario.run_s": ("s", "lower", ("self", "scenario.run")),
    "scenario.artifact_s": ("s", "lower", ("self", "scenario.artifact")),
    "scenario.artifact_bytes": ("B", "lower", ("value", "scenario.artifact_bytes")),
    "trace.unattributed_s": ("s", "lower", ("self", ROOT)),
}

#: metrics the run loop adds from comparing traced and untraced solves
RUN_METRICS = {
    "trace.solve_s": ("s", "lower"),
    "trace.untraced_solve_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.layer_share": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}


#: non-time metrics that may differ between solves, reported as medians: the
#: layer share is a ratio of times, and report.json carries the run's timings,
#: so the artifacts' size moves by a few bytes
VARYING = {"trace.layer_share", "scenario.artifact_bytes"}


class _ModuleProxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent, name, start, end]
        self.counts = Counter()  # call and evaluation counters of the current solve
        self.values = {}         # observed values of the current solve (max)
        self.missing = []        # hooks whose target no longer exists
        self._stack = []
        self._patches = []
        self._seen_totals = weakref.WeakSet()

    # -- wrappers ---------------------------------------------------------

    def _open(self, name):
        self.counts[name] += 1
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name,
               time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def quadrature(self, kind, fn):
        """Span around a quadrature call; its integrand evaluations are counted."""
        span = f"quadrature.{kind}"
        evals = f"quadrature.{kind}_evals"
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            def integrand(*x):
                counts[evals] += 1
                return f(*x)
            rec = self._open(span)
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def total_state(self, fn):
        """First call per TotalSystem diagonalises; later calls only propagate."""
        def wrapper(total, *args, **kwargs):
            first = total not in self._seen_totals
            self._seen_totals.add(total)
            rec = self._open("oracle.diag" if first else "oracle.propagate")
            try:
                return fn(total, *args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _observe(self, key, value):
        self.values[key] = max(self.values.get(key, 0.0), float(value))

    def _after_kraus(self, args, kset):
        self.counts["channel.clipped_eigs"] += len(kset.clipped)
        self._observe("channel.completeness_dev", kset.completeness_dev)

    def _after_run(self, args, result):
        _, report = result
        kraus_inv = report["invariants"].get("kraus")
        if kraus_inv is not None:
            self._observe("channel.trace_dev", kraus_inv["max_trace_dev"])

    def _after_build(self, args, _):
        self._observe("oracle.total_dim", args[0].dim)

    # -- installation -----------------------------------------------------

    def _hooks(self):
        artifact_dump = self.timed("scenario.artifact", scenario.json.dump)
        return [
            (scenario, "load_scenario", lambda f: self.timed("scenario.load", f)),
            (scenario, "run_scenario",
             lambda f: self.timed("scenario.run", f, self._after_run)),
            (scenario, "integrate", lambda f: self.timed("tcl.integrate", f)),
            (scenario, "damping_term", lambda f: self.timed("channel.damping", f)),
            (scenario, "jump_term", lambda f: self.timed("channel.jump", f)),
            (scenario, "canonical_kraus",
             lambda f: self.timed("channel.kraus_extract", f, self._after_kraus)),
            (scenario, "evolve_exact", lambda f: self.timed("oracle.evolve", f)),
            (scenario, "_write_report", lambda f: self.timed("scenario.artifact", f)),
            (scenario, "json", lambda m: _ModuleProxy(m, dump=artifact_dump)),
            (tcl.Trajectory, "to_csv", lambda f: self.timed("scenario.artifact", f)),
            (tcl, "integrate_array", lambda f: self.quadrature("array", f)),
            (channel, "integrate_array", lambda f: self.quadrature("array", f)),
            (baths, "integrate_scalar", lambda f: self.quadrature("scalar", f)),
            (tcl, "commutator", lambda f: self.counted("linalg.commutator", f)),
            (tcl.Tcl2Generator, "rhs", lambda f: self.timed("tcl.rhs", f)),
            (tcl.LindbladGenerator, "rhs", lambda f: self.timed("tcl.rhs", f)),
            (tcl.Tcl2Generator, "memory_operator",
             lambda f: self.timed("tcl.memory_operator", f)),
            (baths.OhmicBath, "correlation",
             lambda f: self.timed("baths.correlation", f)),
            (baths.DiscreteBath, "correlation",
             lambda f: self.counted("baths.correlation", f)),
            (dephasing, "double_time_integral",
             lambda f: self.timed("baths.memory_integral", f)),
            (dephasing.DephasingModel, "kraus", lambda f: self.timed("dephasing.kraus", f)),
            (dephasing.DephasingModel, "trajectory",
             lambda f: self.timed("dephasing.trajectory", f)),
            (oracle.TotalSystem, "__init__",
             lambda f: self.timed("oracle.build", f, self._after_build)),
            (oracle.TotalSystem, "total_state", self.total_state),
        ]

    def install(self):
        """Patch every hook whose target exists; record the ones that do not."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for owner, attr, make in self._hooks():
            original = owner.__dict__.get(attr) if isinstance(owner, type) else \
                getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- one traced solve -------------------------------------------------

    def run(self, fn, *args):
        """Call fn(*args) under a root span with fresh counters.

        Returns (result, index of the root span).  Hooks must be installed.
        """
        self.counts.clear()
        self.values = {}
        root = len(self.spans)
        return self.timed(ROOT, fn)(*args), root

    def summary(self, root):
        """Per-layer metrics of the solve whose root span is spans[root]."""
        solve = self.spans[root:]
        child = Counter()
        for _, parent, _, start, end in solve:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        for sid, _, name, start, end in solve:
            self_s[name] += (end - start) - child[sid]
        out = {}
        for metric, (_, _, source) in LAYER_METRICS.items():
            kind, *keys = source
            if kind == "self":
                out[metric] = sum(self_s[k] for k in keys)
            elif kind in ("calls", "count"):
                out[metric] = self.counts[keys[0]]
            else:
                out[metric] = self.values.get(keys[0], 0.0)
        total = solve[0][4] - solve[0][3]
        out["trace.solve_s"] = total
        out["trace.layer_share"] = 1.0 - self_s[ROOT] / total
        out["trace.spans"] = len(solve)
        return out

    def write(self, path, meta):
        t0 = self.spans[0][3] if self.spans else 0.0
        spans = [[sid, parent, name, round(start - t0, 9), round(end - t0, 9)]
                 for sid, parent, name, start, end in self.spans]
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": spans}, fh)
