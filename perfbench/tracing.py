"""Span tracing of the nctorus layers, installed from outside the package.

`Tracer.install` replaces each traced function under the name its caller
looks it up by (a module global or a `FourierElement` method) with a
wrapper that records a span and updates the layer's counters;
`Tracer.uninstall` puts the originals back.  Spans are kept in memory
and written out when the benchmark ends.

Layers are the package modules: harness, quantum, deform, lattice,
flow and cstar.  A layer's self time is the time of its spans minus
the time of their child spans; its share is the time of its outermost
spans (those with no ancestor in the same layer) over the pass time.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

import nctorus.cstar as cstar
import nctorus.deform as deform
import nctorus.flow as flow
import nctorus.harness as harness
import nctorus.quantum as quantum
from nctorus.lattice import FourierElement

LAYERS = ("harness", "quantum", "deform", "lattice", "flow", "cstar")

#: Span name of one benchmark pass; time in it outside every layer is the
#: benchmark's own work (input checks, oracle differences).
PASS_SPAN = "bench.pass"


def _bind(fn):
    signature = inspect.signature(fn)

    def bound(args, kwargs):
        b = signature.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bound


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, pass index)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.n_passes = 0
        self._stack = []
        self._installed = []
        self._origin = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (
                span_id, parent, name, start - self._origin, end - self._origin,
                self.n_passes,
            )

    def run_pass(self, fn, *args):
        """Run one benchmark pass under a root span."""
        self.n_passes += 1
        return self._span(PASS_SPAN, fn, args, {})

    def count(self, key, amount=1):
        self.counters[key] += amount

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], float(value))

    # -- installation ----------------------------------------------------

    def _wrap(self, owner, attr, name, observe=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer._span(name, original, args, kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        count, peak = self.count, self.peak

        bind_norm = _bind(cstar.op_norm_estimate)

        def on_norm(args, kwargs, est):
            a = bind_norm(args, kwargs)
            window = a["window"] if a["window"] is not None else cstar.default_window(a["f"])
            max_iter = a["max_iter"] if a["max_iter"] is not None else 10 * window**2
            count("cstar.iterations", est.iterations)
            # one L and one L* product per power-iteration step
            count("cstar.matvecs", 2 * est.iterations)
            count("cstar.converged", est.residual <= a["tol"])
            count("cstar.iter_cap_hits", est.iterations >= max_iter)
            peak("cstar.residual_max", est.residual)

        def on_lmul(args, kwargs, L):
            peak("cstar.lmul_nnz", L.nnz)

        bind_flow = _bind(flow.flow_points)

        def on_flow(args, kwargs, result):
            a = bind_flow(args, kwargs)
            # four RK4 stages per step, one field evaluation per point each
            count("flow.field_evals", result.points.shape[0] * 4 * a["steps"])

        def on_pullback(args, kwargs, result):
            peak("flow.alias_mass_max", result.discarded_mass)

        def on_eval(args, kwargs, vals):
            count("lattice.eval_at.terms", vals.size * args[0].n_modes)

        def on_add(args, kwargs, result):
            count("lattice.add.rows", args[0].n_modes + args[1].n_modes)

        def on_mul(args, kwargs, result):
            count("deform.pairs", args[0].n_modes * args[1].n_modes)

        def on_heisenberg(args, kwargs, result):
            count("quantum.rk4_steps", result.steps)
            peak("quantum.modes_out_max", result.element.n_modes)
            peak("quantum.discarded_mass_max", result.discarded_mass)

        def on_conjugation(args, kwargs, result):
            count("quantum.propagator_substeps", result.steps)

        def on_record(args, kwargs, record):
            count("harness.records")
            count("harness.window_dropped_gt_err", record.window_dropped > record.err.op_lower)

        self._wrap(harness, "scan", "harness.scan")
        self._wrap(harness, "egorov_error", "harness.egorov_error", on_record)
        self._wrap(harness, "heisenberg_evolve", "quantum.heisenberg_evolve", on_heisenberg)
        self._wrap(harness, "pullback", "flow.pullback", on_pullback)
        self._wrap(harness, "op_norm_estimate", "cstar.op_norm_estimate", on_norm)
        self._wrap(quantum, "heisenberg_evolve", "quantum.heisenberg_evolve", on_heisenberg)
        self._wrap(quantum, "conjugation_evolve", "quantum.conjugation_evolve", on_conjugation)
        self._wrap(quantum, "commutator", "deform.commutator")
        self._wrap(quantum, "deformed_mul", "deform.deformed_mul", on_mul)
        self._wrap(deform, "deformed_mul", "deform.deformed_mul", on_mul)
        self._wrap(flow, "flow_points", "flow.flow_points", on_flow)
        self._wrap(cstar, "build_left_multiplication", "cstar.build_left_multiplication", on_lmul)
        self._wrap(FourierElement, "__add__", "lattice.add", on_add)
        self._wrap(FourierElement, "truncate", "lattice.truncate")
        self._wrap(FourierElement, "eval_at", "lattice.eval_at", on_eval)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reports ---------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics, as a mean over the traced passes."""
        n = max(self.n_passes, 1)
        spans = self.spans
        dur = [s[4] - s[3] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[1] >= 0:
                child_time[s[1]] += d

        def layer(name):
            return name.split(".", 1)[0]

        by_name = defaultdict(lambda: [0.0, 0])
        self_s = defaultdict(float)
        outer_s = defaultdict(float)
        pass_s = 0.0
        for s, d, c in zip(spans, dur, child_time):
            name = s[2]
            if name == PASS_SPAN:
                pass_s += d
            by_name[name][0] += d
            by_name[name][1] += 1
            self_s[layer(name)] += d - c
            # outermost span of its layer: no ancestor in the same layer
            parent = s[1]
            while parent >= 0 and layer(spans[parent][2]) != layer(name):
                parent = spans[parent][1]
            if parent < 0:
                outer_s[layer(name)] += d

        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        for name in (
            "harness.egorov_error", "cstar.op_norm_estimate", "cstar.build_left_multiplication",
            "flow.pullback", "flow.flow_points", "lattice.eval_at", "lattice.add",
            "lattice.truncate", "quantum.heisenberg_evolve", "quantum.conjugation_evolve",
            "deform.deformed_mul",
        ):
            put(f"{name}.s", by_name[name][0] / n, "s")
        for name in (
            "cstar.op_norm_estimate", "flow.pullback", "quantum.heisenberg_evolve",
            "deform.deformed_mul", "deform.commutator", "lattice.add",
        ):
            put(f"{name}.calls", by_name[name][1] / n, "count")
        for key in (
            "cstar.iterations", "cstar.matvecs", "cstar.iter_cap_hits", "flow.field_evals",
            "lattice.eval_at.terms", "lattice.add.rows", "quantum.rk4_steps",
            "quantum.propagator_substeps", "deform.pairs", "harness.records",
            "harness.window_dropped_gt_err",
        ):
            put(key, self.counters[key] / n, "count")
        norm_calls = by_name["cstar.op_norm_estimate"][1]
        put(
            "cstar.converged_ratio",
            self.counters["cstar.converged"] / norm_calls if norm_calls else 0.0,
            "ratio",
        )
        put("cstar.lmul_nnz", self.maxima["cstar.lmul_nnz"], "count")
        put("cstar.residual_max", self.maxima["cstar.residual_max"], "ratio")
        put("flow.alias_mass_max", self.maxima["flow.alias_mass_max"], "l1")
        put("quantum.modes_out_max", self.maxima["quantum.modes_out_max"], "count")
        put("quantum.discarded_mass_max", self.maxima["quantum.discarded_mass_max"], "l1")
        for name in LAYERS:
            put(f"{name}.self_s", self_s[name] / n, "s")
        for name in ("quantum", "flow", "cstar"):
            put(f"{name}.share", outer_s[name] / pass_s if pass_s else 0.0, "ratio")
        put("trace.bench_self_s", self_s["bench"] / n, "s")
        put("trace.spans", len(spans) / n, "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, pass_index in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end, "pass": pass_index}
                    )
                    + "\n"
                )
