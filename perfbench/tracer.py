"""Outside-in span tracer over toricmu's public functions.

The tracer replaces each traced function with a timing wrapper in every
namespace that binds it: every loaded ``toricmu`` module (the package itself,
``cli``, ``ddexp`` inside ``integrate``, ``build_polytope`` inside
``paconvex`` and ``filtration``, ...) is scanned for attributes that are the
original function object, and each one is rebound.  Methods are rebound on
their class.  Patching only the defining module would miss every
``from .x import f`` binding, and those spans would record no calls.

Spans (name, parent, start, end, op) are kept in compact arrays in memory
and can be written out when the run ends.  Aggregates are kept as the spans
close: calls, self time (span time minus the time its direct children
cover), per-span extras such as node counts, how many spans of a name had a
child of another name, and calls of a watched name made under a span.

A traced function that no longer exists is reported as absent rather than
treated as an error, so a later change that removes one still runs.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter


class SpanSpec:
    """Where a traced function lives and what extra numbers its spans record.

    owner is "module.path" for a function or "module.path:Class" for a
    method.  extra(args, result) returns the amounts added to the span's
    extra counters; watch names spans whose calls are counted per call of
    this one (e.g. interior integrals per optimizer call).
    """

    __slots__ = ("name", "owner", "attr", "extra", "watch")

    def __init__(self, name, owner, attr, extra=None, watch=()):
        self.name = name
        self.owner = owner
        self.attr = attr
        self.extra = extra
        self.watch = tuple(watch)


class Stats:
    __slots__ = ("calls", "self_s", "extra", "with_child", "watched")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = {}
        self.with_child = {}
        self.watched = {}


class Tracer:
    def __init__(self, specs):
        self.specs = list(specs)
        self.names = [s.name for s in self.specs]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.active = False
        self.absent = []
        self._undo = []
        self._stack = []
        self.op = -1
        self.reset()
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    def reset(self):
        """Start a fresh set of aggregates (spans are kept)."""
        self.stats = [Stats() for _ in self.specs]

    # -- installation ---------------------------------------------------------

    def install(self):
        """Rebind every binding of every traced function to its wrapper."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "toricmu" or name.startswith("toricmu."))
        ]
        self.absent = []
        for sid, spec in enumerate(self.specs):
            module_name, _, class_name = spec.owner.partition(":")
            module = sys.modules.get(module_name)
            holder = getattr(module, class_name) if class_name and module else module
            original = holder.__dict__.get(spec.attr) if holder is not None else None
            if not callable(original):
                self.absent.append(spec.name)
                continue
            wrapper = self._wrap(sid, original)
            if class_name:
                self._rebind(holder, spec.attr, wrapper)
                continue
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo = []

    def _rebind(self, holder, attr, wrapper):
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, wrapper)

    def _wrap(self, sid, fn):
        spec = self.specs[sid]
        extra = spec.extra
        watch = [self.index[w] for w in spec.watch]
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stats = tracer.stats
            seen = [stats[w].calls for w in watch]
            parent = stack[-1] if stack else None
            idx = len(tracer.span_start)
            tracer.span_name.append(sid)
            tracer.span_parent.append(parent[2] if parent else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            # frame: time covered by direct children, their sids, span index
            frame = [0.0, None, idx]
            stack.append(frame)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_end[idx] = end
                elapsed = end - start
                mine = stats[sid]
                mine.calls += 1
                mine.self_s += elapsed - frame[0]
                if frame[1]:
                    for child in frame[1]:
                        mine.with_child[child] = mine.with_child.get(child, 0) + 1
                for w, before in zip(watch, seen):
                    mine.watched[w] = mine.watched.get(w, 0) + stats[w].calls - before
                if parent is not None:
                    parent[0] += elapsed
                    if parent[1] is None:
                        parent[1] = {sid}
                    else:
                        parent[1].add(sid)
            if extra is not None:
                for key, amount in extra(args, result).items():
                    mine.extra[key] = mine.extra.get(key, 0) + amount
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading ------------------------------------------------------------------

    def get(self, name):
        return self.stats[self.index[name]]

    def write_spans(self, path):
        """Spans as JSON lines: name, parent span index, op index, start, end."""
        with open(path, "w") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps([
                    self.names[self.span_name[i]], self.span_parent[i],
                    self.span_op[i], self.span_start[i], self.span_end[i],
                ]) + "\n")


def _first_len(args, result):
    return {"nodes": len(args[0])}


def _result_len(key):
    def extra(args, result):
        return {key: len(result)}

    return extra


def _trace_len(args, result):
    return {"trace_len": len(result.trace)}


SPECS = [
    SpanSpec("polytope.build_polytope", "toricmu.polytope", "build_polytope"),
    SpanSpec("polytope.clip", "toricmu.polytope:LatticePolytope", "clip"),
    SpanSpec("polytope.triangulate", "toricmu.polytope:LatticePolytope",
             "triangulate", extra=_result_len("simplices")),
    SpanSpec("polytope.lattice_points", "toricmu.polytope:LatticePolytope",
             "lattice_points", extra=_result_len("points")),
    SpanSpec("paconvex.cells", "toricmu.paconvex:PiecewiseAffineConvex", "cells"),
    SpanSpec("paconvex.common_cells", "toricmu.paconvex", "common_cells",
             extra=_result_len("cells")),
    SpanSpec("paconvex.pa_moment", "toricmu.paconvex", "pa_moment"),
    SpanSpec("paconvex.dh_cdf", "toricmu.paconvex", "dh_cdf"),
    SpanSpec("paconvex.metric_dp", "toricmu.paconvex", "metric_dp"),
    SpanSpec("paconvex.metric_dexp", "toricmu.paconvex", "metric_dexp"),
    SpanSpec("paconvex.legendre_dual", "toricmu.paconvex", "legendre_dual"),
    SpanSpec("integrate.interior", "toricmu.integrate:ExpIntegrator", "interior"),
    SpanSpec("integrate.boundary", "toricmu.integrate:ExpIntegrator", "boundary"),
    SpanSpec("integrate.brion_localize_limit", "toricmu.integrate",
             "brion_localize_limit"),
    SpanSpec("ddexp.ddexp", "toricmu.integrate", "ddexp", extra=_first_len),
    SpanSpec("functionals.entropy_curve", "toricmu.functionals", "entropy_curve"),
    SpanSpec("functionals.futaki", "toricmu.functionals", "futaki"),
    SpanSpec("functionals.mu_lambda", "toricmu.functionals", "mu_lambda"),
    SpanSpec("functionals.calabi", "toricmu.functionals", "calabi"),
    SpanSpec("optimize.maximize_over_vectors", "toricmu.optimize",
             "maximize_over_vectors", extra=_trace_len,
             watch=("integrate.interior",)),
    SpanSpec("optimize.maximize_along_ray", "toricmu.optimize", "maximize_along_ray"),
    SpanSpec("optimize.normalized_df", "toricmu.optimize", "normalized_df"),
    SpanSpec("filtration.spectral_measure", "toricmu.filtration", "spectral_measure"),
    SpanSpec("filtration.char_mu_estimate", "toricmu.filtration", "char_mu_estimate"),
    SpanSpec("cli.run", "toricmu.cli", "run"),
]

# workloads on which each span must record at least one call (self-test)
HOME = {
    "polytope.build_polytope": ("sweep", "exact"),
    "polytope.clip": ("sweep", "exact"),
    "polytope.triangulate": ("sweep", "optimize", "exact"),
    "polytope.lattice_points": ("exact",),
    "paconvex.cells": ("sweep", "exact"),
    "paconvex.common_cells": ("sweep", "optimize", "exact"),
    "paconvex.pa_moment": ("exact",),
    "paconvex.dh_cdf": ("exact",),
    "paconvex.metric_dp": ("exact",),
    "paconvex.metric_dexp": ("exact",),
    "paconvex.legendre_dual": ("exact",),
    "integrate.interior": ("sweep", "optimize"),
    "integrate.boundary": ("sweep", "optimize"),
    "integrate.brion_localize_limit": ("sweep",),
    "ddexp.ddexp": ("sweep", "optimize"),
    "functionals.entropy_curve": ("sweep",),
    "functionals.futaki": ("sweep",),
    "functionals.mu_lambda": ("sweep",),
    "functionals.calabi": ("exact",),
    "optimize.maximize_over_vectors": ("optimize",),
    "optimize.maximize_along_ray": ("optimize",),
    "optimize.normalized_df": ("exact",),
    "filtration.spectral_measure": ("exact",),
    "filtration.char_mu_estimate": ("exact",),
    "cli.run": ("sweep", "optimize", "exact"),
}
