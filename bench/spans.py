"""Per-layer spans and counts, recorded from outside the program.

``Tracer`` replaces the module attributes through which zswkb's modules call
each other's public functions (``zswkb.quantize.action_integral``,
``zswkb.action.find_turning_points``, ...) with wrappers that record one span
per call: layer, start, end, parent span and root span.  Spans are kept in
memory in flat arrays and written out when the traced pass ends.  A call into
the layer that is already innermost on the stack is part of that span (for
example ``eval_potential`` calling ``eval_A``) and records nothing.

Layer self time is span time minus the time covered by child spans.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("potential", "problem", "turning", "action", "quantize",
          "direct.real", "direct.complex", "direct.winding", "stokes", "cli")


def _module_of(layer: str) -> str:
    return layer.split(".")[0]


class Tracer:
    """Context manager that traces every call into the layers while it is active."""

    def __init__(self, z):
        self.z = z
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.stack = []
        self.depth = Counter()      # layer -> spans of that layer open on the stack
        self.counts = Counter()     # counts recorded at the layer boundaries
        self.errors = Counter()     # module -> ZSWKBErrors raised out of its spans
        self.blend_calls = [0]
        self._patched = []

    # -- what is traced -----------------------------------------------------

    def _targets(self) -> dict:
        z = self.z
        p = z.potential
        t = {fn: ("potential", None) for fn in
             (p.eval_A, p.eval_B, p.eval_potential, p.validate_A1, p.classify_symmetry)}
        t[z.problem.a1_report] = ("problem", None)
        t[z.problem.domain_cuts] = ("problem", None)
        t[z.turning.find_turning_points] = ("turning", None)
        t[z.action.action_integral] = ("action", self._on_action)
        t[z.quantize.wkb_spectrum] = ("quantize", self._on_wkb)
        t[z.direct.direct_spectrum_real] = ("direct.real", self._on_direct_roots)
        t[z.direct.direct_spectrum_complex] = ("direct.complex", self._on_direct_roots)
        t[z.direct.count_zeros] = ("direct.winding", self._on_winding)
        t[z.stokes.build_graph] = ("stokes", self._on_stokes)
        t[z.cli.run_pt_sweep] = ("cli", self._on_cli_rows)
        t[z.cli.run_spectra] = ("cli", self._on_cli_spectra)
        t[z.cli.run_stokes] = ("cli", self._on_cli_stokes)
        return t

    def _on_action(self, args, result, seconds):
        self.counts["action.nodes"] += result.nodes_used
        if self.depth["quantize"]:
            self.counts["quantize.action_calls"] += 1

    def _on_wkb(self, args, result, seconds):
        self.counts["quantize.roots"] += len(result)

    def _on_direct_roots(self, args, result, seconds):
        # only the outermost spectrum call of a cell produces its roots
        if self.depth["direct.real"] + self.depth["direct.complex"] == 0:
            self.counts["direct.roots"] += len(result)
            self.counts["direct.root_s"] += seconds

    def _on_winding(self, args, result, seconds):
        self.counts["direct.winding.rows"] += result.samples_on_boundary

    def _on_stokes(self, args, result, seconds):
        self.counts["stokes.curves"] += len(result.curves)
        self.counts["stokes.points"] += sum(len(c.points) for c in result.curves)

    def _on_cli_rows(self, args, result, seconds):
        self.counts["cli.cells"] += len(result[0])

    def _on_cli_spectra(self, args, result, seconds):
        config = args[0]
        self.counts["cli.cells"] += len(config.h_list) * len(config.eps_list)

    def _on_cli_stokes(self, args, result, seconds):
        self.counts["cli.cells"] += 1

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, layer: str, on_result):
        layer_id = LAYERS.index(layer)
        module = _module_of(layer)
        start, end, lay, parent, root = self.start, self.end, self.layer, self.parent, self.root
        stack, depth, errors = self.stack, self.depth, self.errors
        error_type = self.z.ZSWKBError
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and lay[stack[-1]] == layer_id:
                return fn(*args, **kwargs)
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            root.append(stack[0] if stack else sid)
            lay.append(layer_id)
            end.append(0.0)
            stack.append(sid)
            depth[layer] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except error_type:
                errors[module] += 1
                raise
            finally:
                end[sid] = clock()
                depth[layer] -= 1
                stack.pop()
            if on_result is not None:
                on_result(args, result, end[sid] - start[sid])
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted_blend(self, axis_blend_callable):
        box = self.blend_calls

        def traced_factory(spec, eps):
            blend = axis_blend_callable(spec, eps)

            def counted(x):
                box[0] += 1
                return blend(x)

            return counted

        return traced_factory

    def _counted_indices(self, enumerate_indices):
        counts = self.counts

        def traced(problem):
            ks = enumerate_indices(problem)
            counts["quantize.indices"] += len(ks)
            return ks

        return traced

    def __enter__(self):
        targets = self._targets()
        wrappers = {id(fn): self._wrap(fn, layer, cb) for fn, (layer, cb) in targets.items()}
        for name, module in list(sys.modules.items()):
            if not (name == "zswkb" or name.startswith("zswkb.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        blend = self.z.direct.axis_blend_callable
        self._patched.append((self.z.direct, "axis_blend_callable", blend))
        self.z.direct.axis_blend_callable = self._counted_blend(blend)
        indices = self.z.quantize.enumerate_indices
        self._patched.append((self.z.quantize, "enumerate_indices", indices))
        self.z.quantize.enumerate_indices = self._counted_indices(indices)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    # -- results --------------------------------------------------------------

    def span_arrays(self) -> dict:
        return {
            "layers": np.array(LAYERS),
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "root": np.frombuffer(self.root, dtype=np.int32).copy(),
        }

    def layer_table(self) -> dict:
        """layer -> {calls, self_s, total_s}; self time subtracts the child spans."""
        arr = self.span_arrays()
        dur = arr["end"] - arr["start"]
        has_parent = arr["parent"] >= 0
        child = np.bincount(arr["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        n = len(LAYERS)
        calls = np.bincount(arr["layer"], minlength=n)
        self_by = np.bincount(arr["layer"], weights=self_s, minlength=n)
        total_by = np.bincount(arr["layer"], weights=dur, minlength=n)
        return {name: {"calls": int(calls[i]), "self_s": float(self_by[i]),
                       "total_s": float(total_by[i])}
                for i, name in enumerate(LAYERS)}

    def metrics(self) -> dict:
        """The per-layer metrics, by the names BENCHMARK.json lists."""
        t = self.layer_table()
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        winding = t["direct.winding"]
        out = {
            "potential.calls": (t["potential"]["calls"], "count"),
            "potential.self_s": (t["potential"]["self_s"], "s"),
            "potential.blend_calls": (self.blend_calls[0], "count"),
            "turning.calls": (t["turning"]["calls"], "count"),
            "turning.self_s": (t["turning"]["self_s"], "s"),
            "action.calls": (t["action"]["calls"], "count"),
            "action.self_s": (t["action"]["self_s"], "s"),
            "action.nodes_per_call": (ratio(c["action.nodes"], t["action"]["calls"]), "nodes/call"),
            "quantize.roots": (c["quantize.roots"], "count"),
            "quantize.self_s": (t["quantize"]["self_s"], "s"),
            "quantize.action_calls_per_root": (ratio(c["quantize.action_calls"],
                                                     c["quantize.roots"]), "calls/root"),
            "quantize.yield": (ratio(c["quantize.roots"], c["quantize.indices"]), "ratio"),
            "direct.real.calls": (t["direct.real"]["calls"], "count"),
            "direct.real.self_s": (t["direct.real"]["self_s"], "s"),
            "direct.complex.self_s": (t["direct.complex"]["self_s"], "s"),
            "direct.winding.calls": (winding["calls"], "count"),
            "direct.winding.rows": (c["direct.winding.rows"], "count"),
            "direct.winding.self_s": (winding["self_s"], "s"),
            "direct.winding.rows_per_s": (ratio(c["direct.winding.rows"], winding["self_s"]), "1/s"),
            "direct.roots": (c["direct.roots"], "count"),
            "direct.s_per_root": (ratio(c["direct.root_s"], c["direct.roots"]), "s/root"),
            "stokes.curves": (c["stokes.curves"], "count"),
            "stokes.points": (c["stokes.points"], "count"),
            "stokes.self_s": (t["stokes"]["self_s"], "s"),
            "problem.self_s": (t["problem"]["self_s"], "s"),
            "cli.cells": (c["cli.cells"], "count"),
            "cli.self_s": (t["cli"]["self_s"], "s"),
        }
        for module in dict.fromkeys(_module_of(l) for l in LAYERS):
            out[f"{module}.errors"] = (self.errors[module], "count")
        return out
