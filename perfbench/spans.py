"""Per-layer spans, recorded by wrapping the package's public functions.

The wrappers are installed from here at run time; the package itself is not
changed.  Each call of a wrapped function opens a span with its layer,
function, thread, parent span and start and end times.  A call made while a
span of the same layer is open on the same thread runs unwrapped, so a
recursive or layered function is timed at its outermost call only.  A
layer's self time is its spans' time minus the time of their child spans on
the same thread.  Spans on ``_grid_map``'s pool threads have no parent, and
their times add up across threads, so a layer's time can exceed the wall
time of the run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import threading
import time

from gradedgeo.exprfield import Jet

# layer -> the functions whose calls it counts, as module:qualname
LAYERS = {
    "exprfield.parse": ["exprfield:parse_field"],
    # diff_expr is reached only through ScalarField.d; wrapping the
    # recursion itself would add a wrapper call per expression node
    "exprfield.diff": ["exprfield:ScalarField.d"],
    "exprfield.point_eval": ["exprfield:ScalarField.__call__"],
    "exprfield.jet_eval": ["exprfield:eval_jet", "exprfield:eval_jets_batch", "exprfield:eval_jet_batch"],
    "exprfield.jet_mul": ["exprfield:Jet.__mul__"],
    "riemann.symbolic": [
        "riemann:MetricSpec.det_field",
        "riemann:MetricSpec.inverse_fields",
        "riemann:MetricSpec.christoffel_fields",
    ],
    "riemann.point": [
        "riemann:metric_at", "riemann:christoffel_at", "riemann:riemann_at",
        "riemann:curvature_data_at", "riemann:ricci_at", "riemann:scalar_curvature_at",
        "riemann:gradient_at", "riemann:hessian_at", "riemann:laplacian_at",
        "riemann:divergence_vec_at", "riemann:divergence_sym2_at", "riemann:signature_at",
    ],
    "riemann.batch": ["riemann:curvature_data_batch"],
    "graded.residual": ["graded:field_residuals_at"],
    "graded.blocks": [
        "graded:graded_ricci_at", "graded:tilde_T_at", "graded:tr_tilde_T_at",
        "graded:graded_hessian_at", "graded:graded_scalar_at",
    ],
    "graded.triple": ["graded:levicivita_triple", "graded:stress_fields", "graded:graded_apply_field"],
    "graded.variation_build": ["graded:bump_variation"],
    "graded.action": ["graded:hilbert_action", "graded:action_magnitude", "graded:action_first_variation"],
    "algebroid": ["algebroid:koszul_eval", "algebroid:pairing_field", "algebroid:bracket", "algebroid:vector_apply"],
    "validate.frame": ["validate:check_ricci_blocks_frame", "validate:check_scalar_frame"],
    "validate.checks": [
        "validate:check_koszul_vs_triple", "validate:check_metric_compatibility",
        "validate:check_torsion_free", "validate:check_trace_identities",
        "validate:check_conservation_identity", "validate:check_equivalence_joint",
    ],
    "quadrature.rule": ["quadrature:tensor_rule"],
    "config.load": ["config:load_config", "config:build_graded_metric", "config:grid_points"],
    "cli.grid_map": ["cli:_grid_map"],
    "cli.format": [
        "cli:cmd_report", "cli:cmd_residuals", "cli:cmd_validate", "cli:cmd_cosmo", "cli:cmd_action",
    ],
}

# Per-layer metric -> (layer, what it reads): calls, self seconds, or the
# layer's work count (WORK).  Times are self times; cli.grid_map's work runs
# on pool threads, so on its own thread its self time is all of its time.
METRICS = {
    "exprfield.parse_calls": ("exprfield.parse", "calls"),
    "exprfield.parse_s": ("exprfield.parse", "self_s"),
    "exprfield.diff_calls": ("exprfield.diff", "calls"),
    "exprfield.diff_s": ("exprfield.diff", "self_s"),
    "exprfield.point_eval_calls": ("exprfield.point_eval", "calls"),
    "exprfield.point_eval_s": ("exprfield.point_eval", "self_s"),
    "exprfield.jet_eval_calls": ("exprfield.jet_eval", "calls"),
    "exprfield.jet_eval_s": ("exprfield.jet_eval", "self_s"),
    "exprfield.jet_batch_points": ("exprfield.jet_eval", "work"),
    "exprfield.jet_mul_calls": ("exprfield.jet_mul", "calls"),
    "exprfield.jet_mul_s": ("exprfield.jet_mul", "self_s"),
    "exprfield.jet_mul_terms": ("exprfield.jet_mul", "work"),
    "riemann.symbolic_s": ("riemann.symbolic", "self_s"),
    "riemann.point_calls": ("riemann.point", "calls"),
    "riemann.point_s": ("riemann.point", "self_s"),
    "riemann.batch_s": ("riemann.batch", "self_s"),
    "graded.residual_calls": ("graded.residual", "calls"),
    "graded.residual_s": ("graded.residual", "self_s"),
    "graded.blocks_s": ("graded.blocks", "self_s"),
    "graded.triple_s": ("graded.triple", "self_s"),
    "graded.variation_build_s": ("graded.variation_build", "self_s"),
    "graded.action_s": ("graded.action", "self_s"),
    "algebroid.s": ("algebroid", "self_s"),
    "validate.frame_s": ("validate.frame", "self_s"),
    "validate.checks_s": ("validate.checks", "self_s"),
    "quadrature.rule_s": ("quadrature.rule", "self_s"),
    "config.load_s": ("config.load", "self_s"),
    "cli.grid_map_s": ("cli.grid_map", "self_s"),
    "cli.format_s": ("cli.format", "self_s"),
}

# Spans kept for the trace file, over all threads; past this many only the
# layer totals grow, so memory stays bounded on long runs.
SPAN_CAP = 50_000


def _points(result) -> int:
    """Length of the point axis of a jet or of the first of a list of jets."""
    if isinstance(result, list):
        if not result:
            return 0
        result = result[0]
    return 1 if result.coeffs.ndim == 1 else result.coeffs.shape[-1]


def _mul_terms(args) -> int:
    """Coefficient products of one Jet.__mul__ call."""
    a, b = args
    npts = 1 if a.coeffs.ndim == 1 else a.coeffs.shape[-1]
    per_point = len(a.space._mul_a) if isinstance(b, Jet) else a.space.count
    return per_point * npts


# layer -> (counts from the arguments, counts from the result)
WORK = {
    "exprfield.jet_eval": (None, _points),
    "exprfield.jet_mul": (_mul_terms, None),
}


class _Thread:
    """What one thread recorded."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []  # open spans: [child seconds, span index]
        self.open: set[str] = set()
        self.spans: list = []
        # per layer: calls, self seconds, inclusive seconds, work count
        self.totals = {layer: [0, 0.0, 0.0, 0] for layer in LAYERS}


class _Local(threading.local):
    def __init__(self, tracer: "Tracer"):
        with tracer.lock:
            self.thread = _Thread(len(tracer.threads))
            tracer.threads.append(self.thread)


class Tracer:
    """Installs the span wrappers and aggregates what they record."""

    def __init__(self):
        self.lock = threading.Lock()
        self.threads: list[_Thread] = []
        self.local = _Local(self)
        self.numbered = itertools.count()  # next() is atomic across threads
        self.functions: list[str] = []
        self.origin = time.perf_counter()

    def _wrap(self, layer: str, fn, name: str):
        local, numbered = self.local, self.numbered
        func = len(self.functions)
        self.functions.append(name)
        before, after = WORK.get(layer, (None, None))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = local.thread
            if layer in state.open:
                return fn(*args, **kwargs)
            stack, spans = state.stack, state.spans
            parent = stack[-1] if stack else None
            if next(numbered) < SPAN_CAP:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
            frame = [0.0, index]
            stack.append(frame)
            state.open.add(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                state.open.discard(layer)
                stack.pop()
                took = end - start
                if parent is not None:
                    parent[0] += took
                total = state.totals[layer]
                total[0] += 1
                total[1] += took - frame[0]
                total[2] += took
                if index >= 0:
                    spans[index] = (layer, func, parent[1] if parent else -1, start - self.origin, end - self.origin)
            if before is not None:
                total[3] += before(args)
            if after is not None:
                total[3] += after(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed function wherever the package holds a reference.

        May be entered more than once; the totals and spans accumulate.
        """
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "gradedgeo" or name.startswith("gradedgeo.")
        }
        owners = list(modules.values()) + [
            obj for mod in modules.values() for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__.startswith("gradedgeo")
        ]
        undo = []
        for layer, names in LAYERS.items():
            for name in names:
                module, qualname = name.split(":")
                owner = modules[f"gradedgeo.{module}"]
                for part in qualname.split(".")[:-1]:
                    owner = getattr(owner, part)
                original = vars(owner)[qualname.split(".")[-1]]
                traced = self._wrap(layer, original, name)
                for obj in owners:
                    for key, value in list(vars(obj).items()):
                        if value is original:
                            undo.append((obj, key, value))
                            setattr(obj, key, traced)
        try:
            yield self
        finally:
            for obj, key, value in reversed(undo):
                setattr(obj, key, value)

    def totals(self) -> dict[str, dict]:
        """Per layer, summed over threads: calls, self_s, inclusive_s, work."""
        out = {layer: [0, 0.0, 0.0, 0] for layer in LAYERS}
        for ts in self.threads:
            for layer, values in ts.totals.items():
                out[layer] = [a + b for a, b in zip(out[layer], values)]
        keys = ("calls", "self_s", "inclusive_s", "work")
        return {layer: dict(zip(keys, values)) for layer, values in out.items()}

    def metrics(self) -> dict[str, dict]:
        totals = self.totals()
        return {
            name: {"value": totals[layer][what], "unit": "s" if what == "self_s" else "count"}
            for name, (layer, what) in METRICS.items()
        }

    def write(self, path, meta: dict) -> None:
        spans = []
        dropped = 0
        for ts in self.threads:
            kept = [s for s in ts.spans if s is not None]
            dropped += sum(calls for calls, *_ in ts.totals.values()) - len(kept)
            spans += [[layer, self.functions[f], ts.index, parent, start, end]
                      for layer, f, parent, start, end in kept]
        doc = {
            **meta,
            "span_fields": ["layer", "function", "thread", "parent", "start_s", "end_s"],
            "spans": spans,
            "spans_not_kept": dropped,
            "layers": self.totals(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
