"""Spans around the layer boundaries, recorded from outside the package.

``Tracer.installed()`` replaces module attributes with timing wrappers and
restores them on exit.  The package reaches every wrapped function through a
module-attribute lookup (``fem.assemble_mass``, ``lti.solve_riccati_control``,
``sla.schur``, ``spla.splu``, ...), so the wrappers see every call, including
``solve_riccati_filter``'s inner call of ``solve_riccati_control``.

Each span records its name, start, end and parent.  A library span
(``schur``, ``spsolve``, ``splu``) is named after the layer of the span that
caused it (``lti.schur``, ``flow.spsolve``, ``sim.splu``), so library time is
counted under the layer that asked for it.  Spans stay in memory until the
run writes them out.
"""

import contextlib
import functools
import time
from dataclasses import asdict, dataclass, field

import scipy.linalg
import scipy.sparse.linalg

from thermoreg import controller, fem, flow, lti, mesh, plant, sim


@dataclass
class Span:
    id: int
    name: str
    parent: int  # None for a root span
    start: float
    end: float = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


def _flow_attrs(state):
    return {"newton_iters": state.newton_iterations, "divergence_norm": float(state.divergence_norm)}


def _riccati_attrs(sol):
    return {"iterations": sol.iterations, "residual": float(sol.residual_norm)}


# (module, attribute, span name, attributes read off the return value)
_LAYER_TARGETS = [
    (mesh, "build_structured_mesh", "mesh.build", None),
    (flow, "solve_navier_stokes", "flow.solve", _flow_attrs),
    (plant, "build_plant", "plant.build", lambda p: {"states": p.drift.shape[0]}),
    (plant, "to_standard_form", "plant.standard_form", None),
    (plant, "transfer_value", "plant.transfer_value", None),
    (lti, "solve_riccati_control", "lti.riccati_control", _riccati_attrs),
    (lti, "solve_riccati_filter", "lti.riccati_filter", _riccati_attrs),
    (lti, "balanced_truncation", "lti.balanced_truncation", lambda r: {"error_bound": float(r.error_bound)}),
    (controller, "synthesize_dual_observer", "controller.synthesis", None),
    (controller, "synthesize_low_gain", "controller.synthesis", None),
    (sim, "simulate", "sim.simulate", lambda r: {"steps": r.t.size - 1}),
] + [(fem, name, "fem.assemble", None) for name in sorted(vars(fem)) if name.startswith("assemble_")]

# Library calls: (module, attribute, operation); the span takes the caller's layer.
_LIBRARY_TARGETS = [
    (scipy.linalg, "schur", "schur"),
    (scipy.sparse.linalg, "spsolve", "spsolve"),
    (scipy.sparse.linalg, "splu", "splu"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._origin = time.perf_counter()

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name() if callable(name) else name
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), span_name, parent, time.perf_counter() - self._origin)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter() - self._origin
                self._stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(result))
            return result

        return wrapper

    def _library_name(self, operation):
        return lambda: f"{self._stack[-1].layer if self._stack else 'bench'}.{operation}"

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, attr, name, attrs in _LAYER_TARGETS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(getattr(module, attr), name, attrs))
            for module, attr, operation in _LIBRARY_TARGETS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(getattr(module, attr), self._library_name(operation), None))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def records(self):
        return [asdict(s) for s in self.spans]


def self_times(spans):
    """Per layer: span durations minus the time their child spans cover."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time.get(s.id, 0.0)
    return out


def layer_metrics(spans):
    """Per-layer numbers of one traced pipeline run.

    ``lti.riccati_control_*`` counts only control solves that are not the
    inner solve of a filter Riccati equation; that inner solve is part of
    ``lti.riccati_filter``.
    """
    by_id = {s.id: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum((s.duration for s in named(name)), 0.0)

    control = [
        s for s in named("lti.riccati_control")
        if s.parent is None or by_id[s.parent].name != "lti.riccati_filter"
    ]
    filters = named("lti.riccati_filter")
    flows = named("flow.solve")
    bts = named("lti.balanced_truncation")
    plants = named("plant.build")
    steps = sum(s.attrs["steps"] for s in named("sim.simulate"))
    simulate_s, sim_splu_s = total("sim.simulate"), total("sim.splu")
    metrics = {
        "mesh.build_s": total("mesh.build"),
        "fem.assemble_s": total("fem.assemble"),
        "fem.assemble_calls": len(named("fem.assemble")),
        "flow.solve_s": total("flow.solve"),
        "flow.newton_iters": sum(s.attrs["newton_iters"] for s in flows),
        "flow.spsolve_s": total("flow.spsolve"),
        "flow.spsolve_calls": len(named("flow.spsolve")),
        "flow.divergence_norm": max((s.attrs["divergence_norm"] for s in flows), default=0.0),
        "plant.build_s": total("plant.build"),
        "plant.standard_form_s": total("plant.standard_form"),
        "plant.transfer_value_s": total("plant.transfer_value"),
        "plant.states": max((s.attrs["states"] for s in plants), default=0),
        "lti.riccati_control_s": sum((s.duration for s in control), 0.0),
        "lti.riccati_control_iters": sum(s.attrs["iterations"] for s in control),
        "lti.riccati_control_residual": max((s.attrs["residual"] for s in control), default=0.0),
        "lti.riccati_filter_s": total("lti.riccati_filter"),
        "lti.riccati_filter_iters": sum(s.attrs["iterations"] for s in filters),
        "lti.riccati_filter_residual": max((s.attrs["residual"] for s in filters), default=0.0),
        "lti.balanced_truncation_s": total("lti.balanced_truncation"),
        "lti.bt_error_bound": max((s.attrs["error_bound"] for s in bts), default=0.0),
        "lti.schur_calls": len(named("lti.schur")),
        "lti.schur_s": total("lti.schur"),
        "controller.synthesis_s": total("controller.synthesis"),
        "sim.simulate_s": simulate_s,
        "sim.steps": steps,
        "sim.step_us": 1e6 * (simulate_s - sim_splu_s) / steps if steps else 0.0,
        "sim.splu_s": sim_splu_s,
    }
    layer_self = self_times(spans)
    for layer in ("fem", "flow", "plant", "lti", "controller", "sim"):
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return metrics
