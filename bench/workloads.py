"""The benchmark's workloads: one full pipeline run per operation.

A run solves the steady Navier-Stokes flow on the fine mesh, builds the
temperature plant on the fine mesh (and on the design mesh for the dual
design), designs a robust regulator on the unperturbed plant, and simulates
it against the fine plant after a seeded relative perturbation of +-1e-3 of
its drift, control and observation operators (the robustness setting of the
paper).

Every module is reached through its module attribute (``mesh.build_...``,
``plant.build_plant``, ...), so the wrappers of ``tracing`` see each call.
"""

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from thermoreg import controller, lti, mesh, plant, sim
from thermoreg import flow as flow_mod
from thermoreg.fem import ShapeSpec

B_SHAPE = ShapeSpec("indicator-rectangle", bounds=(0.0, 0.05, 0.1, 0.4))
BD_SHAPE = ShapeSpec("boundary-indicator")
C_SHAPE = ShapeSpec("indicator-rectangle", bounds=(0.7, 0.9, 0.1, 0.3), amplitude=0.2**-2)
REYNOLDS = 100.0
PRANDTL = 0.7
DT = 0.01
PERTURBATION = 1e-3
# Balanced-truncation order of the dual observer and gain of the low-gain design.
REDUCED_ORDER = 10
LOW_GAIN_EPS = 0.2
# Frequencies away from the internal-model poles +-1, +-2, +-3 at which the
# full and reduced dual controllers are compared.
FREQ_ERROR_OMEGAS = (0.5, 1.5, 2.5, 5.0)

# Gate thresholds.
RICCATI_RESIDUAL_MAX = 1e-9
TAIL_TO_EARLY_MAX = 0.1
EARLY_WINDOW = (0.0, 4.0)


@dataclass(frozen=True)
class Workload:
    """One pipeline configuration.

    ``design`` is ``"dual"`` (dual observer on the ``design_n`` mesh; the
    balanced-truncated controller is simulated) or ``"lowgain"`` (low-gain
    design from fine-plant transfer values, no design mesh).
    """

    name: str
    flow_n: int
    design: str
    t_end: float
    design_n: int = None


# One operation takes about 4-7 s on two cores, so that one run of 45 s
# reports the mean of 7-11 warm operations.  The paper-like sizes (dual on
# n=31 for an n=61 plant, low-gain on n=81) take 10-30 s per operation, too
# long for enough repeats within a run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dual_n21", flow_n=41, design="dual", design_n=21, t_end=20.0),
        Workload("lowgain_n61", flow_n=61, design="lowgain", t_end=40.0),
    )
}


@dataclass
class Meshes:
    fine: object
    design: object  # None for low-gain workloads


def build_meshes(workload):
    """Set-up: the fine (flow and simulated plant) mesh and the design mesh."""
    geometry = mesh.Geometry()
    fine = mesh.build_structured_mesh(geometry, workload.flow_n)
    design = mesh.build_structured_mesh(geometry, workload.design_n) if workload.design_n else None
    return Meshes(fine=fine, design=design)


def perturb_plant(p, seed):
    """Relative +-1e-3 perturbation of drift, control and observation."""
    rng = np.random.default_rng(seed)
    drift = p.drift.copy()
    drift.data = drift.data * (1.0 + PERTURBATION * rng.uniform(-1, 1, drift.data.size))
    return dataclasses.replace(
        p,
        drift=drift,
        control=p.control * (1.0 + PERTURBATION * rng.uniform(-1, 1, p.control.shape)),
        observation=p.observation * (1.0 + PERTURBATION * rng.uniform(-1, 1, p.observation.shape)),
    )


def run_pipeline(workload, meshes, seed):
    """One timed pipeline run.

    The controller is simulated against the fine plant perturbed with
    ``seed``, or against the unperturbed fine plant when ``seed`` is None.
    Returns ``(solve_s, outputs)``: the wall time from the start of the flow
    solve to the tracking metrics being computed, and everything the gates
    and per-layer metrics read.  Nothing after the clock stops is timed.
    """
    signals = sim.paper_signals()
    start = time.perf_counter()
    flow = flow_mod.solve_navier_stokes(meshes.fine, re=REYNOLDS)
    fine = plant.build_plant(meshes.fine, flow, REYNOLDS, PRANDTL, B_SHAPE, BD_SHAPE, C_SHAPE)
    out = {"flow": flow, "fine_plant": fine, "synthesis": None, "design_plant": None}
    if workload.design == "dual":
        design = plant.build_plant(meshes.design, flow, REYNOLDS, PRANDTL, B_SHAPE, BD_SHAPE, C_SHAPE)
        im = controller.build_internal_model(signals.frequencies, p=1)
        syn = controller.synthesize_dual_observer(plant.to_standard_form(design), im, r=REDUCED_ORDER)
        ctrl = syn.reduced
        out.update(design_plant=design, synthesis=syn)
    else:
        values = [plant.transfer_value(fine, 1j * w) for w in signals.frequencies]
        ctrl = controller.synthesize_low_gain(values, signals.frequencies, LOW_GAIN_EPS)
    loop = sim.assemble_closed_loop(fine if seed is None else perturb_plant(fine, seed), ctrl)
    res = sim.simulate(loop, signals, t_end=workload.t_end, dt=DT)
    metrics = sim.tracking_metrics(res)
    solve_s = time.perf_counter() - start
    out.update(controller=ctrl, result=res, tracking=metrics, frequencies=signals.frequencies)
    return solve_s, out


def gate_values(out):
    """The numbers the gates judge, read off one run's outputs (untimed)."""
    values = {
        "flow_finite": bool(np.all(np.isfinite(out["flow"].velocity)) and np.all(np.isfinite(out["flow"].pressure))),
        "internal_model": bool(
            controller.internal_model_eigenvalues_present(out["controller"], out["frequencies"])
        ),
        "tail_error": float(out["tracking"].sup_tail),
        "early_error": float(sim.window_max_error(out["result"], *EARLY_WINDOW)),
        "riccati": [],
    }
    syn = out["synthesis"]
    if syn is not None:
        for name, sol in (("control", syn.control_riccati), ("filter", syn.filter_riccati)):
            values["riccati"].append(
                {"name": name, "residual": float(sol.residual_norm), "decay": float(sol.closed_loop_decay)}
            )
    return values


def check_gates(values):
    """Names of the failed gates (empty when the run is correct).

    Flow Newton raises ``ConvergenceError`` when it does not converge, which
    fails the operation; a state it returns must also be finite.
    """
    failed = []
    if not values["flow_finite"]:
        failed.append("flow_converged")
    for ric in values["riccati"]:
        if not ric["residual"] <= RICCATI_RESIDUAL_MAX:
            failed.append(f"riccati_{ric['name']}_residual")
        if not ric["decay"] < 0.0:
            failed.append(f"riccati_{ric['name']}_decay")
    if not values["internal_model"]:
        failed.append("internal_model")
    if not values["tail_error"] < TAIL_TO_EARLY_MAX * values["early_error"]:
        failed.append("tail_error")
    return failed


def describe(out):
    """State sizes of every plant and controller in one run."""
    sizes = {"fine_plant_states": int(out["fine_plant"].drift.shape[0])}
    if out["design_plant"] is not None:
        sizes["design_plant_states"] = int(out["design_plant"].drift.shape[0])
    syn = out["synthesis"]
    if syn is not None:
        sizes["full_controller_order"] = int(syn.full.dim)
        sizes["reduced_controller_order"] = int(syn.reduced.dim)
    sizes["simulated_controller_order"] = int(out["controller"].dim)
    return sizes


def frequency_error(out):
    """Full vs reduced dual controller, away from the internal-model poles."""
    syn = out["synthesis"]
    if syn is None:
        return 0.0
    return float(
        lti.sample_frequency_error(syn.full.as_statespace(), syn.reduced.as_statespace(), FREQ_ERROR_OMEGAS)
    )
