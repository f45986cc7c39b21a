"""Checks of the benchmark itself on a tiny configuration (n=11 meshes).

    python -m pytest bench/tests -q
"""

import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import workloads  # noqa: E402

TINY_DUAL = workloads.Workload("tiny_dual", flow_n=11, design="dual", design_n=11, t_end=20.0)
TINY_LOWGAIN = workloads.Workload("tiny_lowgain", flow_n=11, design="lowgain", t_end=40.0)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _printed_summary(result):
    out = io.StringIO()
    run.report(result, stream=out)
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def dual_untraced():
    return run.run(TINY_DUAL, seed=1, seconds=0.0, trace=False, probes=2)


@pytest.fixture(scope="module")
def dual_traced():
    return run.run(TINY_DUAL, seed=1, seconds=0.0, trace=True)


@pytest.fixture(scope="module")
def lowgain_traced():
    return run.run(TINY_LOWGAIN, seed=1, seconds=0.0, trace=True)


def test_declared_workloads_exist():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_match_benchmark_json(dual_untraced, dual_traced):
    spec = _spec()
    for result, declared in ((dual_untraced, spec["end_to_end"]), (dual_traced, spec["per_layer"])):
        summary = _printed_summary(result)
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] is True
        assert summary["failed"] == 0
        assert summary["attempted"] >= 1
        printed = {name: m["unit"] for name, m in summary["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared}


def test_end_to_end_metrics_are_positive(dual_untraced):
    for name, metric in dual_untraced["summary"]["metrics"].items():
        assert metric["value"] > 0, name


def _passing_values():
    return {
        "flow_finite": True,
        "internal_model": True,
        "tail_error": 0.01,
        "early_error": 1.0,
        "riccati": [
            {"name": "control", "residual": 1e-12, "decay": -1.0},
            {"name": "filter", "residual": 1e-12, "decay": -1.0},
        ],
    }


@pytest.mark.parametrize(
    "gate, violate",
    [
        ("flow_converged", lambda v: v.update(flow_finite=False)),
        ("riccati_control_residual", lambda v: v["riccati"][0].update(residual=2e-9)),
        ("riccati_filter_residual", lambda v: v["riccati"][1].update(residual=float("nan"))),
        ("riccati_control_decay", lambda v: v["riccati"][0].update(decay=0.0)),
        ("riccati_filter_decay", lambda v: v["riccati"][1].update(decay=1e-6)),
        ("internal_model", lambda v: v.update(internal_model=False)),
        ("tail_error", lambda v: v.update(tail_error=0.1)),
    ],
)
def test_each_gate_fails_on_violating_value(gate, violate):
    values = _passing_values()
    assert workloads.check_gates(values) == []
    violate(values)
    assert workloads.check_gates(values) == [gate]


def test_failed_gate_counts_as_failed_operation(monkeypatch):
    monkeypatch.setattr(workloads, "TAIL_TO_EARLY_MAX", 0.0)
    summary = run.run(TINY_LOWGAIN, seed=1, seconds=0.0, trace=False, probes=1)["summary"]
    # The warm-up and one timed operation.
    assert summary["attempted"] == 2
    assert summary["failed"] == 2
    assert summary["correct"] is False


def test_traced_run_has_parented_spans(dual_traced):
    assert len(dual_traced["traces"]) == 1
    spans = {s["id"]: s for s in dual_traced["traces"][0]}
    for s in spans.values():
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]

    def parent_name(s):
        return spans[s["parent"]]["name"] if s["parent"] is not None else None

    names = [s["name"] for s in spans.values()]
    assert names.count("lti.riccati_filter") == 1
    # The filter's inner control solve is its child, not a second control solve.
    control = [s for s in spans.values() if s["name"] == "lti.riccati_control"]
    assert sorted(parent_name(s) for s in control) == ["controller.synthesis", "lti.riccati_filter"]
    assert dual_traced["summary"]["metrics"]["lti.riccati_control_iters"]["value"] == control[0]["attrs"]["iterations"]
    assert {parent_name(s) for s in spans.values() if s["name"] == "sim.splu"} == {"sim.simulate"}
    assert {parent_name(s) for s in spans.values() if s["name"] == "flow.spsolve"} == {"flow.solve"}
    assert {parent_name(s).split(".")[0] for s in spans.values() if s["name"] == "lti.schur"} == {"lti"}
    assert {parent_name(s) for s in spans.values() if s["name"] == "fem.assemble"} == {"flow.solve", "plant.build"}


def test_lowgain_records_no_lti_calls(lowgain_traced):
    metrics = lowgain_traced["summary"]["metrics"]
    assert lowgain_traced["summary"]["correct"] is True
    lti = {name: m["value"] for name, m in metrics.items() if name.startswith("lti.")}
    assert lti and all(v == 0 for v in lti.values())
    assert not [s for trace in lowgain_traced["traces"] for s in trace if s["name"].startswith("lti.")]
    assert metrics["plant.transfer_value_s"]["value"] > 0

