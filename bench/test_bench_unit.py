"""Tests of the benchmark's own arithmetic and inputs.

Run with:  python3 -m pytest bench/test_bench_unit.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run_bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from biofilm_fv import diagnostics, harness, scheme  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]; d [11, 12] is a second root
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 9.0, 7.0, 12.0]
    np.testing.assert_allclose(spans.self_times(parent, start, end), [3.0, 3.0, 3.0, 1.0, 1.0])


def test_tracer_layers_sum_self_time_per_name():
    tracer = spans.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.span_name = [0, 1, 1, 0]
    tracer.span_parent = [-1, 0, 0, -1]
    tracer.span_start = [0.0, 1.0, 3.0, 10.0]
    tracer.span_end = [5.0, 2.0, 4.5, 11.0]
    layers = tracer.layers()
    assert layers["outer"] == (2, 6.0, 3.5)
    assert layers["inner"] == (2, 2.5, 2.5)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90),
    (1000, 99), (9999, 99), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run_bench.tail_percentile(n) == expected


@pytest.mark.parametrize("name", ["conv1d", "steady2d"])
def test_seed_zero_is_the_shipped_config_byte_for_byte(name):
    text = (ROOT / workloads.WORKLOADS[name].config).read_text(encoding="ascii")
    assert workloads.perturbed_config_text(text, 0) == text


def test_other_seeds_scale_only_the_u_d_line():
    text = (ROOT / "configs" / "case1-2d-steady.cfg").read_text(encoding="ascii")
    new = workloads.perturbed_config_text(text, 3)
    factor = workloads.perturbation_factor(3)
    changed = [(a, b) for a, b in zip(text.splitlines(), new.splitlines()) if a != b]
    assert changed == [("u_d = 0.1, 0.1", f"u_d = {0.1 * factor!r}, {0.1 * factor!r}")]
    assert workloads.perturbed_config_text(text, 3) == new


def test_perturbation_factor_is_seeded_and_in_range():
    factors = [workloads.perturbation_factor(s) for s in range(1, 50)]
    assert workloads.perturbation_factor(0) == 1.0
    assert all(0.98 <= f <= 1.02 for f in factors)
    assert factors == [workloads.perturbation_factor(s) for s in range(1, 50)]
    assert len(set(factors)) == len(factors)


def test_generated_workloads_at_seed_zero_are_the_stated_problems():
    sat = workloads.experiment_spec(workloads.WORKLOADS["sat1d"], 0, harness)
    assert (sat.u_d, sat.n_cells, sat.t_end, sat.alphas) == ((0.05, 0.05), 3840, 1.0, (1.0, 1.0))
    assert sat.initial_params["bump"] == (0.85, 0.85)
    fine = workloads.experiment_spec(workloads.WORKLOADS["fine2d"], 0, harness)
    assert (fine.nx, fine.ny, fine.t_end, fine.alphas) == (96, 96, 0.05, (1.0, 5.0))
    factor = workloads.perturbation_factor(7)
    moved = workloads.experiment_spec(workloads.WORKLOADS["fine2d"], 7, harness)
    assert moved.u_d == (0.1 * factor, 0.1 * factor)
    assert moved.initial == "bumps-2d" and moved.t_end == fine.t_end


def test_sat1d_seeds_shorten_the_horizon_and_keep_the_data():
    sat = workloads.experiment_spec(workloads.WORKLOADS["sat1d"], 0, harness)
    factor = workloads.perturbation_factor(7, (0.95, 1.0))
    assert 0.95 <= factor <= 1.0
    moved = workloads.experiment_spec(workloads.WORKLOADS["sat1d"], 7, harness)
    assert moved.t_end == factor
    assert (moved.u_d, moved.initial_params) == (sat.u_d, sat.initial_params)


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run_bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_metric_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run_bench.WORKLOAD_NAMES)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_traced_run_restores_the_program_and_counts_the_layers(tmp_path):
    spec = harness.ExperimentSpec(name="tiny", n_cells=40, t_end=1e-4, dt=1e-5)
    originals = (scheme.advance, harness.advance, scheme.residual, scheme.splu,
                 diagnostics.discrete_entropy, harness.get_model)
    tracer, clock = spans.Tracer(), spans.StepClock()
    replacements = tracer.traced_functions(clock, scheme, harness, diagnostics)
    with spans.replaced(replacements):
        result = tracer.wrap("entry", harness.run_evolution)(spec, out_dir=tmp_path)
    assert originals == (scheme.advance, harness.advance, scheme.residual, scheme.splu,
                         diagnostics.discrete_entropy, harness.get_model)

    metrics = tracer.metrics(traced_wall_s=1.0, untraced_wall_s=0.5)
    assert set(metrics) == {name for name, _ in spans.per_layer_metric_units()}
    iters = sum(r.newton_iters for r in result.reports)
    assert metrics["scheme.newton_step.calls"] == len(result.reports) == len(clock.reports)
    assert metrics["scheme.jacobian.calls"] == metrics["scheme.linear.factor.calls"] == iters
    assert metrics["scheme.newton.useful_iter_ratio"] == 1.0
    assert metrics["mesh.cells"] == 40 and metrics["mesh.edges"] == 41
    assert metrics["harness.bytes_written"] > 0
    assert 0.0 < metrics["scheme.advance.covered_ratio"] <= 1.0
    assert metrics["trace.overhead_s"] == 0.5
    assert len(clock.step_s) == len(result.reports)
    for name in spans.SPAN_NAMES:
        assert metrics[f"{name}.self_s"] <= metrics[f"{name}.s"] + 1e-12
