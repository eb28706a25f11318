"""Self-tests of the benchmark at a toy geometry.

    python3 -m pytest perfbench/test_perfbench.py -q

They check that every metric BENCHMARK.json names is emitted with its unit,
that each output check passes on a correct result and fires on a corrupted
one, and that the benchmark refuses to run without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, EvalWorkload, GaussWorkload, SynthWorkload  # noqa: E402

from phasecov import synthesis  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

TOY = {
    "synth-C": SynthWorkload("synth-C", "C", "toy", side=16, J=2, Q=4, iterations=2),
    "synth-D": SynthWorkload("synth-D", "D", "toy", side=16, J=2, Q=4, iterations=2),
    "gauss-A": GaussWorkload("gauss-A", "toy", side=16, J=2, Q=4, delta_n=1, samples=2000),
    "eval": EvalWorkload("eval", "toy", side=16, J=2, Q=4, fields=2, oracle_entries=16),
}


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """Each toy workload set up once and run for one unit."""
    out = {}
    for name, workload in TOY.items():
        workdir = tmp_path_factory.mktemp(name)
        state = workload.setup(SEED, workdir)
        out[name] = (workload, state, [workload.unit(state, 0)])
    return out


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_json_matches_the_workloads_and_layers():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert _units(BENCH["per_layer"]) == {n: u for n, (u, _) in layers.PER_LAYER.items()}
    assert {m["name"]: m["better"] for m in BENCH["per_layer"]} == {
        n: b for n, (_, b) in layers.PER_LAYER.items()}


@pytest.mark.parametrize("name", list(TOY))
def test_end_to_end_metrics_emitted_with_units(name, tmp_path):
    metrics, outcome, _ = run.measure(TOY[name], SEED, 0.0, tmp_path / "work")
    assert {k: m["unit"] for k, m in metrics.items()} == _units(BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())
    assert all(ok for _, ok, _ in outcome), outcome


@pytest.mark.parametrize("name", list(TOY))
def test_per_layer_metrics_emitted_with_units(name, tmp_path):
    metrics, outcome, _ = run.measure_traced(TOY[name], SEED, tmp_path / "work",
                                             tmp_path / "spans.csv")
    assert {k: m["unit"] for k, m in metrics.items()} == _units(BENCH["per_layer"])
    assert all(ok for _, ok, _ in outcome), outcome
    assert metrics["fft.calls"]["value"] > 0
    assert metrics["trace.spans"]["value"] > 0
    assert (tmp_path / "spans.csv").stat().st_size > 0
    if name.startswith("synth"):
        assert metrics["synthesis.value_and_grad.calls"]["value"] >= 1
        assert metrics["lbfgs.iterations"]["value"] == TOY[name].iterations
    if name == "gauss-A":
        assert metrics["gaussian.objective.calls"]["value"] > 0
        assert metrics["gaussian.constraint_error"]["value"] <= 1e-4


def test_tracer_restores_originals_and_is_exact_per_run():
    from phasecov import covariance

    before = (np.fft.fft2, covariance.phase_harmonic, covariance.EdgeComputer.edge_values)
    with tracing.Tracer() as tracer:
        layers.install(tracer)
        assert np.fft.fft2 is not before[0]
        tracer.run_id = "unit"
        np.fft.ifft2(np.fft.fft2(np.ones((4, 4))))
    assert (np.fft.fft2, covariance.phase_harmonic, covariance.EdgeComputer.edge_values) == before
    stats, _ = tracer.summary("unit")
    assert stats["fft.fft2"]["calls"] == 1 and stats["fft.ifft2"]["calls"] == 1
    assert tracer.counted("fft.bytes", "unit") == 2 * 16 * 16


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.run_id = "unit"

    def child():
        pass

    tracer.call("outer", lambda: tracer.call("inner", child))
    stats, inside = tracer.summary("unit", inside="outer")
    (name, start, end, _, _), (_, cstart, cend, parent, _) = tracer.spans
    assert parent == 0
    assert stats["outer"]["self_s"] == pytest.approx((end - start) - (cend - cstart))
    assert inside["inner"] == 1


@pytest.mark.parametrize("name", list(TOY))
def test_checks_pass_on_correct_results(ran, name):
    workload, state, results = ran[name]
    outcome = workload.checks(state, results)
    assert outcome and all(ok for _, ok, _ in outcome), outcome


@pytest.mark.parametrize("name", ["synth-C", "synth-D"])
def test_gradient_check_fires_on_scaled_gradient(ran, name):
    _, state, results = ran[name]
    x = results[0].samples[0]
    _, grad = synthesis.value_and_grad(x, state.target)

    def f(y):
        return synthesis.objective(y, state.target)

    assert checks.directional_derivative(f, x, grad)[1]
    assert not checks.directional_derivative(f, x, 1.01 * grad)[1]


def test_synthesis_checks_fire_on_bad_loss_and_reference():
    assert not checks.objective_at_reference(1e-300)[1]
    assert not checks.loss_curve([3.0, 2.0, 2.5])[1]
    assert not checks.loss_curve([3.0, float("nan")])[1]


def test_correlation_checks_fire_on_one_perturbed_entry(ran):
    _, state, results = ran["eval"]
    c_ref = results[0].c_ref
    verts = results[0].window.vertices(state.bank.J, state.bank.Q)
    filters = {ch: state.bank.filter(ch) for ch in state.bank.channels()}
    pairs = [(0, 5), (3, 3), (7, 2)]
    assert checks.correlation_structure(c_ref)[1]
    assert checks.correlation_oracle(c_ref, state.refs, filters, verts, pairs)[1]
    bad = c_ref.copy()
    bad[0, 5] += 1e-6
    assert not checks.correlation_structure(bad)[1]
    assert not checks.correlation_oracle(bad, state.refs, filters, verts, pairs)[1]
    assert not checks.self_error(1e-17)[1]


def test_fit_check_fires_on_error_above_tolerance(ran):
    _, _, results = ran["gauss-A"]
    state = results[0].state
    assert checks.gaussian_fit(state)[1]
    assert not checks.gaussian_fit(dataclasses.replace(state, constraint_error=1.5e-4))[1]
    assert not checks.gaussian_fit(dataclasses.replace(state, converged=False))[1]


def test_spectrum_check_fires_on_wrong_spectrum(ran):
    _, _, results = ran["gauss-A"]
    state, samples = results[0].state, results[0].samples
    assert checks.sample_spectrum(state.spectrum, samples)[1]
    assert not checks.sample_spectrum(1.2 * state.spectrum, samples)[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "synth-C", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
