"""Where the traced run wraps phasecov, and the per-layer metrics it reports.

Each callable is wrapped in the namespace its caller looks it up in, so a
function imported by name into another module is wrapped there (for
example ``covariance.phase_harmonic`` as well as ``evaluation.phase_harmonic``).
"""

import statistics

import numpy.fft

from phasecov import covariance, evaluation, gaussian, synthesis, wavelets
from phasecov import io as pio

from tracing import Tracer

# (unit, better) of every per-layer metric, in report order
PER_LAYER = {
    "fft.calls": ("count", "lower"),
    "fft.calls_per_eval": ("count", "lower"),
    "fft.self_s": ("s", "lower"),
    "fft.bytes_computed": ("bytes", "lower"),
    "covariance.harmonic_rows.self_s": ("s", "lower"),
    "covariance.edge_values.self_s": ("s", "lower"),
    "covariance.gradient_fields.self_s": ("s", "lower"),
    "covariance.fix_groups": ("count", "lower"),
    "covariance.rot_groups": ("count", "lower"),
    "harmonics.phase_harmonic.calls": ("count", "lower"),
    "harmonics.phase_harmonic.self_s": ("s", "lower"),
    "harmonics.harmonic_derivative.calls": ("count", "lower"),
    "harmonics.harmonic_derivative.self_s": ("s", "lower"),
    "wavelets.channel_fields.calls": ("count", "lower"),
    "wavelets.channel_fields.self_s": ("s", "lower"),
    "wavelets.build_bump_bank_s": ("s", "lower"),
    "synthesis.build_target_s": ("s", "lower"),
    "synthesis.value_and_grad.calls": ("count", "lower"),
    "synthesis.value_and_grad.p50_s": ("s", "lower"),
    "synthesis.loss_ratio": ("ratio", "lower"),
    "lbfgs.iterations": ("count", "lower"),
    "lbfgs.fun_evals": ("count", "lower"),
    "lbfgs.useful_ratio": ("ratio", "higher"),
    "lbfgs.armijo_fallbacks": ("count", "lower"),
    "lbfgs.self_s": ("s", "lower"),
    "gaussian.objective.calls": ("count", "lower"),
    "gaussian.denominator.self_s": ("s", "lower"),
    "gaussian.model_covariances.self_s": ("s", "lower"),
    "gaussian.newton_refine_s": ("s", "lower"),
    "gaussian.constraint_error": ("ratio", "lower"),
    "gaussian.sample_s": ("s", "lower"),
    "evaluation.correlation_matrix.self_s": ("s", "lower"),
    "evaluation.correlation_error_s": ("s", "lower"),
    "evaluation.long_range_profile_s": ("s", "lower"),
    "evaluation.structure_error_s": ("s", "lower"),
    "covariance.gaussianity_report_s": ("s", "lower"),
    "io.read_field_s": ("s", "lower"),
    "io.write_field_s": ("s", "lower"),
    "io.bytes": ("bytes", "lower"),
    "process.minor_faults": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _count_fft_bytes(tracer, args, result):
    tracer.count("fft.bytes", result.nbytes)


def _count_io_bytes(tracer, args, result):
    array = result if result is not None else args[1]
    tracer.count("io.bytes", array.nbytes)


def _trace_fun_grad(tracer, args, kwargs):
    fun_grad = args[0]
    return (lambda x: tracer.call("lbfgs.fun_grad", fun_grad, x),) + args[1:], kwargs


def _count_lbfgs(tracer, args, result):
    tracer.count("lbfgs.iterations", result.iterations)
    tracer.count("lbfgs.armijo_fallbacks", result.armijo_fallbacks)


def install(tracer: Tracer):
    """Wrap every traced callable of phasecov (and numpy.fft) on ``tracer``."""
    w = tracer.wrap
    w(numpy.fft, "fft2", "fft.fft2", after=_count_fft_bytes)
    w(numpy.fft, "ifft2", "fft.ifft2", after=_count_fft_bytes)
    for module in (covariance, evaluation):
        w(module, "phase_harmonic", "harmonics.phase_harmonic")
        w(module, "channel_fields", "wavelets.channel_fields")
    w(covariance, "harmonic_derivative", "harmonics.harmonic_derivative")
    for method in ("harmonic_rows", "edge_values", "gradient_fields"):
        w(covariance.EdgeComputer, method, f"covariance.{method}")
    w(covariance, "gaussianity_report", "covariance.gaussianity_report")
    w(wavelets, "build_bump_bank", "wavelets.build_bump_bank")
    for name in ("build_target", "synthesize", "objective", "value_and_grad"):
        w(synthesis, name, f"synthesis.{name}")
    for module in (synthesis, gaussian):
        w(module, "lbfgs_minimize", "lbfgs.minimize", before=_trace_fun_grad, after=_count_lbfgs)
    for method in ("objective", "denominator", "model_covariances", "newton_refine"):
        w(gaussian.GaussianDual, method, f"gaussian.{method}")
    for name in ("wavelet_covariance_targets", "fit_gaussian_model", "sample_gaussian"):
        w(gaussian, name, f"gaussian.{name}")
    for name in ("correlation_matrix", "correlation_error", "long_range_profile", "structure_error"):
        w(evaluation, name, f"evaluation.{name}")
    w(pio, "read_field", "io.read_field", after=_count_io_bytes)
    w(pio, "write_field", "io.write_field", after=_count_io_bytes)


def metrics(tracer, eval_span, structure, output, overhead_s, minor_faults):
    """Per-layer metrics of a traced run.

    Timed metrics come from the spans of run id ``unit``; set-up metrics are
    medians over the ``setup-*`` runs; I/O covers the first set-up plus the
    unit.  ``structure`` holds counts read off the set-up (pair groups) and
    ``output`` values read off the unit's result.
    """
    stats, inside = tracer.summary("unit", inside=eval_span)
    setup, _ = tracer.summary("setup")
    io, _ = tracer.summary(("setup-0", "unit"))

    def calls(name, table=stats):
        return table[name]["calls"] if name in table else 0

    def self_s(name, table=stats):
        return table[name]["self_s"] if name in table else 0.0

    def total_s(name, table=stats):
        return table[name]["total_s"] if name in table else 0.0

    def median_s(name, table=stats):
        return statistics.median(table[name]["durations"]) if name in table else 0.0

    fft = [n for n in stats if n.startswith("fft.")]
    evals = calls(eval_span)
    iterations = tracer.counted("lbfgs.iterations", "unit")
    fun_evals = calls("lbfgs.fun_grad")
    out = {
        "fft.calls": sum(calls(n) for n in fft),
        "fft.calls_per_eval": sum(inside[n] for n in fft) / evals if evals else 0.0,
        "fft.self_s": sum(self_s(n) for n in fft),
        "fft.bytes_computed": tracer.counted("fft.bytes", "unit"),
        "covariance.harmonic_rows.self_s": self_s("covariance.harmonic_rows"),
        "covariance.edge_values.self_s": self_s("covariance.edge_values"),
        "covariance.gradient_fields.self_s": self_s("covariance.gradient_fields"),
        "harmonics.phase_harmonic.calls": calls("harmonics.phase_harmonic"),
        "harmonics.phase_harmonic.self_s": self_s("harmonics.phase_harmonic"),
        "harmonics.harmonic_derivative.calls": calls("harmonics.harmonic_derivative"),
        "harmonics.harmonic_derivative.self_s": self_s("harmonics.harmonic_derivative"),
        "wavelets.channel_fields.calls": calls("wavelets.channel_fields"),
        "wavelets.channel_fields.self_s": self_s("wavelets.channel_fields"),
        "wavelets.build_bump_bank_s": median_s("wavelets.build_bump_bank", setup),
        "synthesis.build_target_s": median_s("synthesis.build_target", setup),
        "synthesis.value_and_grad.calls": calls("synthesis.value_and_grad"),
        "synthesis.value_and_grad.p50_s": median_s("synthesis.value_and_grad"),
        "lbfgs.iterations": iterations,
        "lbfgs.fun_evals": fun_evals,
        "lbfgs.useful_ratio": iterations / fun_evals if fun_evals else 0.0,
        "lbfgs.armijo_fallbacks": tracer.counted("lbfgs.armijo_fallbacks", "unit"),
        "lbfgs.self_s": self_s("lbfgs.minimize"),
        "gaussian.objective.calls": calls("gaussian.objective"),
        "gaussian.denominator.self_s": self_s("gaussian.denominator"),
        "gaussian.model_covariances.self_s": self_s("gaussian.model_covariances"),
        "gaussian.newton_refine_s": total_s("gaussian.newton_refine"),
        "gaussian.sample_s": total_s("gaussian.sample_gaussian"),
        "evaluation.correlation_matrix.self_s": self_s("evaluation.correlation_matrix"),
        "evaluation.correlation_error_s": total_s("evaluation.correlation_error"),
        "evaluation.long_range_profile_s": total_s("evaluation.long_range_profile"),
        "evaluation.structure_error_s": total_s("evaluation.structure_error"),
        "covariance.gaussianity_report_s": total_s("covariance.gaussianity_report"),
        "io.read_field_s": total_s("io.read_field", io),
        "io.write_field_s": total_s("io.write_field", io),
        "io.bytes": tracer.counted("io.bytes", ("setup-0", "unit")),
        "process.minor_faults": minor_faults,
        "trace.spans": sum(s["calls"] for s in stats.values()),
        "trace.overhead_s": overhead_s,
    }
    out.update(structure)
    out.update(output)
    return {name: {"value": float(out.get(name, 0.0)), "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()}
