"""Every phasecov name the benchmark's traced runs wrap still exists.

``perfbench/layers.py`` looks each name up with ``getattr`` in the module its
caller reads it from, so a renamed or deleted name makes every traced run
raise ``AttributeError``.
"""

import sys
from pathlib import Path

import numpy as np

from phasecov import synthesis
from phasecov.graph import model_preset

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402


def test_install_wraps_every_name_and_restores_the_originals():
    with tracing.Tracer() as tracer:
        layers.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_traced_gradients_record_every_engine_span():
    """A model C and a model D ``value_and_grad`` under the installed wraps
    record a span for each engine entry point the per-layer metrics read, so a
    renamed method fails here rather than in a traced benchmark run."""
    rng = np.random.default_rng(0)
    engine = {"covariance.harmonic_rows", "covariance.edge_values", "covariance.gradient_fields"}
    for model in ("C", "D"):
        target = synthesis.build_target(rng.standard_normal((32, 32)), model_preset(model, J=3, Q=8))
        with tracing.Tracer() as tracer:
            layers.install(tracer)
            synthesis.value_and_grad(rng.standard_normal((32, 32)), target)
        names = [span[0] for span in tracer.spans]
        assert names[0] == "synthesis.value_and_grad", model
        assert engine <= set(names), model
