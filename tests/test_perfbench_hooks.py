"""Every phasecov name the benchmark's traced runs wrap still exists.

``perfbench/layers.py`` looks each name up with ``getattr`` in the module its
caller reads it from, so a renamed or deleted name makes every traced run
raise ``AttributeError``.
"""

import sys
from pathlib import Path

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
