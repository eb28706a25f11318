"""The benchmark's workloads: inputs from the seed, set-up, timed unit, checks.

Each workload replays one CLI command through the public functions that
command calls, with every call made through the module attribute so the
traced run can wrap it:

* ``synth-C`` / ``synth-D``: ``phasecov synth`` (the target is built in
  set-up, each unit is one L-BFGS restart with a fixed iteration budget
  and the early stops off);
* ``gauss-A``: ``phasecov gauss-fit`` then ``phasecov gauss-sample``;
* ``eval``: ``phasecov eval`` followed by ``phasecov gauss-test``.

Inputs are generated with numpy only from the workload seed, written as
``.phkf`` files and read back through ``phasecov.io``, so the program sees
only generated files.
"""

import json
import statistics
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from phasecov import covariance, evaluation, gaussian, graph, synthesis, wavelets
from phasecov import io as pio

import checks

def gaussian_field(side, rng, slope):
    """Stationary Gaussian field with power spectrum 1 / (1 + |m|)^slope."""
    m = np.fft.fftfreq(side) * side
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    amp = (1.0 + np.hypot(m1, m2)) ** (-slope / 2)
    return np.real(np.fft.ifft2(amp * np.fft.fft2(rng.standard_normal((side, side)))))


def texture(side, rng):
    """Heavy-tailed stationary texture: white noise under log-normal modulation."""
    g = gaussian_field(side, rng, slope=1.5)
    return rng.standard_normal((side, side)) * np.exp(0.5 * g / np.std(g))


def _write_config(path, doc):
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return pio.load_config(path)


class SynthWorkload:
    """``phasecov synth`` for one model on a heavy-tailed texture."""

    eval_callable = (synthesis, "value_and_grad")
    eval_span = "synthesis.value_and_grad"
    # A restart's evaluation count depends on the seed through its first line
    # search, so its time is reported per evaluation.
    cpu_per_eval = True

    def __init__(self, name, model, why, side=64, J=5, Q=16, iterations=6):
        self.name, self.model, self.why = name, model, why
        self.side, self.J, self.Q, self.iterations = side, J, Q, iterations

    def geometry(self):
        return {"model": self.model, "side": self.side, "J": self.J, "Q": self.Q,
                "iterations_per_restart": self.iterations, "early_stops": "off",
                "input": "log-normal-modulated white noise"}

    def setup(self, seed, workdir):
        x = texture(self.side, np.random.default_rng(seed))
        pio.write_field(workdir / "reference.phkf", x)
        cfg = _write_config(workdir / "config.json", {
            "model": {"name": self.model, "J": self.J, "Q": self.Q},
            "optimizer": {"max_iter": self.iterations, "eps_ratio": 0.0, "gtol": 0.0},
            "seed": seed, "restarts": 1,
        })
        spec = cfg["spec"]
        xbar = pio.read_field(workdir / "reference.phkf")
        bank = wavelets.build_bump_bank(self.side, spec.J, spec.Q)
        target = synthesis.build_target(xbar, spec, bank)
        return SimpleNamespace(seed=seed, workdir=workdir, spec=spec, xbar=xbar, target=target)

    def structure(self, st):
        kinds = [key[0] for key in st.target.computer.pair_groups]
        return {"covariance.fix_groups": kinds.count("fix"),
                "covariance.rot_groups": kinds.count("rot")}

    def unit(self, st, index):
        """One restart; each unit index starts from its own white noise."""
        result = synthesis.synthesize(st.xbar, st.spec, n_restarts=1,
                                      seed=st.seed + index, target=st.target)
        pio.write_field(st.workdir / f"sample_{index:03d}.phkf", result.samples[0])
        curve = [(index, t, float(v)) for t, v in enumerate(result.loss_curves[0])]
        pio.write_csv(st.workdir / "loss_curves.csv", ["restart", "iteration", "loss"], curve)
        return result

    def loss_ratio(self, result):
        return result.losses[0] / result.initial_losses[0]

    def output(self, result):
        return {"synthesis.loss_ratio": self.loss_ratio(result)}

    def info(self, results):
        ratio = statistics.median(self.loss_ratio(r) for r in results)
        return {"loss_ratio": {"value": ratio, "unit": "ratio"}}

    def checks(self, st, results):
        out = [checks.objective_at_reference(synthesis.objective(st.xbar, st.target))]
        out += [checks.loss_curve(r.loss_curves[0]) for r in results]
        x = results[-1].samples[0]
        _, grad = synthesis.value_and_grad(x, st.target)
        out.append(checks.directional_derivative(lambda y: synthesis.objective(y, st.target), x, grad))
        return out


class GaussWorkload:
    """``phasecov gauss-fit`` + ``gauss-sample`` on a Gaussian 1/f field."""

    eval_callable = (gaussian.GaussianDual, "objective")
    eval_span = "gaussian.objective"
    # The fit's evaluation count depends on the seed (2,065 to 3,926 calls at
    # this geometry), so its time is reported per evaluation.
    cpu_per_eval = True

    def __init__(self, name, why, side=64, J=4, Q=8, delta_n=2, samples=1000):
        self.name, self.why = name, why
        self.side, self.J, self.Q, self.delta_n, self.samples = side, J, Q, delta_n, samples

    def geometry(self):
        return {"model": "A", "side": self.side, "J": self.J, "Q": self.Q,
                "delta_n": self.delta_n, "samples": self.samples, "constraint_tolerance": 1e-4,
                "input": "Gaussian field, spectrum 1/(1+|m|)"}

    def setup(self, seed, workdir):
        x = gaussian_field(self.side, np.random.default_rng(seed), slope=1.0)
        pio.write_field(workdir / "reference.phkf", x)
        cfg = _write_config(workdir / "config.json", {
            "model": {"name": "A", "J": self.J, "Q": self.Q, "delta_n": self.delta_n},
            "seed": seed,
        })
        spec = cfg["spec"]
        xbar = pio.read_field(workdir / "reference.phkf")
        bank = wavelets.build_bump_bank(self.side, spec.J, spec.Q)
        edges = graph.build_foveal_edges(spec).edges
        dual, targets = gaussian.wavelet_covariance_targets(xbar, bank, edges)
        return SimpleNamespace(seed=seed, workdir=workdir, bank=bank, edges=edges,
                               dual=dual, targets=targets)

    def structure(self, st):
        return {}

    def unit(self, st, index):
        state = gaussian.fit_gaussian_model(st.targets, st.bank, st.edges, dual=st.dual)
        pio.write_field(st.workdir / "spectrum.phkf", state.spectrum)
        spectrum = pio.read_field(st.workdir / "spectrum.phkf")
        sampler = gaussian.GaussianDualState(
            betas={}, spectrum=spectrum, entropy=0.0, feasible=True, converged=True,
            constraint_error=0.0, edge_keys=[], side=spectrum.shape[0],
        )
        samples = gaussian.sample_gaussian(sampler, st.seed, self.samples)
        for i, s in enumerate(samples):
            pio.write_field(st.workdir / f"gsample_{i:03d}.phkf", s)
        return SimpleNamespace(state=state, samples=samples)

    def output(self, result):
        return {"gaussian.constraint_error": result.state.constraint_error}

    def info(self, results):
        return {}

    def checks(self, st, results):
        last = results[-1]
        return [checks.gaussian_fit(last.state),
                checks.sample_spectrum(last.state.spectrum, last.samples)]


class EvalWorkload:
    """``phasecov eval`` on texture and Gaussian ensembles, then ``gauss-test``."""

    eval_callable = (evaluation, "correlation_matrix")
    eval_span = "evaluation.correlation_matrix"
    cpu_per_eval = False

    def __init__(self, name, why, side=64, J=5, Q=16, fields=2, oracle_entries=64):
        self.name, self.why = name, why
        self.side, self.J, self.Q, self.fields = side, J, Q, fields
        self.oracle_entries = oracle_entries

    def geometry(self):
        return {"side": self.side, "J": self.J, "Q": self.Q, "fields_per_ensemble": self.fields,
                "window": {"k_lo": 0, "k_hi": 2, "delta_n": 1},
                "reference": "log-normal-modulated white noise",
                "model": "Gaussian fields, spectrum 1/(1+|m|)^1.5"}

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        ref_dir, model_dir = workdir / "reference", workdir / "model"
        ref_dir.mkdir()
        model_dir.mkdir()
        for i in range(self.fields):
            pio.write_field(ref_dir / f"field_{i:03d}.phkf", texture(self.side, rng))
            pio.write_field(model_dir / f"field_{i:03d}.phkf", gaussian_field(self.side, rng, 1.5))
        cfg = _write_config(workdir / "config.json", {
            "model": {"name": "C", "J": self.J, "Q": self.Q}, "seed": seed,
        })
        spec = cfg["spec"]
        refs = [pio.read_field(p) for p in sorted(ref_dir.glob("*.phkf"))]
        models = [pio.read_field(p) for p in sorted(model_dir.glob("*.phkf"))]
        bank = wavelets.build_bump_bank(self.side, spec.J, spec.Q)
        return SimpleNamespace(seed=seed, workdir=workdir, refs=refs, models=models,
                               bank=bank, evaluation=cfg["evaluation"])

    def structure(self, st):
        return {}

    def unit(self, st, index):
        """The ``cmd_eval`` sequence with the CLI-default window, then ``cmd_gauss_test``."""
        ev = st.evaluation
        window = evaluation.EvalWindow(k_lo=int(ev.get("k_lo", 0)), k_hi=int(ev.get("k_hi", 2)),
                                       delta_n=int(ev.get("delta_n", 1)))
        refs, models, bank = st.refs, st.models, st.bank
        c_ref, d_ref = evaluation.correlation_matrix(refs, bank, window)
        c_model, _ = evaluation.correlation_matrix(models, bank, window, ref_diag=d_ref)
        eps_model = evaluation.correlation_error(c_ref, c_model)
        c_one, _ = evaluation.correlation_matrix(refs[0], bank, window, ref_diag=d_ref)
        eps_emp = evaluation.correlation_error(c_ref, c_one)
        j_list = [int(j) for j in ev.get("j_list", [1, 2])]
        q_list = [float(q) for q in ev.get("q_list", [1, 2, 3, 4, 5])]
        rows = [("model", 0, 0.0, float(eps_model), 0.0), ("empirical", 0, 0.0, float(eps_emp), 0.0)]
        for j in j_list:
            for q in q_list:
                rep = evaluation.structure_error(refs, models, j, q)
                rows.append(("structure", j, q, rep.mean, rep.std))
        pio.write_csv(st.workdir / "errors.csv", ["metric", "j", "q", "mean", "std"], rows)
        a_max = int(ev.get("a_max", min(4, self.side // (2 ** (max(j_list) + 1)) - 1)))
        prows = []
        for k in (0, 1):
            for j in j_list:
                prof = evaluation.long_range_profile(models, bank, k, j, a_max)
                prows.extend((k, j, a, float(v)) for a, v in enumerate(prof))
        pio.write_csv(st.workdir / "profiles.csv", ["k", "j", "a", "value"], prows)
        report = covariance.gaussianity_report(refs, bank)
        return SimpleNamespace(window=window, c_ref=c_ref, eps_model=eps_model, report=report)

    def output(self, result):
        return {}

    def info(self, results):
        return {}

    def checks(self, st, results):
        last = results[-1]
        c_ref = last.c_ref
        verts = last.window.vertices(st.bank.J, st.bank.Q)
        filters = {ch: st.bank.filter(ch) for ch in st.bank.channels()}
        rng = np.random.default_rng(st.seed ^ 0x5EED)
        pairs = [tuple(p) for p in rng.integers(0, len(verts), size=(self.oracle_entries, 2))]
        return [
            checks.correlation_structure(c_ref),
            checks.self_error(evaluation.correlation_error(c_ref, c_ref)),
            checks.correlation_oracle(c_ref, st.refs, filters, verts, pairs),
        ]


# The "why" of each workload is repeated verbatim in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        SynthWorkload(
            "synth-C", "C",
            "Model C synthesis, side 64, J5/Q16: the paper's headline model, 1,122 fix pair "
            "groups; the FFT lag-correlation path dominates its objective and gradient.",
        ),
        SynthWorkload(
            "synth-D", "D",
            "Model D with rotations, same geometry: the same covariance and lbfgs layers "
            "through the angular rot path with few FFTs; a lag-FFT change should leave it flat.",
        ),
        GaussWorkload(
            "gauss-A",
            "Model A dual fit to error 1e-4, then 1,000 samples (side 64, J4/Q8): the other "
            "lbfgs consumer, ~2,100 cheap calls; never touches covariance or harmonics.",
        ),
        EvalWorkload(
            "eval",
            "phasecov eval then gauss-test, side 64, J5/Q16, 1,449-vertex window: evaluation's "
            "own lag-map pipeline; its time and ~1 GB peak memory block paper scale.",
        ),
    )
}
