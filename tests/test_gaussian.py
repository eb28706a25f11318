import numpy as np
import pytest

from phasecov.errors import ConfigError, NumericalError
from phasecov.gaussian import (
    CONVERGED_ERROR,
    GaussianDual,
    dual_objective,
    empirical_spectrum,
    fit_gaussian_from_field,
    fit_gaussian_model,
    sample_gaussian,
    wavelet_covariance_targets,
)
from phasecov.graph import Edge, build_foveal_edges, model_preset
from phasecov.grid import dft2, radial_power_spectrum, white_noise
from phasecov.wavelets import LOWPASS, build_bump_bank, channel_fields


def smooth_gaussian_field(side, seed, slope=1.0):
    """Stationary Gaussian field with a |w|^-slope spectrum."""
    n = side
    m = np.fft.fftfreq(n) * n
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    r = np.hypot(m1, m2)
    spec = 1.0 / (1.0 + r) ** slope
    z = white_noise(n, 1.0, seed)
    x = np.real(np.fft.ifft2(np.sqrt(spec) * np.fft.fft2(z)))
    return x - x.mean()


class TestDualObjective:
    def test_scalar_closed_form(self):
        # single diagonal edge with psi_hat = 1: the dual minimizer matches
        # the variance-matching solution beta = d / T, P = T / d
        side = 8
        bank = build_bump_bank(side, 2, 2)
        ch = (1, 0)
        bank.filters[ch] = np.ones((side, side))
        edges = [Edge(ch, 1, ch, 1, (0, 0))]
        target = 3.7 * side * side  # sum_{w != 0} P psi^2 = (d - 1) P
        dual = GaussianDual(bank, edges)
        from phasecov.lbfgs import lbfgs_minimize

        res = lbfgs_minimize(
            lambda v: dual.objective(v, np.array([target + 0j])),
            dual.pack(np.array([1.0 + 0j])), gtol=1e-12, max_iter=200,
        )
        beta = dual.unpack(res.x)[0]
        d = side * side
        assert beta.real == pytest.approx((d - 1) / target, rel=1e-8)
        spectrum = 1.0 / dual.denominator(dual.unpack(res.x))
        spectrum[0, 0] = 0.0
        model = dual.model_covariances(spectrum)
        assert model[0].real == pytest.approx(target, rel=1e-8)

    def test_gradient_matches_finite_differences(self):
        side = 8
        spec = model_preset("A", J=2, Q=4, delta_n=1)
        bank = build_bump_bank(side, spec.J, spec.Q)
        edges = [
            Edge((1, 0), 1, (1, 0), 1, (0, 0)),
            Edge((2, 1), 1, (2, 1), 1, (0, 0)),
            Edge(LOWPASS, 1, LOWPASS, 1, (0, 0)),
            Edge((1, 0), 1, (1, 0), 1, (1, 0)),
            Edge((1, 0), 1, (1, 1), 1, (0, 0)),
        ]
        x = smooth_gaussian_field(side, 3)
        dual, targets = wavelet_covariance_targets(x, bank, edges)
        betas0 = np.zeros(dual.n_edges, dtype=complex)
        for i, e in enumerate(dual.edges):
            if e.is_diag:
                betas0[i] = 1.0 / np.real(targets[i])
        vec0 = dual.pack(betas0) * 1.1
        f0, g0 = dual.objective(vec0, targets)
        eps = 1e-6
        for i in range(len(vec0)):
            vp = vec0.copy()
            vp[i] += eps
            vm = vec0.copy()
            vm[i] -= eps
            num = (dual.objective(vp, targets)[0] - dual.objective(vm, targets)[0]) / (2 * eps)
            assert num == pytest.approx(g0[i], rel=1e-6, abs=1e-9)

    def test_infeasible_betas_give_infinity(self):
        side = 8
        bank = build_bump_bank(side, 2, 4)
        edges = [Edge((1, 0), 1, (1, 0), 1, (0, 0))]
        value, _ = dual_objective(np.array([-1.0 + 0j]), np.array([1.0 + 0j]), bank, edges)
        assert value == np.inf

    def test_rejects_nonlinear_edges(self):
        side = 8
        bank = build_bump_bank(side, 2, 4)
        with pytest.raises(ConfigError):
            GaussianDual(bank, [Edge((1, 0), 0, (1, 0), 0, (0, 0))])


class TestFit:
    def test_variance_only_constraint_gives_flat_spectrum(self):
        # a single total-variance constraint (flat frequency response):
        # the maximum entropy spectrum is exactly white
        side = 16
        bank = build_bump_bank(side, 2, 2)
        ch = (1, 0)
        bank.filters[ch] = np.ones((side, side))
        edges = [Edge(ch, 1, ch, 1, (0, 0))]
        sigma2 = 2.3
        d = side * side
        state = fit_gaussian_model(np.array([sigma2 * (d - 1) + 0j]), bank, edges, gtol=1e-12)
        assert state.feasible
        assert state.spectrum[0, 0] == 0.0  # the model carries no DC power
        offdc = state.spectrum.ravel()[1:]
        assert np.max(np.abs(offdc - sigma2)) < 1e-6 * sigma2

    def test_white_targets_constraints_met_and_entropy_dominates_flat(self):
        # per-channel variance targets computed from an exactly flat
        # spectrum: the fit meets every constraint, and its entropy is at
        # least that of the flat feasible point (flat is generally not the
        # maximizer under a finite bank)
        side = 16
        spec = model_preset("A", J=2, Q=4, delta_n=0)
        bank = build_bump_bank(side, spec.J, spec.Q)
        edges = build_foveal_edges(spec).edges
        dual = GaussianDual(bank, edges)
        sigma2 = 2.3
        targets = dual.model_covariances(np.full((side, side), sigma2))
        state = fit_gaussian_model(targets, bank, edges, gtol=1e-10)
        assert state.feasible
        assert state.constraint_error < 1e-8
        flat_entropy = 0.5 * (side * side - 1) * np.log(sigma2)
        fit_entropy = 0.5 * float(np.sum(np.log(state.spectrum.ravel()[1:])))
        assert fit_entropy >= flat_entropy - 1e-9

    def test_self_consistency_constraints_met(self):
        side = 32
        spec = model_preset("A", J=3, Q=4, delta_n=2)
        bank = build_bump_bank(side, spec.J, spec.Q)
        x = smooth_gaussian_field(side, 4)
        state = fit_gaussian_from_field(x, spec, bank)
        assert state.feasible
        assert state.constraint_error < 1e-4

    @pytest.mark.parametrize("gtol, converged", [(1e-7, True), (1e3, False)])
    def test_converged_means_constraint_error_within_tolerance(self, gtol, converged):
        # a loose gtol stops both L-BFGS and the Newton polish at once
        side = 32
        spec = model_preset("A", J=3, Q=4, delta_n=2)
        bank = build_bump_bank(side, spec.J, spec.Q)
        state = fit_gaussian_from_field(smooth_gaussian_field(side, 4), spec, bank, gtol=gtol)
        assert state.feasible
        assert state.converged == (state.constraint_error <= CONVERGED_ERROR) == converged

    def test_infeasible_diagonal_rejected(self):
        side = 8
        bank = build_bump_bank(side, 2, 4)
        edges = [Edge((1, 0), 1, (1, 0), 1, (0, 0))]
        with pytest.raises(ConfigError):
            fit_gaussian_model(np.array([-1.0 + 0j]), bank, edges)


class TestSampler:
    def test_flat_spectrum_gives_white_noise(self):
        side = 32
        from phasecov.gaussian import GaussianDualState

        state = GaussianDualState(
            betas={}, spectrum=np.full((side, side), 4.0), entropy=0.0,
            feasible=True, converged=True, constraint_error=0.0,
            edge_keys=[], side=side,
        )
        samples = sample_gaussian(state, 0, 200)
        var = np.mean([np.var(s) for s in samples])
        assert var == pytest.approx(4.0, rel=0.05)

    def test_samples_match_spectrum(self):
        side = 16
        m = np.fft.fftfreq(side) * side
        m1, m2 = np.meshgrid(m, m, indexing="ij")
        spec = 1.0 / (1.0 + np.hypot(m1, m2))
        from phasecov.gaussian import GaussianDualState

        state = GaussianDualState(
            betas={}, spectrum=spec, entropy=0.0, feasible=True, converged=True,
            constraint_error=0.0, edge_keys=[], side=side,
        )
        samples = sample_gaussian(state, 1, 500)
        emp = np.mean([np.abs(np.fft.fft2(s)) ** 2 / s.size for s in samples], axis=0)
        ratio = emp / spec
        assert np.max(np.abs(ratio - 1.0)) < 0.25  # per-bin chi^2 noise
        radii, logp = radial_power_spectrum([dft2(s) for s in samples])
        rtarget, logt = radial_power_spectrum([np.sqrt(spec * side * side)])
        assert np.max(np.abs(10 ** logp - 10 ** logt) / 10 ** logt) < 0.10

    def test_samples_are_real(self):
        side = 16
        x = smooth_gaussian_field(side, 5)
        spec = model_preset("A", J=2, Q=4, delta_n=1)
        bank = build_bump_bank(side, spec.J, spec.Q)
        state = fit_gaussian_from_field(x, spec, bank)
        for s in sample_gaussian(state, 2, 3):
            assert np.isrealobj(s)

    def test_infeasible_state_rejected(self):
        from phasecov.gaussian import GaussianDualState

        state = GaussianDualState(
            betas={}, spectrum=np.ones((8, 8)), entropy=0.0, feasible=False,
            converged=False, constraint_error=np.inf, edge_keys=[], side=8,
        )
        with pytest.raises(NumericalError):
            sample_gaussian(state, 0, 1)

    def test_sample_covariances_match_targets(self):
        side = 32
        spec = model_preset("A", J=2, Q=4, delta_n=1)
        bank = build_bump_bank(side, spec.J, spec.Q)
        x = smooth_gaussian_field(side, 6)
        edges = build_foveal_edges(spec).edges
        dual, targets = wavelet_covariance_targets(x, bank, edges)
        state = fit_gaussian_from_field(x, spec, bank, edges=edges)
        samples = sample_gaussian(state, 3, 300)
        per_sample = np.stack([
            dual.model_covariances(empirical_spectrum(s)) for s in samples
        ])
        mean = per_sample.mean(axis=0)
        se = per_sample.std(axis=0) / np.sqrt(len(samples))
        scale = np.max(np.abs(targets))
        for i in range(len(targets)):
            assert abs(mean[i] - targets[i]) < 3 * abs(se[i]) + 1e-3 * scale


class TestStationarity:
    def test_sample_covariance_translation_invariant(self):
        # covariance estimates of samples do not depend on the base position
        side = 16
        x = smooth_gaussian_field(side, 7)
        spec = model_preset("A", J=2, Q=4, delta_n=1)
        bank = build_bump_bank(side, spec.J, spec.Q)
        state = fit_gaussian_from_field(x, spec, bank)
        s = sample_gaussian(state, 4, 1)[0]
        y = channel_fields(s, bank, channels=[(1, 0)])[(1, 0)]
        h = y - y.mean()
        # lag map via base-position split halves agree within noise
        prod = h * np.conj(np.roll(h, (1, 0), axis=(0, 1)))
        a = np.mean(prod[: side // 2])
        b = np.mean(prod[side // 2:])
        pooled = np.std(prod) / np.sqrt(prod.size / 2)
        assert abs(a - b) < 6 * pooled
