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


def oracle_dual():
    """Preset A at side 8, J3/Q4, delta_n = 2, plus one cross-channel pair,
    with random multipliers that are real on the self-paired edges."""
    side = 8
    spec = model_preset("A", J=3, Q=4, delta_n=2)
    bank = build_bump_bank(side, spec.J, spec.Q)
    edges = build_foveal_edges(spec).edges + [
        Edge((1, 0), 1, (1, 1), 1, (1, -2)), Edge((1, 1), 1, (1, 0), 1, (0, 0))]
    dual = GaussianDual(bank, edges)
    rng = np.random.default_rng(8)
    betas = rng.standard_normal(dual.n_edges) + 1j * rng.standard_normal(dual.n_edges) * dual.off
    return dual, bank, betas


def edge_planes(dual, bank):
    """psi_hat psi_hat' e^{-i w.du} on the grid, one plane per canonical edge."""
    n = dual.side
    m = np.fft.fftfreq(n) * n
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    return [bank.filter(e.ch) * bank.filter(e.ch2)
            * np.exp(-2j * np.pi * (e.du[0] * m1 + e.du[1] * m2) / n) for e in dual.edges]


class TestDualOracle:
    """The array maps of the dual against direct per-edge sums."""

    def test_fixture_has_duplicate_lags_and_a_cross_pair(self):
        # otherwise the oracles below could not catch a scatter that drops
        # one of two edges sharing a lag mod side
        dual, _, _ = oracle_dual()
        assert dual.n_edges == 93
        dupes = sum(len(rows) - len(set(zip(rows, cols))) for _, rows, cols, _ in dual.pairs)
        assert dupes > 0
        assert any(e.ch != e.ch2 for e in dual.edges)

    def test_denominator_matches_per_edge_sum(self):
        dual, bank, betas = oracle_dual()
        direct = sum(e.weight * np.real(b * plane)
                     for e, b, plane in zip(dual.edges, betas, edge_planes(dual, bank)))
        got = dual.denominator(betas)
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_model_covariances_match_per_edge_sum(self):
        dual, bank, _ = oracle_dual()
        spectrum = np.random.default_rng(9).random((dual.side, dual.side)) + 0.5
        off_dc = np.ones_like(spectrum)
        off_dc[0, 0] = 0.0
        direct = np.array([np.sum(off_dc * spectrum * plane)
                           for plane in edge_planes(dual, bank)])
        got = dual.model_covariances(spectrum)
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_jacobian_applied_to_packed_betas_is_denominator(self):
        # the denominator is linear in the packed parameters
        dual, _, betas = oracle_dual()
        lhs = dual._denominator_jacobian() @ dual.pack(betas)
        rhs = dual.denominator(betas).ravel()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_unpack_inverts_pack(self):
        dual, _, betas = oracle_dual()
        packed = dual.pack(betas)
        assert packed.shape == (dual.n_edges + int(np.sum(dual.off)),)
        assert np.array_equal(dual.unpack(packed), betas)


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

    def test_channel_without_self_edge_rejected(self):
        # the relative constraint error needs the variance of both channels
        bank = build_bump_bank(8, 2, 4)
        edges = [Edge((1, 0), 1, (1, 0), 1, (0, 0)), Edge((1, 0), 1, (1, 1), 1, (0, 0))]
        with pytest.raises(ConfigError, match="self edge"):
            fit_gaussian_model(np.array([1.0 + 0j, 0.1 + 0j]), bank, edges)


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

    def test_samples_own_their_memory(self):
        # np.real of the inverse FFT is a view that would pin its complex
        # parent, twice the size of the sample
        from phasecov.gaussian import GaussianDualState
        import tracemalloc

        side = 32
        state = GaussianDualState(
            betas={}, spectrum=np.full((side, side), 1.0), entropy=0.0, feasible=True,
            converged=True, constraint_error=0.0, edge_keys=[], side=side,
        )
        tracemalloc.start()
        try:
            samples = sample_gaussian(state, 0, 200)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(s.base is None for s in samples)
        assert held <= 1.1 * 200 * side * side * 8

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
