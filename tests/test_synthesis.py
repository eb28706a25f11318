import numpy as np
import pytest

from phasecov.covariance import estimate_covariance
from phasecov.errors import ConfigError
from phasecov.graph import ModelSpec, SymmetryGroup, build_foveal_edges, model_preset
from phasecov.grid import negate, translate, white_noise
from phasecov.synthesis import (
    build_target,
    objective,
    objective_gradient,
    restart_seed,
    run_descent,
    synthesize,
    value_and_grad,
)


def small_b_spec(side_hint=16, **overrides):
    params = dict(J=2, Q=4, delta_ell=1, delta_n=1)
    params.update(overrides)
    spec = model_preset("B", **params)
    spec.optimizer.max_iter = 300
    return spec


def gaussian_reference(side, seed, slope=1.0):
    n = side
    m = np.fft.fftfreq(n) * n
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    spec = 1.0 / (1.0 + np.hypot(m1, m2)) ** slope
    z = white_noise(n, 1.0, seed)
    return np.real(np.fft.ifft2(np.sqrt(spec) * np.fft.fft2(z)))


class TestObjective:
    def test_zero_at_reference(self):
        side = 16
        xbar = gaussian_reference(side, 0)
        target = build_target(xbar, small_b_spec())
        assert objective(xbar, target) == 0.0

    def test_positive_elsewhere(self):
        side = 16
        xbar = gaussian_reference(side, 1)
        target = build_target(xbar, small_b_spec())
        assert objective(white_noise(side, 1.0, 2), target) > 0

    def test_invariance_under_translation(self):
        side = 16
        xbar = gaussian_reference(side, 3)
        target = build_target(xbar, small_b_spec())
        x = white_noise(side, 1.0, 4)
        f = objective(x, target)
        assert objective(translate(x, (5, 2)), target) == pytest.approx(f, rel=1e-12)

    def test_invariance_under_sign_flip_with_group(self):
        side = 16
        spec = small_b_spec(group=SymmetryGroup(sign_change=True))
        xbar = gaussian_reference(side, 5)
        target = build_target(xbar, spec)
        x = white_noise(side, 1.0, 6)
        assert objective(negate(x), target) == pytest.approx(objective(x, target), rel=1e-12)

    def test_matches_independent_recomputation(self):
        # recompute the loss from scratch tables, independent code path
        side = 8
        spec = small_b_spec(J=1, Q=2, delta_ell=0, delta_n=1)
        xbar = gaussian_reference(side, 7)
        target = build_target(xbar, spec)
        x = white_noise(side, 1.0, 8)
        edges = build_foveal_edges(spec)
        bank = target.bank
        t_ref = estimate_covariance(xbar, edges, spec, bank)
        t_x = estimate_covariance(x, edges, spec, bank, means=t_ref.means)
        total = 0.0
        for e in edges.edges:
            denom = t_ref.diag[(e.ch, e.k)] * t_ref.diag[(e.ch2, e.k2)]
            total += abs(t_x.cov[e.key()] - t_ref.cov[e.key()]) ** 2 / denom
        assert objective(x, target) == pytest.approx(total, rel=1e-12)

    def test_degenerate_reference_rejected(self):
        with pytest.raises(ConfigError):
            build_target(np.zeros((16, 16)), small_b_spec())


class TestGradient:
    def test_zero_gradient_at_reference(self):
        side = 16
        xbar = gaussian_reference(side, 9)
        target = build_target(xbar, small_b_spec())
        grad = objective_gradient(xbar, target)
        assert np.max(np.abs(grad)) < 1e-10

    def test_gradient_is_real_field(self):
        side = 16
        xbar = gaussian_reference(side, 10)
        target = build_target(xbar, small_b_spec())
        grad = objective_gradient(white_noise(side, 1.0, 11), target)
        assert np.isrealobj(grad)
        assert grad.shape == (side, side)

    @pytest.mark.parametrize("group", [
        SymmetryGroup(),
        SymmetryGroup(sign_change=True),
        SymmetryGroup(line_reflection=True),
        SymmetryGroup(central_reflection=True),
    ])
    def test_finite_differences(self, group):
        side = 16
        spec = small_b_spec(group=group)
        xbar = gaussian_reference(side, 12)
        target = build_target(xbar, spec)
        x = white_noise(side, 1.0, 13)
        f0, grad = value_and_grad(x, target)
        rng = np.random.default_rng(14)
        eps = 1e-6
        for _ in range(20):
            i, j = rng.integers(0, side, 2)
            xp = x.copy()
            xp[i, j] += eps
            xm = x.copy()
            xm[i, j] -= eps
            num = (objective(xp, target) - objective(xm, target)) / (2 * eps)
            assert num == pytest.approx(grad[i, j], rel=1e-4, abs=1e-8)

    def test_finite_differences_rotation_model(self):
        side = 16
        spec = model_preset("D", J=2, Q=4)
        spec.optimizer.max_iter = 100
        xbar = gaussian_reference(side, 15)
        target = build_target(xbar, spec)
        x = white_noise(side, 1.0, 16)
        f0, grad = value_and_grad(x, target)
        rng = np.random.default_rng(17)
        eps = 1e-6
        for _ in range(12):
            i, j = rng.integers(0, side, 2)
            xp = x.copy()
            xp[i, j] += eps
            xm = x.copy()
            xm[i, j] -= eps
            num = (objective(xp, target) - objective(xm, target)) / (2 * eps)
            assert num == pytest.approx(grad[i, j], rel=1e-4, abs=1e-8)

    def test_translation_equivariance(self):
        side = 16
        xbar = gaussian_reference(side, 18)
        target = build_target(xbar, small_b_spec())
        x = white_noise(side, 1.0, 19)
        tau = (3, 5)
        g1 = objective_gradient(translate(x, tau), target)
        g2 = translate(objective_gradient(x, target), tau)
        assert np.max(np.abs(g1 - g2)) < 1e-10 * max(1e-30, np.max(np.abs(g2)))

    def test_sign_equivariance(self):
        side = 16
        spec = small_b_spec(group=SymmetryGroup(sign_change=True))
        xbar = gaussian_reference(side, 20)
        target = build_target(xbar, spec)
        x = white_noise(side, 1.0, 21)
        g1 = objective_gradient(negate(x), target)
        g2 = negate(objective_gradient(x, target))
        assert np.array_equal(g1, g2)  # bit-exact: IEEE negation commutes


class TestSynthesize:
    def test_model_a_routed_elsewhere(self):
        with pytest.raises(ConfigError):
            synthesize(np.zeros((8, 8)), model_preset("A", J=2, Q=4))

    def test_restart_count_validated(self):
        spec = small_b_spec()
        with pytest.raises(ConfigError):
            synthesize(gaussian_reference(16, 22), spec, n_restarts=0)

    def test_deterministic_restart_seeds(self):
        assert restart_seed(7, 0) == restart_seed(7, 0)
        assert restart_seed(7, 0) != restart_seed(7, 1)
        assert restart_seed(8, 0) != restart_seed(7, 0)

    def test_bookkeeping_and_best_selection(self):
        side = 16
        spec = small_b_spec()
        spec.optimizer.max_iter = 40
        xbar = gaussian_reference(side, 23)
        result = synthesize(xbar, spec, n_restarts=3, seed=1)
        assert len(result.samples) == 3
        assert len(result.losses) == 3
        assert result.best_index == int(np.argmin(result.losses))
        assert result.losses[result.best_index] == min(result.losses)
        for s in result.samples:
            assert np.isrealobj(s)

    def test_losses_decrease(self):
        side = 16
        spec = small_b_spec()
        spec.optimizer.max_iter = 60
        xbar = gaussian_reference(side, 24)
        result = synthesize(xbar, spec, n_restarts=1, seed=2)
        assert result.losses[0] < result.initial_losses[0]
        for curve in result.loss_curves:
            assert np.all(np.diff(curve) <= 0)

    def test_self_consistency_achievable_target(self):
        # a Gaussian reference's own statistics, preset B (k in {0, 1}) and a
        # k = 1 custom model, through the microcanonical machinery reach a
        # small fraction of the initial loss
        side = 16
        xbar = gaussian_reference(side, 25)
        for spec in (model_preset("B", J=2, Q=4, delta_ell=0, delta_n=1),
                     ModelSpec(name="custom", J=2, Q=4, k_min=1, k_max=1, delta_n=1,
                               delta_j=0, delta_ell=0)):
            spec.optimizer.max_iter = 400
            result = synthesize(xbar, spec, n_restarts=2, seed=3)
            best = result.best_index
            assert result.losses[best] < 1e-3 * result.initial_losses[best], spec.name


class TestTrajectoryEquivariance:
    def _trajectories(self, target, x0, iters):
        traj = []
        run_descent(target, x0, max_iter=iters,
                    callback=lambda t, x, f, g: traj.append(x.copy()))
        return traj

    def test_translation_equivariant_descent(self):
        side = 16
        spec = small_b_spec()
        xbar = gaussian_reference(side, 26)
        target = build_target(xbar, spec)
        x0 = white_noise(side, np.sqrt(target.sigma2), 27)
        tau = (3, 5)
        t_base = self._trajectories(target, x0, 25)
        t_shift = self._trajectories(target, translate(x0, tau), 25)
        assert len(t_base) == len(t_shift)
        for xa, xb in zip(t_base, t_shift):
            scale = max(1.0, np.max(np.abs(xa)))
            assert np.max(np.abs(translate(xa, tau) - xb)) < 1e-10 * scale

    def test_sign_flip_equivariant_descent(self):
        side = 16
        spec = small_b_spec(group=SymmetryGroup(sign_change=True))
        xbar = gaussian_reference(side, 28)
        target = build_target(xbar, spec)
        x0 = white_noise(side, np.sqrt(target.sigma2), 29)
        t_base = self._trajectories(target, x0, 25)
        t_flip = self._trajectories(target, negate(x0), 25)
        for xa, xb in zip(t_base, t_flip):
            assert np.array_equal(negate(xa), xb)

    def test_sign_flip_equivariant_descent_with_rotations(self):
        # the angular path (3-D FFTs, batched Gram products, their adjoint)
        # is linear in each row, so the sign flip stays exact to the bit
        side = 16
        spec = model_preset("D", J=2, Q=4, group=SymmetryGroup(rotations=True, sign_change=True))
        xbar = gaussian_reference(side, 30)
        target = build_target(xbar, spec)
        assert ("angular",) in target.computer.pair_groups
        x0 = white_noise(side, np.sqrt(target.sigma2), 31)
        t_base = self._trajectories(target, x0, 25)
        t_flip = self._trajectories(target, negate(x0), 25)
        assert len(t_base) == len(t_flip) > 1
        for xa, xb in zip(t_base, t_flip):
            assert np.array_equal(negate(xa), xb)


class TestComplexFieldRejected:
    """Angle ell + Q/2 is read as the conjugate of angle ell, which holds for
    real fields only: every entry point refuses a complex field instead of
    dropping its imaginary part."""

    side = 16

    def complex_field(self, seed):
        return white_noise(self.side, 1.0, seed) + 1j * white_noise(self.side, 1.0, seed + 1)

    def test_build_target(self):
        with pytest.raises(ConfigError, match="must be real"):
            build_target(self.complex_field(60), small_b_spec())

    def test_objective(self):
        target = build_target(gaussian_reference(self.side, 62), small_b_spec())
        with pytest.raises(ConfigError, match="must be real"):
            objective(self.complex_field(63), target)

    def test_value_and_grad(self):
        target = build_target(gaussian_reference(self.side, 65), small_b_spec())
        with pytest.raises(ConfigError, match="must be real"):
            value_and_grad(self.complex_field(66), target)

    def test_synthesize(self):
        with pytest.raises(ConfigError, match="must be real"):
            synthesize(self.complex_field(68), small_b_spec(), n_restarts=1)
