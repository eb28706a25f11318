import numpy as np
import pytest

from phasecov.lbfgs import lbfgs_minimize


def quadratic_problem(n=50, seed=0, homogeneous=True):
    """SPD quadratic; the homogeneous form has an exactly representable
    minimum f* = 0 at x* = 0, so gradient norms can be driven to 1e-10."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = q @ np.diag(np.logspace(0, 1, n)) @ q.T
    A = 0.5 * (A + A.T)
    b = np.zeros(n) if homogeneous else rng.standard_normal(n)
    x_star = np.linalg.solve(A, b)

    def fg(x):
        r = A @ x - b
        return 0.5 * float(x @ A @ x) - float(b @ x), r

    return fg, x_star


class TestLbfgs:
    def test_convex_quadratic(self):
        fg, x_star = quadratic_problem()
        x0 = np.random.default_rng(10).standard_normal(50)
        res = lbfgs_minimize(fg, x0, gtol=1e-10, max_iter=60)
        assert res.converged
        assert res.grad_norm < 1e-10
        assert np.max(np.abs(res.x - x_star)) < 1e-8

    def test_quadratic_with_linear_term(self):
        fg, x_star = quadratic_problem(homogeneous=False)
        res = lbfgs_minimize(fg, np.zeros(50), gtol=1e-6, max_iter=200)
        assert res.grad_norm < 1e-6
        assert np.max(np.abs(res.x - x_star)) < 1e-6

    def test_rosenbrock(self):
        def fg(v):
            x, y = v
            f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            g = np.array([
                -2 * (1 - x) - 400 * x * (y - x * x),
                200 * (y - x * x),
            ])
            return f, g

        res = lbfgs_minimize(fg, np.array([-1.2, 1.0]), gtol=1e-10, max_iter=200)
        assert np.max(np.abs(res.x - 1.0)) < 1e-6

    def test_losses_non_increasing(self):
        fg, _ = quadratic_problem(seed=1)
        res = lbfgs_minimize(fg, np.ones(50), max_iter=40)
        diffs = np.diff(res.losses)
        assert np.all(diffs <= 0)

    def test_f_target_stop(self):
        fg, _ = quadratic_problem(seed=2)
        f0 = fg(np.ones(50))[0]
        res = lbfgs_minimize(fg, np.ones(50), f_ratio=0.5, max_iter=100)
        assert res.losses[0] == f0 > 0
        assert res.stop_reason in ("f_target", "gtol")
        assert res.f <= 0.5 * f0 or res.grad_norm < 1e-8

    def test_infeasible_region_backoff(self):
        # objective is +inf on half the space; the line search must recover
        def fg(x):
            if x[0] > 1.0:
                return np.inf, np.zeros_like(x)
            return float((x[0] - 0.9) ** 2), np.array([2 * (x[0] - 0.9)])

        res = lbfgs_minimize(fg, np.array([0.0]), gtol=1e-10, max_iter=100)
        assert abs(res.x[0] - 0.9) < 1e-6

    def test_preserves_shape(self):
        def fg(x):
            return float(np.sum(x ** 2)), 2 * x

        res = lbfgs_minimize(fg, np.ones((4, 4)), gtol=1e-12, max_iter=50)
        assert res.x.shape == (4, 4)
        assert res.grad_norm < 1e-12

    def test_memory_one_still_works(self):
        fg, x_star = quadratic_problem(seed=3)
        res = lbfgs_minimize(fg, np.zeros(50), memory=1, gtol=1e-8, max_iter=500)
        assert res.converged

    def test_callback_sees_every_iterate(self):
        fg, _ = quadratic_problem(seed=4)
        seen = []
        lbfgs_minimize(fg, np.zeros(50), max_iter=10,
                       callback=lambda t, x, f, g: seen.append(t))
        assert seen[0] == 0
        assert seen == sorted(seen)

    def test_unitary_equivariance(self):
        # minimizing f(Px) from permuted starts yields permuted trajectories
        fg, _ = quadratic_problem(seed=5)
        n = 50
        rng = np.random.default_rng(6)
        perm = rng.permutation(n)

        def fg_perm(x):
            f, g = fg(x[perm])
            gp = np.zeros_like(g)
            gp[perm] = g
            return f, gp

        x0 = rng.standard_normal(n)
        traj_a = []
        traj_b = []
        lbfgs_minimize(fg, x0[perm].copy(), max_iter=30,
                       callback=lambda t, x, f, g: traj_a.append(x.copy()))
        lbfgs_minimize(fg_perm, x0.copy(), max_iter=30,
                       callback=lambda t, x, f, g: traj_b.append(x.copy()))
        for xa, xb in zip(traj_a, traj_b):
            assert np.max(np.abs(xa - xb[perm])) < 1e-10 * max(1.0, np.max(np.abs(xa)))
