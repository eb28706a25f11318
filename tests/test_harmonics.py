import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from phasecov.harmonics import (
    harmonic_derivative,
    harmonic_map,
    indicator_weights,
    phase_harmonic,
    phase_window_map,
    rectifier_weight,
    rectifier_weights,
)

complex_st = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


class TestPhaseHarmonic:
    def test_k1_identity(self):
        z = np.array([1 + 2j, -3j, 0.5])
        assert np.array_equal(phase_harmonic(z, 1), z)

    def test_k0_modulus(self):
        z = np.array([3 + 4j, -2.0, 1j])
        assert np.allclose(phase_harmonic(z, 0), [5.0, 2.0, 1.0])

    def test_km1_conjugate(self):
        z = np.array([1 + 2j, -3j])
        assert np.array_equal(phase_harmonic(z, -1), np.conj(z))

    def test_i_squared_phase(self):
        # |i| = 1, phase pi/2 doubled to pi
        assert phase_harmonic(np.array(1j), 2) == pytest.approx(-1.0)

    def test_zero_maps_to_zero(self):
        for k in (-3, 0, 2, 7):
            assert phase_harmonic(np.array(0j), k) == 0.0

    @given(z=complex_st, k=st.integers(-6, 6))
    @settings(max_examples=100, deadline=None)
    def test_modulus_preserved(self, z, k):
        out = phase_harmonic(np.array(z), k)
        assert abs(out) == pytest.approx(abs(z), rel=1e-12)

    @given(z=complex_st, k=st.integers(-6, 6), theta=st.floats(-np.pi, np.pi))
    @settings(max_examples=100, deadline=None)
    def test_phase_covariance(self, z, k, theta):
        lhs = phase_harmonic(np.array(z * np.exp(1j * theta)), k)
        rhs = np.exp(1j * k * theta) * phase_harmonic(np.array(z), k)
        assert abs(lhs - rhs) <= 1e-9 * abs(z)

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(10 ** 5) + 1j * rng.standard_normal(10 ** 5)
        w = rng.standard_normal(10 ** 5) + 1j * rng.standard_normal(10 ** 5)
        for k in (-3, 0, 1, 2, 5):
            lhs = np.abs(phase_harmonic(z, k) - phase_harmonic(w, k))
            assert np.all(lhs <= max(abs(k), 1) * np.abs(z - w) * (1 + 1e-12) + 1e-12)


class TestRectifierWeights:
    def test_reference_values(self):
        w = rectifier_weights(10)
        assert w.weight(0) == pytest.approx(1 / np.pi)
        assert w.weight(1) == pytest.approx(0.25)
        assert w.weight(-1) == pytest.approx(0.25)
        assert w.weight(2) == pytest.approx(1 / (3 * np.pi))
        assert w.weight(3) == 0.0
        assert w.weight(-5) == 0.0
        assert w.weight(4) == pytest.approx(-1 / (15 * np.pi))

    def test_quadrature_oracle(self):
        # h_hat(k) = (1/2pi) int_0^2pi max(cos a, 0) e^{-ika} da
        for k in range(-8, 9):
            re = quad(lambda a: max(np.cos(a), 0.0) * np.cos(k * a), 0, 2 * np.pi,
                      limit=200)[0] / (2 * np.pi)
            im = -quad(lambda a: max(np.cos(a), 0.0) * np.sin(k * a), 0, 2 * np.pi,
                       limit=200)[0] / (2 * np.pi)
            assert rectifier_weight(k) == pytest.approx(re, abs=1e-8)
            assert abs(im) < 1e-10

    def test_out_of_range_zero(self):
        w = rectifier_weights(4)
        assert w.weight(5) == 0.0


class TestHarmonicMap:
    def _coeffs(self, seed=0, n=8):
        rng = np.random.default_rng(seed)
        return {
            (1, 0): rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            (1, 1): rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        }

    def test_k1_slice_is_input(self):
        c = self._coeffs()
        out = harmonic_map(c, indicator_weights(1, 1))
        for ch in c:
            assert np.array_equal(out[(ch, 1)], c[ch])

    def test_modulus_preservation(self):
        c = self._coeffs(1)
        w = rectifier_weights(3)
        out = harmonic_map(c, w)
        for (ch, k), v in out.items():
            expected = abs(w.weight(k)) * np.abs(c[ch])
            assert np.allclose(np.abs(v), expected, atol=1e-12)

    def test_energy_identity_truncated(self):
        # sum_k |h_hat(k) [z]^k|^2 = ||h||^2 |z|^2 with ||h||^2 = 1/4,
        # truncated at |k| <= 50 (tail < 1e-6 relative)
        rng = np.random.default_rng(2)
        z = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        w = rectifier_weights(50)
        total = np.zeros(100)
        for k in w.exponents():
            total += np.abs(w.weight(k) * phase_harmonic(z, k)) ** 2
        assert np.allclose(total, w.energy * np.abs(z) ** 2, rtol=1e-10)
        assert w.energy == pytest.approx(0.25, abs=5e-7)  # tail ~ 2.5e-7


class TestPhaseWindowMap:
    def test_positive_real_alpha0(self):
        c = {(1, 0): np.array([[2.0 + 0j]])}
        out = phase_window_map(c, [0.0])
        assert out[(1, 0)][0, 0, 0] == pytest.approx(2.0)

    def test_positive_real_alpha_pi(self):
        c = {(1, 0): np.array([[2.0 + 0j]])}
        out = phase_window_map(c, [np.pi])
        assert out[(1, 0)][0, 0, 0] == pytest.approx(0.0)

    def test_quarter_phase_energy_identity(self):
        # |rho(Re e^{i a} z)|^2 summed over four quarter turns equals |z|^2
        rng = np.random.default_rng(3)
        z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        alpha = rng.uniform(0, 2 * np.pi)
        alphas = [alpha + n * np.pi / 2 for n in range(4)]
        out = phase_window_map({(1, 0): z.reshape(1, -1)}, alphas)[(1, 0)]
        total = np.sum(out ** 2, axis=0).ravel()
        assert np.allclose(total, np.abs(z) ** 2, rtol=1e-12)

    def test_discrete_dft_matches_harmonics_on_odd_k(self):
        # the Q_a-point DFT over alpha equals h_hat(k) [z]^k exactly for odd
        # |k| < Q_a/2: all alias exponents k + m Q_a are odd with zero weight
        rng = np.random.default_rng(4)
        z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        qa = 32
        alphas = 2 * np.pi * np.arange(qa) / qa
        win = phase_window_map({(1, 0): z}, alphas)[(1, 0)]
        hd = np.fft.fft(win, axis=0) / qa
        for k in (-15, -7, -1, 1, 3, 9, 15):
            direct = rectifier_weight(k) * phase_harmonic(z, k)
            assert np.max(np.abs(hd[k % qa] - direct)) < 1e-10

    def test_discrete_dft_even_k_within_alias_bound(self):
        # even harmonics carry the alias sum over k + m Q_a; the deviation
        # from h_hat(k) [z]^k is bounded by sum_{m != 0} |h_hat(k + m Q_a)|
        rng = np.random.default_rng(5)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        qa = 32
        alphas = 2 * np.pi * np.arange(qa) / qa
        win = phase_window_map({(1, 0): z.reshape(1, -1)}, alphas)[(1, 0)]
        hd = np.fft.fft(win, axis=0) / qa
        m_max = 3000  # alias tail past m_max: 2 / (pi Q^2 m_max) ~ 2e-7
        for k in (0, 2, 8, 14):
            direct = rectifier_weight(k) * phase_harmonic(z, k)
            bound = sum(
                abs(rectifier_weight(k + m * qa)) for m in range(-m_max, m_max + 1) if m != 0
            ) + 2.0 / (np.pi * qa * qa * m_max)
            err = np.max(np.abs(hd[k % qa].ravel() - direct) / np.abs(z))
            assert err <= bound * (1 + 1e-9)
            # and the alias-corrected residual shrinks to the tail size
            corrected = np.zeros_like(direct)
            for m in range(-m_max, m_max + 1):
                kk = k + m * qa
                w = rectifier_weight(kk)
                if w != 0.0:
                    corrected += w * phase_harmonic(z, kk)
            res = np.max(np.abs(hd[k % qa].ravel() - corrected) / np.abs(z))
            assert res < 3e-7


class TestHarmonicDerivative:
    def test_k1_linear(self):
        dz, dzb = harmonic_derivative(np.array(2.0 + 1j), 1)
        assert dz == pytest.approx(1.0)
        assert dzb == pytest.approx(0.0)

    def test_k0_at_real_positive(self):
        dz, dzb = harmonic_derivative(np.array(1.0 + 0j), 0)
        assert dz == pytest.approx(0.5)
        assert dzb == pytest.approx(0.5)

    def test_zero_input_uses_phi_zero(self):
        dz, dzb = harmonic_derivative(np.array(0j), 3)
        assert dz == pytest.approx(2.0)
        assert dzb == pytest.approx(-1.0)

    def test_matches_per_power_formula_bit_for_bit(self):
        def unit_phase_power(z, k):
            # reference: the phasor recomputed for each power
            if k == 0:
                return np.ones_like(z)
            r = np.abs(z)
            u = np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0 + 0j)
            if k < 0:
                u, k = np.conj(u), -k
            out, power = None, u
            while k:
                if k & 1:
                    out = power.copy() if out is None else out * power
                k >>= 1
                if k:
                    power = power * power
            return out

        rng = np.random.default_rng(8)
        z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        z[::7] = 0.0
        z[3] = -2.5
        for k in range(-3, 4):
            dz, dzb = harmonic_derivative(z, k)
            np.testing.assert_array_equal(dz, 0.5 * (k + 1) * unit_phase_power(z, k - 1))
            np.testing.assert_array_equal(dzb, 0.5 * (1 - k) * unit_phase_power(z, k + 1))

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(6)
        eps = 1e-6
        for k in (0, 2, 3):
            for _ in range(20):
                z = rng.standard_normal() + 1j * rng.standard_normal()
                if abs(z) < 0.1:
                    continue
                dz, dzb = harmonic_derivative(np.array(z), k)
                for direction in (1.0, 1j, (1 + 1j) / np.sqrt(2)):
                    num = (
                        phase_harmonic(np.array(z + eps * direction), k)
                        - phase_harmonic(np.array(z - eps * direction), k)
                    ) / (2 * eps)
                    analytic = dz * direction + dzb * np.conj(direction)
                    assert abs(num - analytic) < 1e-5 * max(1.0, abs(analytic))


class TestBiLipschitz:
    def test_rectifier_bounds_sampled(self):
        # ||H(z) - H(z')||^2 / |z - z'|^2 in [1/8, 1/4]; the upper bound is
        # approached for close pairs
        rng = np.random.default_rng(7)
        n = 10 ** 5
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w[: n // 10] = z[: n // 10] * (1 + 1e-4)  # near-coincident pairs
        weights = rectifier_weights(50)
        num = np.zeros(n)
        for k in weights.exponents():
            hw = weights.weight(k)
            if hw == 0.0:
                continue
            num += np.abs(hw) ** 2 * np.abs(phase_harmonic(z, k) - phase_harmonic(w, k)) ** 2
        ratio = num / np.abs(z - w) ** 2
        assert np.max(ratio) <= 0.25 + 1e-9
        assert np.min(ratio) >= 0.125 - 1e-9
        assert np.max(ratio) >= 0.24
