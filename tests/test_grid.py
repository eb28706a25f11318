import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecov.errors import ConfigError, NumericalError
from phasecov.grid import (
    dft2,
    idft2,
    negate,
    power_iteration,
    radial_power_spectrum,
    translate,
    white_noise,
)


def brute_force_dft(x):
    """Direct O(d^2) evaluation of x_hat(w) = sum_u x(u) exp(-i w.u)."""
    n = x.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for m1 in range(n):
        for m2 in range(n):
            acc = 0.0 + 0j
            for u1 in range(n):
                for u2 in range(n):
                    acc += x[u1, u2] * np.exp(-2j * np.pi * (m1 * u1 + m2 * u2) / n)
            out[m1, m2] = acc
    return out


class TestDft:
    def test_constant_field(self):
        x = np.full((8, 8), 3.25)
        xhat = dft2(x)
        assert xhat[0, 0] == pytest.approx(64 * 3.25)
        assert np.max(np.abs(xhat.ravel()[1:])) < 1e-12

    def test_unit_impulse(self):
        x = np.zeros((8, 8))
        x[0, 0] = 1.0
        assert np.allclose(dft2(x), 1.0, atol=1e-14)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.max(np.abs(dft2(x) - brute_force_dft(x))) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 16))
        back = idft2(dft2(x))
        assert np.max(np.abs(back - x)) < 1e-12 * np.max(np.abs(x))

    def test_parseval(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        lhs = np.sum(np.abs(dft2(x)) ** 2)
        rhs = x.size * np.sum(np.abs(x) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            dft2(np.zeros((6, 6)))
        with pytest.raises(ConfigError):
            dft2(np.zeros((8, 4)))


class TestWhiteNoise:
    def test_zero_sigma(self):
        assert np.all(white_noise(8, 0.0, 42) == 0.0)

    def test_determinism(self):
        a = white_noise(64, 1.0, 123456789)
        b = white_noise(64, 1.0, 123456789)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(white_noise(8, 1.0, 1), white_noise(8, 1.0, 2))

    def test_sample_variance(self):
        x = white_noise(256, 1.0, 7)
        assert 0.98 < np.var(x) < 1.02

    def test_real_valued(self):
        assert white_noise(8, 1.0, 0).dtype == np.float64

    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigError):
            white_noise(8, -1.0, 0)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ConfigError):
            white_noise(8, 1.0, 2 ** 64)


class TestTranslate:
    def test_zero_offset_identity(self):
        x = np.arange(64.0).reshape(8, 8)
        assert np.array_equal(translate(x, (0, 0)), x)

    def test_period_identity(self):
        x = np.arange(64.0).reshape(8, 8)
        assert np.array_equal(translate(x, (8, 0)), x)

    def test_fourier_shift_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 16))
        tau = (3, 5)
        n = 16
        m = np.fft.fftfreq(n) * n
        m1, m2 = np.meshgrid(m, m, indexing="ij")
        phase = np.exp(-2j * np.pi * (tau[0] * m1 + tau[1] * m2) / n)
        lhs = dft2(translate(x, tau))
        rhs = phase * dft2(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    @given(
        t1=st.integers(-20, 20), t2=st.integers(-20, 20),
        s1=st.integers(-20, 20), s2=st.integers(-20, 20),
    )
    @settings(max_examples=25, deadline=None)
    def test_composes_additively(self, t1, t2, s1, s2):
        x = white_noise(8, 1.0, 5)
        a = translate(translate(x, (t1, t2)), (s1, s2))
        b = translate(x, (t1 + s1, t2 + s2))
        assert np.array_equal(a, b)

    def test_unitary(self):
        x = white_noise(16, 1.0, 6)
        assert np.sum(translate(x, (2, 7)) ** 2) == pytest.approx(np.sum(x ** 2))


class TestNegate:
    def test_involutive(self):
        x = white_noise(8, 1.0, 9)
        assert np.array_equal(negate(negate(x)), x)

    def test_zero_fixed_point(self):
        z = np.zeros((4, 4))
        assert np.array_equal(negate(z), z)

    def test_norm_preserved(self):
        x = white_noise(16, 2.0, 10)
        assert np.linalg.norm(negate(x)) == pytest.approx(np.linalg.norm(x))


class TestRadialPowerSpectrum:
    def test_white_noise_flat(self):
        spectra = [dft2(white_noise(32, 1.0, s)) for s in range(400)]
        radii, log_power = radial_power_spectrum(spectra)
        power = 10.0 ** log_power
        assert np.all(np.abs(power - 1.0) < 0.05)  # each bin within 5% of sigma^2

    def test_pure_cosine_concentrates(self):
        n = 32
        u = np.arange(n)
        u1, u2 = np.meshgrid(u, u, indexing="ij")
        x = np.cos(2 * np.pi * (5 * u1) / n)
        radii, log_power = radial_power_spectrum([dft2(x)])
        power = 10.0 ** log_power
        assert np.argmax(power) == 5
        others = np.delete(power, 5)
        assert power[5] > 1e20 * np.max(others)

    def test_scaling_shifts_log_profile(self):
        x = white_noise(16, 1.0, 11)
        r1, p1 = radial_power_spectrum([dft2(x)])
        r2, p2 = radial_power_spectrum([dft2(4.0 * x)])
        assert np.allclose(p2 - p1, 2 * np.log10(4.0), atol=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            radial_power_spectrum([])


class TestPowerIteration:
    def test_largest_magnitude_eigenvalue(self):
        m = np.diag([1.0, -3.0, 2.0]).astype(complex)
        v = np.ones(3, dtype=complex) / np.sqrt(3)
        assert power_iteration(m.__matmul__, v, 1e-12, 1000, "no") == pytest.approx(3.0)

    def test_zero_operator_and_failure(self):
        v = np.ones(2) / np.sqrt(2)
        assert power_iteration(lambda u: 0 * u, v, 1e-6, 10, "no") == 0.0
        with pytest.raises(NumericalError, match="did not settle"):
            power_iteration(lambda u: np.array([1.0, 3.0]) * u, v, 1e-6, 1, "did not settle")
