from math import pi

import numpy as np
import pytest

from phasecov import wavelets
from phasecov.errors import ConfigError
from phasecov.grid import white_noise
from phasecov.wavelets import (
    LOWPASS,
    XI0,
    adjoint_transform,
    build_bump_bank,
    bump_normalization,
    bump_profile,
    channel_fields,
    fold_spectrum,
    frame_bounds,
    wavelet_transform,
)


def spatial_filters(bank):
    """Spatial-domain filters psi(u) from the Fourier bank."""
    return {c: np.fft.ifft2(bank.filter(c)) for c in bank.channels()}


def direct_convolution(x, psi):
    """Periodic convolution by explicit double loop (oracle)."""
    n = x.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for u1 in range(n):
        for u2 in range(n):
            acc = 0.0 + 0j
            for w1 in range(n):
                for w2 in range(n):
                    acc += x[w1, w2] * psi[(u1 - w1) % n, (u2 - w2) % n]
            out[u1, u2] = acc
    return out


def unpruned_filter(side, j, ell, Q):
    """Band filter (j, ell) summed over all 3x3 alias shifts, none skipped."""
    freq = 2 * pi * np.fft.fftfreq(side)
    wx, wy = np.meshgrid(freq, freq, indexing="ij")
    pow2 = 2.0 ** j
    ang = 2 * pi * ell / Q
    ca, sa = np.cos(ang), np.sin(ang)
    f = np.zeros_like(wx)
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            ux = wx + 2 * pi * a
            uy = wy + 2 * pi * b
            rx = ca * ux - sa * uy
            ry = sa * ux + ca * uy
            f += bump_profile(pow2 * rx, pow2 * ry, Q)
    f *= pow2
    f[0, 0] = 0.0
    return f


class TestBankConstruction:
    def test_rejects_odd_q(self):
        with pytest.raises(ConfigError):
            build_bump_bank(32, 3, 3)

    def test_rejects_large_j(self):
        with pytest.raises(ConfigError):
            build_bump_bank(16, 5, 4)

    def test_bump_peak_value(self):
        # radial bump peaks at 1 when |w| = xi0 and arg w = 0
        q = 8
        val = bump_profile(np.array(XI0), np.array(0.0), q)
        assert val == pytest.approx(bump_normalization(q))

    def test_radial_support_cutoff(self):
        q = 8
        for r in (2 * XI0, 2.5 * XI0, 11.0):
            assert bump_profile(np.array(r), np.array(0.0), q) == 0.0

    def test_angular_half_plane_support(self):
        q = 8
        assert bump_profile(np.array(-XI0), np.array(0.0), q) == 0.0

    def test_filters_real_and_zero_mean(self):
        bank = build_bump_bank(32, 3, 8)
        for (j, ell), f in bank.filters.items():
            assert np.isrealobj(f)
            assert f[0, 0] == 0.0

    def test_lowpass_dc_normalization(self):
        # sum_u psi_0(u) = psi_0_hat(0) = 2^J
        bank = build_bump_bank(32, 3, 8)
        assert bank.lowpass[0, 0] == pytest.approx(2.0 ** 3)

    def test_reflection_identity(self):
        # psi_{j,ell}(u1, -u2) = psi_{j,-ell}(u1, u2)
        bank = build_bump_bank(32, 2, 8)
        psi = spatial_filters(bank)
        for ell in range(8):
            a = psi[(1, ell)]
            b = psi[(1, (-ell) % 8)]
            flipped = np.roll(a[:, ::-1], 1, axis=1)  # u2 -> -u2 on the torus
            assert np.max(np.abs(flipped - b)) < 1e-12

    def test_conjugate_symmetry_in_space(self):
        # psi(-u) = conj(psi(u)) since psi_hat is real
        bank = build_bump_bank(32, 2, 8)
        psi = spatial_filters(bank)[(2, 3)]
        reversed_psi = np.roll(psi[::-1, ::-1], (1, 1), axis=(0, 1))
        assert np.max(np.abs(reversed_psi - np.conj(psi))) < 1e-14

    @pytest.mark.parametrize("side, J, Q", [(16, 2, 4), (64, 4, 8), (64, 5, 16), (128, 5, 16)])
    def test_alias_pruning_is_exact(self, side, J, Q):
        # the bank evaluates each alias shift only at the grid points it
        # brings inside the support radius; everywhere else the profile is
        # an exact zero, so every filter equals the full 3x3 sum bit for bit
        bank = build_bump_bank(side, J, Q)
        for (j, ell), f in bank.filters.items():
            assert np.array_equal(f, unpruned_filter(side, j, ell, Q)), (j, ell)

    @pytest.mark.parametrize("side, J, Q", [(16, 2, 4), (64, 5, 16)])
    def test_bump_evaluations_per_build(self, side, J, Q, monkeypatch):
        # only the alias shifts that reach the support are evaluated: 9 at
        # j = 1, only (0, 0) from j = 2 on (every other shift is at least pi
        # away), each on a group of angles at a time, with at most two planes
        # of points per call.  The points are the grid points inside each
        # scale's support disk, of radius 2 xi0 / 2^j: over all scales about
        # (4/3) pi (2 xi0)^2 / (2 pi)^2 = 3.03 planes per angle, where the
        # full 3x3 sum evaluated 9 J
        sizes = []
        orig = wavelets.bump_profile
        monkeypatch.setattr(wavelets, "bump_profile",
                            lambda wx, wy, q: sizes.append(np.size(wx)) or orig(wx, wy, q))
        build_bump_bank(side, J, Q)
        assert len(sizes) <= (J + 8) * Q // 2
        assert max(sizes) <= 2 * side * side
        assert sum(sizes) <= 3.2 * Q * side * side

    def test_coefficient_count(self):
        # about 4 Q d / 3 when J = (log2 d) / 2
        side = 64
        bank = build_bump_bank(side, 6, 8)
        d = side * side
        count = bank.coefficient_count()
        assert count == pytest.approx(4 * 8 * d / 3, rel=0.05)


class TestTransform:
    def test_constant_field(self):
        bank = build_bump_bank(32, 3, 4)
        coeffs = wavelet_transform(np.full((32, 32), 1.5), bank)
        for (j, ell), c in coeffs.bands.items():
            assert np.max(np.abs(c)) < 1e-12
        assert np.allclose(coeffs.low, 2.0 ** 3 * 1.5, atol=1e-12)

    def test_matches_direct_convolution(self):
        side = 32
        bank = build_bump_bank(side, 2, 4)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((side, side))
        coeffs = wavelet_transform(x, bank)
        psi = spatial_filters(bank)
        for channel in [(1, 0), (2, 3), LOWPASS]:
            full = direct_convolution(x, psi[channel])
            s = bank.stride(channel)
            sub = full[::s, ::s]
            got = coeffs.low if channel == LOWPASS else coeffs.bands[channel]
            assert np.max(np.abs(got - sub)) < 1e-10

    def test_pure_tone_concentrates_in_nearest_channel(self):
        side = 64
        bank = build_bump_bank(side, 3, 8)
        j, ell = 2, 3
        # channel center frequency: |w| = xi0 / 2^j in direction -2*pi*ell/Q
        rad = XI0 / 2 ** j
        ang = -2 * np.pi * ell / 8
        m = np.rint(np.array([rad * np.cos(ang), rad * np.sin(ang)]) * side / (2 * np.pi)).astype(int)
        u = np.arange(side)
        u1, u2 = np.meshgrid(u, u, indexing="ij")
        x = np.exp(2j * np.pi * (m[0] * u1 + m[1] * u2) / side)
        energies = {
            c: float(np.sum(np.abs(v) ** 2) * bank.stride(c) ** 2)
            for c, v in wavelet_transform(x, bank).bands.items()
        }
        assert max(energies, key=energies.get) == (j, ell)

    def test_side_mismatch_rejected(self):
        bank = build_bump_bank(32, 3, 4)
        with pytest.raises(ConfigError):
            wavelet_transform(np.zeros((16, 16)), bank)

    def test_subsampling_is_exact_decimation(self):
        side = 32
        bank = build_bump_bank(side, 3, 4)
        x = white_noise(side, 1.0, 1)
        coeffs = wavelet_transform(x, bank)
        fields = channel_fields(x, bank)
        for (j, ell), c in coeffs.bands.items():
            s = 2 ** (j - 1)
            assert np.max(np.abs(c - fields[(j, ell)][::s, ::s])) < 1e-12


class TestAdjoint:
    def test_zero_coeffs(self):
        bank = build_bump_bank(16, 2, 4)
        coeffs = wavelet_transform(np.zeros((16, 16)), bank)
        assert np.max(np.abs(adjoint_transform(coeffs, bank))) == 0.0

    def test_dot_product_adjoint(self):
        side = 16
        bank = build_bump_bank(side, 2, 4)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        wx = wavelet_transform(x, bank)
        cs = wavelet_transform(white_noise(side, 1.0, 3), bank)
        for key in cs.bands:
            r = rng.standard_normal(cs.bands[key].shape)
            i = rng.standard_normal(cs.bands[key].shape)
            cs.bands[key] = r + 1j * i
        cs.low = rng.standard_normal(cs.low.shape) + 1j * rng.standard_normal(cs.low.shape)
        lhs = np.vdot(cs.low, wx.low) + sum(
            np.vdot(cs.bands[k], wx.bands[k]) for k in wx.bands
        )
        rhs = np.vdot(adjoint_transform(cs, bank), x)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_gram_energy_within_frame_bounds(self):
        side = 32
        bank = build_bump_bank(side, 3, 4)
        a, b = frame_bounds(bank, tol=1e-8)
        x = white_noise(side, 1.0, 4)
        wx = wavelet_transform(x, bank)
        gram = adjoint_transform(wx, bank)
        energy = float(np.real(np.vdot(x, gram)))  # = ||Wx||^2
        norm2 = float(np.sum(x ** 2))
        assert a * norm2 <= energy + 1e-9 <= b * norm2 + 1e-9


class TestFrameBounds:
    def test_matches_dense_eigendecomposition(self):
        side = 16
        bank = build_bump_bank(side, 2, 4)
        a, b = frame_bounds(bank, tol=1e-10)
        d = side * side
        gram = np.zeros((d, d), dtype=complex)
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            wx = wavelet_transform(e.reshape(side, side), bank)
            gram[:, i] = adjoint_transform(wx, bank).ravel()
        eig = np.linalg.eigvalsh(0.5 * (gram + np.conj(gram.T)))
        assert a == pytest.approx(eig[0], rel=1e-6)
        assert b == pytest.approx(eig[-1], rel=1e-6)

    def test_scaling_homogeneity(self):
        bank = build_bump_bank(16, 2, 4)
        a, b = frame_bounds(bank)
        scaled = build_bump_bank(16, 2, 4)
        for key in scaled.filters:
            scaled.filters[key] = 2.0 * scaled.filters[key]
        scaled.lowpass = 2.0 * scaled.lowpass
        a2, b2 = frame_bounds(scaled)
        assert a2 == pytest.approx(4 * a, rel=1e-5)
        assert b2 == pytest.approx(4 * b, rel=1e-5)

    def test_frame_inequality_on_random_fields(self):
        side = 16
        bank = build_bump_bank(side, 2, 4)
        a, b = frame_bounds(bank, tol=1e-8)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x = rng.standard_normal((side, side))
            wx = wavelet_transform(x, bank)
            energy = sum(
                float(np.sum(np.abs(c) ** 2)) for c in wx.bands.values()
            ) + float(np.sum(np.abs(wx.low) ** 2))
            n2 = float(np.sum(x ** 2))
            assert a * n2 - 1e-9 <= energy <= b * n2 + 1e-9


class TestSteerability:
    def test_quarter_turn_channel_shift(self):
        # wavelet channel of a quarter-turn rotated image equals the
        # (ell + Q/4) channel of the original at rotated positions
        side = 32
        Q = 8
        bank = build_bump_bank(side, 2, Q)
        x = white_noise(side, 1.0, 6)
        rot = np.roll(np.rot90(x, k=1), (0, 0), axis=(0, 1))
        fields = channel_fields(x, bank)
        fields_rot = channel_fields(rot, bank)
        j, ell = 1, 2
        got = fields_rot[(j, ell)]
        ref = fields[(j, (ell + Q // 4) % Q)]
        # rotate the reference coefficient map by the same quarter turn
        assert np.max(np.abs(got - np.rot90(ref, k=1))) < 1e-10 * np.max(np.abs(ref))


class TestFoldSpectrum:
    def test_fold_matches_decimation(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((16, 16))
        xhat = np.fft.fft2(x)
        sub = np.fft.ifft2(fold_spectrum(xhat, 4))
        assert np.max(np.abs(sub - x[::4, ::4])) < 1e-12


class TestOppositeAngles:
    @pytest.mark.parametrize("side, J, Q", [(16, 2, 4), (64, 5, 16)])
    def test_opposite_angle_is_conjugate_for_real_fields(self, side, J, Q):
        # filter (j, ell + Q/2) is filter (j, ell) at -w, so a real field has
        # y_{j, ell + Q/2} = conj(y_{j, ell}): the identity the covariance
        # engine folds conjugate slice pairs on
        bank = build_bump_bank(side, J, Q)
        fields = channel_fields(white_noise(side, 1.0, 8), bank)
        for j in range(1, J + 1):
            for ell in range(Q // 2):
                f, g = bank.filter((j, ell)), bank.filter((j, ell + Q // 2))
                mirrored = np.roll(f[::-1, ::-1], (1, 1), axis=(0, 1))  # f(-w)
                assert np.max(np.abs(g - mirrored)) < 1e-14 * np.max(np.abs(f)), (j, ell)
                y, y2 = fields[(j, ell)], fields[(j, ell + Q // 2)]
                assert np.max(np.abs(y2 - np.conj(y))) < 1e-14 * np.max(np.abs(y)), (j, ell)
