import numpy as np
import pytest

from phasecov.covariance import estimate_covariance
from phasecov.errors import ConfigError
from phasecov.evaluation import (
    EvalWindow,
    correlation_error,
    correlation_matrix,
    increment_offsets,
    long_range_profile,
    operator_norm,
    structure_error,
    structure_function,
)
from phasecov.graph import Edge, model_preset
from phasecov.grid import white_noise
from phasecov.wavelets import build_bump_bank


def correlated_field(side, seed, slope=1.0):
    m = np.fft.fftfreq(side) * side
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    spec = 1.0 / (1.0 + np.hypot(m1, m2)) ** slope
    z = white_noise(side, 1.0, seed)
    return np.real(np.fft.ifft2(np.sqrt(spec) * np.fft.fft2(z)))


class TestEvalWindow:
    def test_reference_count(self):
        # |V0| = 8025 for J = 5, Q = 16 with the default window
        assert EvalWindow().count(5, 16) == 8025

    def test_small_window_count(self):
        w = EvalWindow(k_lo=0, k_hi=2, delta_n=1)
        # bands: J*Q*2*9, lowpass: 9
        assert w.count(2, 4) == 2 * 4 * 2 * 9 + 9


class TestOperatorNorm:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(0)
        n = 40
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (a + np.conj(a.T))
        dense = np.max(np.abs(np.linalg.eigvalsh(h)))
        assert operator_norm(h, tol=1e-10) == pytest.approx(dense, rel=1e-6)

    def test_indefinite_matrix(self):
        h = np.diag([-3.0, 1.0, 2.0])
        assert operator_norm(h, tol=1e-12) == pytest.approx(3.0, rel=1e-6)


class TestCorrelationError:
    def _matrices(self):
        side = 32
        bank = build_bump_bank(side, 2, 4)
        window = EvalWindow(k_lo=0, k_hi=2, delta_n=1)
        refs = [correlated_field(side, s) for s in range(4)]
        c_ref, d_ref = correlation_matrix(refs, bank, window)
        return c_ref, d_ref, bank, window, refs

    def test_identical_gives_zero(self):
        c_ref, *_ = self._matrices()
        assert correlation_error(c_ref, c_ref) == 0.0

    def test_zero_test_gives_one(self):
        c_ref, *_ = self._matrices()
        assert correlation_error(c_ref, np.zeros_like(c_ref)) == pytest.approx(1.0, rel=1e-6)

    def test_matches_dense_oracle_small_window(self):
        side = 32
        bank = build_bump_bank(side, 2, 4)
        window = EvalWindow(k_lo=1, k_hi=2, delta_n=1)  # small |V0|
        assert window.count(2, 4) <= 100
        c_ref, d_ref = correlation_matrix(
            [correlated_field(side, s) for s in range(3)], bank, window)
        c_test, _ = correlation_matrix(
            [correlated_field(side, 10 + s) for s in range(3)], bank, window,
            ref_diag=d_ref)
        got = correlation_error(c_ref, c_test, tol=1e-10)
        dense = np.max(np.abs(np.linalg.eigvalsh(c_ref - c_test))) / np.max(
            np.abs(np.linalg.eigvalsh(c_ref)))
        assert got == pytest.approx(dense, rel=1e-6)

    def test_scale_invariance_with_shared_diag(self):
        side = 32
        bank = build_bump_bank(side, 2, 4)
        window = EvalWindow(k_lo=0, k_hi=2, delta_n=1)
        refs = [correlated_field(side, s) for s in range(3)]
        c_ref, d_ref = correlation_matrix(refs, bank, window)
        c_scaled, _ = correlation_matrix([3.0 * r for r in refs], bank, window)
        assert np.max(np.abs(c_ref - c_scaled)) < 1e-10

    def test_window_mismatch_rejected(self):
        c_ref, *_ = self._matrices()
        with pytest.raises(ConfigError):
            correlation_error(c_ref, np.zeros((3, 3)))

    def test_diagonal_is_unit(self):
        c_ref, *_ = self._matrices()
        assert np.allclose(np.diag(c_ref).real, 1.0, atol=1e-10)

    def test_entries_match_translation_only_covariances(self):
        side = 16
        bank = build_bump_bank(side, 2, 4)
        spec = model_preset("B", J=2, Q=4)  # translations only
        window = EvalWindow(k_lo=0, k_hi=2, delta_n=1)
        verts = window.vertices(2, 4)
        x = correlated_field(side, 5) * np.exp(correlated_field(side, 6, slope=1.5))
        C, D = correlation_matrix(x, bank, window)
        K = C * np.sqrt(np.outer(D, D))
        pairs = [(i, j) for i in range(len(verts)) for j in range(len(verts))]
        edges = [Edge(verts[i][0], verts[i][1], verts[j][0], verts[j][1],
                      (verts[j][2][0] - verts[i][2][0], verts[j][2][1] - verts[i][2][1]))
                 for (i, j) in pairs]
        table = estimate_covariance(x, edges, spec, bank)
        want = np.array([table.cov[e.key()] for e in edges])
        got = np.array([K[i, j] for (i, j) in pairs])
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


class TestLongRangeProfile:
    def test_distance_zero_is_one(self):
        side = 32
        bank = build_bump_bank(side, 2, 4)
        prof = long_range_profile(white_noise(side, 1.0, 0), bank, 1, 1, 3)
        assert prof[0] == 1.0

    def test_white_noise_decays_fast(self):
        side = 64
        bank = build_bump_bank(side, 3, 4)
        fields = [white_noise(side, 1.0, s) for s in range(8)]
        prof = long_range_profile(fields, bank, 1, 1, 6)
        assert np.all(prof[2:] < 0.05)

    def test_long_memory_k0_decays_slower_than_k1(self):
        side = 64
        bank = build_bump_bank(side, 3, 4)
        fields = [correlated_field(side, 100 + s, slope=1.0) for s in range(10)]
        # multiplicative long-memory surrogate: heavy modulation field
        mods = []
        for s in range(10):
            g = correlated_field(side, 200 + s, slope=1.5)
            mods.append(white_noise(side, 1.0, 300 + s) * np.exp(g / np.std(g)))
        p0 = long_range_profile(mods, bank, 0, 1, 6)
        p1 = long_range_profile(mods, bank, 1, 1, 6)
        assert np.mean(p0[3:]) > np.mean(p1[3:])

    def test_distance_beyond_half_period_rejected(self):
        side = 32
        bank = build_bump_bank(side, 2, 4)
        with pytest.raises(ConfigError):
            long_range_profile(white_noise(side, 1.0, 0), bank, 1, 2, 10)


class TestStructureFunction:
    def test_constant_field_zero(self):
        x = np.full((32, 32), 1.7)
        for j in (1, 2, 3):
            for q in (1, 2, 3):
                assert structure_function(x, j, q) == 0.0

    def test_scaling_homogeneity(self):
        x = correlated_field(32, 1)
        for q in (1, 2, 3):
            s1 = structure_function(x, 2, q)
            s2 = structure_function(2.5 * x, 2, q)
            assert s2 == pytest.approx(2.5 ** q * s1, rel=1e-12)

    def test_gaussian_increment_identity(self):
        # E|x(u) - x(u-tau)|^2 = 2 (K(0) - K(tau)) for a known covariance
        side = 64
        m = np.fft.fftfreq(side) * side
        m1, m2 = np.meshgrid(m, m, indexing="ij")
        spec = 1.0 / (1.0 + np.hypot(m1, m2)) ** 1.5
        cov = np.real(np.fft.ifft2(spec))  # K(tau) up to the DFT constant
        n_fields = 200
        j = 2
        offsets = increment_offsets(j, side)
        expected = max(2 * (cov[0, 0] - cov[t0 % side, t1 % side]) for (t0, t1) in offsets)
        values = []
        for s in range(n_fields):
            z = white_noise(side, 1.0, 400 + s)
            x = np.real(np.fft.ifft2(np.sqrt(spec) * np.fft.fft2(z)))
            values.append(structure_function(x, j, 2))
        mean = np.mean(values)
        se = np.std(values) / np.sqrt(n_fields)
        assert abs(mean - expected) < 5 * se + 0.01 * expected

    def test_offset_annulus(self):
        # width-one annulus around 2^(j-1)
        offs = increment_offsets(1, 32)
        assert (1, 0) in offs and (0, -1) in offs and (1, 1) in offs
        assert (2, 0) not in offs
        offs2 = increment_offsets(2, 32)
        assert (2, 0) in offs2 and (1, 2) in offs2
        assert (2, 2) not in offs2

    def test_per_offset_power_mean_monotonicity(self):
        # S_tau(q)^(1/q) non-decreasing in q for each fixed offset
        x = correlated_field(32, 2)
        for tau in [(1, 0), (0, 1), (1, 1)]:
            inc = np.abs(x - np.roll(x, tau, axis=(0, 1)))
            vals = [np.mean(inc ** q) ** (1 / q) for q in (1, 2, 3, 4)]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_scale_beyond_half_period_rejected(self):
        with pytest.raises(ConfigError):
            structure_function(np.zeros((16, 16)), 5, 2)


class TestStructureError:
    def test_identical_sets_give_zero(self):
        fields = [correlated_field(32, s) for s in range(5)]
        rep = structure_error(fields, fields, 1, 2)
        assert rep.mean == 0.0
        assert rep.std == 0.0

    def test_matched_gaussian_within_noise(self):
        refs = [correlated_field(32, s) for s in range(10)]
        models = [correlated_field(32, 50 + s) for s in range(10)]
        rep = structure_error(refs, models, 1, 2)
        assert rep.mean < 5 * (rep.std / np.sqrt(len(rep.values))) + 0.2

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            structure_error([], [np.zeros((8, 8))], 1, 2)

    def test_reports_shape(self):
        refs = [correlated_field(16, s) for s in range(3)]
        rep = structure_error(refs, refs, 2, 3)
        assert rep.metric == "structure"
        assert (rep.j, rep.q) == (2, 3)
        assert len(rep.values) == 3
