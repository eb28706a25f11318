import re
from dataclasses import replace

import numpy as np
import pytest

from phasecov.covariance import (
    EdgeComputer,
    Rows,
    slice_of,
    angular_fourier_reduce,
    channel_center,
    edge_orbit_terms,
    estimate_covariance,
    estimate_mean,
    fourier_harmonic_covariance,
    gaussianity_report,
    harmonic_chain,
    phasor_harmonic,
    LagWindow,
    lag_correlations,
    normalize_correlations,
    sparsity_ratios,
    support_constant,
)
from phasecov.errors import ConfigError
from phasecov.graph import Edge, ModelSpec, SymmetryGroup, build_foveal_edges, model_preset
from phasecov.grid import translate, white_noise
from phasecov.harmonics import harmonic_derivative, phase_harmonic
from phasecov.synthesis import build_target, value_and_grad
from phasecov.wavelets import LOWPASS, build_bump_bank, channel_fields


def tiny_spec(**kw):
    return model_preset("B", **{"J": 2, "Q": 4, "delta_n": 1, "delta_ell": 1, **kw})


def orbit_oracle(x, edges, bank, group_sign=False):
    """Literal two-loop translation-orbit estimator (plus optional sign flip)."""
    n = x.shape[0]
    fields_by_g = []
    gs = [(t1, t2, s) for t1 in range(n) for t2 in range(n)
          for s in ((1, -1) if group_sign else (1,))]
    base = channel_fields(x, bank)
    means = {}
    for e in edges:
        for (ch, k) in ((e.ch, e.k), (e.ch2, e.k2)):
            if (ch, k) in means:
                continue
            acc = 0.0
            for (t1, t2, s) in gs:
                y = s * base[ch][(-t1) % n, (-t2) % n]
                acc += phase_harmonic(np.array(y), k)
            means[(ch, k)] = acc / len(gs)
    cov = {}
    for e in edges:
        acc = 0.0
        for (t1, t2, s) in gs:
            v1 = phase_harmonic(np.array(s * base[e.ch][(-t1) % n, (-t2) % n]), e.k)
            v2 = phase_harmonic(
                np.array(s * base[e.ch2][(e.du[0] - t1) % n, (e.du[1] - t2) % n]), e.k2
            )
            acc += (v1 - means[(e.ch, e.k)]) * np.conj(v2 - means[(e.ch2, e.k2)])
        cov[e.key()] = acc / len(gs)
    return means, cov


class TestMeans:
    def test_band_k1_mean_exactly_zero(self):
        spec = tiny_spec()
        bank = build_bump_bank(16, spec.J, spec.Q)
        x = white_noise(16, 1.0, 0)
        means = estimate_mean(x, spec, bank)
        for (ch, k), v in means.items():
            if ch != LOWPASS and k == 1:
                assert abs(v) < 1e-12

    def test_constant_field_lowpass_mean(self):
        spec = tiny_spec()
        bank = build_bump_bank(16, spec.J, spec.Q)
        means = estimate_mean(np.full((16, 16), 2.5), spec, bank)
        assert means[(LOWPASS, 1)] == pytest.approx(2.0 ** spec.J * 2.5, rel=1e-12)

    def test_k0_mean_matches_direct_loop(self):
        spec = tiny_spec()
        bank = build_bump_bank(16, spec.J, spec.Q)
        x = white_noise(16, 1.0, 1)
        means = estimate_mean(x, spec, bank)
        fields = channel_fields(x, bank)
        ch = (1, 2)
        direct = 0.0
        for u1 in range(16):
            for u2 in range(16):
                direct += abs(fields[ch][u1, u2])
        assert means[(ch, 0)] == pytest.approx(direct / 256, rel=1e-12)

    def test_means_under_rotations_and_reflections_match_spatial_orbit_means(self):
        # rotations and both reflections relabel a band channel onto every
        # angle of its scale, so its orbit mean is the plain average of the
        # spatial means of all Q angles
        group = SymmetryGroup(rotations=True, line_reflection=True, central_reflection=True)
        spec = model_preset("D", J=2, Q=4, group=group)
        bank = build_bump_bank(16, spec.J, spec.Q)
        x = white_noise(16, 1.0, 2) + 0.5
        edges = [Edge((1, 1), 1, (2, 3), 2, (0, 0)), Edge((1, 0), 0, LOWPASS, 1, (0, 0)),
                 Edge((2, 2), 0, (2, 0), 0, (0, 0)), Edge(LOWPASS, 2, LOWPASS, 2, (0, 0))]
        means = estimate_mean(x, spec, bank, edges)
        fields = channel_fields(x, bank)
        assert set(means) == {(ch, k) for (row, k) in [(1, 1), (2, 2), (1, 0), (2, 0)]
                              for ch in [(row, ell) for ell in range(4)]} | {
                                  (LOWPASS, 1), (LOWPASS, 2)}
        for (ch, k), m in means.items():
            orbit = [LOWPASS] if ch == LOWPASS else [(ch[0], ell) for ell in range(4)]
            ref = np.mean([np.mean(phase_harmonic(fields[c], k)) for c in orbit])
            assert abs(m - ref) < 1e-12 * max(1.0, abs(ref)), (ch, k)


class TestCovariance:
    def test_matches_brute_force_orbit(self):
        side = 8
        spec = tiny_spec(J=1, Q=2, delta_n=1)
        bank = build_bump_bank(side, spec.J, spec.Q)
        x = white_noise(side, 1.0, 2)
        edges = [
            Edge((1, 0), 1, (1, 0), 1, (0, 0)),
            Edge((1, 0), 1, (1, 0), 1, (1, 0)),
            Edge((1, 0), 0, (1, 1), 1, (0, 1)),
            Edge((1, 0), 2, (1, 1), 2, (1, 1)),
            Edge(LOWPASS, 1, LOWPASS, 1, (1, 0)),
        ]
        table = estimate_covariance(x, edges, spec, bank)
        means, cov = orbit_oracle(x, edges, bank)
        for key in cov:
            assert abs(table.cov[key] - cov[key]) < 1e-12 * max(1.0, abs(cov[key]))
        for mk in means:
            assert abs(table.means[mk] - means[mk]) < 1e-12

    def test_diagonal_nonnegative_real(self):
        spec = tiny_spec()
        bank = build_bump_bank(16, spec.J, spec.Q)
        edges = build_foveal_edges(spec)
        table = estimate_covariance(white_noise(16, 1.0, 3), edges, spec, bank)
        for key, val in table.cov.items():
            ch, k, ch2, k2, du = key
            if ch == ch2 and k == k2 and du == (0, 0):
                assert abs(val.imag) < 1e-14
                assert val.real >= 0

    def test_translation_invariance_any_offset(self):
        spec = tiny_spec()
        bank = build_bump_bank(16, spec.J, spec.Q)
        edges = build_foveal_edges(spec)
        x = white_noise(16, 1.0, 4)
        t1 = estimate_covariance(x, edges, spec, bank)
        t2 = estimate_covariance(translate(x, (3, 5)), edges, spec, bank)
        scale = max(abs(v) for v in t1.cov.values())
        for key in t1.cov:
            assert abs(t1.cov[key] - t2.cov[key]) < 1e-12 * scale

    def test_unknown_channel_rejected(self):
        spec = tiny_spec()
        bank = build_bump_bank(16, spec.J, spec.Q)
        bad = [Edge((7, 0), 1, (7, 0), 1, (0, 0))]
        with pytest.raises(ConfigError):
            estimate_covariance(white_noise(16, 1.0, 0), bad, spec, bank)

    def test_complex_field_rejected(self):
        # angle ell + Q/2 is read as the conjugate of ell, which holds for
        # real fields only
        spec = tiny_spec()
        bank = build_bump_bank(16, spec.J, spec.Q)
        x = white_noise(16, 1.0, 0) + 1j * white_noise(16, 1.0, 1)
        with pytest.raises(ConfigError, match="must be real"):
            estimate_covariance(x, build_foveal_edges(spec), spec, bank)
        with pytest.raises(ConfigError, match="must be real"):
            sparsity_ratios([x.real, x], bank)

    @pytest.mark.parametrize("J, Q", [(2, 8), (3, 4)])
    def test_bank_spec_mismatch_rejected(self, J, Q):
        spec = tiny_spec()
        bank = build_bump_bank(16, J, Q)
        x = white_noise(16, 1.0, 0)
        with pytest.raises(ConfigError, match="does not match the model spec"):
            estimate_covariance(x, build_foveal_edges(spec), spec, bank)
        with pytest.raises(ConfigError, match="does not match the model spec"):
            build_target(x, spec, bank)

    def test_hermitian_pair(self):
        spec = tiny_spec()
        bank = build_bump_bank(16, spec.J, spec.Q)
        x = white_noise(16, 1.0, 5)
        e = Edge((1, 0), 0, (1, 1), 1, (2, 1))
        rev = Edge((1, 1), 1, (1, 0), 0, (-2, -1))
        table = estimate_covariance(x, [e, rev], spec, bank)
        assert table.cov[e.key()] == pytest.approx(np.conj(table.cov[rev.key()]), rel=1e-12)

    def test_sign_change_kills_odd_pairs(self):
        side = 16
        spec = tiny_spec(group=SymmetryGroup(sign_change=True))
        bank = build_bump_bank(side, spec.J, spec.Q)
        x = white_noise(side, 1.0, 6)
        edges = [
            Edge((1, 0), 0, (1, 0), 1, (0, 0)),   # odd k + k'
            Edge((1, 0), 1, (1, 1), 2, (0, 0)),   # odd
            Edge((1, 0), 1, (1, 0), 1, (1, 0)),   # even
        ]
        table = estimate_covariance(x, edges, spec, bank)
        assert table.cov[edges[0].key()] == 0.0
        assert table.cov[edges[1].key()] == 0.0
        assert abs(table.cov[edges[2].key()]) > 0

    def test_central_reflection_real_entries(self):
        # single-position edges become exactly real under central-reflection
        # averaging (the model-D configuration); displaced edges satisfy the
        # conjugate pair relation K(du) = conj(K(-du))
        side = 16
        spec = tiny_spec(group=SymmetryGroup(central_reflection=True))
        bank = build_bump_bank(side, spec.J, spec.Q)
        x = white_noise(side, 1.0, 7)
        edges = [
            Edge((1, 0), 1, (1, 1), 1, (0, 0)),
            Edge((1, 0), 0, (2, 1), 2, (0, 0)),
            Edge((2, 3), 1, (2, 3), 2, (0, 0)),
        ]
        table = estimate_covariance(x, edges, spec, bank)
        for key, val in table.cov.items():
            assert abs(val.imag) < 1e-12 * max(1.0, abs(val))
        e = Edge((1, 0), 1, (1, 1), 1, (1, 2))
        e_rev = Edge((1, 0), 1, (1, 1), 1, (-1, -2))
        pair = estimate_covariance(x, [e, e_rev], spec, bank)
        assert pair.cov[e.key()] == pytest.approx(
            np.conj(pair.cov[e_rev.key()]), rel=1e-12
        )


def spatial_reference(comp, x, means, cot):
    """Edge values and the gradient of sum_e 2 Re[cot_e K_e] by direct
    np.roll correlations of every orbit term, rotations expanded."""
    bank, group, Q, n = comp.bank, comp.group, comp.Q, x.shape[0]
    fields = channel_fields(x, bank)
    h = {vk: phase_harmonic(fields[vk[0]], vk[1]) - means[vk] for vk in means}
    vals = np.zeros(len(comp.edges), dtype=complex)
    P = {vk: np.zeros((n, n), dtype=complex) for vk in means}
    rotate = lambda ch, eta: ch if ch == LOWPASS else (ch[0], (ch[1] + eta) % Q)
    for i, e in enumerate(comp.edges):
        terms = edge_orbit_terms(e.ch, e.ch2, e.du, group, Q)
        if group.rotations and (e.ch, e.ch2) != (LOWPASS, LOWPASS):
            terms = [(w / Q, rotate(c, eta), rotate(c2, eta), du)
                     for (w, c, c2, du) in terms for eta in range(Q)]
        g = cot[i] * comp.sign_factor[i]
        for (w, c, c2, du) in terms:
            a, b = h[(c, e.k)], h[(c2, e.k2)]
            b_du = np.roll(b, (-du[0], -du[1]), axis=(0, 1))  # b(u + du)
            vals[i] += w * np.mean(a * np.conj(b_du))
            P[(c, e.k)] += w * g * np.conj(b_du) / bank.d
            P[(c2, e.k2)] += w * np.conj(g) * np.conj(np.roll(a, du, axis=(0, 1))) / bank.d
    total_hat = np.zeros((n, n), dtype=complex)
    for (ch, k), p in P.items():
        d1, d2 = harmonic_derivative(fields[ch], k)
        total_hat += bank.filter(ch) * np.fft.ifft2(p * d1 + np.conj(p) * np.conj(d2))
    return vals * comp.sign_factor, 2.0 * np.real(np.fft.fft2(total_hat))


def spatial_diagonals(comp, x, means):
    """Own-diagonal K(v, v) of each vertex class by direct spatial means of
    |h - mean|^2 over the channel orbit, rotations expanded."""
    fields = channel_fields(x, comp.bank)
    Q, out = comp.Q, {}
    for (ch, k) in means:
        orbit = [(w, c) for (w, c, _, _) in edge_orbit_terms(ch, ch, (0, 0), comp.group, Q)]
        if comp.group.rotations and ch != LOWPASS:
            orbit = [(w / Q, (c[0], (c[1] + eta) % Q)) for (w, c) in orbit for eta in range(Q)]
        out[(ch, k)] = sum(w * np.mean(np.abs(phase_harmonic(fields[c], k) - means[(c, k)]) ** 2)
                           for (w, c) in orbit)
    return out


def full_rows(comp, x, means):
    """The :class:`Rows` of :meth:`EdgeComputer.harmonic_rows` with every
    slice computed directly: all Q channel fields, each slice's harmonic and
    its fft2 / d centered on ``means``, then the angle FFT under rotations."""
    fields = channel_fields(x, comp.bank)
    rows = Rows(*(np.empty(shape + x.shape, dtype=complex) for shape in comp.shapes))
    for rk, (b, r) in comp.slot.items():
        for s, (ch, k) in enumerate(comp.keys[rk]):
            rows[b][s, r] = np.fft.fft2(phase_harmonic(fields[ch], k), norm="forward")
            rows[b][s, r, 0, 0] -= means[(ch, k)]
    if comp.rotated:
        rows = rows._replace(band=np.fft.fft(rows.band, axis=0, norm="forward"))
    return rows


def full_q_reference(comp, x, means, cot):
    """Edge values, diagonals and the gradient of sum_e 2 Re[cot_e K_e] of a
    rotated computer from :func:`full_rows`: every angle on the whole plane,
    the Gram matrices S_m S_m^H of every m and the products
    (conj(Gamma_m) + Gamma_m^T) S_m, then the chain through every slice's own
    channel field and filter."""
    assert comp.rotated
    bank, Q = comp.bank, comp.Q
    rows = full_rows(comp, x, means)
    cot = cot * comp.sign_factor
    vals = np.zeros(len(comp.edges), dtype=complex)
    P = Rows(np.zeros_like(rows.band), np.zeros_like(rows.low))
    for key, g in comp.pair_groups.items():
        c = cot[g.idx] * g.w
        grid = np.zeros(g.shape, dtype=complex)
        np.add.at(grid, g.pos, np.where(g.conj, np.conj(c), c))
        if key[0] == "angular":
            s = rows.band.reshape(Q, rows.band.shape[1], -1)
            table = np.fft.fft(s @ np.conj(s).transpose(0, 2, 1), axis=0)
            gamma = np.fft.fft(grid, axis=0)
            P.band.reshape(s.shape)[...] += (np.conj(gamma) + gamma.transpose(0, 2, 1)) @ s
        else:
            # zero-lag pairs of m = 0 components or low-pass slices
            assert g.shape[1:] == (1, 1)
            (ba, ra), (bb, rb) = comp.slot[key[1]], comp.slot[key[2]]
            a, b = rows[ba][0, ra], rows[bb][0, rb]
            table = np.full(g.shape, np.sum(a * np.conj(b)))
            P[ba][0, ra] += b * np.conj(grid[0, 0, 0])
            P[bb][0, rb] += a * grid[0, 0, 0]
        v = g.w * table[g.pos]
        np.add.at(vals, g.idx, np.where(g.conj, np.conj(v), v))
    # every band slice of a row has the row's rotation-averaged power
    power = {rk: np.sum(np.abs(rows[b][:, r]) ** 2) for rk, (b, r) in comp.slot.items()}
    diag = {(ch, k): power[slice_of(ch, k)[0]] for (ch, k) in comp.classes}
    P = P._replace(band=np.fft.ifft(P.band, axis=0))
    fields = channel_fields(x, bank)
    total_hat = np.zeros(x.shape, dtype=complex)
    for rk, (b, r) in comp.slot.items():
        for (ch, k), p in zip(comp.keys[rk], P[b][:, r]):
            if k == 1:
                total_hat += bank.filter(ch) * np.conj(p) / bank.d
                continue
            p = np.fft.ifft2(p)
            d1, d2 = harmonic_derivative(fields[ch], k)
            total_hat += bank.filter(ch) * np.fft.ifft2(np.conj(p) * d1 + p * np.conj(d2))
    return vals * comp.sign_factor, diag, 2.0 * np.real(np.fft.fft2(total_hat))


def assert_matches_full_q_reference(comp, x, means, seed):
    """Rows, edge values, diagonals and the gradient for random cotangents
    against :func:`full_rows` and :func:`full_q_reference`, to 1e-12."""
    spectra, _, fields = comp.harmonic_rows(x, means)
    assert_rows_match_full_q(comp, x, spectra, means)
    cot = np.random.default_rng(seed).standard_normal((len(comp.edges), 2)) @ [1, 1j]
    ref_vals, ref_diag, ref_grad = full_q_reference(comp, x, means, cot)
    vals = comp.edge_values(spectra)
    assert np.max(np.abs(vals - ref_vals)) < 1e-12 * np.max(np.abs(ref_vals))
    assert_diagonals_match(comp.diagonals(spectra), ref_diag)
    grad = comp.gradient_fields(spectra, fields, cot)
    assert np.max(np.abs(grad - ref_grad)) < 1e-12 * np.max(np.abs(ref_grad))


def assert_rows_match_full_q(comp, x, spectra, means):
    """Rows computed for ell < Q/2, the upper angles mirrored and k = 1 rows
    filled in Fourier, against :func:`full_rows` to 1e-12 relative; under
    rotations the band buffer holds the half-plane w1 <= N/2 only."""
    for got, want in zip(spectra, full_rows(comp, x, means)):
        want = want[..., :got.shape[-2], :]
        if want.size:
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def assert_diagonals_match(diag, ref):
    for vk, val in diag.items():
        assert val == pytest.approx(ref[vk], rel=1e-12), vk


def assert_matches_spatial_reference(comp, x, seed):
    """Rows against :func:`full_rows`, and edge values, diagonals and the
    gradient for random cotangents against :func:`spatial_reference` and
    :func:`spatial_diagonals`, all to 1e-12 relative."""
    spectra, means, fields = comp.harmonic_rows(x)
    assert_rows_match_full_q(comp, x, spectra, means)
    cot = np.random.default_rng(seed).standard_normal((len(comp.edges), 2)) @ [1, 1j]
    ref_vals, ref_grad = spatial_reference(comp, x, means, cot)
    vals = comp.edge_values(spectra)
    assert_diagonals_match(comp.diagonals(spectra), spatial_diagonals(comp, x, means))
    grad = comp.gradient_fields(spectra, fields, cot)
    assert np.max(np.abs(vals - ref_vals)) < 1e-12 * np.max(np.abs(ref_vals))
    assert np.max(np.abs(grad - ref_grad)) < 1e-12 * np.max(np.abs(ref_grad))


ENGINE_SPECS = {
    "B": dict(),
    "C": dict(),
    "C-reflections-sign": dict(group=SymmetryGroup(line_reflection=True, central_reflection=True,
                                                   sign_change=True)),
    "D": dict(),
    "D-reflections-sign": dict(group=SymmetryGroup(rotations=True, line_reflection=True,
                                                   central_reflection=True, sign_change=True)),
}


def engine_target(name):
    spec = model_preset(name[0], J=3, Q=8, **ENGINE_SPECS[name])
    rng = np.random.default_rng(40)
    xbar = rng.standard_normal((32, 32)) * np.exp(0.5 * rng.standard_normal((32, 32)))
    return build_target(xbar, spec)


class TestSpectralEngine:
    @pytest.mark.parametrize("name", sorted(ENGINE_SPECS))
    def test_matches_spatial_reference(self, name):
        target = engine_target(name)
        comp = target.computer
        kinds = {key[0] for key in comp.pair_groups}
        if name.startswith("D"):
            # band rotation averages read the angular table; the low-pass
            # rows, alone and against a band row's m = 0 slice, lag windows
            assert kinds == {"angular", "fix"}
        else:
            # lagged and sparse zero-lag row pairs alike read lag windows
            assert kinds == {"fix"}
        x = white_noise(32, np.sqrt(target.sigma2), 41)
        spectra = comp.harmonic_rows(x, target.means)[0]
        assert_rows_match_full_q(comp, x, spectra, target.means)
        vals = comp.edge_values(spectra)
        ref_vals, _ = spatial_reference(comp, x, target.means, np.zeros(len(comp.edges)))
        assert np.max(np.abs(vals - ref_vals)) < 1e-12 * np.max(np.abs(ref_vals))
        assert_diagonals_match(comp.diagonals(spectra), spatial_diagonals(comp, x, target.means))
        res = (ref_vals - target.ref_values) / target.scales
        ref_f = float(np.sum(np.abs(res) ** 2))
        _, ref_grad = spatial_reference(comp, x, target.means, np.conj(res) / target.scales)
        f, grad = value_and_grad(x, target)
        assert abs(f - ref_f) < 1e-12 * ref_f
        assert np.max(np.abs(grad - ref_grad)) < 1e-12 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("name", ["D", "D-reflections-sign"])
    def test_half_plane_against_full_q_reference(self, name):
        target = engine_target(name)
        x = white_noise(32, np.sqrt(target.sigma2), 57)
        assert_matches_full_q_reference(target.computer, x, target.means, 58)

    def test_half_plane_against_full_q_reference_at_paper_geometry(self):
        # model D at side 128, J5/Q16: the rows' half-plane, the Gram
        # matrices of m and -m and the products at every m
        spec = model_preset("D", J=5, Q=16)
        rng = np.random.default_rng(59)
        xbar = rng.standard_normal((128, 128)) * np.exp(0.5 * rng.standard_normal((128, 128)))
        target = build_target(xbar, spec)
        assert target.computer.shapes == ((16, 15), (1, 2))
        x = white_noise(128, np.sqrt(target.sigma2), 60)
        assert_matches_full_q_reference(target.computer, x, target.means, 61)

    @pytest.mark.parametrize("name", ["D", "D-reflections-sign"])
    def test_angular_spectra_of_opposite_frequencies(self, name):
        # a real field has S_m(-w) = (-1)^m conj(S_{-m}(w)): the band buffer
        # needs only the half-plane w1 <= N/2
        target = engine_target(name)
        comp = target.computer
        s = full_rows(comp, white_noise(32, 1.0, 62), target.means).band
        at_minus_w = np.roll(s[..., ::-1, ::-1], 1, axis=(2, 3))
        m = np.arange(comp.Q)
        mirrored = (-1.0) ** m[:, None, None, None] * np.conj(s[-m])
        assert np.max(np.abs(at_minus_w - mirrored)) < 1e-12 * np.max(np.abs(s))

    def test_low_pass_against_bands_under_rotations(self):
        # rotation-averaged terms pairing the one-slice low-pass row with a band row
        spec = model_preset("D", J=2, Q=4)
        bank = build_bump_bank(16, spec.J, spec.Q)
        edges = [Edge((1, 0), 1, LOWPASS, 1, (0, 0)), Edge(LOWPASS, 0, (2, 1), 2, (0, 0)),
                 Edge((1, 0), 2, (2, 3), 1, (0, 0)), Edge(LOWPASS, 1, LOWPASS, 1, (0, 0))]
        comp = EdgeComputer(edges, spec, bank)
        assert {key[0] for key in comp.pair_groups} == {"fix", "angular"}
        assert comp.pair_groups[("fix", (LOWPASS, 0), (2, 2))].shape == (1, 1, 1)
        assert_matches_spatial_reference(comp, white_noise(16, 1.0, 44), 45)

    @pytest.mark.parametrize("rotations", [False, True])
    def test_k_minus_one_rows(self, rotations):
        # k = -1 rows are harmonic rows (conj y), computed for ell < Q/2 and
        # mirrored like k = 2 ones; k = 1 rows, the low-pass one too, are
        # filled in Fourier.  No edge here has its conjugate partner.
        spec = model_preset("D" if rotations else "B", J=2, Q=4)
        bank = build_bump_bank(16, spec.J, spec.Q)
        edges = [Edge((2, 0), 2, (1, 2), -1, (0, 0)), Edge((2, 3), 1, (2, 1), -1, (0, 0)),
                 Edge(LOWPASS, 1, (1, 1), -1, (0, 0)), Edge(LOWPASS, -1, LOWPASS, 1, (0, 0))]
        edges += [] if rotations else [Edge((1, 1), -1, (1, 3), 1, (1, -2)),
                                       Edge(LOWPASS, 1, (1, 0), -1, (2, 0))]
        comp = EdgeComputer(edges, spec, bank)
        assert comp.harmonic == (3, 1)  # rows (2, 2), (1, -1), (2, -1); (low, -1)
        assert_matches_spatial_reference(comp, white_noise(16, 1.0, 55), 56)

    @pytest.mark.parametrize("rotations", [False, True])
    def test_general_exponent_rows(self, rotations):
        # k = 3 and k = -2 rows: |y| u^k forward, harmonic_derivative of the
        # phasor in the chain
        spec = model_preset("D" if rotations else "B", J=2, Q=4)
        bank = build_bump_bank(16, spec.J, spec.Q)
        edges = [Edge((1, 0), 3, (2, 1), 0, (0, 0)), Edge((2, 1), -2, (1, 3), 3, (0, 0)),
                 Edge(LOWPASS, 3, (1, 1), 1, (0, 0))]
        edges += [] if rotations else [Edge((1, 1), 3, (2, 2), -2, (1, -2))]
        comp = EdgeComputer(edges, spec, bank)
        assert_matches_spatial_reference(comp, white_noise(16, 1.0, 64), 65)

    @pytest.mark.parametrize("name", ["C", "D"])
    def test_gradient_at_an_identically_zero_channel(self, name):
        # a field of period 4 along the first axis has its spectrum on the
        # rows w1 = 0 mod N/4 only, which the coarsest filter (3, 0) and its
        # mirror miss: their channel fields are exactly zero, and the phasor
        # there is 1 (the convention phi(0) = 0)
        target = engine_target(name)
        comp = target.computer
        rng = np.random.default_rng(66)
        x = np.tile(rng.standard_normal((4, 32)), (8, 1)) * np.sqrt(target.sigma2)
        assert not np.any(channel_fields(x, comp.bank, [(3, 0)])[(3, 0)])
        spectra, _, phasors = comp.harmonic_rows(x, target.means)
        assert np.all(phasors[list(comp.channels).index((3, 0))] == 1)
        cot = rng.standard_normal((len(comp.edges), 2)) @ [1, 1j]
        grad = comp.gradient_fields(spectra, phasors, cot)
        _, ref_grad = spatial_reference(comp, x, target.means, cot)
        assert np.all(np.isfinite(grad))
        assert np.max(np.abs(grad - ref_grad)) < 1e-12 * np.max(np.abs(ref_grad))

    def test_lagged_low_pass_edge_under_rotations_rejected(self):
        # rotations relabel angles and leave lags unturned: every edge, the
        # low-pass pairs too, must sit at lag (0, 0)
        spec = model_preset("D", J=2, Q=4)
        bank = build_bump_bank(16, spec.J, spec.Q)
        lagged = Edge(LOWPASS, 1, LOWPASS, 1, (1, 0))
        edges = [Edge((1, 0), 1, (1, 2), 1, (0, 0)), lagged]
        with pytest.raises(ConfigError, match=re.escape(repr(lagged))):
            EdgeComputer(edges, spec, bank)
        with pytest.raises(ConfigError, match=re.escape(repr(lagged))):
            estimate_covariance(white_noise(16, 1.0, 54), edges, spec, bank)
        # nor may a table estimated without rotations be reduced with it
        table = estimate_covariance(white_noise(16, 1.0, 54), edges, tiny_spec(), bank)
        with pytest.raises(ConfigError, match=re.escape(repr(lagged))):
            angular_fourier_reduce(table, spec)

    @pytest.mark.parametrize("row_a, row_b, t1, t2", [
        ((1, 1), (1, 2), [0, 1, 8, 13], [15, 9, 0]),   # lags at and past side/2
        ((2, 1), (2, 1), [0, 4, 12], [0, 2, 14]),       # strided: four aliases
        ((LOWPASS, 1), (LOWPASS, 0), [8], [0, 7]),      # one-slice low-pass rows
        ((1, 0), (2, 2), [0], [0]),                     # zero-lag box
    ])
    def test_window_matches_lag_correlations(self, row_a, row_b, t1, t2):
        n, Q = 16, 4
        bank = build_bump_bank(n, 2, Q)
        first = [LOWPASS if row == LOWPASS else (row, 0) for (row, _) in (row_a, row_b)]
        comp = EdgeComputer([Edge(first[0], row_a[1], first[1], row_b[1], (0, 0))],
                            ModelSpec(J=2, Q=Q), bank)
        spectra = comp.harmonic_rows(white_noise(n, 1.0, 46))[0]
        a, b = comp.slices(spectra, row_a), comp.slices(spectra, row_b)
        window = LagWindow(t1, t2, n)
        full = lag_correlations(a, b)
        box = window.correlations(a * np.conj(b))
        assert np.max(np.abs(box - full[:, t1][:, :, t2])) < 1e-13 * np.max(np.abs(full))
        # a lag grid on the box has the spectra of the grid put on the whole plane
        grid = np.random.default_rng(47).standard_normal((len(a), len(t1), len(t2), 2)) @ [1, 1j]
        plane = np.zeros((len(a), n, n), dtype=complex)
        plane[:, np.array(t1)[:, None], t2] = grid
        period = window.spectra(grid)[:, None]  # broadcast over the aliases
        ref = window.tiles(np.fft.fft2(plane))
        assert np.max(np.abs(period - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_layers_and_sparse_zero_lag_against_spatial_reference(self):
        spec = model_preset("B", J=2, Q=4)
        bank = build_bump_bank(16, spec.J, spec.Q)
        edges = [Edge((1, 0), 1, (1, 0), 1, (2, 1)), Edge((1, 0), 1, (1, 1), 1, (-1, 3)),
                 Edge((1, 0), 1, (1, 2), 1, (9, 0)), Edge((1, 2), 1, (1, 1), 1, (0, 0)),
                 Edge((1, 3), 1, (1, 0), 1, (2, 1)),
                 # sparse zero-lag row pair: 2 of its 16 angle pairs
                 Edge((1, 0), 0, (2, 0), 2, (0, 0)), Edge((1, 2), 0, (2, 2), 2, (0, 0)),
                 Edge(LOWPASS, 1, LOWPASS, 1, (8, -9))]
        comp = EdgeComputer(edges, spec, bank)
        assert {key[0] for key in comp.pair_groups} == {"fix"}
        lagged = comp.pair_groups[("fix", (1, 1), (1, 1))]
        assert len(lagged.layers) >= 3  # slice 0 pairs with three partners
        for layer in lagged.layers:
            assert len({p for p, _ in layer}) == len({q for _, q in layer}) == len(layer)
        # at Q = 4 slice pairs (0, 0) and (2, 2) are conjugate partners: one is read
        assert comp.pair_groups[("fix", (1, 0), (2, 2))].shape == (1, 1, 1)
        assert_matches_spatial_reference(comp, white_noise(16, 1.0, 48), 49)

    def test_dense_zero_lag_without_rotations_reads_a_window(self):
        # every angle pair of two band rows at lag zero, but no rotation
        # average: each edge reads its own Gram entry through a {0} x {0} window
        spec = model_preset("B", J=2, Q=4)
        bank = build_bump_bank(16, spec.J, spec.Q)
        edges = [Edge((1, la), 1, (2, lb), 2, (0, 0)) for la in range(4) for lb in range(4)]
        comp = EdgeComputer(edges, spec, bank)
        assert list(comp.pair_groups) == [("fix", (1, 1), (2, 2))]
        # the 16 angle pairs read 8 slice pairs and their conjugate partners
        assert comp.pair_groups[("fix", (1, 1), (2, 2))].shape == (8, 1, 1)
        assert_matches_spatial_reference(comp, white_noise(16, 1.0, 50), 51)

    @pytest.mark.parametrize("rotations", [False, True])
    @pytest.mark.parametrize("rows", ["band", "low-pass"])
    def test_only_band_or_only_low_pass_rows(self, rows, rotations):
        # one of the two row buffers is empty: no low-pass rows (L = 0) or
        # no band rows (R = 0)
        spec = model_preset("D" if rotations else "B", J=2, Q=4)
        bank = build_bump_bank(16, spec.J, spec.Q)
        if rows == "band":
            edges = [Edge((1, 0), 1, (1, 1), 1, (0, 0)), Edge((1, 0), 0, (2, 1), 2, (0, 0)),
                     Edge((2, 3), 2, (2, 0), 1, (0, 0))]
            edges += [] if rotations else [Edge((1, 2), 1, (1, 0), 1, (2, -1))]
        else:
            lags = [(0, 0)] * 3 if rotations else [(1, 0), (0, 0), (3, -2)]
            edges = [Edge(LOWPASS, k, LOWPASS, k2, du)
                     for (k, k2), du in zip([(1, 1), (0, 2), (2, 1)], lags)]
        comp = EdgeComputer(edges, spec, bank)
        kinds = {key[0] for key in comp.pair_groups}
        if rows == "band":
            assert comp.shapes == ((4, 4), (1, 0))
            assert kinds == ({"angular"} if rotations else {"fix"})
        else:
            assert comp.shapes == ((4, 0), (1, 3))
            assert kinds == {"fix"}
        assert_matches_spatial_reference(comp, white_noise(16, 1.0, 52), 53)

    @staticmethod
    def fft_sizes(target, monkeypatch):
        """Size of the array passed to each numpy.fft call of one
        value_and_grad, in planes of N^2."""
        sizes = []
        for fn in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "hfft"):
            orig = getattr(np.fft, fn)
            monkeypatch.setattr(np.fft, fn, lambda a, *args, _f=orig, **kw:
                                sizes.append(np.size(a) / 32 ** 2) or _f(a, *args, **kw))
        value_and_grad(white_noise(32, 1.0, 42), target)
        return sizes

    @pytest.mark.parametrize("name", ["C", "D"])
    def test_fft_calls_per_gradient(self, name, monkeypatch):
        target = engine_target(name)
        comp = target.computer
        calls = len(self.fft_sizes(target, monkeypatch))
        # J Q/2 + 1 channel fields (angle ell + Q/2 is never computed) and at
        # most as many chain transforms; x_hat twice (for the fields and for
        # the k = 1 rows); one forward and one inverse transform per row
        # buffer; 1 final; under rotations 4 along the angle (the band buffer
        # both ways, the angular table and its cotangents)
        assert calls <= 2 * (comp.bank.J * comp.Q // 2 + 1) + 7 + 4 * comp.rotated

    @pytest.mark.parametrize("name", ["C", "D"])
    def test_fft_planes_per_gradient(self, name, monkeypatch):
        target = engine_target(name)
        comp = target.computer
        planes = sum(self.fft_sizes(target, monkeypatch))
        (Q, R), (_, L) = comp.shapes
        # each row buffer is transformed both ways for ell < Q/2 only, a
        # channel field and its chain term for ell < Q/2 only, plus x_hat
        # twice, the final transform and the angular tables; under rotations
        # the band buffer's half-plane w1 <= N/2 is transformed along the
        # angle, both ways
        channels, n = comp.bank.J * Q // 2 + 1, comp.bank.side
        angular = 2 * Q * R * (n // 2 + 1) / n * comp.rotated
        assert planes <= 2 * (Q // 2 * R + L) + 2 * channels + 4 + angular

    def test_diagonals_match_spatial_power(self):
        target = engine_target("C-reflections-sign")
        comp = target.computer
        x = white_noise(32, 1.0, 43)
        spectra, _, _ = comp.harmonic_rows(x, target.means)
        assert_diagonals_match(comp.diagonals(spectra), spatial_diagonals(comp, x, target.means))


def unit_phasor(z):
    """|z| and z / |z|, 1 where z = 0, as :meth:`EdgeComputer.harmonic_rows`
    forms them."""
    a = np.abs(z)
    return a, np.divide(z, a, out=np.ones_like(z), where=a > 0)


class TestPhasorClosedForms:
    @pytest.mark.parametrize("k", [-1, 0, 2, 3])
    def test_against_general_formulas(self, k):
        # random z with exact zeros, where u = 1 and [0]^k = 0
        rng = np.random.default_rng(70 + k)
        z = (rng.standard_normal((400, 2)) @ [1, 1j]) * np.exp(rng.standard_normal(400))
        z[::9] = 0
        a, u = unit_phasor(z)
        assert np.all(u[::9] == 1)
        want = phase_harmonic(z, k)
        got = phasor_harmonic(z, a, u, k)
        assert np.all(got[::9] == 0)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        p = rng.standard_normal((400, 2)) @ [1, 1j]
        d1, d2 = harmonic_derivative(z, k)
        want = np.conj(p) * d1 + p * np.conj(d2)
        got = harmonic_chain(p, u, k)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [-1, 0, 2, 3])
    def test_exact_under_negation(self, k):
        # y -> -y negates u exactly, and [y]^k and its chain by (-1)^k and
        # (-1)^(k+1), to the bit
        rng = np.random.default_rng(80 + k)
        y, p = rng.standard_normal((2, 100, 2)) @ [1, 1j]
        a, u = unit_phasor(y)
        a_neg, u_neg = unit_phasor(-y)
        assert np.array_equal(a_neg, a) and np.array_equal(u_neg, -u)
        sign = (-1.0) ** k
        assert np.array_equal(phasor_harmonic(-y, a, -u, k), sign * phasor_harmonic(y, a, u, k))
        assert np.array_equal(harmonic_chain(p, -u, k), -sign * harmonic_chain(p, u, k))


class TestOrbitInvariance:
    """Estimates are invariant under each enabled group generator acting on
    the input image (Thm 4.1 precondition, tested per generator)."""

    def _edges(self):
        return [
            Edge((1, 0), 1, (1, 1), 1, (0, 0)),
            Edge((1, 0), 0, (1, 0), 0, (0, 0)),
            Edge((2, 1), 1, (2, 1), 2, (0, 0)),
            Edge((1, 2), 0, (2, 3), 2, (0, 0)),
        ]

    def _compare(self, spec, x, gx, edges=None):
        bank = build_bump_bank(x.shape[0], spec.J, spec.Q)
        edges = self._edges() if edges is None else edges
        t1 = estimate_covariance(x, edges, spec, bank)
        t2 = estimate_covariance(gx, edges, spec, bank)
        scale = max(abs(v) for v in t1.cov.values())
        for key in t1.cov:
            assert abs(t1.cov[key] - t2.cov[key]) < 1e-12 * scale, key
        for mk in t1.means:
            assert abs(t1.means[mk] - t2.means[mk]) < 1e-12

    def test_sign_change_generator(self):
        spec = tiny_spec(group=SymmetryGroup(sign_change=True))
        x = white_noise(16, 1.0, 30)
        self._compare(spec, x, -x)

    def test_line_reflection_generator(self):
        spec = tiny_spec(group=SymmetryGroup(line_reflection=True))
        x = white_noise(16, 1.0, 31)
        gx = np.roll(x[:, ::-1], 1, axis=1)  # u2 -> -u2 on the torus
        self._compare(spec, x, gx)

    def test_central_reflection_generator(self):
        spec = tiny_spec(group=SymmetryGroup(central_reflection=True))
        x = white_noise(16, 1.0, 32)
        gx = np.roll(x[::-1, ::-1], (1, 1), axis=(0, 1))  # u -> -u
        self._compare(spec, x, gx)

    def test_rotation_generator_quarter_turn(self):
        # with Q = 4 the rotation generator is a quarter turn, which acts
        # exactly on the square lattice
        spec = model_preset("D", J=2, Q=4)
        x = white_noise(16, 1.0, 33)
        gx = np.rot90(x, k=1).copy()
        edges = [
            Edge((1, 0), 1, (1, 1), 1, (0, 0)),
            Edge((1, 0), 0, (1, 0), 0, (0, 0)),
            Edge((1, 0), 1, (2, 0), 2, (0, 0)),
        ]
        self._compare(spec, x, gx, edges=edges)


class TestNormalization:
    def _table(self, seed=8):
        spec = tiny_spec()
        bank = build_bump_bank(16, spec.J, spec.Q)
        edges = build_foveal_edges(spec)
        x = white_noise(16, 1.0, seed)
        return estimate_covariance(x, edges, spec, bank), spec, bank, edges, x

    def test_own_diagonal_gives_unit(self):
        table, *_ = self._table()
        norm = normalize_correlations(table)
        for key, val in norm.cov.items():
            ch, k, ch2, k2, du = key
            if ch == ch2 and k == k2 and du == (0, 0):
                assert val.real == pytest.approx(1.0, rel=1e-12)

    def test_scale_invariance(self):
        table, spec, bank, edges, x = self._table()
        doubled = estimate_covariance(2.0 * x, edges, spec, bank)
        n1 = normalize_correlations(table)
        n2 = normalize_correlations(doubled)
        for key in n1.cov:
            assert n1.cov[key] == pytest.approx(n2.cov[key], rel=1e-10, abs=1e-12)

    def test_cauchy_schwarz(self):
        table, *_ = self._table(9)
        norm = normalize_correlations(table)
        for val in norm.cov.values():
            assert abs(val) <= 1.0 + 1e-10

    def test_degenerate_diagonal_identified(self):
        table, *_ = self._table()
        bad = dict(table.diag)
        key = next(iter(bad))
        bad[key] = 0.0
        with pytest.raises(ConfigError) as err:
            normalize_correlations(table, reference_diag=bad)
        assert str(key) in str(err.value)


def rotated_custom(**kw):
    """Custom rotated spec whose band blocks hold many entries per relative
    angle, unlike model D's one."""
    return ModelSpec(name="custom", **{"J": 2, "Q": 8, "k_min": 0, "k_max": 1, "delta_n": 0,
                                       "delta_ell": 4, "group": SymmetryGroup(rotations=True),
                                       **kw})


class TestAngularReduction:
    def test_symmetrized_table_has_diagonal_dft(self):
        side = 32
        x = white_noise(side, 1.0, 10)
        bank = build_bump_bank(side, 2, 8)
        custom = rotated_custom()
        for spec in (model_preset("D", J=2, Q=8), custom):
            edges = build_foveal_edges(spec)
            table = estimate_covariance(x, edges, spec, bank)
            reduced = angular_fourier_reduce(table, spec)
            assert reduced.offdiag_energy < 1e-10 * reduced.total_energy
        # negative control: the custom edges estimated without rotations
        table = estimate_covariance(x, edges, replace(custom, group=SymmetryGroup()), bank)
        control = angular_fourier_reduce(table, custom)
        assert control.offdiag_energy > 1e-10 * control.total_energy

    @pytest.mark.parametrize("rotations", [True, False])
    def test_reduction_matches_direct_angular_dft(self, rotations):
        # one fully populated cross-scale block of moduli, with and without
        # rotation averaging, against F M F^-1 computed directly
        Q = 8
        spec = rotated_custom(delta_j=1)
        bank = build_bump_bank(16, spec.J, Q)
        estimated = spec if rotations else replace(spec, group=SymmetryGroup())
        table = estimate_covariance(white_noise(16, 1.0, 15), build_foveal_edges(spec),
                                    estimated, bank)
        block = {key: v for key, v in table.cov.items()
                 if key[0] != LOWPASS and (key[0][0], key[1], key[2][0], key[3]) == (1, 0, 2, 0)}
        M = np.zeros((Q, Q), dtype=complex)
        for (ch, _, ch2, _, _), v in block.items():
            M[ch[1], ch2[1]] = v
        assert len(block) == Q * Q
        F = np.exp(-2j * np.pi * np.outer(np.arange(Q), np.arange(Q)) / Q)
        Mhat = F @ M @ np.conj(F).T / Q
        reduced = angular_fourier_reduce(replace(table, cov=block), spec)
        assert set(reduced.entries) == {(1, 0, 2, 0, m) for m in range(Q)}
        scale = np.max(np.abs(Mhat))
        for m in range(Q):
            assert abs(reduced.entries[(1, 0, 2, 0, m)] - Mhat[m, m]) < 1e-12 * scale
        off = np.sum(np.abs(Mhat - np.diag(np.diag(Mhat))) ** 2)
        assert abs(reduced.offdiag_energy - off) < 1e-12 * scale ** 2
        assert abs(reduced.total_energy - np.sum(np.abs(Mhat) ** 2)) < 1e-12 * scale ** 2
        assert (off > 1e-10 * reduced.total_energy) != rotations

    def test_reduction_size_factor(self):
        spec = model_preset("D", J=2, Q=8)
        bank = build_bump_bank(32, spec.J, spec.Q)
        edges = build_foveal_edges(spec)
        x = white_noise(32, 1.0, 11)
        table = estimate_covariance(x, edges, spec, bank)
        reduced = angular_fourier_reduce(table, spec)
        band_edges = [k for k in table.cov if k[0] != LOWPASS and k[2] != LOWPASS]
        # unreduced angular matrices have Q^2 entries per quadruple, the
        # reduced diagonal has Q: a factor Q

        n_quads = len({(k[0][0], k[1], k[2][0], k[3]) for k in band_edges})
        assert len(reduced.entries) == n_quads * spec.Q
        assert n_quads * spec.Q ** 2 == len(reduced.entries) * spec.Q

    def test_requires_rotations(self):
        spec = tiny_spec()
        bank = build_bump_bank(16, spec.J, spec.Q)
        edges = build_foveal_edges(spec)
        table = estimate_covariance(white_noise(16, 1.0, 12), edges, spec, bank)
        with pytest.raises(ConfigError):
            angular_fourier_reduce(table, spec)

    def test_line_reflection_gives_real_entries(self):
        side = 32
        spec = model_preset("D", J=2, Q=8,
                            group=SymmetryGroup(rotations=True, line_reflection=True))
        bank = build_bump_bank(side, spec.J, spec.Q)
        edges = build_foveal_edges(spec)
        table = estimate_covariance(white_noise(side, 1.0, 13), edges, spec, bank)
        reduced = angular_fourier_reduce(table, spec)
        assert all(isinstance(v, float) for v in reduced.entries.values())


class TestFourierHarmonicCovariance:
    def test_random_shift_closed_form(self):
        side = 8
        rng = np.random.default_rng(14)
        x = rng.standard_normal((side, side))
        orbit = [translate(x, (t1, t2)) for t1 in range(side) for t2 in range(side)]
        ks = [0, 1, 2, 3]
        table = fourier_harmonic_covariance(orbit, ks)
        xhat = np.fft.fft2(x)
        freqs = table.freqs
        scale = np.max(np.abs(xhat)) ** 2
        for a, k in enumerate(ks):
            for b, k2 in enumerate(ks):
                for i, f in enumerate(freqs):
                    for j2, f2 in enumerate(freqs):
                        ia = a * len(freqs) + i
                        ib = b * len(freqs) + j2
                        val = table.cov[ia, ib]
                        aligned = ((k * f[0] - k2 * f2[0]) % side == 0) and (
                            (k * f[1] - k2 * f2[1]) % side == 0)
                        assert aligned == table.support[ia, ib]
                        if not aligned:
                            assert abs(val) < 1e-10 * scale
                        elif f != (0, 0) and f2 != (0, 0) and k * f[0] % side or True:
                            pass  # closed-form check done below on a slice

    def test_random_shift_closed_form_values(self):
        side = 8
        rng = np.random.default_rng(15)
        x = rng.standard_normal((side, side))
        orbit = [translate(x, (t1, t2)) for t1 in range(side) for t2 in range(side)]
        ks = [1, 2]
        table = fourier_harmonic_covariance(orbit, ks)
        xhat = np.fft.fft2(x)
        scale = np.max(np.abs(xhat)) ** 2
        for (k, f, k2, f2) in [
            (1, (1, 0), 1, (1, 0)),
            (1, (2, 3), 1, (2, 3)),
            (2, (1, 2), 1, (2, 4)),
            (2, (3, 1), 2, (3, 1)),
        ]:
            ia = table.index(k, f)
            ib = table.index(k2, f2)
            # closed form [x_hat(w)]^k [x_hat(w')]^{-k'} minus the orbit means
            z1 = phase_harmonic(np.array(xhat[f]), k)
            z2 = phase_harmonic(np.array(xhat[f2]), -k2)
            m1 = z1 if (k * f[0] % side == 0 and k * f[1] % side == 0) else 0.0
            m2 = z2 if (k2 * f2[0] % side == 0 and k2 * f2[1] % side == 0) else 0.0
            expected = z1 * z2 - m1 * m2
            assert abs(table.cov[ia, ib] - expected) < 1e-10 * scale

    def test_white_noise_offdiagonal_small(self):
        side = 8
        reals = [white_noise(side, 1.0, s) for s in range(2000)]
        freqs = [(1, 0), (2, 0), (1, 1), (3, 2)]
        table = fourier_harmonic_covariance(reals, [1], freqs=freqs)
        # off-diagonal entries are zero in expectation; allow 5 standard errors
        d = side * side
        se = d / np.sqrt(len(reals))
        for i in range(len(freqs)):
            for j in range(len(freqs)):
                if i != j:
                    assert abs(table.cov[i, j]) < 5 * se

    def test_needs_two_realizations(self):
        with pytest.raises(ConfigError):
            fourier_harmonic_covariance([np.zeros((4, 4))], [1])

    def test_inconsistent_sides(self):
        with pytest.raises(ConfigError):
            fourier_harmonic_covariance([np.zeros((4, 4)), np.zeros((8, 8))], [1])


def circularity(bank, channel):
    """Pseudo-variance over variance of x * psi for white x (0 = circular)."""
    f = bank.filter(channel)
    rev = (-np.arange(bank.side)) % bank.side
    f_neg = f[rev][:, rev]
    return float(np.sum(f * f_neg) / np.sum(f * f))


def noncircular_gaussian_ratio(rho):
    """E(|y|)^2 / E(|y|^2) for complex Gaussian y with |pseudo|/var = rho.

    With unit variance the real/imaginary principal components have
    variances (1 +/- rho)/2 and E|y| = sqrt(2 s1^2 / pi) * ellipe(1 - s2^2/s1^2).
    rho = 0 recovers pi/4.
    """
    from scipy.special import ellipe

    s1sq = (1 + rho) / 2
    s2sq = (1 - rho) / 2
    mean_abs = np.sqrt(2 * s1sq / np.pi) * ellipe(1 - s2sq / s1sq)
    return mean_abs ** 2


class TestGaussianity:
    def test_white_noise_ratios_near_pi_over_four(self):
        # circular channels (j >= 2) sit at pi/4; the finest scale is
        # non-circular by construction (alias folding gives it a nonzero
        # pseudo-variance) and matches the exact non-circular prediction
        side = 32
        bank = build_bump_bank(side, 2, 4)
        fields = [white_noise(side, 1.0, s) for s in range(60)]
        ratios = sparsity_ratios(fields, bank)
        for (j, ell), r in ratios.items():
            if j >= 2:
                assert abs(r - np.pi / 4) < 0.02, (j, ell)
            else:
                rho = abs(circularity(bank, (j, ell)))
                assert abs(r - noncircular_gaussian_ratio(rho)) < 0.02, (j, ell)

    def test_circularity_of_scales(self):
        bank = build_bump_bank(64, 3, 8)
        for ell in range(8):
            assert abs(circularity(bank, (2, ell))) < 1e-6
            assert abs(circularity(bank, (3, ell))) < 1e-6
            assert abs(circularity(bank, (1, ell))) > 0.1  # alias folding

    def test_spike_field_flags_fine_scales(self):
        side = 64
        bank = build_bump_bank(side, 3, 4)
        x = np.zeros((side, side))
        rng = np.random.default_rng(16)
        idx = rng.integers(0, side, size=(10, 2))
        for (a, b) in idx:
            x[a, b] = rng.standard_normal() * 10
        report = gaussianity_report(x, bank)
        assert any(report.flags[(1, ell)] for ell in range(4))
        assert not report.gaussian_consistent

    def test_gaussian_cross_covariances_null(self):
        side = 64
        bank = build_bump_bank(side, 3, 8)
        fields = [white_noise(side, 1.0, 100 + s) for s in range(40)]
        report = gaussianity_report(fields, bank)
        assert report.cross, "expected disjoint-support pairs"
        for (_desc, val, se) in report.cross:
            assert se is not None
            assert abs(val) < 5 * se + 1e-3

    def test_cross_values_match_direct_formula(self):
        bank = build_bump_bank(32, 3, 8)
        rng = np.random.default_rng(17)
        fields = [rng.standard_normal((32, 32)) * np.exp(rng.standard_normal((32, 32)))
                  for _ in range(3)]
        report = gaussianity_report(fields, bank)
        assert report.cross
        for ((c1, k1, c2, k2), val, se) in report.cross:
            direct = []
            for x in fields:
                fs = channel_fields(x, bank)
                h1 = phase_harmonic(fs[c1], k1) - phase_harmonic(fs[c1], k1).mean()
                h2 = phase_harmonic(fs[c2], k2) - phase_harmonic(fs[c2], k2).mean()
                direct.append(np.mean(h1 * np.conj(h2))
                              / np.sqrt(np.mean(np.abs(h1) ** 2) * np.mean(np.abs(h2) ** 2)))
            assert abs(val - np.mean(direct)) < 1e-12
            assert se == pytest.approx(np.std(direct) / np.sqrt(len(direct)), abs=1e-12)

    @pytest.mark.parametrize("J", [1, 3])
    def test_report_ratios_match_every_channel(self, J):
        # the report takes its sparsity sums from the channel fields of its
        # pairs' rows, and of the scales no pair reads (J = 1 has no pairs);
        # every channel, the upper angles too, matches the direct ratio
        bank = build_bump_bank(32, J, 8)
        rng = np.random.default_rng(20)
        fields = [rng.standard_normal((32, 32)) * np.exp(rng.standard_normal((32, 32)))
                  for _ in range(2)]
        report = gaussianity_report(fields, bank)
        assert bool(report.cross) == (J > 1)
        ys = [channel_fields(x, bank) for x in fields]
        for c in bank.filters:
            a = np.concatenate([np.abs(y[c]).ravel() for y in ys])
            assert report.ratios[c] == pytest.approx(np.mean(a) ** 2 / np.mean(a * a), rel=1e-12), c
        assert report.ratios == pytest.approx(sparsity_ratios(fields, bank), rel=1e-12)

    def test_field_without_band_energy_rejected(self):
        # a constant field has no band energy, so no sparsity ratio is defined
        bank = build_bump_bank(16, 2, 4)
        for report in (sparsity_ratios, gaussianity_report):
            with pytest.raises(ConfigError, match="no energy"):
                report([np.full((16, 16), 2.0)], bank)

    def test_spectral_overlap_sparsity(self):
        # |K| decays below 1% of the diagonal scale for pairs violating the
        # measured spectral-overlap condition
        side = 64
        spec = tiny_spec(J=3, Q=8)
        spec = model_preset("B", J=3, Q=8)
        bank = build_bump_bank(side, spec.J, spec.Q)
        # the 99%-energy radius saturates the triangle inequality (C >= 1,
        # every pair overlaps); the non-negligible-support radius at 90%
        # gives a contentful condition
        assert support_constant(bank, 0.99) >= 1.0
        C = support_constant(bank, 0.90)
        assert 0.0 < C < 1.0
        rng = np.random.default_rng(18)
        x = white_noise(side, 1.0, 19) * np.exp(rng.standard_normal((side, side)))
        pairs = []
        for (ch, k, ch2, k2) in [
            ((2, 0), 1, (2, 4), 1, ),
            ((2, 1), 1, (2, 5), 1, ),
            ((3, 0), 1, (2, 4), 2, ),
        ]:
            lam = channel_center(bank, ch)
            lam2 = channel_center(bank, ch2)
            gap = np.linalg.norm(k * lam - k2 * lam2)
            bound = C * (max(abs(k), 1) * np.linalg.norm(lam)
                         + max(abs(k2), 1) * np.linalg.norm(lam2))
            if gap > bound:
                pairs.append(Edge(ch, k, ch2, k2, (0, 0)))
        assert pairs, "expected overlap-violating pairs"
        diag_edges = [Edge(e.ch, e.k, e.ch, e.k, (0, 0)) for e in pairs] + [
            Edge(e.ch2, e.k2, e.ch2, e.k2, (0, 0)) for e in pairs
        ]
        table = estimate_covariance(x, pairs + diag_edges, spec, bank)
        for e in pairs:
            d1 = table.diag[(e.ch, e.k)]
            d2 = table.diag[(e.ch2, e.k2)]
            assert abs(table.cov[e.key()]) < 0.01 * np.sqrt(d1 * d2), e.key()

    def test_harmonic_spectrum_concentration(self):
        # power spectrum of [y_lambda]^k concentrates near k * lambda
        side = 64
        bank = build_bump_bank(side, 3, 8)
        rng = np.random.default_rng(17)
        ch = (2, 0)
        acc = {k: np.zeros((side, side)) for k in (0, 1, 2)}
        for s in range(30):
            x = white_noise(side, 1.0, 200 + s)
            y = channel_fields(x, bank, channels=[ch])[ch]
            for k in acc:
                h = phase_harmonic(y, k)
                h = h - h.mean()
                acc[k] += np.abs(np.fft.fft2(h)) ** 2
        m = np.fft.fftfreq(side) * side
        m1, m2 = np.meshgrid(m, m, indexing="ij")
        lam = np.array([bank.xi0 / 2 ** ch[0] * side / (2 * np.pi), 0.0])
        lam_norm = np.linalg.norm(lam)
        def ball_fraction(p, center, radius):
            d1 = (m1 - center[0] + side / 2) % side - side / 2
            d2 = (m2 - center[1] + side / 2) % side - side / 2
            ball = np.hypot(d1, d2) <= radius
            return float(np.sum(p[ball]) / np.sum(p))

        for k in (0, 1, 2):
            # energy concentrated in a torus ball of radius max(k,1)|lam|
            # around k * lambda
            frac = ball_fraction(acc[k], k * lam, max(k, 1) * lam_norm)
            assert frac > 0.7, (k, frac)
        # the k = 2 spectrum sits at 2 lambda, not at lambda
        at_two = ball_fraction(acc[2], 2 * lam, lam_norm)
        at_one = ball_fraction(acc[2], lam, lam_norm)
        assert at_two > 2 * at_one
