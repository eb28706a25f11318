"""Symmetry-averaged means and covariances of wavelet phase harmonics.

Estimates are translation-orbit averages of full-resolution harmonic fields
h_{c,k}(w) = [x * psi_c (w)]^k: the mean over all d translations of the
coefficient at a vertex equals the spatial mean of h, and the covariance of
an edge equals the spatial cross-correlation of the centered fields at the
edge's pixel lag.  This makes the tables exactly invariant under any integer
translation of the input.  The correlations are taken in the Fourier domain
(see :class:`EdgeComputer`): each harmonic slice is transformed once, a
zero-lag covariance follows from Parseval's identity, and the lags of a slice
pair from one FFT of its cross-spectrum.

Further group flags act by channel relabeling (never by image resampling):
rotations shift the angular index of both vertices (valid for edges at a
single spatial position), the line reflection maps ell -> -ell and flips the
second lag component, the central reflection shifts ell by Q/2 and negates
the lag, and the sign change multiplies an edge by (-1)^(k+k').
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .graph import SymmetryGroup
from .harmonics import harmonic_derivative, phase_harmonic
from .wavelets import LOWPASS, channel_fields


@dataclass
class CovarianceTable:
    """Estimated means and covariances keyed by edge."""

    means: dict                      # (channel, k) -> complex
    cov: dict                        # edge key -> complex
    diag: dict                       # (channel, k) -> float, own-diagonal K(v, v)
    group: SymmetryGroup
    normalized: bool = False
    norm_diag: dict | None = None    # diagonal used for normalization
    source: str = ""

    def value(self, edge):
        return self.cov[edge.key()]


def _band_row(channel):
    """Stack row of a channel: bands group by scale, the low-pass is its own row."""
    return LOWPASS if channel == LOWPASS else channel[0]


def _row_channel(row, ell):
    return LOWPASS if row == LOWPASS else (row, ell)


def _reflect_channel(ch, Q):
    return ch if ch == LOWPASS else (ch[0], (-ch[1]) % Q)


def _central_channel(ch, Q):
    return ch if ch == LOWPASS else (ch[0], (ch[1] + Q // 2) % Q)


def edge_orbit_terms(ch, ch2, du, group, Q):
    """Concrete correlation terms (weight, ch, ch2, du) averaged for an edge.

    Rotations are not expanded here; they are applied as an angular-axis
    average inside the correlation engine.  The sign change is a scalar
    factor handled by the caller.
    """
    terms = [(1.0, ch, ch2, du)]
    if group.line_reflection:
        terms = [t for (w, c, c2, u) in terms for t in (
            (w / 2, c, c2, u),
            (w / 2, _reflect_channel(c, Q), _reflect_channel(c2, Q), (u[0], -u[1])))]
    if group.central_reflection:
        terms = [t for (w, c, c2, u) in terms for t in (
            (w / 2, c, c2, u),
            (w / 2, _central_channel(c, Q), _central_channel(c2, Q), (-u[0], -u[1])))]
    return terms


class EdgeComputer:
    """Precomputed machinery to evaluate a fixed edge set on varying fields.

    Harmonic fields are stacked by row: (row, k) -> (Q, N, N) for a scale,
    (1, N, N) for the low-pass.  The orbit terms of every edge are grouped
    by the slice pair they correlate.

    A "fix" group correlates two slices at fixed pixel lags, in the Fourier
    domain.  The slices some fix group uses are transformed once per field,
    one stacked ``fft2`` per row, and their spectra A, B stand in for the
    centered slices.  A group with only the zero lag reads its value off the
    spectra by Parseval, vdot(B, A) / d^2; a group with lags takes one FFT of
    its cross-spectrum A conj(B).  The gradient adds B conj(G) and A G, G the
    FFT of the group's cotangent lag grid, to Fourier accumulators of the
    slices and takes one inverse FFT per row.

    A "rot" group (rotation averaging) correlates two whole rows at a
    relative angle, in space; rows only rot groups use stay spatial.
    """

    def __init__(self, edges, spec, bank):
        if bank.J != spec.J or bank.Q != spec.Q:
            raise ConfigError("bank (J, Q) does not match the model spec")
        self.edges = list(edges)
        valid = set(bank.channels())
        for e in self.edges:
            for ch in (e.ch, e.ch2):
                if ch not in valid:
                    raise ConfigError(f"edge references unknown channel {ch!r}")
        self.spec = spec
        self.bank = bank
        self.group = spec.group
        self.Q = spec.Q
        self.d = bank.d
        self.rows = list(dict.fromkeys(
            (_band_row(c), k) for e in self.edges for (c, k) in ((e.ch, e.k), (e.ch2, e.k2))))
        self.sign_factor = np.array(
            [0.0 if self.group.sign_change and (e.k + e.k2) % 2 == 1 else 1.0 for e in self.edges])
        self._index_terms()
        # slices each row transforms, and where each sits in the row's spectra
        used = {}
        for key in self.pair_groups:
            if key[0] == "fix":
                for (ch, k) in key[1:]:
                    used.setdefault((_band_row(ch), k), set()).add(0 if ch == LOWPASS else ch[1])
        self.fix_ells = {rk: sorted(ells) for rk, ells in used.items()}
        self.slot = {
            (_row_channel(rk[0], ell), rk[1]): (rk, i)
            for rk, ells in self.fix_ells.items() for i, ell in enumerate(ells)
        }
        self.rot_rows = {rk for key in self.pair_groups if key[0] == "rot" for rk in key[1:3]}

    def _index_terms(self):
        """Group the orbit terms of all edges by the slice pair they correlate."""
        groups = {}  # key -> list of (edge_idx, weight, du)
        for idx, e in enumerate(self.edges):
            for (w, c, c2, du) in edge_orbit_terms(e.ch, e.ch2, e.du, self.group, self.Q):
                if self.group.rotations and (c != LOWPASS or c2 != LOWPASS):
                    if du != (0, 0):
                        raise ConfigError("rotation averaging needs edges at a single position")
                    dl = 0 if LOWPASS in (c, c2) else (c2[1] - c[1]) % self.Q
                    key = ("rot", (_band_row(c), e.k), (_band_row(c2), e.k2), dl)
                else:
                    key = ("fix", (c, e.k), (c2, e.k2))
                groups.setdefault(key, []).append((idx, w, du))
        self.pair_groups = {}
        for key, members in groups.items():
            idx, w, du = zip(*members)
            lag = tuple(np.array(du).T % self.bank.side)
            self.pair_groups[key] = _Group(np.array(idx), np.array(w), lag,
                                           bool(lag[0].any() or lag[1].any()))

    def _orbit(self, ch):
        """Weighted images of a channel under the group's channel relabelings."""
        terms = [(w, c) for (w, c, _, _) in edge_orbit_terms(ch, ch, (0, 0), self.group, self.Q)]
        if self.group.rotations and ch != LOWPASS:
            terms = [(w / self.Q, (c[0], (c[1] + eta) % self.Q))
                     for (w, c) in terms for eta in range(self.Q)]
        return terms

    # ----- field-dependent quantities -------------------------------------

    def harmonic_rows(self, x):
        """Stacked harmonic fields per row: (Q, N, N) for scales, (1, N, N) for low."""
        fields = channel_fields(x, self.bank)
        out = {}
        for (row, k) in self.rows:
            width = 1 if row == LOWPASS else self.Q
            out[(row, k)] = np.stack(
                [phase_harmonic(fields[_row_channel(row, ell)], k) for ell in range(width)]
            )
        return out, fields

    def raw_means(self, rows):
        means = {}
        for (row, k), h in rows.items():
            for ell, m in enumerate(h.mean(axis=(1, 2))):
                means[(_row_channel(row, ell), k)] = complex(m)
        return means

    def averaged_means(self, raw):
        """Group-average the translation means over the channel orbit."""
        out = {}
        for (ch, k) in raw:
            acc = 0.0
            for (w, c) in self._orbit(ch):
                acc += w * raw[(c, k)]
            if self.group.sign_change:
                acc = 0.0 if k % 2 == 1 else acc
            out[(ch, k)] = acc
        return out

    def centered_rows(self, rows, means):
        """Centered rows as (spatial, spectra).

        ``spatial`` keeps the rows rot groups use; ``spectra[(row, k)]`` holds
        the fft2 of the centered slices ``fix_ells[(row, k)]``, in that order.
        """
        spatial, spectra = {}, {}
        for (row, k), h in rows.items():
            offs = np.array([means[(_row_channel(row, ell), k)] for ell in range(len(h))])
            offs = offs[:, None, None]
            if (row, k) in self.rot_rows:
                spatial[(row, k)] = h - offs
            ells = self.fix_ells.get((row, k))
            if ells is not None:
                spectra[(row, k)] = np.fft.fft2(h[ells] - offs[ells])
        return spatial, spectra

    def edge_values(self, centered):
        """All edge covariances from :meth:`centered_rows` output."""
        spatial, spectra = centered
        d2 = self.d * self.d
        vals = np.zeros(len(self.edges), dtype=complex)
        for key, g in self.pair_groups.items():
            if key[0] == "rot":
                _, row1, row2, dl = key
                # a low-pass row broadcasts against the band angles
                t = np.mean(spatial[row1] * np.conj(np.roll(spatial[row2], -dl, axis=0)))
            else:
                (ra, ia), (rb, ib) = self.slot[key[1]], self.slot[key[2]]
                a, b = spectra[ra][ia], spectra[rb][ib]
                if g.shifted:
                    t = np.fft.fft2(a * np.conj(b))[g.lag] / d2
                else:
                    t = np.vdot(b, a) / d2
            np.add.at(vals, g.idx, g.w * t)
        return vals * self.sign_factor

    def diagonals(self, centered):
        """Own-diagonal K(v, v) per vertex class (group averaged)."""
        spatial, spectra = centered
        power = {}
        for (row, k), h in spatial.items():
            for ell, p in enumerate(np.mean(np.abs(h) ** 2, axis=(1, 2))):
                power[(_row_channel(row, ell), k)] = float(p)
        for (row, k), s in spectra.items():  # Parseval
            p = np.sum(np.abs(s) ** 2, axis=(1, 2)) / (self.d * self.d)
            for ell, pe in zip(self.fix_ells[(row, k)], p):
                power[(_row_channel(row, ell), k)] = float(pe)
        diag = {}
        for e in self.edges:
            for (ch, k) in ((e.ch, e.k), (e.ch2, e.k2)):
                diag[(ch, k)] = sum(w * power[(c, k)] for (w, c) in self._orbit(ch))
        return diag

    # ----- objective support ----------------------------------------------

    def gradient_fields(self, centered, fields, cot):
        """Real gradient of sum_e 2*Re[cot_e * dK_e] through the harmonics.

        ``cot`` holds per-edge Wirtinger cotangents dF/dK(e).  With g(du) a
        fix group's cotangent grid, the slices gain
        P_a(w) = (1/d) sum_du g(du) conj(b(w+du)) and
        P_b(w) = (1/d) sum_du conj(g(du)) conj(a(w-du)),
        accumulated as B conj(G) and A G and inverted once per row.
        """
        spatial, spectra = centered
        n = self.bank.side
        P = {rk: np.zeros_like(h) for rk, h in spatial.items()}
        acc = {rk: np.zeros_like(s) for rk, s in spectra.items()}
        cot = cot * self.sign_factor
        for key, g in self.pair_groups.items():
            c = cot[g.idx] * g.w
            if key[0] == "rot":
                _, row1, row2, dl = key
                # T = mean(h1 * conj(h2 rolled)) over the Q*d broadcast entries
                scale = c.sum() / (self.d * self.Q)
                if scale == 0.0:
                    continue
                h1, h2 = spatial[row1], spatial[row2]
                P[row1] += _fold_angles(scale * np.conj(np.roll(h2, -dl, axis=0)), len(h1))
                P[row2] += _fold_angles(np.conj(scale) * np.conj(np.roll(h1, dl, axis=0)), len(h2))
            else:
                (ra, ia), (rb, ib) = self.slot[key[1]], self.slot[key[2]]
                if g.shifted:
                    grid = np.zeros((n, n), dtype=complex)
                    np.add.at(grid, g.lag, c)
                    ghat = np.fft.fft2(grid)
                else:
                    ghat = c.sum()  # the FFT of a zero-lag grid is constant
                acc[ra][ia] += spectra[rb][ib] * np.conj(ghat)
                acc[rb][ib] += spectra[ra][ia] * ghat
        per_slice = {}
        for (row, k), p in P.items():
            for ell in range(len(p)):
                per_slice[(_row_channel(row, ell), k)] = p[ell]
        for (row, k) in list(acc):
            p = np.conj(np.fft.ifft2(acc.pop((row, k)))) / self.d
            for ell, pe in zip(self.fix_ells[(row, k)], p):
                key = (_row_channel(row, ell), k)
                per_slice[key] = per_slice[key] + pe if key in per_slice else pe
        # chain through the phase harmonic and back through the filters
        per_channel = {}
        for (ch, k), p in per_slice.items():
            d1, d2 = harmonic_derivative(fields[ch], k)
            per_channel[ch] = per_channel.get(ch, 0) + (p * d1 + np.conj(p) * np.conj(d2))
        total_hat = np.zeros((n, n), dtype=complex)
        for ch, g in per_channel.items():
            total_hat += self.bank.filter(ch) * np.fft.ifft2(g)
        return 2.0 * np.real(np.fft.fft2(total_hat))


class _Group(NamedTuple):
    """Members of one pair group: edge indices, weights and lags (mod side)."""

    idx: np.ndarray
    w: np.ndarray
    lag: tuple
    shifted: bool            # some member has a non-zero lag


def _fold_angles(v, width):
    """Sum the angle axis of ``v`` when it accumulates into a one-slice row."""
    return v.sum(axis=0, keepdims=True) if width < len(v) else v


def estimate_mean(x, spec, bank, edges=None):
    """Group-averaged harmonic means per vertex class of the edge set."""
    from .graph import build_foveal_edges

    if edges is None:
        edges = build_foveal_edges(spec)
    comp = EdgeComputer(edges.edges if hasattr(edges, "edges") else edges, spec, bank)
    rows, _ = comp.harmonic_rows(x)
    return comp.averaged_means(comp.raw_means(rows))


def estimate_covariance(x, edges, spec, bank, means=None, source=""):
    """Symmetry-averaged covariance table of ``x`` on an edge set.

    ``means`` (frozen reference means) default to the group-averaged means of
    ``x`` itself.
    """
    edge_list = edges.edges if hasattr(edges, "edges") else list(edges)
    comp = EdgeComputer(edge_list, spec, bank)
    rows, _ = comp.harmonic_rows(x)
    if means is None:
        means = comp.averaged_means(comp.raw_means(rows))
    centered = comp.centered_rows(rows, means)
    vals = comp.edge_values(centered)
    cov = {e.key(): complex(v) for e, v in zip(edge_list, vals)}
    diag = comp.diagonals(centered)
    return CovarianceTable(means=dict(means), cov=cov, diag=diag, group=spec.group, source=source)


def normalize_correlations(table, reference_diag=None):
    """Normalized correlation table C(v,v') = K(v,v') / sqrt(D(v) D(v'))."""
    D = table.diag if reference_diag is None else reference_diag
    for vk, val in D.items():
        if not val > 0:
            raise ConfigError(f"degenerate diagonal entry for vertex class {vk}: {val}")
    cov = {}
    for key, val in table.cov.items():
        ch, k, ch2, k2, _du = key
        cov[key] = val / np.sqrt(D[(ch, k)] * D[(ch2, k2)])
    return CovarianceTable(
        means=dict(table.means),
        cov=cov,
        diag=dict(table.diag),
        group=table.group,
        normalized=True,
        norm_diag=dict(D),
        source=table.source,
    )


@dataclass
class ReducedTable:
    """Angular-Fourier reduced covariances indexed (j, k, j', k', m)."""

    entries: dict
    offdiag_energy: float
    total_energy: float
    Q: int


def angular_fourier_reduce(table, spec):
    """DFT along the angular index; keeps the m = m' diagonal.

    Requires rotations in the group and single-position edges.  With line
    reflection in the group only real parts are kept.
    """
    if not spec.group.rotations:
        raise ConfigError("angular reduction needs rotations in the symmetry group")
    Q = spec.Q
    if Q == 1:
        return ReducedTable(entries=dict(table.cov), offdiag_energy=0.0, total_energy=float(
            sum(abs(v) ** 2 for v in table.cov.values())), Q=1)
    quads = {}
    for key, val in table.cov.items():
        ch, k, ch2, k2, du = key
        if ch == LOWPASS or ch2 == LOWPASS:
            continue
        if du != (0, 0):
            raise ConfigError("angular reduction needs edges at a single position")
        quads.setdefault((ch[0], k, ch2[0], k2), {})[(ch[1], ch2[1])] = val
    F = np.exp(-2j * np.pi * np.outer(np.arange(Q), np.arange(Q)) / Q)
    Finv = np.conj(F).T / Q
    entries = {}
    off_e = 0.0
    tot_e = 0.0
    for quad, pairs in quads.items():
        M = np.zeros((Q, Q), dtype=complex)
        got = np.zeros((Q, Q), dtype=bool)
        for (l1, l2), v in pairs.items():
            M[l1, l2] = v
            got[l1, l2] = True
        # rotation completion: the table depends on the relative angle only
        for dl in range(Q):
            known = [M[l, (l + dl) % Q] for l in range(Q) if got[l, (l + dl) % Q]]
            if known:
                fill = np.mean(known)
                for l in range(Q):
                    if not got[l, (l + dl) % Q]:
                        M[l, (l + dl) % Q] = fill
        Mhat = F @ M @ Finv
        tot_e += float(np.sum(np.abs(Mhat) ** 2))
        off = Mhat - np.diag(np.diag(Mhat))
        off_e += float(np.sum(np.abs(off) ** 2))
        for m in range(Q):
            v = Mhat[m, m]
            entries[quad + (m,)] = float(v.real) if spec.group.line_reflection else complex(v)
    return ReducedTable(entries=entries, offdiag_energy=off_e, total_energy=tot_e, Q=Q)


@dataclass
class FourierHarmonicCovariance:
    """Ensemble covariance of Fourier phase harmonics [X_hat(w)]^k."""

    side: int
    ks: list
    freqs: list                # list of (m1, m2) integer frequency indices
    mean: np.ndarray           # (n_k, n_freq)
    cov: np.ndarray            # (n_k * n_freq) x (n_k * n_freq), row-major (k, freq)
    support: np.ndarray        # bool, True where k*w = k'*w' (mod 2 pi)

    def index(self, k, freq):
        return self.ks.index(k) * len(self.freqs) + self.freqs.index(tuple(freq))


def fourier_harmonic_covariance(realizations, k_range, freqs=None):
    """Covariance table of [X_hat(w)]^k over an ensemble of realizations.

    ``k_range`` is an iterable of integer exponents; ``freqs`` restricts the
    frequency set (defaults to the whole grid).  The support pattern marks
    pairs with k*w = k'*w' modulo 2 pi, where the covariance may be non-zero
    for a stationary process.
    """
    reals = [np.asarray(r) for r in realizations]
    if len(reals) < 2:
        raise ConfigError("need at least two realizations")
    side = reals[0].shape[0]
    for r in reals:
        if r.shape != (side, side):
            raise ConfigError("inconsistent realization sides")
    ks = [int(k) for k in k_range]
    if freqs is None:
        freqs = [(a, b) for a in range(side) for b in range(side)]
    freqs = [tuple(f) for f in freqs]
    flat = np.array([f[0] * side + f[1] for f in freqs])
    samples = np.zeros((len(reals), len(ks), len(freqs)), dtype=complex)
    for i, r in enumerate(reals):
        xhat = np.fft.fft2(r).ravel()[flat]
        for a, k in enumerate(ks):
            samples[i, a] = phase_harmonic(xhat, k)
    mean = samples.mean(axis=0)
    centered = (samples - mean).reshape(len(reals), -1)
    cov = centered.T @ np.conj(centered) / len(reals)
    mvec = np.array(freqs)
    kv = np.repeat(ks, len(freqs))
    mv = np.tile(mvec, (len(ks), 1))
    prod = kv[:, None] * mv  # k * m for each vertex
    diff0 = prod[:, None, 0] - prod[None, :, 0]
    diff1 = prod[:, None, 1] - prod[None, :, 1]
    support = (diff0 % side == 0) & (diff1 % side == 0)
    return FourierHarmonicCovariance(
        side=side, ks=ks, freqs=freqs, mean=mean, cov=cov, support=support
    )


@dataclass
class GaussianityReport:
    """Sparsity ratios and disjoint-support cross covariances per channel."""

    ratios: dict               # (j, ell) -> sparsity ratio E|y|^2 form
    flags: dict                # (j, ell) -> True when ratio < pi/4 - threshold
    cross: list                # (pair description, normalized value, std err or None)
    threshold: float
    n_fields: int

    @property
    def gaussian_consistent(self):
        return not any(self.flags.values())


def support_constant(bank, energy=0.99):
    """Smallest C with |w - lambda| <= C |lambda| covering ``energy`` of each
    band filter's energy (the qualitative support constant, measured).

    Scales whose radial support 2 xi0 / 2^(j-1) exceeds the Nyquist square
    are skipped: their alias-folded tails are a grid artifact, not part of
    the intrinsic support.
    """
    n = bank.side
    m = np.fft.fftfreq(n) * n
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    w1 = 2 * np.pi * m1 / n
    w2 = 2 * np.pi * m2 / n
    j_min = int(np.ceil(np.log2(2 * bank.xi0 / np.pi)))
    worst = 0.0
    for j in range(max(1, j_min), bank.J + 1):
        for ell in range(bank.Q):
            lam = channel_center(bank, (j, ell))
            f2 = bank.filters[(j, ell)] ** 2
            dist = np.hypot(w1 - lam[0], w2 - lam[1]) / np.hypot(*lam)
            order = np.argsort(dist.ravel())
            cum = np.cumsum(f2.ravel()[order])
            idx = int(np.searchsorted(cum, energy * cum[-1]))
            worst = max(worst, float(dist.ravel()[order[min(idx, len(cum) - 1)]]))
    return worst


def channel_center(bank, channel):
    """Center frequency lambda = 2^-j r_-ell xi of a band channel (radians)."""
    j, ell = channel
    ang = -2 * np.pi * ell / bank.Q
    rad = bank.xi0 / 2 ** j
    return np.array([rad * np.cos(ang), rad * np.sin(ang)])


def sparsity_ratios(fields_list, bank):
    """E(|y|)^2 / E(|y|^2) per band channel over one or more fields."""
    sums1 = {c: 0.0 for c in bank.channels() if c != LOWPASS}
    sums2 = {c: 0.0 for c in sums1}
    count = 0
    for x in fields_list:
        fields = channel_fields(x, bank, channels=list(sums1))
        for c, y in fields.items():
            a = np.abs(y)
            sums1[c] += float(a.sum())
            sums2[c] += float((a * a).sum())
        count += x.size
    return {c: (sums1[c] / count) ** 2 / (sums2[c] / count) for c in sums1}


def gaussianity_report(fields, bank, threshold=0.05, k_pairs=((2, -1),)):
    """Gaussianity diagnostics of one or more realizations.

    Per band channel: the sparsity ratio with a flag when it falls below
    pi/4 - threshold.  Per disjoint-support channel pair aligned so that
    k*lambda = k'*lambda': the normalized harmonic covariance, with a
    cross-realization standard error when several fields are given.  The
    default pair family is (k, k') = (2, -1) on (j, ell) against
    (j-1, ell + Q/2): frequency-aligned since 2*2^-j = 2^-(j-1) with the
    direction flipped by k' = -1, and with disjoint angular half-planes.
    Opposite-angle pairs at equal k are never used: those channels are
    complex conjugates of each other, not independent evidence.
    """
    fields = [fields] if isinstance(fields, np.ndarray) else list(fields)
    ratios = sparsity_ratios(fields, bank)
    flags = {c: r < np.pi / 4 - threshold for c, r in ratios.items()}
    cross = []
    specs = []
    for (k, k2) in k_pairs:
        if (k, k2) == (2, -1):
            specs += [((j, ell), 2, (j - 1, (ell + bank.Q // 2) % bank.Q), -1)
                      for j in range(2, bank.J + 1) for ell in range(bank.Q)]
    for (c1, k1, c2, k2) in specs:
        f1 = bank.filter(c1)
        f2 = bank.filter(c2)
        if np.max(np.abs(f1 * f2)) > 1e-12 * np.max(np.abs(f1)) * np.max(np.abs(f2)):
            continue  # supports overlap; the test does not apply
        vals = []
        for x in fields:
            fs = channel_fields(x, bank, channels=[c1, c2])
            h1 = phase_harmonic(fs[c1], k1)
            h2 = phase_harmonic(fs[c2], k2)
            h1 = h1 - h1.mean()
            h2 = h2 - h2.mean()
            denom = np.sqrt(np.mean(np.abs(h1) ** 2) * np.mean(np.abs(h2) ** 2))
            if denom == 0:
                continue
            vals.append(complex(np.mean(h1 * np.conj(h2)) / denom))
        if not vals:
            continue
        mean = np.mean(vals)
        se = (np.std(vals) / np.sqrt(len(vals))) if len(vals) > 1 else None
        cross.append(((c1, k1, c2, k2), complex(mean), se))
    return GaussianityReport(
        ratios=ratios, flags=flags, cross=cross, threshold=threshold, n_fields=len(fields)
    )
