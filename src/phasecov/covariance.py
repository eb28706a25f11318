"""Symmetry-averaged means and covariances of wavelet phase harmonics.

Estimates are translation-orbit averages of full-resolution harmonic fields
h_{c,k}(w) = [x * psi_c (w)]^k: the mean over all d translations of the
coefficient at a vertex equals the spatial mean of h, and the covariance of
an edge equals the spatial cross-correlation of the centered fields at the
edge's pixel lag.  This makes the tables exactly invariant under any integer
translation of the input.

Every correlation is read off the spectra of centered harmonic rows.  A row
stacks the harmonic fields of one scale's Q angles (or of the low-pass
alone) at one exponent k; a slice is one angle of it.  A slice's spectrum
scaled by 1/d holds its translation mean in the DC bin, so centering a slice
changes that one bin.  :meth:`EdgeComputer.harmonic_rows` alone builds,
transforms and centers rows, in two buffers per field, and every reader
takes its slices from there; a harmonic [y]^k of a channel field comes from
|y| and one phasor u = y / |y| (1 at y = 0), and the gradient needs u only.
Three primitives work on these spectra: :func:`lag_correlations`, one FFT
of the cross-spectrum A conj(B) of two slices for all their lags;
:class:`LagWindow`, the same correlations on a box t1 x t2 of lags only, by
two small DFT products E1^T (A conj(B)) E2; and Parseval's identity,
sum_w A(w) conj(B(w)), at lag zero.  Synthesis and the tables read lag
windows, and under rotations the angular Gram diagonal sums of all band rows
at once; :func:`gaussianity_report` reads zero-lag edges and
:mod:`phasecov.evaluation` full lag maps (:func:`lag_correlations`), each
from a translation-only computer.

Fields are real.  Band filter (j, ell + Q/2) is filter (j, ell) at -w, so a
real field has y_{j,ell+Q/2} = conj(y_{j,ell}) and, as [conj z]^k =
conj([z]^k), every harmonic slice of angle ell + Q/2 is the conjugate of
that of ell, with spectrum conj(S_ell(-w)); the low-pass slice is real.
So only angles ell < Q/2 are computed, and the correlation of slices
(ell + Q/2, ell' + Q/2) at any lag is the conjugate of that of (ell, ell'):
:class:`EdgeComputer` computes only one of each such pair.  Under rotations
the angular components S_m of a band row obey S_m(-w) = (-1)^m
conj(S_{-m}(w)), so only the half-plane w1 <= N/2 of them is stored.

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
from .graph import Edge, ModelSpec, SymmetryGroup, require_single_position
from .harmonics import harmonic_derivative, phase_harmonic, phasor_power
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


def slice_of(ch, k):
    """Row (row, k) and angle index of the slice holding harmonic (ch, k):
    bands group by scale, the low-pass is a one-slice row."""
    return ((LOWPASS, k), 0) if ch == LOWPASS else ((ch[0], k), ch[1])


def row_channels(row, Q):
    """Channels stacked in a row, in slice order."""
    return [LOWPASS] if row == LOWPASS else [(row, ell) for ell in range(Q)]


def phasor_harmonic(y, a, u, k):
    """[y]^k from y, a = |y| and its unit phasor u (1 where y = 0): a at
    k = 0, y u at k = 2, a u^k at any other k."""
    return a if k == 0 else y * u if k == 2 else a * phasor_power(u, k)


def harmonic_chain(p, u, k):
    """conj(p) d[y]^k/dy + p conj(d[y]^k/dy*) at a field y of unit phasor u,
    by products exact under a negation of u: closed forms at k = 0, 2, -1,
    :func:`harmonic_derivative` of u at any other k."""
    if k == -1:
        return p
    if k == 0:
        return np.conj(u) * p.real
    if k == 2:
        return 1.5 * np.conj(p) * u - 0.5 * p * np.conj(u * u * u)
    d1, d2 = harmonic_derivative(u, k)
    return np.conj(p) * d1 + p * np.conj(d2)


def lag_correlations(a, b):
    """(1/d) sum_u a(u) conj(b(u + du)) at every lag du, from the spectra of
    centered slices (``b`` may stack several): one FFT of the cross-spectrum."""
    return np.fft.fft2(a * np.conj(b))


def lag_dft(t, n):
    """The (n, len(t)) matrix exp(-2 pi i w t / n) of one axis: E^T X reads
    the lags ``t`` (mod n) of a spectrum axis, E G puts a lag grid on it."""
    return np.exp(-2j * np.pi * (np.outer(np.arange(n), t) % n) / n)


class LagWindow:
    """Reads the lag box t1 x t2 (mod n) of cross-spectra by two small DFT
    products, E1^T X E2 with E = :func:`lag_dft`, not by an FFT of the plane.

    exp(-2 pi i w t / n) has period n/g in w when g divides n and every lag
    t, so with g = gcd(n, t1) the box reads a spectrum only through its sums
    over the g aliases (w1 mod n/g) of the first axis, and the spectra of lag
    grids on the box repeat with that period.  Folding that axis, a sum of
    contiguous blocks, cuts the DFT products of a box at stride s by s; a
    zero-lag box reduces to a plain sum (Parseval).
    """

    def __init__(self, t1, t2, n):
        self.g = int(np.gcd.reduce(np.append(np.asarray(t1, dtype=int), n)))
        self.e1 = lag_dft(t1, n)[: n // self.g]
        self.e2 = lag_dft(t2, n)

    def tiles(self, x):
        """View of a (..., n, n) array as its (..., g, n/g, n) periods."""
        return x.reshape(x.shape[:-2] + (self.g, len(self.e1), x.shape[-1]))

    def correlations(self, x):
        """:func:`lag_correlations` of stacked cross-spectra ``x`` (m, n, n)
        on the box only: (m, L1, L2)."""
        if self.g > 1:
            x = self.tiles(x).sum(axis=1)
        m, n1, n = x.shape
        y = (x.reshape(m * n1, n) @ self.e2).reshape(m, n1, -1)
        return np.matmul(self.e1.T, y)

    def spectra(self, grid):
        """One period (m, n/g, n) of the spectra E1 grid E2^T of lag grids
        (m, L1, L2) on the box, which broadcasts over :meth:`tiles`: fft2 of
        each grid put on the whole lag plane."""
        m, _, l2 = grid.shape
        n1, n = self.e1.shape[0], self.e2.shape[0]
        return (np.matmul(self.e1, grid).reshape(m * n1, l2) @ self.e2.T).reshape(m, n1, n)


def _rotate(ch, eta, Q):
    return ch if ch == LOWPASS else (ch[0], (ch[1] + eta) % Q)


def _reflect_channel(ch, Q):
    return ch if ch == LOWPASS else (ch[0], (-ch[1]) % Q)


def edge_orbit_terms(ch, ch2, du, group, Q):
    """Concrete correlation terms (weight, ch, ch2, du) averaged for an edge.

    Rotations are not expanded here (:class:`EdgeComputer` expands them into
    the Q angular relabelings).  The sign change is a scalar factor handled
    by the caller.
    """
    terms = [(1.0, ch, ch2, du)]
    if group.line_reflection:
        terms = [t for (w, c, c2, u) in terms for t in (
            (w / 2, c, c2, u),
            (w / 2, _reflect_channel(c, Q), _reflect_channel(c2, Q), (u[0], -u[1])))]
    if group.central_reflection:
        terms = [t for (w, c, c2, u) in terms for t in (
            (w / 2, c, c2, u),
            (w / 2, _rotate(c, Q // 2, Q), _rotate(c2, Q // 2, Q), (-u[0], -u[1])))]
    return terms


class Rows(NamedTuple):
    """Centered spectra of one field's harmonic rows, out of
    :meth:`EdgeComputer.harmonic_rows` (with the means and channel phasors).
    ``band`` (Q, R, N, N) holds the band rows and ``low`` (1, L, N, N) the
    low-pass rows, slice by row, at the positions :attr:`EdgeComputer.slot`
    gives.  A slice is fft2(h - mean) / d;
    under rotations the band buffer is also Fourier transformed along the
    angle (scaled by 1/Q), so ``band[m, r]`` is angular component m of row r,
    and holds the half-plane w1 <= N/2 only, (Q, R, N/2 + 1, N): for a real
    field S_m(-w) = (-1)^m conj(S_{-m}(w)) gives the rest."""

    band: np.ndarray
    low: np.ndarray


class EdgeComputer:
    """Precomputed machinery to evaluate a fixed edge set on varying fields.

    Every harmonic row of a field lives in one of two buffers (:class:`Rows`),
    the band rows in (Q, R, N, N) and the low-pass rows in (1, L, N, N),
    filled for ell < Q/2, mirrored to ell + Q/2 and centered once per field
    (:meth:`harmonic_rows`).  The rotation flag decides the band buffer's
    layout (under rotations it is also transformed along the angle and
    holds the half-plane w1 <= N/2 only, (Q, R, N/2 + 1, N)), which slices
    of a band row lag windows read (its Q slices, or under rotations its
    m = 0 component, the mean of its slices over the angles, put on the
    whole plane), and how the orbit terms of all edges are sorted by the row
    pair they correlate:

    * under rotations, a band x band term averages the Gram matrix
      G = A B^H of its rows along one circulant diagonal, sb - sa (mod Q).
      These are diagonal in the angular Fourier index m: with S the band
      buffer's angular-and-spatial spectra, the Q Gram matrices
      C[m] = sum_w S_m S_m^H (R x R each), Fourier transformed along m, hold
      every diagonal sum of every band row pair; the half-plane gives them
      as its own Gram matrices plus conj(those of -m) over the rows
      0 < w1 < N/2 (:meth:`angular_table`).  All such terms form one
      "angular" group, keyed ("angular",), that reads the (Q, R, R) table;
    * every other row pair forms a "fix" group, keyed ("fix", row_a, row_b):
      low-pass rows, all row pairs without rotations, and a low-pass x band
      rotation average, which reads the band row's m = 0 component.  A fix
      group stores the lag box t1 x t2 (the distinct lag components on each
      axis, mod side: {0} x {0} for a zero-lag row pair) as a
      :class:`LagWindow`, which builds the DFT matrices E1 = E(t1) and
      E2 = E(t2) once, and its slice pairs split into layers, one per
      angular offset, in which each slice of either row occurs at most once.
      A layer's cross-spectra X = A[sa] conj(B[sb]) give the box by two small
      products, E1^T X E2, so no temporary exceeds one row and no lag plane
      is transformed.

    The field must be real (:meth:`harmonic_rows` rejects a complex one):
    then slice pair ((sa + Q/2) mod Q, (sb + Q/2) mod Q), a low-pass slice
    being its own partner, correlates to the conjugate of (sa, sb) at every
    lag.  Without rotations a fix group's term reads the lexicographically
    smaller pair of the two, conjugated when it is the partner, so its
    layers hold canonical slice pairs only.  Under rotations a fix group
    reads a band row's m = 0 component, not an angle, and nothing is folded.

    A group stores its members' edge indices, weights, conjugation flags and
    the positions they read in its map: (slice pair, lag index, lag index)
    for a fix group, (diagonal offset, band row, band row) in the (Q, R, R)
    table for the angular group.  The gradient scatters the cotangents,
    conjugated where the read is, onto that map.  A fix layer's grids become
    spectra G = E1 grid E2^T and add B conj(G) and A G to Fourier
    accumulators of the rows.  The angular table's cotangents, Fourier
    transformed along the diagonal offset to Gamma_m, turn each S_m of the
    half-plane into (conj(Gamma_m) + Gamma_m^T) S_m plus the same product
    at -m, mirrored (without an angular group the band buffer is zeroed),
    and the accumulators are added in.  Each upper band slice's spectrum is
    folded onto its partner's, as y_{ell+Q/2} = conj(y_ell), so the inverse
    FFTs and the chain through the harmonics and the filters run for
    ell < Q/2 only.
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
        self.bank = bank
        self.group = spec.group
        if self.group.rotations:
            require_single_position(self.edges)
        self.Q = spec.Q
        # vertex classes (channel, k), then the rows holding them, in edge order
        self.classes = list(dict.fromkeys(
            vk for e in self.edges for vk in ((e.ch, e.k), (e.ch2, e.k2))))
        self.rows = list(dict.fromkeys(slice_of(*vk)[0] for vk in self.classes))
        # each buffer's rows, the linear (k = 1) ones last: never transformed
        band, low = ([rk for rk in sorted(self.rows, key=lambda rk: rk[1] == 1)
                      if (rk[0] == LOWPASS) == is_low] for is_low in (False, True))
        self.harmonic = tuple(sum(rk[1] != 1 for rk in rows) for rows in (band, low))
        # row -> (buffer, row index): buffer 0 holds the band rows, 1 the low-pass rows
        self.slot = {rk: (0, r) for r, rk in enumerate(band)}
        self.slot.update((rk, (1, r)) for r, rk in enumerate(low))
        # (channel, k) of each slice of a row
        self.keys = {(row, k): [(ch, k) for ch in row_channels(row, self.Q)]
                     for (row, k) in self.rows}
        # channels with rows k != 1 (ell < Q/2, or the low-pass) -> (buffer, row, slice, k)
        self.channels = {}
        for rk, (b, r) in self.slot.items():
            for ell, (ch, k) in enumerate(self.keys[rk][:self.Q // 2] if rk[1] != 1 else ()):
                self.channels.setdefault(ch, []).append((b, r, ell, k))
        self.shapes = ((self.Q, len(band)), (1, len(low)))
        self.rotated = self.group.rotations and self.Q > 1
        n = bank.side
        # each buffer's plane: the band buffer's under rotations is the half w1 <= N/2
        self.planes = ((n // 2 + 1 if self.rotated else n, n), (n, n))
        # weight of each half-plane row: rows 0 < w1 < N/2 stand for -w too
        self.rim = np.full((n // 2 + 1, 1), 2.0)
        self.rim[[0, -1]] = 1.0
        # FFT axes of each buffer, and the slices of a row that lag windows read
        self.axes = ((0, 2, 3) if self.rotated else (2, 3), (2, 3))
        self.view = slice(0, 1) if self.rotated else slice(None)
        self.sign_factor = np.array(
            [0.0 if self.group.sign_change and (e.k + e.k2) % 2 == 1 else 1.0 for e in self.edges])
        self._index_terms()

    def _index_terms(self):
        """Group the orbit terms of all edges.  Under rotations a band x band
        term reads the circulant diagonal (sb - sa) mod Q of its row pair in
        the angular table, and a low-pass x band term the band row's m = 0
        slice; every other term joins the fix group of its row pair.  Without
        rotations a term whose partner slice pair is smaller reads the
        partner, conjugated.  Flat lists, not one object per term, keep
        set-up memory flat."""
        Q, n, group = self.Q, self.bank.side, self.group
        band = {rk: r for rk, (b, r) in self.slot.items() if b == 0 and self.rotated}
        terms = {}  # (row_a, row_b) -> flat runs of (edge index, weight, sa, sb, t1, t2)
        angular = []  # flat runs of (edge index, weight, diagonal offset, band row a, band row b)
        for idx, e in enumerate(self.edges):
            for (w, c, c2, du) in edge_orbit_terms(e.ch, e.ch2, e.du, group, Q):
                (ra, sa), (rb, sb) = slice_of(c, e.k), slice_of(c2, e.k2)
                if ra in band and rb in band:
                    angular.extend((idx, w, (sb - sa) % Q, band[ra], band[rb]))
                    continue
                if ra in band or rb in band:
                    sa = sb = 0  # the m = 0 slice of the band row
                terms.setdefault((ra, rb), []).extend((idx, w, sa, sb, du[0] % n, du[1] % n))
        self.pair_groups = {}
        if angular:
            t = np.array(angular).reshape(-1, 5)
            pos = t[:, 2:].astype(int)
            self.pair_groups[("angular",)] = _Group(
                t[:, 0].astype(int), t[:, 1], np.zeros(len(t), dtype=bool), tuple(pos.T),
                (Q,) + (len(band),) * 2)
        for (ra, rb), flat in terms.items():
            t = np.array(flat).reshape(-1, 6)
            flip = np.zeros(len(t), dtype=bool)
            if not self.rotated:
                # partner slices: a band slice turns by Q/2, a low-pass one stays
                part = (t[:, 2:4] + [Q // 2 * (row[0] != LOWPASS) for row in (ra, rb)]) % Q
                flip = (part[:, 0] < t[:, 2]) | (part[:, 0] == t[:, 2]) & (part[:, 1] < t[:, 3])
                t[flip, 2:4] = part[flip]
            self.pair_groups[("fix", ra, rb)] = _window_group(t, flip, n, Q)

    def _orbit(self, ch):
        """Weighted images of a channel under the group's channel relabelings."""
        terms = [(w, c) for (w, c, _, _) in edge_orbit_terms(ch, ch, (0, 0), self.group, self.Q)]
        if self.group.rotations and ch != LOWPASS:
            terms = [(w / self.Q, _rotate(c, eta, self.Q))
                     for (w, c) in terms for eta in range(self.Q)]
        return terms

    def slices(self, spectra, rk):
        """The slices of row ``rk`` that lag windows read: a view of its
        buffer, or under rotations a band row's m = 0 component put on the
        whole plane (S_0(-w) = conj(S_0(w)))."""
        b, r = self.slot[rk]
        s = spectra[b][self.view, r]
        return _whole_planes(s, s) if b == 0 and self.rotated else s

    # ----- field-dependent quantities -------------------------------------

    def harmonic_rows(self, x, means=None):
        """Centered spectra of every harmonic row of ``x`` (:class:`Rows`),
        the means they are centered on, and the unit phasors u = y / |y|
        (1 where y = 0) of the channel fields y of :attr:`channels`, stacked
        (C, N, N) in that order for :meth:`gradient_fields`.

        The channel fields are formed in that stack by one batched inverse
        FFT.  Per channel, |y| and u are computed once, fill the slices
        ell < Q/2 of its rows (:func:`phasor_harmonic`), and u overwrites y.
        Slices are transformed in place, at k = 1 filled as psi_hat x_hat / d;
        slice ell + Q/2 is written as conj(S_ell(-w)).  The raw slice means are
        then the DC bins.  With ``means`` None they are averaged over the
        channel orbit (:meth:`averaged_means`); the means are subtracted at
        the DC bins.  Under rotations the band buffer keeps the half-plane
        w1 <= N/2: its rows with k != 1 are filled and transformed as whole
        planes in a block of their own, whose half-plane and mirror are
        copied in; k = 1 rows are filled there for every angle as
        psi_hat x_hat / d; the buffer is last transformed along the angle.
        A complex ``x`` is rejected: the mirror needs a real one.
        """
        _require_real(x)
        h, (hp, n) = self.Q // 2, self.planes[0]
        xhat = np.fft.fft2(x, norm="forward")
        rows = Rows(*(np.empty(s + p, dtype=complex) for s, p in zip(self.shapes, self.planes)))
        # whole planes of the slices ell < Q/2: the buffers themselves, or
        # under rotations a block of the band rows with k != 1
        whole = rows
        if self.rotated:
            whole = rows._replace(band=np.empty((h, self.harmonic[0], n, n), dtype=complex))
        for rk, (b, r) in self.slot.items():
            if rk[1] == 1:
                # psi_hat x_hat / d: under rotations every angle on the half-plane
                outs = rows.band[:, r] if b == 0 and self.rotated else whole[b][:h, r]
                for out, (ch, _) in zip(outs, self.keys[rk]):
                    np.multiply(self.bank.filter(ch)[:len(out)], xhat[:len(out)], out=out)
        # the channel fields in one stack; per channel |y| and u fill its slices
        ys = np.empty((len(self.channels), n, n), dtype=complex)
        for y, ch in zip(ys, self.channels):
            np.multiply(self.bank.filter(ch), xhat, out=y)
        np.fft.ifftn(ys, axes=(1, 2), norm="forward", out=ys)
        for y, uses in zip(ys, self.channels.values()):
            a = np.abs(y)
            u = np.divide(y, a, out=np.ones_like(y), where=a > 0)
            for b, r, ell, k in uses:
                whole[b][ell, r] = phasor_harmonic(y, a, u, k)
            y[...] = u
        for buf, m in zip(whole, self.harmonic):
            np.fft.fft2(buf[:h, :m], norm="forward", out=buf[:h, :m])
        lower, r = whole.band[:h], whole.band.shape[1]
        if self.rotated:
            rows.band[:h, :r] = lower[..., :hp, :]
        for upper, mirrored in _minus_w(rows.band[h:, :r], lower):
            np.conjugate(mirrored, out=upper)
        del whole, lower
        if means is None:
            means = self.averaged_means({
                vk: complex(m) for rk, (b, r) in self.slot.items()
                for vk, m in zip(self.keys[rk], rows[b][:, r, 0, 0])})
        for rk, (b, r) in self.slot.items():
            rows[b][:, r, 0, 0] -= [means[vk] for vk in self.keys[rk]]
        if self.rotated:
            np.fft.fft(rows.band, axis=0, norm="forward", out=rows.band)
        return rows, means, ys

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

    def angular_table(self, s):
        """(Q, R, R) table, for each diagonal offset delta and band row pair,
        of (1/Q) sum_ell G[ell, ell + delta] with G the Gram matrix of the two
        rows' slice spectra: the FFT along m of the Gram matrices
        C[m] = sum_w S_m(w) S_m(w)^H of the angular-and-spatial spectra.
        ``s`` holds them on the half-plane w1 <= N/2 only, and
        S_m(-w) = (-1)^m conj(S_{-m}(w)) gives the rest: with I[m] the Gram
        matrix over the rows 0 < w1 < N/2, those at -w add conj(I[-m]).  As
        C[-m] = conj(C[m]), C is formed for m <= Q/2."""
        q, r, n = len(s), s.shape[1], s.shape[-1]
        inner = s[:, :, 1:n // 2].reshape(q, r, -1)
        gram = np.empty((q, r, r), dtype=complex)
        for sm, g in zip(inner, gram):
            np.matmul(sm, np.conj(sm).T, out=g)
        c = gram[:q // 2 + 1] + np.conj(gram[-np.arange(q // 2 + 1)])
        for sm, cm in zip(s[:q // 2 + 1, :, ::n // 2].reshape(q // 2 + 1, r, -1), c):
            cm += sm @ np.conj(sm).T  # the rows w1 = 0 and N/2, their own mirror
        return np.fft.hfft(c, n=q, axis=0)

    def edge_values(self, spectra):
        """All edge covariances from :meth:`harmonic_rows` spectra."""
        vals = np.zeros(len(self.edges), dtype=complex)
        for key, g in self.pair_groups.items():
            if key[0] == "angular":
                t = self.angular_table(spectra.band)
            else:
                a, b = self.slices(spectra, key[1]), self.slices(spectra, key[2])
                t = np.concatenate([g.window.correlations(_cross_spectra(a, b, layer))
                                    for layer in g.layers])
            v = g.w * t[g.pos]
            np.add.at(vals, g.idx, np.conjugate(v, out=v, where=g.conj))
        return vals * self.sign_factor

    def diagonals(self, spectra):
        """Own-diagonal K(v, v) per vertex class (group averaged).  Slice
        powers are read by Parseval over each buffer's FFT axes: under
        rotations a band row's powers summed over m are its rotation average,
        which is all the orbit average of a band channel sees, and the
        half-plane's rows 0 < w1 < N/2 count twice."""
        power = {}
        for rk, (b, r) in self.slot.items():
            # one power per slice, or one summed over m for all the row's slices
            p = np.abs(spectra[b][:, r:r + 1]) ** 2
            if b == 0 and self.rotated:
                p *= self.rim
            p = np.sum(p, axis=self.axes[b]).ravel()
            power.update(zip(self.keys[rk], np.broadcast_to(p, len(self.keys[rk])).tolist()))
        return {(ch, k): sum(w * power[(c, k)] for (w, c) in self._orbit(ch))
                for (ch, k) in self.classes}

    # ----- objective support ----------------------------------------------

    def gradient_fields(self, spectra, phasors, cot):
        """Real gradient of sum_e 2*Re[cot_e * dK_e] through the harmonics.

        ``cot`` holds per-edge Wirtinger cotangents dF/dK(e).  With g(du) the
        cotangent lag grid of a fix group's slice pair, the slices gain
        P_a(w) = (1/d) sum_du g(du) conj(b(w+du)) and
        P_b(w) = (1/d) sum_du conj(g(du)) conj(a(w-du)),
        accumulated as B conj(G) and A G, G = E1 g E2^T.  The angular table's
        cotangents Gamma, Fourier transformed along the diagonal offset, turn
        S_m into P_m = M_m S_m, M_m = conj(Gamma_m) + Gamma_m^T.  The
        accumulators, one block per buffer, are then added into the band
        buffer (copied, without rotations) and copied into the low-pass one
        (``spectra`` is used up).  Band slice ell + Q/2 is conj(slice ell), so
        P_ell += conj(P_{ell+Q/2}(-w)), and only slices ell < Q/2 of rows
        with k != 1 are inverse transformed, chained through their channel's
        phasor u (:func:`harmonic_chain`: conj(u) Re P at k = 0,
        (3/2) conj(P) u - (1/2) P conj(u^3) at k = 2, P at k = -1) and summed
        into its slot of ``phasors`` (used up too), whose one inverse FFT
        meets the filters.  A k = 1 slice's term pe = conj(ifft2(P)) has
        spectrum conj(P) / d.

        Under rotations the fold comes before the inverse angle transform,
        on the half-plane: there P_m(w) + (-1)^m conj(P_{-m}(-w)) is
        (M_m + conj(M_{-m})) S_m, as
        S_m(-w) = (-1)^m conj(S_{-m}(w)), and the m = 0 accumulators add
        acc(w) + conj(acc(-w)).  The result has the symmetry of S, so after
        the inverse angle transform the folded slice ell < Q/2 is slice ell
        on w1 <= N/2 and conj(slice ell + Q/2 at -w) beyond, put on whole
        planes for the rows with k != 1.  A k = 1 row is chained on the
        half-plane, every angle weighted by rim / 2: the real part of the
        final fft2 reads a term at w as its conjugate at -w.
        """
        n, h = self.bank.side, self.Q // 2
        s = spectra.band
        # Fourier accumulators of the slices that lag windows read, in one
        # block per buffer
        acc = Rows(np.zeros(s[self.view].shape[:2] + (n, n), dtype=complex),
                   np.zeros(spectra.low.shape, dtype=complex))
        cot = cot * self.sign_factor
        gamma = None
        for key, g in self.pair_groups.items():
            grid = np.zeros(g.shape, dtype=complex)
            c = cot[g.idx] * g.w
            np.add.at(grid, g.pos, np.conjugate(c, out=c, where=g.conj))
            if key[0] == "angular":
                gamma = np.fft.fft(grid, axis=0)
                continue
            a, b = self.slices(spectra, key[1]), self.slices(spectra, key[2])
            acc_a, acc_b = (acc[i][:, r] for i, r in map(self.slot.get, key[1:]))
            win, start = g.window, 0
            for layer in g.layers:
                ghat = win.spectra(grid[start:start + len(layer)])
                start += len(layer)
                for (p, q), gh in zip(layer, ghat):
                    tb = win.tiles(acc_b[q])
                    tb += win.tiles(a[p]) * gh
                    ta = win.tiles(acc_a[p])
                    ta += win.tiles(b[q]) * np.conj(gh)
        if gamma is None:  # without rotations the accumulators cover all of s
            s[...] = 0 if self.rotated else acc.band
        else:
            # (conj(Gamma_m) + Gamma_m^T) S_m, plus the same at -m, mirrored
            k = np.conj(gamma) + gamma[-np.arange(len(gamma))]
            weights = k + np.conj(k).transpose(0, 2, 1)
            r = s.shape[1]
            prod = np.empty((r, s[0].size // r), dtype=complex)
            for m in range(len(s)):
                sm = s[m].reshape(r, -1)
                np.matmul(weights[m], sm, out=prod)
                sm[...] = prod
        if self.rotated:  # the m = 0 accumulators and their mirror
            top = s[:1]
            top += acc.band[..., :len(self.rim), :]
            for t, mirrored in _minus_w(top, np.conjugate(acc.band, out=acc.band)):
                t += mirrored
        spectra.low[...] = acc.low
        del acc  # freed before the chain allocates its planes
        if self.rotated:
            np.fft.ifft(s, axis=0, out=s)
            m = self.harmonic[0]
            planes = spectra._replace(band=_whole_planes(s[:h, :m], s[h:, :m]))
        else:
            upper = s[h:]
            np.conjugate(upper, out=upper)
            for lower, mirrored in _minus_w(s[:h], upper):
                lower += mirrored
            planes = spectra
        for buf, m in zip(planes, self.harmonic):
            # ifftn, not ifft2: numpy 2.4's ifft2 ignores ``out``
            np.fft.ifftn(buf[:h, :m], axes=(2, 3), out=buf[:h, :m])
        # k = 1: pe = conj(ifft2(P)) has spectrum conj(P) / d; a rotated band row's
        # every angle on the half-plane, whose rows 0 < w1 < N/2 stand for -w too
        total_hat = np.zeros((n, n), dtype=complex)
        for rk, (b, r) in self.slot.items():
            if rk[1] == 1:
                half = b == 0 and self.rotated
                ps, w = (s[:, r], self.rim / 2) if half else (planes[b][:h, r], 1.0)
                linear = sum(self.bank.filter(ch)[:len(p)] * p for (ch, _), p in zip(self.keys[rk], ps))
                total_hat[:len(linear)] += np.conj(linear) * w / self.bank.d
        # every other row through its channel's phasor, summed per channel in
        # the phasor's slot, then back through the filters
        for u, uses in zip(phasors, self.channels.values()):
            u[...] = sum(harmonic_chain(planes[b][ell, r], u, k) for b, r, ell, k in uses)
        np.fft.ifftn(phasors, axes=(1, 2), out=phasors)
        for g, ch in zip(phasors, self.channels):
            g *= self.bank.filter(ch)
            total_hat += g
        return 2.0 * np.real(np.fft.fft2(total_hat))


class _Group(NamedTuple):
    """Members of one pair group: edge indices, weights, whether each reads
    the conjugate of its entry, the position each reads in the group's map
    and the map's shape.  A fix group's map stacks the lag boxes of its
    slice pairs, layer by layer; ``layers`` lists the slice pairs (sa, sb) of
    each layer and ``window`` reads the lag box.  The angular group's map is
    the (Q, R, R) table of diagonal sums."""

    idx: np.ndarray
    w: np.ndarray
    conj: np.ndarray
    pos: tuple
    shape: tuple
    layers: list = ()
    window: LagWindow = None


def _cross_spectra(a, b, layer):
    """Cross-spectra a[p] conj(b[q]) of a layer's slice pairs (p, q), stacked."""
    x = np.empty((len(layer),) + a.shape[1:], dtype=complex)
    for xi, (p, q) in zip(x, layer):
        np.conjugate(b[q], out=xi)
        xi *= a[p]
    return x


def _minus_w(a, b, w0=0):
    """Pairs of strided views a(w) and b(-w) over the last two axes, of
    period n = the last axis: the rows of ``a`` hold w1 = w0, w0 + 1, ...,
    those of ``b`` w1 = 0, 1, ..."""
    n, first = a.shape[-1], max(w0, 1)
    # rows w1 >= 1 read n - w1, counting down; row 0 reads itself
    rows = [(slice(first - w0, None), slice(n - first, n - w0 - a.shape[-2], -1))]
    rows += [(slice(0, 1), slice(0, 1))] * (w0 == 0)
    cols = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    return [(a[..., o1, o2], b[..., r1, r2]) for o1, r1 in rows for o2, r2 in cols]


def _whole_planes(lower, upper):
    """Whole (..., n, n) planes from half-planes w1 <= n/2: ``lower`` there,
    conj(upper(-w)) on the rows w1 > n/2."""
    hp, n = lower.shape[-2:]
    out = np.empty(lower.shape[:-2] + (n, n), dtype=complex)
    out[..., :hp, :] = lower
    for o, u in _minus_w(out[..., hp:, :], upper, hp):
        np.conjugate(u, out=o)
    return out


def _require_real(x):
    if np.iscomplexobj(x):
        raise ConfigError("the field must be real: angle ell + Q/2 is read as the conjugate of ell")


def _window_group(t, conj, n, Q):
    """Fix group of one row pair from its terms, rows of (edge index, weight,
    sa, sb, t1, t2), and their conjugation flags: the lag box and its window,
    and the slice pairs in layers, one per angular offset (sb - sa) mod Q.  A
    slice of either row occurs at most once in a layer, also when one row is
    the low-pass."""
    t1, i1 = np.unique(t[:, 4].astype(int), return_inverse=True)
    t2, i2 = np.unique(t[:, 5].astype(int), return_inverse=True)
    sa, sb = t[:, 2].astype(int), t[:, 3].astype(int)
    codes, stacked = np.unique((sb - sa) % Q * Q + sa, return_inverse=True)
    offset, pa = np.divmod(codes, Q)
    pb = (pa + offset) % Q
    cuts = np.flatnonzero(np.diff(offset)) + 1
    layers = [list(zip(la.tolist(), lb.tolist()))
              for la, lb in zip(np.split(pa, cuts), np.split(pb, cuts))]
    return _Group(t[:, 0].astype(int), t[:, 1], conj, (stacked, i1, i2),
                  (len(codes), len(t1), len(t2)), layers, LagWindow(t1, t2, n))


def estimate_mean(x, spec, bank, edges=None):
    """Group-averaged harmonic means per vertex class of the edge set."""
    from .graph import build_foveal_edges

    if edges is None:
        edges = build_foveal_edges(spec)
    comp = EdgeComputer(edges.edges if hasattr(edges, "edges") else edges, spec, bank)
    return comp.harmonic_rows(x)[1]


def estimate_covariance(x, edges, spec, bank, means=None, source=""):
    """Symmetry-averaged covariance table of ``x`` on an edge set.

    ``means`` (frozen reference means) default to the group-averaged means of
    ``x`` itself.
    """
    edge_list = edges.edges if hasattr(edges, "edges") else list(edges)
    comp = EdgeComputer(edge_list, spec, bank)
    spectra, means, _ = comp.harmonic_rows(x, means)
    vals = comp.edge_values(spectra)
    cov = {e.key(): complex(v) for e, v in zip(edge_list, vals)}
    diag = comp.diagonals(spectra)
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
    """Angular-Fourier diagonal (j, k, j', k', m) of a table with rotations in
    its group and every edge at lag (0, 0); real parts under line reflection.

    Under rotations the block M[ell, ell'] of a band quadruple is circulant,
    so F M F^-1 is diagonal with entries sum_dl c[dl] exp(2 pi i m dl / Q),
    c[dl] the mean of the block's entries at relative angle ell' - ell = dl
    (0 where it has none); the off-diagonal energy is their spread about c.
    """
    if not spec.group.rotations:
        raise ConfigError("angular reduction needs rotations in the symmetry group")
    require_single_position(Edge(*key) for key in table.cov)
    Q = spec.Q
    blocks = {}  # quadruple -> relative angle -> entries
    for (ch, k, ch2, k2, _), val in table.cov.items():
        if LOWPASS not in (ch, ch2):
            blocks.setdefault((ch[0], k, ch2[0], k2), {}).setdefault(
                (ch2[1] - ch[1]) % Q, []).append(val)
    entries, off_e, diag_e = {}, 0.0, 0.0
    for quad, by_angle in blocks.items():
        c = np.zeros(Q, dtype=complex)
        for dl, vals in by_angle.items():
            c[dl] = np.mean(vals)
            off_e += float(np.sum(np.abs(np.subtract(vals, c[dl])) ** 2))
        diag = np.fft.ifft(c, norm="forward")
        diag_e += float(np.sum(np.abs(diag) ** 2))
        for m, v in enumerate(diag):
            entries[quad + (m,)] = float(v.real) if spec.group.line_reflection else complex(v)
    return ReducedTable(entries=entries, offdiag_energy=off_e, total_energy=off_e + diag_e, Q=Q)


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
    """E(|y|)^2 / E(|y|^2) per band channel over one or more real fields.
    Channel (j, ell + Q/2) is the conjugate of (j, ell), so only ell < Q/2 is
    computed and the partner gets the same ratio."""
    lower = [c for c in bank.channels() if c != LOWPASS and c[1] < bank.Q // 2]
    sums, count = 0.0, 0
    for x in fields_list:
        _require_real(x)
        ys = channel_fields(x, bank, lower)
        sums += np.array([(a.sum(), (a * a).sum()) for a in (np.abs(ys[c]) for c in lower)])
        count += x.size
    means = sums / count
    if not np.all(means[:, 1] > 0):
        raise ConfigError("a band channel of the field has no energy: its sparsity ratio is undefined")
    r = dict(zip(lower, means[:, 0] ** 2 / means[:, 1]))
    return {(j, ell): float(r[(j, ell % (bank.Q // 2))]) for (j, ell) in bank.filters}


def gaussianity_report(fields, bank, threshold=0.05):
    """Gaussianity diagnostics of one or more realizations.

    Per band channel: the sparsity ratio with a flag when it falls below
    pi/4 - threshold.  Per disjoint-support channel pair aligned so that
    k*lambda = k'*lambda': the normalized zero-lag harmonic covariance, with
    a cross-realization standard error when several fields are given.  The
    pairs are (k, k') = (2, -1) on (j, ell) against (j-1, ell + Q/2):
    frequency-aligned since 2*2^-j = 2^-(j-1) with the direction flipped by
    k' = -1, and with disjoint angular half-planes.  Opposite-angle pairs at
    equal k are never used: those channels are complex conjugates of each
    other, not independent evidence.  Each pair is the zero-lag edge
    ((j, ell), 2, (j-1, ell + Q/2), -1) of a translation-only
    :class:`EdgeComputer`, normalized by its two diagonals.
    """
    fields = [fields] if isinstance(fields, np.ndarray) else list(fields)
    Q = bank.Q
    edges = []
    for j in range(2, bank.J + 1):
        for ell in range(Q):
            ch, ch2 = (j, ell), (j - 1, (ell + Q // 2) % Q)
            f1, f2 = bank.filter(ch), bank.filter(ch2)
            # pairs whose supports overlap are skipped: the test does not apply
            if np.max(np.abs(f1 * f2)) <= 1e-12 * np.max(np.abs(f1)) * np.max(np.abs(f2)):
                edges.append(Edge(ch, 2, ch2, -1, (0, 0)))
    comp = EdgeComputer(edges, ModelSpec(J=bank.J, Q=Q), bank)
    vals = [[] for _ in edges]
    for x in fields:
        spectra = comp.harmonic_rows(x)[0]
        diag = comp.diagonals(spectra)
        for v, e, c in zip(vals, edges, comp.edge_values(spectra)):
            denom = np.sqrt(diag[(e.ch, e.k)] * diag[(e.ch2, e.k2)])
            if denom != 0:
                v.append(complex(c / denom))
    cross = [((e.ch, e.k, e.ch2, e.k2), complex(np.mean(v)),
              (np.std(v) / np.sqrt(len(v))) if len(v) > 1 else None)
             for e, v in zip(edges, vals) if v]
    ratios = sparsity_ratios(fields, bank)
    flags = {c: r < np.pi / 4 - threshold for c, r in ratios.items()}
    return GaussianityReport(
        ratios=ratios, flags=flags, cross=cross, threshold=threshold, n_fields=len(fields)
    )
