"""Model-error metrics: operator-norm correlation errors, long-range
correlation profiles, and structure functions.

Correlation matrices are compared on a fixed vertex window V0 with a shared
normalization diagonal taken from the population reference, so the errors
are invariant to a global rescaling of the fields.
"""

from dataclasses import dataclass, field

import numpy as np

from .covariance import EdgeComputer, lag_correlations, slice_of
from .errors import ConfigError
from .graph import Edge, ModelSpec
from .grid import power_iteration
# not called here: perfbench/layers.py wraps both names in this module
from .harmonics import phase_harmonic  # noqa: F401
from .wavelets import LOWPASS, channel_fields  # noqa: F401


@dataclass
class EvalWindow:
    """Vertex window for correlation-matrix comparisons.

    Band vertices carry harmonic exponents k_lo <= k < k_hi (half-open: the
    defaults k_lo=0, k_hi=4 give exponents 0..3) and square spatial offsets
    |n|_inf <= delta_n on each channel's lattice; the low-pass contributes
    its k = 1 vertices.  The defaults reproduce the reference window size
    |V0| = 8025 at J = 5, Q = 16.
    """

    k_lo: int = 0
    k_hi: int = 4
    delta_n: int = 2

    def offsets(self):
        r = self.delta_n
        return [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)]

    def vertices(self, J, Q):
        out = []
        for j in range(1, J + 1):
            stride = 2 ** (j - 1)
            for ell in range(Q):
                for k in range(self.k_lo, self.k_hi):
                    for n in self.offsets():
                        out.append(((j, ell), k, (n[0] * stride, n[1] * stride)))
        stride = 2 ** (J - 1)
        for n in self.offsets():
            out.append((LOWPASS, 1, (n[0] * stride, n[1] * stride)))
        return out

    def count(self, J, Q):
        return len(self.vertices(J, Q))


def _row_computer(bank, classes):
    """Translation-only :class:`EdgeComputer` on the zero-lag self edges of
    the vertex classes (channel, k), each slice centered on its own mean."""
    edges = [Edge(ch, k, ch, k, (0, 0)) for (ch, k) in dict.fromkeys(classes)]
    return EdgeComputer(edges, ModelSpec(J=bank.J, Q=bank.Q), bank)


def correlation_matrix(fields, bank, window, ref_diag=None):
    """Windowed correlation matrix averaged over one or more realizations.

    Returns (C, D): the Hermitian correlation matrix on the window's
    vertices and the diagonal D used to normalize (the average covariance
    diagonal unless ``ref_diag`` is supplied).  Estimation is the
    translation-orbit average per realization, then the ensemble mean.
    The vertices of one slice against those of a row are gathered, by one
    fancy index, from the lag correlations of that slice with every slice
    of the row; blocks below the row diagonal are conjugate transposes.
    """
    fields = [fields] if isinstance(fields, np.ndarray) else list(fields)
    verts = window.vertices(bank.J, bank.Q)
    n = bank.side
    where = [slice_of(ch, k) for (ch, k, _) in verts]
    comp = _row_computer(bank, [(ch, k) for (ch, k, _) in verts])
    rows = comp.rows
    row = np.array([rows.index(rk) for (rk, _) in where])
    ell = np.array([e for (_, e) in where])
    u = np.array([v[2] for v in verts])
    members = [np.flatnonzero(row == r) for r in range(len(rows))]
    K = np.zeros((len(verts), len(verts)), dtype=complex)
    for x in fields:
        spectra = comp.harmonic_rows(x)[0]
        spectra = [comp.slices(spectra, rk) for rk in rows]
        for ia, va_row in enumerate(members):
            for ib in range(ia, len(rows)):
                vb = members[ib]
                for s, a in enumerate(spectra[ia]):
                    va = va_row[ell[va_row] == s]
                    maps = lag_correlations(a, spectra[ib])
                    du = (u[vb][None, :] - u[va][:, None]) % n
                    block = maps[ell[vb][None, :], du[..., 0], du[..., 1]]
                    K[np.ix_(va, vb)] += block / len(fields)
    for ia, va in enumerate(members):
        for vb in members[ia + 1:]:
            K[np.ix_(vb, va)] = np.conj(K[np.ix_(va, vb)]).T
    if ref_diag is None:
        D = np.real(np.diag(K)).copy()
    else:
        D = np.asarray(ref_diag, dtype=float)
    if np.any(D <= 0):
        raise ConfigError("degenerate diagonal in the evaluation window")
    scale = 1.0 / np.sqrt(D)
    K *= scale[:, None]  # in place: K is the largest array here
    K *= scale[None, :]
    return K, D


def operator_norm(matrix, tol=1e-6, max_iter=10000, seed=0):
    """Largest |eigenvalue| of a Hermitian matrix by power iteration.  The
    matrix is applied as given, without a symmetrized copy: correlation
    matrices and their differences are Hermitian by construction."""
    m = np.asarray(matrix)
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = rng.standard_normal(m.shape[0]) + 1j * rng.standard_normal(m.shape[0])
    v /= np.linalg.norm(v)
    return power_iteration(m.__matmul__, v, tol, max_iter,
                           "operator-norm power iteration did not converge")


def correlation_error(C_ref, C_test, tol=1e-6):
    """Relative operator-norm error ||C_ref - C_test|| / ||C_ref||."""
    C_ref = np.asarray(C_ref)
    C_test = np.asarray(C_test)
    if C_ref.shape != C_test.shape:
        raise ConfigError("correlation matrices must share the window")
    denom = operator_norm(C_ref, tol=tol)
    if denom == 0:
        raise ConfigError("reference correlation matrix has zero norm")
    return operator_norm(C_ref - C_test, tol=tol) / denom


def long_range_profile(fields, bank, k, j, a_max):
    """Max normalized correlation |C(v, v')| at distances |u-u'| = 2^j a.

    Same-channel, same-k correlations; the maximum runs over the Q angles
    and over lattice lags in the width-one annulus around 2^j a.  Entry
    a = 0 is the normalized diagonal, exactly 1.
    """
    fields = [fields] if isinstance(fields, np.ndarray) else list(fields)
    n = bank.side
    if 2 ** j * a_max >= n // 2:
        raise ConfigError("profile distance beyond the grid half-period")
    comp = _row_computer(bank, [((j, ell), k) for ell in range(bank.Q)])
    maps = 0.0
    for x in fields:
        s = comp.slices(comp.harmonic_rows(x)[0], (j, k))
        maps = maps + lag_correlations(s, s)
    maps /= len(fields)
    diag = np.real(maps[:, 0, 0])
    m = np.fft.fftfreq(n) * n
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    dist = np.hypot(m1, m2)
    out = np.empty(a_max + 1)
    for a in range(a_max + 1):
        if a == 0:
            out[0] = 1.0
            continue
        ring = np.abs(dist - (2 ** j) * a) < 0.5
        if not ring.any():
            out[a] = np.nan
            continue
        out[a] = float(np.max(np.abs(maps[:, ring]) / diag[:, None]))
    return out


def increment_offsets(j, side):
    """Integer lags in the width-one annulus around 2^(j-1)."""
    target = 2 ** (j - 1)
    r = int(np.ceil(target + 0.5))
    out = []
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            if (a, b) == (0, 0):
                continue
            if abs(np.hypot(a, b) - target) < 0.5:
                out.append((a, b))
    return out


def structure_function(x, j, q):
    """S(j, q): max over lags |tau| ~ 2^(j-1) of mean |x(u) - x(u-tau)|^q."""
    x = np.asarray(x, dtype=float)
    if q < 1:
        raise ConfigError("structure-function order must be >= 1")
    if 2 ** (j - 1) >= x.shape[0] // 2:
        raise ConfigError("increment scale beyond the grid half-period")
    best = 0.0
    for tau in increment_offsets(j, x.shape[0]):
        inc = x - np.roll(x, shift=tau, axis=(0, 1))
        best = max(best, float(np.mean(np.abs(inc) ** q)))
    return best


@dataclass
class ErrorReport:
    """Relative errors of one metric over paired realizations."""

    metric: str
    j: int
    q: float
    values: list = field(default_factory=list)

    @property
    def mean(self):
        return float(np.mean(self.values))

    @property
    def std(self):
        return float(np.std(self.values))


def structure_error(reference_fields, model_fields, j, q):
    """Paired relative structure-function errors |S_ref - S_model| / |S_ref|."""
    refs = list(reference_fields)
    models = list(model_fields)
    if not refs or not models:
        raise ConfigError("both realization sets must be non-empty")
    npairs = min(len(refs), len(models))
    report = ErrorReport(metric="structure", j=j, q=q)
    for i in range(npairs):
        s_ref = structure_function(refs[i], j, q)
        if s_ref == 0:
            raise ConfigError("reference structure function vanishes")
        s_mod = structure_function(models[i], j, q)
        report.values.append(abs(s_ref - s_mod) / abs(s_ref))
    return report
