"""Bump steerable wavelet bank, subsampled transform, adjoint, frame bounds.

The bank holds real Fourier-domain filters on the discrete frequency grid.
Band channels are indexed by (j, ell) with 1 <= j <= J (dilation 2^j) and
0 <= ell < Q (rotation by 2*pi*ell/Q); the isotropic low-pass is the extra
channel :data:`LOWPASS` at scale 2^J.

The mother wavelet in continuous frequency is

    psi_hat(w) = c * exp(-(|w|-xi0)^2 / (xi0^2 - (|w|-xi0)^2)) * 1_{0<|w|<2 xi0}
                   * cos(arg w)^(Q/2-1) * 1_{|arg w| < pi/2}

with xi0 = 1.7*pi and c = 1.29^-1 * 2^(Q/2-1) * (Q/2-1)! / sqrt((Q/2)(Q-2)!).
The low-pass is the Gaussian phi_hat(w) = exp(-|w|^2/(2 sigma^2)) with
sigma = 0.702 * sqrt(2) * 2^-0.55 * xi0.  Channel filters are
psi_hat_{j,ell}(w) = 2^j psi_hat(2^j r_ell w) and 2^J phi_hat(2^J w),
periodized over the 3x3 nearest alias shifts w + 2*pi*(a,b) (equivalent to
sampling the spatial wavelet on the integer grid); this periodization is what
reproduces the reference frame constants A_W = 2.0, B_W = 4.6 at d = 128^2,
J = 5, Q = 16.  A shift is evaluated only at the grid points it brings inside
the support radius 2 xi0 / 2^j (from j = 2 on, only the unshifted term has
any), for a group of angles per call; every skipped term is an exact zero.
The DC bin of every band filter is forced to exactly zero.  Filter
(j, ell + Q/2) is filter (j, ell) at -w, to rounding.

Band (j, ell) coefficients are subsampled at stride 2^(j-1), the low-pass at
stride 2^(J-1) (factor-2 oversampling of the dyadic grid).
"""

from dataclasses import dataclass
from math import factorial, pi

import numpy as np

from .errors import ConfigError
from .grid import check_side, power_iteration

XI0 = 1.7 * pi
SIGMA_PHI = 0.702 * np.sqrt(2.0) * 2 ** (-0.55) * XI0

LOWPASS = "low"


def bump_normalization(Q):
    """Amplitude constant c of the mother bump wavelet."""
    return (1.0 / 1.29) * 2 ** (Q / 2 - 1) * factorial(Q // 2 - 1) / np.sqrt(
        (Q / 2) * factorial(Q - 2)
    )


def bump_profile(wx, wy, Q):
    """Mother bump wavelet evaluated at continuous frequencies (wx, wy)."""
    r = np.hypot(wx, wy)
    t = r - XI0
    inside = (r > 0) & (r < 2 * XI0)
    expo = np.zeros_like(r)
    np.divide(-t * t, XI0 * XI0 - t * t, out=expo, where=inside)
    radial = np.where(inside, np.exp(expo, where=inside, out=np.zeros_like(r)), 0.0)
    theta = np.arctan2(wy, wx)
    cosang = np.cos(theta)
    angular = np.where(np.abs(theta) < pi / 2, np.maximum(cosang, 0.0) ** (Q // 2 - 1), 0.0)
    return bump_normalization(Q) * radial * angular


@dataclass
class WaveletBank:
    """Fourier-domain bump steerable filters for one grid size."""

    side: int
    J: int
    Q: int
    filters: dict  # (j, ell) -> real (side, side) array
    lowpass: np.ndarray
    xi0: float = XI0
    sigma_phi: float = SIGMA_PHI

    @property
    def d(self):
        return self.side * self.side

    def channels(self):
        """Band channels in canonical order, then the low-pass."""
        return [(j, ell) for j in range(1, self.J + 1) for ell in range(self.Q)] + [LOWPASS]

    def stride(self, channel):
        if channel == LOWPASS:
            return 2 ** (self.J - 1)
        return 2 ** (channel[0] - 1)

    def filter(self, channel):
        return self.lowpass if channel == LOWPASS else self.filters[channel]

    def coefficient_count(self):
        n = sum((self.side // self.stride(c)) ** 2 for c in self.channels())
        return n


@dataclass
class WaveletCoeffs:
    """Subsampled wavelet coefficients; band (j, ell) holds (side/2^(j-1))^2 values."""

    bands: dict  # (j, ell) -> complex array
    low: np.ndarray
    bank: WaveletBank

    def channel(self, channel):
        return self.low if channel == LOWPASS else self.bands[channel]


def build_bump_bank(side, J, Q):
    """Construct the bump steerable bank for a side x side periodic grid."""
    side = check_side(side)
    J = int(J)
    Q = int(Q)
    if Q < 2 or Q % 2 != 0:
        raise ConfigError(f"Q must be even and >= 2, got {Q}")
    if J < 1 or 2 ** J > side:
        raise ConfigError(f"need 1 <= J with 2^J <= side, got J={J}, side={side}")
    freq = 2 * pi * np.fft.fftfreq(side)
    wx, wy = np.meshgrid(freq, freq, indexing="ij")
    ca, sa = (np.array([fn(2 * pi * ell / Q) for ell in range(Q)])[:, None] for fn in (np.cos, np.sin))
    filters = {}
    for j in range(1, J + 1):
        pow2 = 2.0 ** j
        f = np.zeros((Q,) + wx.shape)
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                ux = wx + 2 * pi * a
                uy = wy + 2 * pi * b
                # grid points inside the support radius, with a margin for rounding
                near = pow2 * np.hypot(ux, uy) < 2 * XI0 * (1 + 1e-9)
                if not near.any():
                    continue
                ux, uy = ux[near], uy[near]
                step = 2 * near.size // near.sum()  # angles per call: about two planes of points
                for e in range(0, Q, step):
                    c, s = ca[e:e + step], sa[e:e + step]
                    f[e:e + step, near] += bump_profile(pow2 * (c * ux - s * uy), pow2 * (s * ux + c * uy), Q)
        f *= pow2
        f[:, 0, 0] = 0.0  # exact zero mean
        filters.update(((j, ell), f[ell]) for ell in range(Q))
    r2 = wx ** 2 + wy ** 2
    lowpass = (2.0 ** J) * np.exp(-(4.0 ** J) * r2 / (2 * SIGMA_PHI ** 2))
    return WaveletBank(side=side, J=J, Q=Q, filters=filters, lowpass=lowpass)


def fold_spectrum(xhat, s):
    """Alias-fold a fine spectrum onto the (side/s)^2 grid of stride-s samples."""
    n = xhat.shape[-1]
    m = n // s
    shape = xhat.shape[:-2] + (s, m, s, m)
    return xhat.reshape(shape).sum(axis=(-4, -2)) / (s * s)


def channel_fields(x, bank, channels=None):
    """Full-resolution convolutions x * psi_channel (no subsampling)."""
    x = np.asarray(x)
    if x.shape != (bank.side, bank.side):
        raise ConfigError(f"field shape {x.shape} does not match bank side {bank.side}")
    xhat = np.fft.fft2(x)
    if channels is None:
        channels = bank.channels()
    return {c: np.fft.ifft2(bank.filter(c) * xhat) for c in channels}


def wavelet_transform(x, bank):
    """Subsampled wavelet transform W x (Fourier multiplication + exact
    Fourier-domain periodization for the stride)."""
    x = np.asarray(x)
    if x.shape != (bank.side, bank.side):
        raise ConfigError(f"field shape {x.shape} does not match bank side {bank.side}")
    xhat = np.fft.fft2(x)
    bands = {}
    for (j, ell), f in bank.filters.items():
        s = 2 ** (j - 1)
        y = f * xhat
        bands[(j, ell)] = np.fft.ifft2(y if s == 1 else fold_spectrum(y, s))
    s = 2 ** (bank.J - 1)
    low = np.fft.ifft2(fold_spectrum(bank.lowpass * xhat, s))
    return WaveletCoeffs(bands=bands, low=low, bank=bank)


def adjoint_transform(coeffs, bank):
    """Exact adjoint W* of :func:`wavelet_transform` (dot-product adjoint)."""
    out = np.zeros((bank.side, bank.side), dtype=complex)
    for (j, ell), c in coeffs.bands.items():
        s = 2 ** (j - 1)
        expect = bank.side // s
        if c.shape != (expect, expect):
            raise ConfigError(f"channel {(j, ell)} has shape {c.shape}, expected {(expect, expect)}")
        chat = np.fft.fft2(c)
        out += bank.filters[(j, ell)] * (chat if s == 1 else np.tile(chat, (s, s)))
    s = 2 ** (bank.J - 1)
    expect = bank.side // s
    if coeffs.low.shape != (expect, expect):
        raise ConfigError(f"lowpass has shape {coeffs.low.shape}, expected {(expect, expect)}")
    out += bank.lowpass * np.tile(np.fft.fft2(coeffs.low), (s, s))
    return np.fft.ifft2(out)


def _gram_apply(bank):
    """W* W as a Fourier-domain operator, vectorized over stride groups."""
    groups = {}
    for (j, ell), f in bank.filters.items():
        groups.setdefault(2 ** (j - 1), []).append(f)
    groups.setdefault(2 ** (bank.J - 1), []).append(bank.lowpass)
    stacked = {s: np.stack(fs) for s, fs in groups.items()}
    n = bank.side

    def apply(xhat):
        out = np.zeros_like(xhat)
        for s, F in stacked.items():
            y = F * xhat[None]
            if s > 1:
                y = np.tile(fold_spectrum(y, s), (1, s, s))
            out += (F * y).sum(axis=0)
        return out

    return apply


def frame_bounds(bank, tol=1e-6, max_iter=10000, seed=0):
    """Frame bounds (A_W, B_W) of the subsampled transform.

    B_W is the largest eigenvalue of W*W by power iteration (relative
    tolerance ``tol`` on the Rayleigh quotient); A_W is recovered from power
    iteration on B_W*Id - W*W.  Raises NumericalError past ``max_iter``.
    """
    apply_gram = _gram_apply(bank)
    rng = np.random.Generator(np.random.Philox(key=seed))

    def power(op, label):
        v = rng.standard_normal((bank.side, bank.side)) + 0j
        v /= np.linalg.norm(v)
        return power_iteration(op, v, tol, max_iter,
                               f"power iteration for {label} did not converge in {max_iter} steps")

    b = power(apply_gram, "B_W")
    shifted = power(lambda v: b * v - apply_gram(v), "A_W")
    return b - shifted, b
