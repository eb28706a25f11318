"""Phase harmonics [z]^k, harmonic weight families, phase windows, derivatives.

The phase harmonic of z = |z| e^{i phi} is [z]^k = |z| e^{i k phi}, with the
convention phi(0) = 0 so [0]^k = 0.  Harmonic weight families h_hat(k) select
and scale exponents; models use indicator weights on [k_min, k_max] while the
rectifier window h(alpha) = max(cos alpha, 0) gives the two-sided family of
closed form below.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def unit_phase(z):
    """z/|z| elementwise, with phi(0) = 0 (unit value at z = 0)."""
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    return np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0 + 0j)


def phasor_power(u, k):
    """u^k of a unit phasor by binary powering (conj(u)^|k| for k < 0).

    Exact products keep the map bit-equivariant under sign flips and
    conjugation, which the optimizer equivariance guarantees rely on.
    """
    k = int(k)
    if k == 0:
        return np.ones_like(u)
    if k < 0:
        u = np.conj(u)
        k = -k
    out = None
    power = u
    while k:
        if k & 1:
            out = power.copy() if out is None else out * power
        k >>= 1
        if k:
            power = power * power
    return out


def phase_harmonic(z, k):
    """[z]^k = |z| e^{i k phi(z)}, elementwise; [0]^k = 0."""
    z = np.asarray(z, dtype=complex)
    k = int(k)
    if k == 1:
        return z.copy()
    if k == -1:
        return np.conj(z)
    if k == 0:
        return np.abs(z).astype(complex)
    return np.abs(z) * phasor_power(unit_phase(z), k)


def harmonic_derivative(z, k):
    """Wirtinger derivative pair (d[z]^k/dz, d[z]^k/dz*), elementwise.

    d[z]^k/dz  = ((k+1)/2) e^{i(k-1) phi(z)}
    d[z]^k/dz* = ((1-k)/2) e^{i(k+1) phi(z)}

    At z = 0 the same formulas are applied with phi = 0.  Both powers come
    from one unit phasor.
    """
    z = np.asarray(z, dtype=complex)
    k = int(k)
    u = unit_phase(z)
    return 0.5 * (k + 1) * phasor_power(u, k - 1), 0.5 * (1 - k) * phasor_power(u, k + 1)


@dataclass
class HarmonicWeights:
    """Weights h_hat(k) on the integer band k_min..k_max (inclusive)."""

    k_min: int
    k_max: int
    values: np.ndarray  # complex, aligned with range(k_min, k_max + 1)

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise ConfigError(f"empty weight range [{self.k_min}, {self.k_max}]")
        if len(self.values) != self.k_max - self.k_min + 1:
            raise ConfigError("weight array does not match the k range")

    def weight(self, k):
        if self.k_min <= k <= self.k_max:
            return complex(self.values[k - self.k_min])
        return 0.0

    def exponents(self):
        return range(self.k_min, self.k_max + 1)

    @property
    def energy(self):
        return float(np.sum(np.abs(self.values) ** 2))


def indicator_weights(k_min, k_max):
    """h_hat = 1 on [k_min, k_max] (the model family)."""
    return HarmonicWeights(int(k_min), int(k_max), np.ones(int(k_max) - int(k_min) + 1, dtype=complex))


def rectifier_weight(k):
    """Closed-form Fourier coefficient of the window max(cos alpha, 0)."""
    k = int(k)
    if k in (1, -1):
        return 0.25
    if k % 2 == 0:
        return (-1.0) ** (k // 2 + 1) / (np.pi * (k * k - 1))
    return 0.0


def rectifier_weights(k_max):
    """Two-sided rectifier family on [-k_max, k_max]."""
    k_max = int(k_max)
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    vals = np.array([rectifier_weight(k) for k in range(-k_max, k_max + 1)], dtype=complex)
    return HarmonicWeights(-k_max, k_max, vals)


def harmonic_map(coeffs, weights):
    """Weighted phase harmonics of wavelet coefficients.

    Returns a dict mapping (channel, k) to h_hat(k) * [c_channel]^k for every
    k in the weight range; channels are the keys of ``coeffs`` (a
    WaveletCoeffs or a plain dict of complex arrays).
    """
    arrays = coeffs.bands | {"low": coeffs.low} if hasattr(coeffs, "bands") else dict(coeffs)
    out = {}
    for channel, c in arrays.items():
        for k in weights.exponents():
            out[(channel, k)] = weights.weight(k) * phase_harmonic(c, k)
    return out


def phase_window_map(coeffs, alphas):
    """Rectified phase-shifted projections rho(Re(e^{i alpha} c)).

    Returns a dict mapping channel to a real array of shape
    (len(alphas),) + c.shape.
    """
    arrays = coeffs.bands | {"low": coeffs.low} if hasattr(coeffs, "bands") else dict(coeffs)
    alphas = np.asarray(alphas, dtype=float)
    out = {}
    for channel, c in arrays.items():
        shifted = np.exp(1j * alphas).reshape((-1,) + (1,) * c.ndim) * c[None]
        out[channel] = np.maximum(shifted.real, 0.0)
    return out
