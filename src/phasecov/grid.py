"""Periodic square grids: DFT, white noise, pointwise symmetries, radial spectra.

Fields are plain 2D numpy arrays (float64 or complex128) on a periodic
side x side grid with side a power of two.  Space-domain samples live at
u in {0..side-1}^2, frequency-domain samples at omega = 2*pi*m/side for
m in {0..side-1}^2 (numpy FFT layout).
"""

import numpy as np

from .errors import ConfigError, NumericalError

MAX_SEED = 2 ** 64


def require_seed_range(seed, count):
    """ConfigError unless the ``count`` seeds from ``seed`` on stay below 2^64."""
    if int(seed) + count > MAX_SEED:
        raise ConfigError(f"seeds {seed} to {seed} + {count - 1} run past 2^64 - 1")


def check_side(side):
    """Validate that ``side`` is a power-of-two integer >= 2."""
    side = int(side)
    if side < 2 or side & (side - 1) != 0:
        raise ConfigError(f"grid side must be a power of two >= 2, got {side}")
    return side


def check_field(x):
    """Validate a field array: 2D, square, power-of-two side."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ConfigError(f"field must be a square 2D array, got shape {x.shape}")
    check_side(x.shape[0])
    return x


def dft2(x):
    """Forward DFT, x_hat(omega) = sum_u x(u) exp(-i omega.u)."""
    return np.fft.fft2(check_field(x))


def idft2(xhat):
    """Inverse of :func:`dft2` (includes the 1/d factor)."""
    return np.fft.ifft2(check_field(xhat))


def white_noise(side, sigma, seed):
    """Real i.i.d. N(0, sigma^2) field from a counter-based PRNG.

    Uses Philox (64-bit counter PRNG) with an explicit Box-Muller map so the
    output is fully documented and bit-reproducible: uniforms u1, u2 are drawn
    in two consecutive blocks and the field is the concatenation of
    r*cos(2 pi u2) and r*sin(2 pi u2) with r = sqrt(-2 log u1), reshaped
    row-major.
    """
    side = check_side(side)
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    seed = int(seed)
    if not 0 <= seed < MAX_SEED:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed}")
    n = side * side
    gen = np.random.Generator(np.random.Philox(key=seed))
    u1 = 1.0 - gen.random(n // 2)  # in (0, 1], keeps log finite
    u2 = gen.random(n // 2)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
    return (sigma * z).reshape(side, side)


def power_iteration(apply, v, tol, max_iter, failure):
    """Largest |eigenvalue| of a Hermitian operator ``apply`` by power
    iteration from the unit vector ``v``, to relative tolerance ``tol`` on
    |<v, apply(v)>|.  Raises NumericalError(``failure``) past ``max_iter`` steps."""
    lam = 0.0
    for _ in range(max_iter):
        w = apply(v)
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        new = float(abs(np.vdot(v, w)))
        v = w / norm
        if abs(new - lam) <= tol * new:
            return new
        lam = new
    raise NumericalError(failure)


def translate(x, tau):
    """Periodic translation, out(u) = in(u - tau)."""
    x = check_field(x)
    t0, t1 = int(tau[0]), int(tau[1])
    return np.roll(x, shift=(t0, t1), axis=(0, 1))


def negate(x):
    """Pointwise sign change."""
    return -check_field(x)


def radial_bins(side):
    """Integer radial bin index (nearest |m| in grid units) for each frequency."""
    m = np.fft.fftfreq(side) * side
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    return np.rint(np.hypot(m1, m2)).astype(int)


def radial_power_spectrum(spectra):
    """Radially averaged log10 power of frequency-domain fields.

    Parameters
    ----------
    spectra : list of 2D complex arrays (frequency domain, identical sides)

    Returns
    -------
    (radii, log_power) : radii in grid units (bin width one grid step) and
    log10 of the mean of |x_hat|^2 / d over each annulus and over the list.
    """
    if not spectra:
        raise ConfigError("radial_power_spectrum needs at least one spectrum")
    side = check_field(spectra[0]).shape[0]
    d = side * side
    power = np.zeros((side, side))
    for s in spectra:
        s = check_field(s)
        if s.shape[0] != side:
            raise ConfigError("all spectra must share the same side")
        power += np.abs(s) ** 2 / d
    power /= len(spectra)
    bins = radial_bins(side)
    nbin = bins.max() + 1
    sums = np.bincount(bins.ravel(), weights=power.ravel(), minlength=nbin)
    counts = np.bincount(bins.ravel(), minlength=nbin)
    radii = np.arange(nbin)
    with np.errstate(divide="ignore"):  # empty bins report -inf log power
        return radii, np.log10(sums / counts)
