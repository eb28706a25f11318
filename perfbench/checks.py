"""Output checks, run outside the timed section.

Each check returns ``(name, ok, detail)``; a run counts the checks it
attempted and the ones that failed.  The oracles here use numpy only, so a
defect in the program cannot cancel out of both sides of a comparison.
"""

import numpy as np

GRAD_REL_TOL = 1e-5
FIT_ERROR_TOL = 1e-4
SPECTRUM_REL_TOL = 0.10
CORR_TOL = 1e-12
ORACLE_TOL = 1e-10


def objective_at_reference(value):
    """The synthesis loss of the reference against itself is exactly zero."""
    return ("objective_at_reference_is_zero", value == 0.0, f"f(xbar) = {value!r}")


def loss_curve(losses):
    """Finite and non-increasing: every accepted L-BFGS step decreases f."""
    arr = np.asarray(losses, dtype=float)
    ok = arr.size > 1 and bool(np.all(np.isfinite(arr))) and bool(np.all(np.diff(arr) <= 0))
    return ("loss_curve_finite_monotone", ok, f"{arr.size} values, first {arr[0]:.6g}, last {arr[-1]:.6g}")


def directional_derivative(objective, x, grad, rel_tol=GRAD_REL_TOL, steps=(1e-5, 1e-6)):
    """Fourth-order central difference of ``objective`` along g/|g| against g.v.

    The loss is only piecewise smooth (|z| has a kink at z = 0), and a
    stencil that straddles a kink measures no derivative at all: at one
    model D iterate every step from 3e-3 down to 3e-5 (relative to the rms
    of x) read 1e-5 off, and 1e-5 read 2e-11.  So the steps are small and a
    second, smaller step is tried when the first disagrees.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    v = grad / np.linalg.norm(grad)
    gv = float(np.vdot(grad, v))
    rms = max(1.0, float(np.sqrt(np.mean(x * x))))
    for step in steps:
        h = step * rms
        f = {s: objective(x + s * h * v) for s in (-2, -1, 1, 2)}
        fd = (8.0 * (f[1] - f[-1]) - (f[2] - f[-2])) / (12.0 * h)
        rel = abs(fd - gv) / abs(gv)
        if rel <= rel_tol:
            break
    return ("gradient_matches_finite_difference", rel <= rel_tol,
            f"relative difference {rel:.3e} at step {step:g} rms(x) (tolerance {rel_tol:g})")


def gaussian_fit(state, tol=FIT_ERROR_TOL):
    ok = bool(state.feasible) and bool(state.converged) and state.constraint_error <= tol
    return ("dual_fit_converged_within_tolerance", ok,
            f"feasible={state.feasible} converged={state.converged} "
            f"constraint_error={state.constraint_error:.3e} (tolerance {tol:g})")


def _radial_bins(side):
    m = np.fft.fftfreq(side) * side
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    return np.rint(np.hypot(m1, m2)).astype(int)


def sample_spectrum(spectrum, samples, tol=SPECTRUM_REL_TOL):
    """Mean sample periodogram against the model spectrum, per radial bin."""
    emp = np.zeros(spectrum.shape)
    for s in samples:
        emp += np.abs(np.fft.fft2(s)) ** 2 / s.size
    emp /= len(samples)
    bins = _radial_bins(spectrum.shape[0]).ravel()
    emp_r = np.bincount(bins, weights=emp.ravel())
    mod_r = np.bincount(bins, weights=np.asarray(spectrum, dtype=float).ravel())
    ok_bins = mod_r > 0
    rel = float(np.max(np.abs(emp_r[ok_bins] - mod_r[ok_bins]) / mod_r[ok_bins]))
    return ("samples_reproduce_spectrum", rel < tol,
            f"{len(samples)} samples, worst radial bin {100 * rel:.2f}% (tolerance {100 * tol:g}%)")


def correlation_structure(C, tol=CORR_TOL):
    """Hermitian with unit diagonal: C was normalized by its own diagonal."""
    C = np.asarray(C)
    herm = float(np.max(np.abs(C - np.conj(C.T))))
    diag = float(np.max(np.abs(np.diag(C) - 1.0)))
    return ("correlation_hermitian_unit_diagonal", herm <= tol and diag <= tol,
            f"max |C - C^H| = {herm:.2e}, max |diag - 1| = {diag:.2e} (tolerance {tol:g})")


def self_error(value):
    return ("correlation_error_of_self_is_zero", value == 0.0, f"error(C, C) = {value!r}")


def _harmonic(y, k):
    if k == 0:
        return np.abs(y).astype(complex)
    return np.abs(y) * np.exp(1j * k * np.angle(y))


def correlation_oracle(C, fields, filters, vertices, pairs, tol=ORACLE_TOL):
    """Sampled entries of C against direct spatial means.

    Entry (i, j) of vertices (c, k, u) and (c', k', u') is, averaged over
    the fields, mean_w h(w) conj(h'(w + u' - u)) of the mean-centred
    harmonics h = [x * psi_c]^k, normalized by the same-field diagonals.
    ``filters`` maps a channel to its Fourier filter.
    """
    cache = {}

    def centred(x_idx, ch, k):
        key = (x_idx, ch, k)
        if key not in cache:
            x = fields[x_idx]
            h = _harmonic(np.fft.ifft2(filters[ch] * np.fft.fft2(x)), k)
            cache[key] = h - h.mean()
        return cache[key]

    def entry(a, b):
        (ch, k, u), (ch2, k2, u2) = vertices[a], vertices[b]
        shift = (u[0] - u2[0], u[1] - u2[1])
        acc = 0.0
        for x_idx in range(len(fields)):
            h2 = np.roll(centred(x_idx, ch2, k2), shift, axis=(0, 1))
            acc += np.mean(centred(x_idx, ch, k) * np.conj(h2))
        return acc / len(fields)

    worst = 0.0
    for a, b in pairs:
        want = entry(a, b) / np.sqrt(np.real(entry(a, a)) * np.real(entry(b, b)))
        worst = max(worst, float(abs(C[a, b] - want)))
    return ("correlation_matches_spatial_oracle", worst <= tol,
            f"{len(pairs)} sampled entries, max deviation {worst:.2e} (tolerance {tol:g})")
