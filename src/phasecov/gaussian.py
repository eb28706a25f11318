"""Maximum-entropy Gaussian model from wavelet covariance constraints.

The model density is the Gibbs form over the linear (k = 1) wavelet
covariance constraints; its power spectrum is

    P(w) = ( sum_{(v,v') in E} beta_{v,v'} psi_hat_l(w) psi_hat_l'(w)
             exp(-i w.(u - u')) )^(-1)

with Hermitian multipliers beta_{v',v} = conj(beta_{v,v'}).  The dual
objective minimized over the multipliers is

    D(beta) = (1/2) sum_E beta_e T_e + (1/2) sum_w log P(w) + (d/2) log(2 pi)

where T_e are the target covariances; its gradient components are half the
constraint residuals (target minus model covariance), so the fitted spectrum
matches every constraint at the optimum.  Infeasible multipliers (P <= 0
somewhere) get an infinite objective value.

Model covariances follow from the spectrum by

    C_e(P) = sum_w P(w) psi_hat_l(w) psi_hat_l'(w) exp(-i w.(u-u'))

which is also how targets are computed from the empirical spectrum of the
reference field (DC bin removed, which is exactly the mean centering of the
covariance estimators).

Both sums run per channel pair (v, v') on flat per-edge index arrays, with
one ``fft2`` per pair; edges that share a lag mod side are summed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .graph import build_foveal_edges
from .grid import require_seed_range, white_noise
from .lbfgs import lbfgs_minimize
from .wavelets import LOWPASS

# a fit is converged when every constraint holds to this relative error,
# ten times inside the 1e-4 acceptance gate
CONVERGED_ERROR = 1e-5


def _sortable(ch):
    return (1, 0, 0) if ch == LOWPASS else (0, ch[0], ch[1])


def _canonical(ch, ch2, du):
    a = (_sortable(ch), _sortable(ch2), du)
    b = (_sortable(ch2), _sortable(ch), (-du[0], -du[1]))
    return (ch, ch2, du) if a <= b else (ch2, ch, (-du[0], -du[1]))


@dataclass
class _CanonEdge:
    ch: object
    ch2: object
    du: tuple
    weight: float  # 1 for self-paired diagonal entries, 2 for Hermitian pairs

    @property
    def is_diag(self):
        return self.weight == 1.0

    def key(self):
        return (self.ch, 1, self.ch2, 1, self.du)


class GaussianDual:
    """Dual machinery for a fixed bank and k = 1 edge set.

    The incoming edges are canonicalized under the Hermitian symmetry
    (v, v') ~ (v', v); self-paired entries carry weight 1 and real
    multipliers, all others weight 2 and complex multipliers.

    Per-edge arrays are built once: ``weights`` (``packed_weights`` in the
    packed layout), the off-diagonal mask ``off``, the signed lags ``du``
    and ``ends``, the self edges of each edge's two channels (-1 if absent).
    ``pairs`` holds per channel pair its edge indices, their lags mod side
    and psi_hat psi_hat'.  A coarse channel's lags wrap around the grid, so
    two edges of a pair can share a lag: the scatter sums them (``np.add.at``).
    Each pair takes one ``fft2``; one stacked transform over all pairs was slower.
    """

    def __init__(self, bank, edges):
        self.bank = bank
        self.side = bank.side
        self.d = bank.d
        edges = list(edges)
        if any(e.k != 1 or e.k2 != 1 for e in edges):
            raise ConfigError("the Gaussian dual uses k = 1 edges only")
        if not edges:
            raise ConfigError("empty edge set")
        canon = dict.fromkeys(_canonical(e.ch, e.ch2, e.du) for e in edges)
        self.edges = [_CanonEdge(ch, ch2, du, 1.0 if ch == ch2 and du == (0, 0) else 2.0)
                      for ch, ch2, du in canon]
        self.n_edges = len(self.edges)
        self.keys = [e.key() for e in self.edges]
        self.weights = np.array([e.weight for e in self.edges])
        self.is_diag = self.weights == 1.0
        self.off = ~self.is_diag
        self.packed_weights = np.concatenate([self.weights, self.weights[self.off]])
        self.du = np.array([e.du for e in self.edges])
        by_pair = {}
        for i, e in enumerate(self.edges):
            by_pair.setdefault((e.ch, e.ch2), []).append(i)
        self.pairs = [(np.array(idx), *(self.du[idx] % self.side).T,
                       bank.filter(ch) * bank.filter(ch2)) for (ch, ch2), idx in by_pair.items()]
        diag = {e.ch: i for i, e in enumerate(self.edges) if e.is_diag}
        self.ends = np.array([[diag.get(e.ch, -1), diag.get(e.ch2, -1)] for e in self.edges])

    # packed real parameterization: [Re beta (all edges), Im beta (off-diag)]
    def pack(self, betas):
        return np.concatenate([np.real(betas), np.imag(betas[self.off])])

    def unpack(self, vec):
        betas = np.array(vec[: self.n_edges], dtype=complex)
        betas[self.off] += 1j * vec[self.n_edges:]
        return betas

    def denominator(self, betas):
        """1/P(w) assembled over the full Hermitian edge set."""
        denom = np.zeros((self.side, self.side))
        weighted = self.weights * betas
        for idx, rows, cols, filt in self.pairs:
            grid = np.zeros((self.side, self.side), dtype=complex)
            np.add.at(grid, (rows, cols), weighted[idx])
            phased = np.fft.fft2(grid)  # sum_du beta(du) e^{-i w.du}
            denom += np.real(filt * phased)
        return denom

    def model_covariances(self, spectrum):
        """C_e = sum_{w != 0} P(w) psi psi' e^{-i w.du} for every edge.

        The DC bin is excluded throughout: the model describes the centered
        process, matching the mean-subtracted covariance estimators.
        """
        out = np.zeros(self.n_edges, dtype=complex)
        masked = spectrum.copy()
        masked[0, 0] = 0.0
        for idx, rows, cols, filt in self.pairs:
            out[idx] = np.fft.fft2(masked * filt)[rows, cols]
        return out

    def objective(self, vec, targets):
        betas = self.unpack(vec)
        denom = self.denominator(betas)
        denom[0, 0] = 1.0  # DC excluded from the model
        if np.min(denom) <= 0 or not np.all(np.isfinite(denom)):
            return np.inf, np.zeros_like(vec)
        spectrum = 1.0 / denom
        spectrum[0, 0] = 0.0
        lin = float(np.sum(self.weights * np.real(betas * targets)))
        logdet = float(np.sum(np.log(denom)))  # the DC placeholder adds log 1 = 0
        value = 0.5 * lin - 0.5 * logdet + 0.5 * (self.d - 1) * np.log(2 * np.pi)
        resid = targets - self.model_covariances(spectrum)
        # d/d(Re, Im beta_e) of the value: (w_e / 2) (Re, -Im) of the residual
        return value, 0.5 * self.packed_weights * self.pack(np.conj(resid))

    def _denominator_jacobian(self):
        """Columns d(denom)/d(theta) over the packed real parameters."""
        n = self.side
        m = np.fft.fftfreq(n) * n
        m1, m2 = np.meshgrid(m, m, indexing="ij")
        jac = np.empty((len(self.packed_weights), self.d))
        im_row = self.n_edges + np.cumsum(self.off) - 1
        for idx, _, _, filt in self.pairs:
            du = self.du[idx, :, None, None]
            f = filt * np.exp(-2j * np.pi * (du[:, 0] * m1 + du[:, 1] * m2) / n)
            w = self.weights[idx, None, None]
            jac[idx] = (w * np.real(f)).reshape(len(idx), -1)
            off = self.off[idx]
            jac[im_row[idx[off]]] = (-w[off] * np.imag(f[off])).reshape(-1, self.d)
        return jac.T  # (d, n_params)

    def newton_refine(self, vec, targets, tol, max_steps=50):
        """Damped Newton steps on the convex dual.

        The Hessian is (1/2) G^T diag(P^2) G with G the denominator
        Jacobian; steps are backtracked into the feasible cone.  Used to
        polish the L-BFGS iterate, whose progress stalls on the
        ill-conditioned flat directions of the dual.
        """
        G = self._denominator_jacobian()
        value, grad = self.objective(vec, targets)
        for _ in range(max_steps):
            if float(np.max(np.abs(grad))) < tol:
                break
            denom = self.denominator(self.unpack(vec)).ravel()
            w = 1.0 / (denom * denom)
            w[0] = 0.0  # DC excluded from the model
            H = 0.5 * (G.T * w) @ G
            H.flat[:: H.shape[0] + 1] += 1e-12 * np.trace(H) / H.shape[0]
            try:
                step = np.linalg.solve(H, -grad)
            except np.linalg.LinAlgError:
                break
            t = 1.0
            improved = False
            for _ in range(60):
                cand = vec + t * step
                new_value, new_grad = self.objective(cand, targets)
                if np.isfinite(new_value) and new_value <= value + 1e-4 * t * float(grad @ step):
                    vec, value, grad = cand, new_value, new_grad
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
        return vec, value, grad


@dataclass
class GaussianDualState:
    """Fitted multipliers and spectrum of the maximum-entropy Gaussian model."""

    betas: dict                 # canonical edge key -> complex multiplier
    spectrum: np.ndarray        # P(w) > 0, (side, side)
    entropy: float
    feasible: bool
    converged: bool
    constraint_error: float     # max |C_e - T_e| / sqrt(D_v D_v')
    edge_keys: list
    side: int


def empirical_spectrum(x):
    """Centered empirical power spectrum |x_hat|^2 / d with the DC bin removed."""
    x = np.asarray(x, dtype=float)
    xhat = np.fft.fft2(x)
    xhat[0, 0] = 0.0
    return np.abs(xhat) ** 2 / x.size


def wavelet_covariance_targets(x, bank, edges):
    """k = 1 covariance targets of a reference field via its spectrum."""
    dual = GaussianDual(bank, edges)
    return dual, dual.model_covariances(empirical_spectrum(x))


def dual_objective(betas, targets, bank, edges):
    """Dual value and packed gradient at complex multipliers ``betas``."""
    dual = GaussianDual(bank, edges)
    return dual.objective(dual.pack(np.asarray(betas, dtype=complex)),
                          np.asarray(targets, dtype=complex))


def fit_gaussian_model(targets, bank, edges, gtol=1e-7, max_iter=2000, dual=None):
    """Fit the maximum-entropy Gaussian dual by L-BFGS.

    ``targets`` is a complex vector aligned with the canonical edge list of
    ``GaussianDual(bank, edges)`` (or with ``dual`` when given).  Returns the
    fitted state; it is converged when feasible with constraint error at most
    :data:`CONVERGED_ERROR`, and otherwise keeps the best iterate, flagged.
    """
    if dual is None:
        dual = GaussianDual(bank, edges)
    targets = np.asarray(targets, dtype=complex)
    if np.any(dual.ends < 0):
        raise ConfigError("every channel of the edge set needs its self edge (variance target)")
    diag_t = np.real(targets)
    bad = np.flatnonzero(dual.is_diag & (diag_t <= 0))
    if bad.size:
        raise ConfigError(f"non-positive diagonal target on {dual.keys[bad[0]]}")
    betas0 = np.zeros(dual.n_edges, dtype=complex)
    betas0[dual.is_diag] = 1.0 / diag_t[dual.is_diag]
    vec0 = dual.pack(betas0)
    if not np.isfinite(dual.objective(vec0, targets)[0]):
        raise NumericalError("diagonal initialization is infeasible")
    # diagonal preconditioning: optimize beta_e * sqrt(D_v D_v'), which turns
    # the gradient components into relative constraint residuals
    ends_t = diag_t[dual.ends]
    scale = np.sqrt(ends_t[:, 0] * ends_t[:, 1])
    s_pack = np.concatenate([scale, scale[dual.off]])

    def precond_objective(u):
        f, g = dual.objective(u / s_pack, targets)
        return f, g / s_pack

    result = lbfgs_minimize(
        precond_objective, vec0 * s_pack, memory=10, gtol=gtol, max_iter=max_iter,
    )
    # Newton polish: the dual is convex but ill-conditioned, and L-BFGS
    # stalls on its flat directions; a few damped Newton steps drive the
    # constraint residuals (the gradient components) to tolerance
    vec, _value, _ = dual.newton_refine(
        result.x / s_pack, targets, tol=gtol * float(np.min(s_pack))
    )
    betas = dual.unpack(vec)
    denom = dual.denominator(betas)
    denom[0, 0] = 1.0
    feasible = bool(np.min(denom) > 0)
    spectrum = 1.0 / np.where(denom > 0, denom, np.inf)
    spectrum[0, 0] = 0.0
    model = dual.model_covariances(spectrum)
    err = float(np.max(np.abs(model - targets) / scale)) if feasible else np.inf
    converged = feasible and err <= CONVERGED_ERROR
    return GaussianDualState(
        betas=dict(zip(dual.keys, betas.tolist())),
        spectrum=spectrum,
        entropy=float(_value) if feasible else np.inf,
        feasible=feasible,
        converged=converged,
        constraint_error=err,
        edge_keys=list(dual.keys),
        side=bank.side,
    )


def fit_gaussian_from_field(x, spec, bank, edges=None, gtol=1e-7, max_iter=2000):
    """Convenience: targets from a reference field, then the dual fit."""
    if edges is None:
        edges = build_foveal_edges(spec).edges
    dual, targets = wavelet_covariance_targets(x, bank, edges)
    return fit_gaussian_model(targets, bank, edges, gtol=gtol, max_iter=max_iter, dual=dual)


def sample_gaussian(state, seed, count):
    """Real stationary Gaussian samples with power spectrum P(w).

    x_hat = sqrt(P(w)) * z_hat(w) with z unit white noise, so the sample
    spectrum E|x_hat|^2 / d equals P(w).  The spectrum is symmetrized over
    w -> -w (it is symmetric up to optimizer tolerance) to make the samples
    exactly real.  Sample i is drawn from seed ``seed + i``; a seed range
    past 2^64 - 1 is a ConfigError (:func:`~phasecov.grid.require_seed_range`).
    """
    require_seed_range(seed, count)
    if not state.feasible:
        raise NumericalError("cannot sample from an infeasible dual state")
    side = state.side
    rev = (-np.arange(side)) % side
    spec = 0.5 * (state.spectrum + state.spectrum[rev][:, rev])
    amp = np.sqrt(spec)
    out = []
    for i in range(count):
        z = white_noise(side, 1.0, int(seed) + i)
        xhat = amp * np.fft.fft2(z)
        out.append(np.real(np.fft.ifft2(xhat)).copy())  # a view would pin its complex parent
    return out
