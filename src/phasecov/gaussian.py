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
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
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
    """

    def __init__(self, bank, edges):
        self.bank = bank
        self.side = bank.side
        self.d = bank.d
        canon = {}
        for e in edges:
            if e.k != 1 or e.k2 != 1:
                raise ConfigError("the Gaussian dual uses k = 1 edges only")
            ch, ch2, du = _canonical(e.ch, e.ch2, e.du)
            canon[(ch, ch2, du)] = None
        if not canon:
            raise ConfigError("empty edge set")
        self.edges = []
        for (ch, ch2, du) in canon:
            self_paired = ch == ch2 and du == (0, 0)
            self.edges.append(_CanonEdge(ch, ch2, du, 1.0 if self_paired else 2.0))
        self.n_edges = len(self.edges)
        self.weights = np.array([e.weight for e in self.edges])
        self.is_diag = np.array([e.is_diag for e in self.edges])
        self.pairs = {}
        for i, e in enumerate(self.edges):
            self.pairs.setdefault((e.ch, e.ch2), []).append(i)
        self.filt = {p: bank.filter(p[0]) * bank.filter(p[1]) for p in self.pairs}

    # packed real parameterization: [Re beta (all edges), Im beta (off-diag)]
    def pack(self, betas):
        re = np.real(betas)
        im = [np.imag(b) for b, d in zip(betas, self.is_diag) if not d]
        return np.concatenate([re, np.array(im)])

    def unpack(self, vec):
        betas = np.array(vec[: self.n_edges], dtype=complex)
        j = self.n_edges
        for i in range(self.n_edges):
            if not self.is_diag[i]:
                betas[i] += 1j * vec[j]
                j += 1
        return betas

    def denominator(self, betas):
        """1/P(w) assembled over the full Hermitian edge set."""
        denom = np.zeros((self.side, self.side))
        for pair, idxs in self.pairs.items():
            grid = np.zeros((self.side, self.side), dtype=complex)
            for i in idxs:
                e = self.edges[i]
                grid[e.du[0] % self.side, e.du[1] % self.side] += self.weights[i] * betas[i]
            phased = np.fft.fft2(grid)  # sum_du beta(du) e^{-i w.du}
            denom += np.real(self.filt[pair] * phased)
        return denom

    def model_covariances(self, spectrum):
        """C_e = sum_{w != 0} P(w) psi psi' e^{-i w.du} for every edge.

        The DC bin is excluded throughout: the model describes the centered
        process, matching the mean-subtracted covariance estimators.
        """
        out = np.zeros(self.n_edges, dtype=complex)
        masked = spectrum.copy()
        masked[0, 0] = 0.0
        for pair, idxs in self.pairs.items():
            a = np.fft.fft2(masked * self.filt[pair])
            for i in idxs:
                e = self.edges[i]
                out[i] = a[e.du[0] % self.side, e.du[1] % self.side]
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
        grad_re = 0.5 * self.weights * np.real(resid)
        grad_im = np.array(
            [-0.5 * self.weights[i] * np.imag(resid[i])
             for i in range(self.n_edges) if not self.is_diag[i]]
        )
        return value, np.concatenate([grad_re, grad_im])

    def _denominator_jacobian(self):
        """Columns d(denom)/d(theta) over the packed real parameters."""
        n = self.side
        m = np.fft.fftfreq(n) * n
        m1, m2 = np.meshgrid(m, m, indexing="ij")
        cols_re = []
        cols_im = []
        for i, e in enumerate(self.edges):
            phase = np.exp(-2j * np.pi * (e.du[0] * m1 + e.du[1] * m2) / n)
            f = self.filt[(e.ch, e.ch2)] * phase
            cols_re.append(self.weights[i] * np.real(f).ravel())
            if not e.is_diag:
                cols_im.append(-self.weights[i] * np.imag(f).ravel())
        return np.array(cols_re + cols_im).T  # (d, n_params)

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
    diag_t = {}
    for i, e in enumerate(dual.edges):
        if e.is_diag:
            diag_t[e.ch] = float(np.real(targets[i]))
    betas0 = np.zeros(dual.n_edges, dtype=complex)
    for i, e in enumerate(dual.edges):
        if e.is_diag:
            t = diag_t.get(e.ch, 0.0)
            if t <= 0:
                raise ConfigError(f"non-positive diagonal target on {e.key()}")
            betas0[i] = 1.0 / t
    vec0 = dual.pack(betas0)
    if not np.isfinite(dual.objective(vec0, targets)[0]):
        raise NumericalError("diagonal initialization is infeasible")
    # diagonal preconditioning: optimize beta_e * sqrt(D_v D_v'), which turns
    # the gradient components into relative constraint residuals
    scale_edge = np.array([
        np.sqrt(diag_t.get(e.ch, 1.0) * diag_t.get(e.ch2, 1.0)) for e in dual.edges
    ])
    s_pack = np.concatenate([
        scale_edge, scale_edge[~dual.is_diag]
    ])

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
    scale = np.array([
        np.sqrt(diag_t.get(e.ch, np.inf) * diag_t.get(e.ch2, np.inf))
        for e in dual.edges
    ])
    err = float(np.max(np.abs(model - targets) / scale)) if feasible else np.inf
    converged = feasible and err <= CONVERGED_ERROR
    return GaussianDualState(
        betas={e.key(): complex(b) for e, b in zip(dual.edges, betas)},
        spectrum=spectrum,
        entropy=float(_value) if feasible else np.inf,
        feasible=feasible,
        converged=converged,
        constraint_error=err,
        edge_keys=[e.key() for e in dual.edges],
        side=bank.side,
    )


def fit_gaussian_from_field(x, spec, bank, edges=None, gtol=1e-7, max_iter=2000):
    """Convenience: targets from a reference field, then the dual fit."""
    from .graph import build_foveal_edges

    if edges is None:
        edges = build_foveal_edges(spec).edges
    dual, targets = wavelet_covariance_targets(x, bank, edges)
    return fit_gaussian_model(targets, bank, edges, gtol=gtol, max_iter=max_iter, dual=dual)


def sample_gaussian(state, seed, count):
    """Real stationary Gaussian samples with power spectrum P(w).

    x_hat = sqrt(P(w)) * z_hat(w) with z unit white noise, so the sample
    spectrum E|x_hat|^2 / d equals P(w).  The spectrum is symmetrized over
    w -> -w (it is symmetric up to optimizer tolerance) to make the samples
    exactly real.
    """
    from .grid import white_noise

    if not state.feasible:
        raise NumericalError("cannot sample from an infeasible dual state")
    side = state.side
    rev = (-np.arange(side)) % side
    spec = 0.5 * (state.spectrum + state.spectrum[rev][:, rev])
    amp = np.sqrt(spec)
    out = []
    for i in range(count):
        z = white_noise(side, 1.0, (int(seed) + i) % (2 ** 64))
        xhat = amp * np.fft.fft2(z)
        out.append(np.real(np.fft.ifft2(xhat)))
    return out
