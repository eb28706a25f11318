"""Gradient-descent microcanonical models for the non-Gaussian families.

The synthesis objective of a candidate field x against a reference x_bar is

    f(x) = sum_{edges} | (K_x(e) - K_ref(e)) / sqrt(D(v) D(v')) |^2

where K_x is the symmetry-averaged covariance estimate of x centered on the
*reference* means, and D is the reference diagonal (both frozen, which keeps
f smooth in x and makes f(x_bar) = 0 exactly).  Minimization runs L-BFGS
with a strong Wolfe line search from white-noise starts whose variance upper
bounds the reference variance; every restart is seeded independently.
"""

from dataclasses import dataclass, field

import numpy as np

from .covariance import EdgeComputer
from .errors import ConfigError
from .graph import build_foveal_edges
from .grid import white_noise
from .lbfgs import lbfgs_minimize
from .wavelets import build_bump_bank


@dataclass
class SynthesisTarget:
    """Frozen reference statistics and machinery for one model."""

    spec: object
    bank: object
    computer: EdgeComputer
    ref_values: np.ndarray      # reference covariances per edge
    scales: np.ndarray          # sqrt(D(v) D(v')) per edge
    means: dict                 # frozen reference means
    sigma2: float               # white-noise variance bound for x0


def build_target(xbar, spec, bank=None):
    """Estimate the reference table of ``xbar`` and freeze it into a target."""
    xbar = np.asarray(xbar)
    if bank is None:
        bank = build_bump_bank(xbar.shape[0], spec.J, spec.Q)
    edges = build_foveal_edges(spec)
    comp = EdgeComputer(edges.edges, spec, bank)
    spectra, means, _ = comp.harmonic_rows(xbar)
    ref_values = comp.edge_values(spectra)
    diag = comp.diagonals(spectra)
    scales = np.empty(len(comp.edges))
    for i, e in enumerate(comp.edges):
        dv = diag[(e.ch, e.k)]
        dv2 = diag[(e.ch2, e.k2)]
        if not (dv > 0 and dv2 > 0):
            raise ConfigError(f"degenerate reference diagonal on edge {e.key()}")
        scales[i] = np.sqrt(dv * dv2)
    sigma2 = float(np.var(xbar))
    return SynthesisTarget(
        spec=spec, bank=bank, computer=comp, ref_values=ref_values,
        scales=scales, means=means, sigma2=sigma2,
    )


def objective(x, target):
    """Microcanonical loss of ``x`` against the frozen reference."""
    comp = target.computer
    spectra, _, _ = comp.harmonic_rows(x, target.means)
    vals = comp.edge_values(spectra)
    res = (vals - target.ref_values) / target.scales
    return float(np.sum(np.abs(res) ** 2))


def objective_gradient(x, target):
    """Exact gradient of :func:`objective`; returns a real field."""
    _, grad = value_and_grad(x, target)
    return grad


def value_and_grad(x, target):
    comp = target.computer
    spectra, _, fields = comp.harmonic_rows(x, target.means)
    vals = comp.edge_values(spectra)
    res = (vals - target.ref_values) / target.scales
    f = float(np.sum(np.abs(res) ** 2))
    cot = np.conj(res) / target.scales  # dF/dK(e)
    grad = comp.gradient_fields(spectra, fields, cot)
    return f, grad


@dataclass
class SynthesisResult:
    samples: list
    losses: list                # final loss per restart
    initial_losses: list
    iterations: list
    seeds: list
    loss_curves: list = field(default_factory=list)
    armijo_fallbacks: list = field(default_factory=list)
    stop_reasons: list = field(default_factory=list)

    @property
    def best_index(self):
        return int(np.argmin(self.losses))

    @property
    def best(self):
        return self.samples[self.best_index]


def run_descent(target, x0, max_iter=None, callback=None):
    """One L-BFGS descent of the synthesis objective from ``x0``."""
    opt = target.spec.optimizer
    f0 = objective(x0, target)
    result = lbfgs_minimize(
        lambda x: value_and_grad(x, target),
        np.asarray(x0, dtype=float),
        memory=opt.memory,
        c1=opt.c1,
        c2=opt.c2,
        gtol=opt.gtol,
        max_iter=opt.max_iter if max_iter is None else max_iter,
        f_target=opt.eps_ratio * f0 if f0 > 0 else None,
        callback=callback,
    )
    return result, f0


def restart_seed(base_seed, r):
    """Per-restart 64-bit seed derived from the base seed."""
    return int(np.random.SeedSequence(entropy=int(base_seed), spawn_key=(r,)).generate_state(1)[0])


def _one_restart(target, seed, max_iter):
    x0 = white_noise(target.bank.side, np.sqrt(target.sigma2), seed)
    result, f0 = run_descent(target, x0, max_iter=max_iter)
    return result, f0


def synthesize(xbar, spec, n_restarts=None, seed=None, target=None, max_iter=None,
               workers=1):
    """Multi-restart microcanonical synthesis for model specs B, C, D, custom.

    Restarts are independently seeded; with ``workers > 1`` they run in
    parallel processes with identical results to the serial order.  Model A
    is exactly Gaussian and is served by the dual fit in
    :mod:`phasecov.gaussian`; requesting it here is a configuration error.
    """
    if spec.name.upper() == "A":
        raise ConfigError("model A is Gaussian; use the maximum-entropy dual sampler")
    if n_restarts is None:
        n_restarts = spec.optimizer.restarts
    if n_restarts < 1:
        raise ConfigError("restart count must be >= 1")
    if seed is None:
        seed = spec.optimizer.seed
    if target is None:
        target = build_target(xbar, spec)
    seeds = [restart_seed(seed, r) for r in range(n_restarts)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_one_restart, [target] * n_restarts, seeds,
                                 [max_iter] * n_restarts))
    else:
        runs = [_one_restart(target, s, max_iter) for s in seeds]
    out = SynthesisResult(samples=[], losses=[], initial_losses=[], iterations=[], seeds=[])
    for s, (result, f0) in zip(seeds, runs):
        out.samples.append(result.x)
        out.losses.append(result.f)
        out.initial_losses.append(f0)
        out.iterations.append(result.iterations)
        out.seeds.append(s)
        out.loss_curves.append(result.losses)
        out.armijo_fallbacks.append(result.armijo_fallbacks)
        out.stop_reasons.append(result.stop_reason)
    return out
