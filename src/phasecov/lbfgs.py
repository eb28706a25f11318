"""Limited-memory BFGS with a strong Wolfe line search.

Two-loop recursion over at most ``memory`` curvature pairs, standard
gamma = (s.y)/(y.y) initial Hessian scaling, and the bracket/zoom line
search of the classical strong Wolfe conditions

    f(x + a d) <= f(x) + c1 a g.d      |g(x + a d).d| <= c2 |g.d|

with cubic interpolation.  When the zoom cannot find a strong Wolfe point
(for instance near kinks of a piecewise-smooth objective) the search backs
off to the best sufficient-decrease step found and the event is counted in
``result.armijo_fallbacks``.

Every update uses only inner products and scalar comparisons, so the
iteration commutes with any linear unitary symmetry of the objective.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LbfgsResult:
    x: np.ndarray
    f: float
    grad_norm: float
    iterations: int
    converged: bool
    losses: list = field(default_factory=list)
    armijo_fallbacks: int = 0
    stop_reason: str = ""


def _dot(a, b):
    return float(np.real(np.vdot(a, b)))


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic interpolant on [a, b]; None if degenerate."""
    with np.errstate(all="ignore"):
        d1 = da + db - 3 * (fa - fb) / (a - b)
        disc = d1 * d1 - da * db
        if disc < 0 or not np.isfinite(disc):
            return None
        d2 = np.sign(b - a) * np.sqrt(disc)
        denom = db - da + 2 * d2
        if denom == 0 or not np.isfinite(denom):
            return None
        t = b - (b - a) * (db + d2 - d1) / denom
    if not np.isfinite(t):
        return None
    return t


def _zoom(phi, lo, f_lo, d_lo, hi, f_hi, d_hi, f0, d0, c1, c2, max_zoom=30):
    """Nocedal-Wright zoom; returns (alpha, f, g, dphi, ok)."""
    for _ in range(max_zoom):
        a = _cubic_min(lo, f_lo, d_lo, hi, f_hi, d_hi)
        width = abs(hi - lo)
        inner = (min(lo, hi) + 0.1 * width, max(lo, hi) - 0.1 * width)
        if a is None or not (inner[0] <= a <= inner[1]):
            a = 0.5 * (lo + hi)
        f_a, g_a, d_a = phi(a)
        if f_a > f0 + c1 * a * d0 or f_a >= f_lo:
            hi, f_hi, d_hi = a, f_a, d_a
        else:
            if abs(d_a) <= -c2 * d0:
                return a, f_a, g_a, d_a, True
            if d_a * (hi - lo) >= 0:
                hi, f_hi, d_hi = lo, f_lo, d_lo
            lo, f_lo, d_lo = a, f_a, d_a
        if abs(hi - lo) < 1e-16 * max(1.0, abs(lo)):
            break
    # fall back to the best sufficient-decrease point seen
    f_a, g_a, d_a = phi(lo)
    return lo, f_a, g_a, d_a, False


def strong_wolfe(fun_grad, x, f0, g0, direction, c1=1e-4, c2=0.9, alpha0=1.0,
                 max_expand=20):
    """Strong Wolfe line search along ``direction`` from ``x``.

    Returns (alpha, f, g, wolfe_ok); ``wolfe_ok`` False marks an Armijo-only
    fallback step.
    """
    d0 = _dot(g0, direction)
    cache = {}

    def phi(a):
        if a not in cache:
            fa, ga = fun_grad(x + a * direction)
            cache[a] = (fa, ga, _dot(ga, direction))
        return cache[a]

    a_prev, f_prev, d_prev = 0.0, f0, d0
    a = alpha0
    for _ in range(max_expand):
        f_a, g_a, d_a = phi(a)
        if not np.isfinite(f_a):
            # infeasible region: shrink hard toward the last good point
            a = a_prev + 0.25 * (a - a_prev)
            continue
        if f_a > f0 + c1 * a * d0 or (f_a >= f_prev and a_prev > 0.0):
            alo, flo, dlo = (a_prev, f_prev, d_prev)
            a_z, f_z, g_z, _dz, ok = _zoom(phi, alo, flo, dlo, a, f_a, d_a, f0, d0, c1, c2)
            return a_z, f_z, g_z, ok
        if abs(d_a) <= -c2 * d0:
            return a, f_a, g_a, True
        if d_a >= 0:
            a_z, f_z, g_z, _dz, ok = _zoom(phi, a, f_a, d_a, a_prev, f_prev, d_prev, f0, d0, c1, c2)
            return a_z, f_z, g_z, ok
        a_prev, f_prev, d_prev = a, f_a, d_a
        a = 2.0 * a
    f_a, g_a, _ = phi(a_prev) if a_prev > 0 else (f0, g0, d0)
    return a_prev, f_a, g_a, False


def lbfgs_minimize(fun_grad, x0, memory=10, c1=1e-4, c2=0.9, gtol=1e-8,
                   max_iter=1000, f_target=None, callback=None):
    """Minimize ``fun_grad`` (returning (f, grad)) from ``x0``.

    Stops on gradient infinity-norm below ``gtol``, on ``f_target`` reached,
    on ``max_iter``, or on a failed line search (best iterate returned with
    ``stop_reason`` set).
    """
    x = np.array(x0, dtype=float, copy=True)
    f, g = fun_grad(x)
    s_list, y_list, rho_list = [], [], []
    losses = [f]
    fallbacks = 0
    if callback is not None:
        callback(0, x, f, g)
    for it in range(1, max_iter + 1):
        gnorm = float(np.max(np.abs(g)))
        if gnorm < gtol:
            return LbfgsResult(x, f, gnorm, it - 1, True, losses, fallbacks, "gtol")
        if f_target is not None and f <= f_target:
            return LbfgsResult(x, f, gnorm, it - 1, True, losses, fallbacks, "f_target")
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
            a = rho * _dot(s, q)
            alphas.append(a)
            q -= a * y
        if s_list:
            s, y = s_list[-1], y_list[-1]
            q *= _dot(s, y) / _dot(y, y)
        for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
            b = rho * _dot(y, q)
            q += (a - b) * s
        direction = -q
        d0 = _dot(g, direction)
        if d0 >= 0:  # not a descent direction; restart from steepest descent
            direction = -g
            d0 = _dot(g, direction)
            s_list, y_list, rho_list = [], [], []
        alpha0 = 1.0 if s_list else min(1.0, 1.0 / max(1e-12, float(np.sum(np.abs(g)))))
        alpha, f_new, g_new, ok = strong_wolfe(fun_grad, x, f, g, direction, c1, c2, alpha0)
        if not ok:
            fallbacks += 1
        if alpha == 0.0 or not np.isfinite(f_new) or f_new > f:
            gnorm = float(np.max(np.abs(g)))
            return LbfgsResult(x, f, gnorm, it - 1, False, losses, fallbacks, "line_search_failure")
        s = alpha * direction
        y = g_new - g
        sy = _dot(s, y)
        if sy > 0:  # curvature safeguard
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        x = x + s
        f, g = f_new, g_new
        losses.append(f)
        if callback is not None:
            callback(it, x, f, g)
    gnorm = float(np.max(np.abs(g)))
    return LbfgsResult(x, f, gnorm, max_iter, False, losses, fallbacks, "max_iter")
