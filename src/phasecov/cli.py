"""Command-line drivers.

Commands: cov, synth, gauss-fit, gauss-sample, eval, gauss-test, spectrum,
export.  All commands are deterministic given (inputs, config, seed).
Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as pio
from .covariance import estimate_covariance, gaussianity_report, normalize_correlations
from .errors import ConfigError, FormatError, NumericalError
from .evaluation import EvalWindow, correlation_error, correlation_matrix, structure_error
from .gaussian import fit_gaussian_from_field, sample_gaussian, GaussianDualState
from .graph import _require_int, build_foveal_edges
from .grid import MAX_SEED, dft2, radial_power_spectrum, require_seed_range
from .synthesis import build_target, synthesize
from .wavelets import build_bump_bank


def _load_spec(args, side=None):
    if args.config is None:
        raise ConfigError("--config is required for this command")
    cfg = pio.load_config(args.config)
    spec = cfg["spec"]
    if side is not None and 2 ** spec.J > side:
        raise ConfigError(f"2^J = {2 ** spec.J} exceeds the grid side {side}")
    return spec, cfg


def _outdir(args):
    out = Path(args.out if args.out else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _real(x, path, what, error):
    """``x`` as a real array: a complex one whose imaginary part is not
    exactly zero raises ``error``."""
    if not np.iscomplexobj(x):
        return x
    if np.any(x.imag != 0):
        raise error(f"{path}: the {what} must be real, but its imaginary part is not zero")
    return np.ascontiguousarray(x.real)


def _read_real_field(path):
    x = pio.read_field(path)
    if x.ndim != 2:
        raise FormatError(f"{path}: expected a 2D field")
    return _real(x, path, "field", ConfigError)


def cmd_cov(args):
    x = _read_real_field(args.input)
    spec, _ = _load_spec(args, side=x.shape[0])
    bank = build_bump_bank(x.shape[0], spec.J, spec.Q)
    edges = build_foveal_edges(spec)
    if not edges.edges:
        raise ConfigError("the configured edge set is empty")
    table = estimate_covariance(x, edges, spec, bank, source=str(args.input))
    normalized = normalize_correlations(table)
    out = _outdir(args)
    pio.write_table(out / "table.phkt", table)
    pio.write_table(out / "table_normalized.phkt", normalized)
    d = x.size
    summary = [
        f"model {spec.name}: J={spec.J} Q={spec.Q} k=[{spec.k_min},{spec.k_max}]",
        f"edges |E_G| = {len(edges)}",
        f"|E_G|/d = {pio.format_float(len(edges) / d)}",
        f"vertex classes = {len(table.diag)}",
    ]
    text = "\n".join(summary) + "\n"
    (out / "summary.txt").write_text(text)
    sys.stdout.write(text)


def _require_converged(state):
    """Exit 3 (after the caller wrote its outputs) on a failed dual fit."""
    if not state.feasible:
        raise NumericalError("fitted dual state is infeasible")
    if not state.converged:
        raise NumericalError(
            f"Gaussian dual fit did not converge (constraint error {state.constraint_error:.3e})")


def _write_samples(out, samples):
    for i, s in enumerate(samples):
        pio.write_field(out / f"sample_{i:03d}.phkf", s)


def _gauss_fit(x, spec, out):
    """Model A's dual fit to ``x``; writes spectrum.phkf and fit.json."""
    state = fit_gaussian_from_field(x, spec, build_bump_bank(x.shape[0], spec.J, spec.Q))
    pio.write_field(out / "spectrum.phkf", state.spectrum)
    meta = {k: getattr(state, k) for k in ("entropy", "feasible", "converged",
                                           "constraint_error", "side")}
    (out / "fit.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    return state


def cmd_synth(args):
    xbar = _read_real_field(args.input)
    spec, cfg = _load_spec(args, side=xbar.shape[0])
    if args.seed is not None:
        spec.optimizer.seed = args.seed
    if args.restarts is not None:
        spec.optimizer.restarts = args.restarts
    spec.optimizer.validate()
    gaussian = spec.name.upper() == "A"
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    if gaussian and args.threads != 1:
        raise ConfigError("model A runs no restarts: --threads must be 1")
    if gaussian:  # its samples draw seeds seed + i: check them before the fit
        require_seed_range(spec.optimizer.seed, spec.optimizer.restarts)
    out = _outdir(args)
    if gaussian:
        state = _gauss_fit(xbar, spec, out)
        count = spec.optimizer.restarts
        _write_samples(out, sample_gaussian(state, spec.optimizer.seed, count))
        sys.stdout.write(
            f"model A: dual constraint error {state.constraint_error:.3e}, "
            f"{count} samples\n"
        )
        _require_converged(state)
        return
    result = synthesize(xbar, spec, workers=args.threads)
    _write_samples(out, result.samples)
    rows = [
        (i, result.iterations[i], float(result.losses[i]), result.stop_reasons[i],
         result.armijo_fallbacks[i], result.grad_norms[i])
        for i in range(len(result.samples))
    ]
    pio.write_csv(out / "losses.csv", ["restart", "iterations", "loss", "stop_reason",
                                       "armijo_fallbacks", "grad_norm"], rows)
    curves = []
    for i, curve in enumerate(result.loss_curves):
        curves.extend((i, t, float(v)) for t, v in enumerate(curve))
    pio.write_csv(out / "loss_curves.csv", ["restart", "iteration", "loss"], curves)
    best = result.best_index
    (out / "best.txt").write_text(f"sample_{best:03d}.phkf\n")
    sys.stdout.write(
        f"model {spec.name}: best restart {best} loss {result.losses[best]:.6g} "
        f"(initial {result.initial_losses[best]:.6g})\n"
    )


def cmd_gauss_fit(args):
    x = _read_real_field(args.input)
    spec, _ = _load_spec(args, side=x.shape[0])
    state = _gauss_fit(x, spec, _outdir(args))
    sys.stdout.write(
        f"gauss-fit: constraint error {state.constraint_error:.3e} "
        f"(converged={state.converged})\n"
    )
    _require_converged(state)


def cmd_gauss_sample(args):
    seed = args.seed if args.seed is not None else 0
    _require_int("--seed", seed, 0, MAX_SEED)
    _require_int("--count", args.count, 1)
    spectrum = pio.read_field(args.spectrum)
    if spectrum.ndim != 2 or spectrum.shape[0] != spectrum.shape[1]:
        raise FormatError(f"{args.spectrum}: expected a square 2D spectrum, got {spectrum.shape}")
    spectrum = _real(spectrum, args.spectrum, "spectrum", FormatError)
    if np.min(spectrum) < 0:
        raise NumericalError("spectrum file has negative entries")
    state = GaussianDualState(
        betas={}, spectrum=spectrum, entropy=0.0, feasible=True, converged=True,
        constraint_error=0.0, edge_keys=[], side=spectrum.shape[0],
    )
    samples = sample_gaussian(state, seed, args.count)
    _write_samples(_outdir(args), samples)
    sys.stdout.write(f"gauss-sample: wrote {len(samples)} fields\n")


def _read_dir(path):
    files = sorted(Path(path).glob("*.phkf"))
    if not files:
        raise FormatError(f"no .phkf fields in {path}")
    return [_read_real_field(f) for f in files]


def cmd_eval(args):
    refs = _read_dir(args.reference)
    models = _read_dir(args.model)
    side = refs[0].shape[0]
    for f in refs + models:
        if f.shape[0] != side:
            raise ConfigError("mismatched grid sizes between realizations")
    spec, cfg = _load_spec(args, side=side)
    ev = cfg["evaluation"]
    window = EvalWindow(
        k_lo=int(ev.get("k_lo", 0)),
        k_hi=int(ev.get("k_hi", 2)),
        delta_n=int(ev.get("delta_n", 1)),
    )
    bank = build_bump_bank(side, spec.J, spec.Q)
    c_ref, d_ref = correlation_matrix(refs, bank, window)
    c_model, _ = correlation_matrix(models, bank, window, ref_diag=d_ref)
    eps_model = correlation_error(c_ref, c_model)
    c_one, _ = correlation_matrix(refs[0], bank, window, ref_diag=d_ref)
    eps_emp = correlation_error(c_ref, c_one)
    out = _outdir(args)
    j_list = [int(j) for j in ev.get("j_list", [1, 2])]
    q_list = [float(q) for q in ev.get("q_list", [1, 2, 3, 4, 5])]
    rows = [("model", 0, 0.0, float(eps_model), 0.0), ("empirical", 0, 0.0, float(eps_emp), 0.0)]
    for j in j_list:
        for q in q_list:
            rep = structure_error(refs, models, j, q)
            rows.append(("structure", j, q, rep.mean, rep.std))
    pio.write_csv(out / "errors.csv", ["metric", "j", "q", "mean", "std"], rows)
    a_max = int(ev.get("a_max", min(4, side // (2 ** (max(j_list) + 1)) - 1)))
    from .evaluation import long_range_profile

    prows = []
    for k in (0, 1):
        for j in j_list:
            prof = long_range_profile(models, bank, k, j, a_max)
            prows.extend((k, j, a, float(v)) for a, v in enumerate(prof))
    pio.write_csv(out / "profiles.csv", ["k", "j", "a", "value"], prows)
    sys.stdout.write(
        f"eval: eps_model={eps_model:.4g} eps_emp={eps_emp:.4g} (window k_lo={window.k_lo} "
        f"k_hi={window.k_hi} delta_n={window.delta_n}, |V|={len(c_ref)})\n")


def cmd_gauss_test(args):
    x = _read_real_field(args.input)
    spec, _ = _load_spec(args, side=x.shape[0])
    bank = build_bump_bank(x.shape[0], spec.J, spec.Q)
    report = gaussianity_report(x, bank)
    lines = []
    for ch in sorted(report.ratios, key=str):
        verdict = "NON-GAUSSIAN (sparse)" if report.flags[ch] else "consistent with Gaussian"
        lines.append(f"channel {ch}: ratio {report.ratios[ch]:.4f} ({verdict})")
    for (desc, val, se) in report.cross:
        lines.append(f"cross {desc}: {val.real:+.4e}{val.imag:+.4e}j")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        (Path(_outdir(args)) / "gauss_test.txt").write_text(text)


def cmd_spectrum(args):
    fields = [_read_real_field(p) for p in args.inputs]
    radii, log_power = radial_power_spectrum([dft2(f) for f in fields])
    out = _outdir(args)
    rows = list(zip((int(r) for r in radii), (float(v) for v in log_power)))
    pio.write_csv(out / "spectrum.csv", ["radius", "log10_power"], rows)
    sys.stdout.write(f"spectrum: {len(radii)} radial bins\n")


def cmd_export(args):
    x = _read_real_field(args.input)
    out = args.out if args.out else str(args.input) + ".pgm"
    pio.export_pgm(x, out)
    sys.stdout.write(f"export: wrote {out} (+ sidecar)\n")


def build_parser():
    p = argparse.ArgumentParser(prog="phasecov", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary, config=True, seed=False):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        if config:
            sp.add_argument("--config", type=str, default=None, help="JSON run configuration")
        if seed:
            sp.add_argument("--seed", type=int, default=None, help="64-bit seed override")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        return sp

    sp = command("cov", cmd_cov, "estimate covariance tables")
    sp.add_argument("input")

    sp = command("synth", cmd_synth, "synthesize model samples", seed=True)
    sp.add_argument("input")
    sp.add_argument("--threads", type=int, default=1, help="worker processes for restarts")
    sp.add_argument("--restarts", type=int, default=None)

    sp = command("gauss-fit", cmd_gauss_fit, "fit the maximum-entropy Gaussian dual")
    sp.add_argument("input")

    sp = command("gauss-sample", cmd_gauss_sample, "sample a fitted Gaussian spectrum",
                 config=False, seed=True)
    sp.add_argument("spectrum")
    sp.add_argument("--count", type=int, default=10)

    sp = command("eval", cmd_eval, "model error metrics")
    sp.add_argument("reference", help="directory of reference .phkf fields")
    sp.add_argument("model", help="directory of model .phkf fields")

    sp = command("gauss-test", cmd_gauss_test, "Gaussianity diagnostics")
    sp.add_argument("input")

    sp = command("spectrum", cmd_spectrum, "radial power spectrum CSV", config=False)
    sp.add_argument("inputs", nargs="+")

    sp = command("export", cmd_export, "export a field as 16-bit PGM", config=False)
    sp.add_argument("input")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
