"""Reproducible experiment driver.

Usage: ``bayescomplex <subcommand> [--config FILE] [--seed U64] [--workers N]
[--out PATH] [key=value ...]``.

Config files are flat ``key = value`` text ('#' starts a comment); CLI
key=value pairs override file values, and the dedicated flags override both.
A value is read as the type of its key's default in ``SCHEMAS``: an int, a
float, a comma-separated list of floats, or a string.
Unknown keys are rejected with the offending line number. Every run echoes
its full resolved configuration as sorted ``# key=value`` header lines above
a single CSV table; floats are written with 17 significant digits so output
is byte-identical across runs with the same (config, seed, workers).

``--workers N`` splits each estimator's sample budget into N independent
Philox streams and runs them on up to min(N, CPUs) threads; every stream
owns its generator and partial results are reduced in stream order, so the
bytes depend on (config, seed, workers), never on the thread count or the
scheduling. Only ``linear_complexity``, ``nn_complexity``, ``codim`` and
``one_change`` sample in streams; the other subcommands echo ``workers``
and ignore it.

Exit codes: 0 all checks passed, 1 a result check failed (the CSV is still
written first), 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .complexity import (
    chi_from_q,
    codim_estimate,
    limiting_complexity,
    limiting_complexity_closed_form,
    one_change_bounds,
    sharp_complexity_mc_grid,
)
from .errors import CheckFailure, ConfigError, NumericalError
from .families import (
    LinearFamily,
    LinearPriorSpec,
    LinearTarget,
    NnPriorSpec,
    ShallowNetFamily,
)
from .models import (
    BasisSpec,
    ShallowNetParams,
    build_periodic_deep_net,
    interior_knot_count,
    shallow_to_pwl,
)
from .posterior import (
    GaussianPosterior,
    LossSpec,
    SgldConfig,
    batch_means_se,
    conjugate_empirical_loss,
    conjugate_posterior_linear,
    conjugate_true_loss,
    find_sigma_alg,
    generate_dataset,
    kl_gaussians,
    pac_bayes_rhs,
    run_sgld,
    theorem_bound,
)
from .projection import ProjectionResult, project_to_zero
from .pwl import PwlFunction, l2_norm_sq, periodize
from .rng import SeededRng


# --------------------------------------------------------------------------
# Config schema and parsing
# --------------------------------------------------------------------------


_COMMON_SCHEMA = {
    "seed": 42,
    "workers": 1,
    "out": "",
}

_LINEAR_GRID = (0.1, 0.03162277660168379, 0.01, 0.0031622776601683794, 0.001)

# The target and network-prior keys nn_complexity and codim share.
_NET_TARGET_SCHEMA = {
    "k": 1,
    "target_locs": (0.35,),
    "target_slopes": (1.0,),
    "target_bias": 0.0,
    "sigma_w_sq": 0.0,
    "M": 0.0,
    "sigma_b_sq": 1.0,
}

SCHEMAS: dict[str, dict[str, object]] = {
    "linear_complexity": {
        "d": 3,
        "kappa": 1.0,
        "sigma_w": 1.0,
        "perp_sq": 0.0,
        "eps_grid": _LINEAR_GRID,
        "mc_samples": 400_000,
        "slope_rel_tol": 0.1,
    },
    "nn_complexity": {
        **_NET_TARGET_SCHEMA,
        # The coarsest default point (eps = 0.3) sits in the pre-asymptotic
        # regime where the hit probability still carries strong curvature in
        # ln eps; the slope is read off the remaining window.
        "eps_grid": (0.2, 0.14, 0.1, 0.07, 0.05),
        "n_per_eps": 400_000,
        "cloud_width": 3.0,
    },
    "codim": {
        **_NET_TARGET_SCHEMA,
        "eps_grid": (),
        "radius": 0.0,
        "n_samples": 1_000_000,
        "tolerance": 0.5,
    },
    "one_change": {
        "a": 0.6,
        "b": 0.6,
        "t": 0.5,
        "k": 8,
        "sigma_w_sq": 0.125,
        "M": 8.0,
        "sigma_b_sq": 1.0,
        "eps": 0.1,
        "n_samples": 200_000,
        "cloud_width": 3.0,
    },
    "periodic": {
        "l": 8,
        "target_locs": (0.0, 0.5),
        "target_slopes": (2.0, -4.0),
        "target_bias": 0.0,
        "n_grid": 10_000,
        "sup_tol": 1e-9,
    },
    "pacbayes": {
        "d": 3,
        "N": 200,
        "sigma_e_sq": 0.01,
        "clip_C": 4.0,
        "beta": 1.0,
        "n_trials": 50,
        "sigma_w_sq": 1.0,
        "tol": 1e-3,
        "n_replicas": 32,
        "target_w": (),
    },
    "sgld_check": {
        "d": 1,
        "N": 20,
        "sigma_e_sq": 0.04,
        "sigma_y_sq": 0.04,
        "sigma_w_sq": 1.0,
        "target_w": (0.8,),
        "eta": 3e-4,
        "steps": 205_000,
        "burn_in": 5_000,
        "thin": 20,
        "map_eta": 0.05,
        "map_steps": 4_000,
        "var_rel_tol": 0.1,
        "map_tol": 1e-6,
    },
    "projection_check": {
        "k": 3,
        "n_trials": 200,
        "norm_frac_lo": 0.1,
        "norm_frac_hi": 0.9,
    },
}


def _coerce(key: str, raw: str, default, line: int | None = None):
    """raw read as the type of key's default: an int, a float, a
    comma-separated tuple of floats (empty for an empty value), or a str."""
    try:
        if isinstance(default, tuple):
            raw = raw.strip()
            return tuple(float(part) for part in raw.split(",")) if raw else ()
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {raw!r} ({exc})", line=line) from exc


def _strip_quotes(raw: str) -> str:
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in ("'", '"'):
        return raw[1:-1]
    return raw


def _setting(text: str, schema: dict, expected: str, line: int | None = None) -> tuple:
    """(key, value) of one 'key=value' text, the value coerced to the type
    of the key's default; a ConfigError names ``expected`` when text has no
    '=', and rejects a key the schema does not have."""
    if "=" not in text:
        raise ConfigError(f"expected {expected}, got {text!r}", line=line)
    key, _, raw = text.partition("=")
    key = key.strip()
    if key not in schema:
        raise ConfigError(f"unknown config key {key!r}", line=line)
    return key, _coerce(key, _strip_quotes(raw.strip()), schema[key], line=line)


def parse_config_text(text: str, schema: dict) -> dict:
    """Flat key = value lines; '#' comments; unknown keys rejected with the
    line number."""
    updates: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            key, value = _setting(stripped, schema, "'key = value'", line=lineno)
            updates[key] = value
    return updates


def parse_pairs(pairs: list[str], schema: dict) -> dict:
    return dict(_setting(pair, schema, "key=value") for pair in pairs)


def resolve_config(args: argparse.Namespace) -> dict:
    schema = {**SCHEMAS[args.subcommand], **_COMMON_SCHEMA}
    cfg = dict(schema)
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        cfg.update(parse_config_text(path.read_text(), schema))
    cfg.update(parse_pairs(args.pairs, schema))
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.workers is not None:
        cfg["workers"] = args.workers
    if args.out is not None:
        cfg["out"] = args.out
    if cfg["seed"] < 0 or cfg["seed"] >= 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {cfg['seed']}")
    if cfg["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg['workers']}")
    return cfg


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------


def _fmt_float(v: float) -> str:
    return format(float(v), ".17g")


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _fmt_cfg_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(_fmt_float(x) for x in v)
    return _fmt_cell(v)


@dataclass(frozen=True)
class CsvReport:
    """One experiment's tabular output plus its failed-check messages. Each
    row maps column names to values; a column a row leaves out is empty."""

    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    failures: tuple[str, ...] = ()


def render_csv(cfg: dict, columns: tuple[str, ...], rows: list[dict]) -> str:
    lines = [f"# {key}={_fmt_cfg_value(cfg[key])}" for key in sorted(cfg)]
    lines.append(",".join(columns))
    for row in rows:
        unknown = row.keys() - set(columns)
        if unknown:
            raise NumericalError(f"internal: row keys {sorted(unknown)} are not columns")
        lines.append(",".join(_fmt_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def emit_report(cfg: dict, columns: tuple[str, ...], rows: list[dict]) -> None:
    text = render_csv(cfg, columns, rows)
    out = cfg.get("out", "")
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# Shared target plumbing
# --------------------------------------------------------------------------


def _pwl_target(cfg: dict) -> PwlFunction:
    locs = cfg["target_locs"]
    slopes = cfg["target_slopes"]
    if len(locs) != len(slopes):
        raise ConfigError(
            f"target_locs has {len(locs)} entries but target_slopes has {len(slopes)}"
        )
    return PwlFunction(bias=cfg["target_bias"], knots=tuple(zip(locs, slopes)))


def _nn_prior(cfg: dict, k: int) -> NnPriorSpec:
    """The network prior; a value of exactly 0 means NnPriorSpec.default_for(k)'s,
    and every other value goes to NnPriorSpec's checks."""
    base = NnPriorSpec.default_for(k)
    return NnPriorSpec(**{
        key: getattr(base, key) if cfg[key] == 0 else cfg[key]
        for key in ("sigma_w_sq", "M", "sigma_b_sq")
    })


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _at_least(cfg: dict, key: str, least: int) -> int:
    """cfg[key], or a ConfigError when it is below ``least``."""
    if cfg[key] < least:
        raise ConfigError(f"{key} must be >= {least}, got {cfg[key]}")
    return cfg[key]


def cmd_linear_complexity(cfg: dict) -> CsvReport:
    rng = SeededRng(cfg["seed"])
    d, kappa, sigma_w = cfg["d"], cfg["kappa"], cfg["sigma_w"]
    grid = cfg["eps_grid"]
    fit = limiting_complexity_closed_form(kappa, sigma_w, d, grid, cfg["perp_sq"])
    family = LinearFamily(BasisSpec(d=d), LinearPriorSpec(sigma_w * sigma_w))
    target = LinearTarget(w=(kappa,) + (0.0,) * (d - 1), perp_sq=cfg["perp_sq"])
    columns = (
        "row", "eps", "chi_closed", "chi_mc", "std_err", "n_hits", "n_samples",
        "seed", "zero_hits", "mc_consistent", "slope", "slope_ci", "slope_target",
        "offset_measured", "offset_claimed", "passed",
    )
    rows: list[dict] = []
    failures: list[str] = []
    per_mc = sharp_complexity_mc_grid(
        family, target, [eps * eps for eps in fit.eps_grid], cfg["mc_samples"],
        rng.stream(10), workers=cfg["workers"],
    )
    for eps, est, mc in zip(fit.eps_grid, fit.per_eps, per_mc):
        consistent = None
        if not mc.zero_hits and mc.n_hits >= 100 and math.isfinite(est.chi):
            consistent = abs(mc.chi - est.chi) <= 3.0 * mc.std_err
            if not consistent:
                failures.append(
                    f"MC cross-check failed at eps={eps:g}: "
                    f"closed form {est.chi:.6g} vs MC {mc.chi:.6g} "
                    f"(3 SE = {3.0 * mc.std_err:.3g})"
                )
        rows.append({
            "row": "point", "eps": eps, "chi_closed": est.chi, "chi_mc": mc.chi,
            "std_err": mc.std_err, "n_hits": mc.n_hits, "n_samples": mc.n_samples,
            "seed": cfg["seed"], "zero_hits": mc.zero_hits, "mc_consistent": consistent,
        })
    slope_ok = abs(fit.slope - d) <= cfg["slope_rel_tol"] * d
    # Offset of the kappa-target complexity against the rescaled unit-target
    # one at the finest radius. The exact scaling identity makes the measured
    # value 0; the claimed column carries the -ln(kappa) folklore value for
    # comparison in reports.
    offset_measured = None
    offset_claimed = None
    if kappa > 0 and grid[-1] / kappa <= 1.0:
        rescaled = chi_from_q(1.0, sigma_w / kappa, (grid[-1] / kappa) ** 2, d)
        offset_measured = fit.per_eps[-1].chi - rescaled.chi
        offset_claimed = -math.log(kappa)
    rows.append({
        "row": "fit", "seed": cfg["seed"], "slope": fit.slope,
        "slope_ci": fit.ci_halfwidth, "slope_target": float(d),
        "offset_measured": offset_measured, "offset_claimed": offset_claimed,
        "passed": slope_ok,
    })
    if not slope_ok:
        failures.append(
            f"fitted slope {fit.slope:.4f} deviates from d={d} by more than "
            f"{100 * cfg['slope_rel_tol']:.0f}%"
        )
    return CsvReport(columns, rows, tuple(failures))


def cmd_nn_complexity(cfg: dict) -> CsvReport:
    rng = SeededRng(cfg["seed"])
    k = cfg["k"]
    g = _pwl_target(cfg)
    c = len(g.knots)
    prior = _nn_prior(cfg, k)
    family = ShallowNetFamily(k, prior)
    fit = limiting_complexity(
        family, g, cfg["eps_grid"], cfg["n_per_eps"], rng,
        cloud_width=cfg["cloud_width"], workers=cfg["workers"],
    )
    lower = (2 * c + 1) / 5.0
    upper = float(2 * c + 1)
    passed = lower - fit.ci_halfwidth <= fit.slope <= upper + fit.ci_halfwidth
    columns = (
        "row", "eps", "chi", "log_prob", "std_err", "n_hits", "n_samples", "seed",
        "zero_hits", "slope", "slope_ci", "lower", "upper", "passed",
    )
    rows = [
        {
            "row": "point", "eps": eps, "chi": est.chi, "log_prob": -est.chi,
            "std_err": est.std_err, "n_hits": est.n_hits, "n_samples": est.n_samples,
            "seed": cfg["seed"], "zero_hits": est.zero_hits,
        }
        for eps, est in zip(fit.eps_grid, fit.per_eps)
    ]
    rows.append({
        "row": "fit", "seed": cfg["seed"], "slope": fit.slope,
        "slope_ci": fit.ci_halfwidth, "lower": lower, "upper": upper, "passed": passed,
    })
    failures = []
    if not passed:
        failures.append(
            f"fitted slope {fit.slope:.4f} (CI {fit.ci_halfwidth:.4f}) outside "
            f"[{lower:.3f}, {upper:.3f}]"
        )
    return CsvReport(columns, rows, tuple(failures))


def cmd_codim(cfg: dict) -> CsvReport:
    rng = SeededRng(cfg["seed"])
    k = cfg["k"]
    g = _pwl_target(cfg)
    c = len(g.knots)
    prior = _nn_prior(cfg, k)
    fit = codim_estimate(
        g, k, prior, cfg["n_samples"], rng,
        eps_grid=cfg["eps_grid"] if cfg["eps_grid"] else None,
        radius=None if cfg["radius"] == 0 else cfg["radius"],
        workers=cfg["workers"],
    )
    target = float(2 * c + 1)
    passed = abs(fit.slope - target) <= cfg["tolerance"]
    columns = (
        "row", "eps", "log_vol_frac", "std_err", "n_hits", "n_samples", "seed",
        "slope", "slope_ci", "codim_target", "tolerance", "note", "passed",
    )
    rows = [
        {
            "row": "point", "eps": eps, "log_vol_frac": -est.chi,
            "std_err": est.std_err, "n_hits": est.n_hits, "n_samples": est.n_samples,
            "seed": cfg["seed"], "note": fit.note,
        }
        for eps, est in zip(fit.eps_grid, fit.per_eps)
    ]
    rows.append({
        "row": "fit", "seed": cfg["seed"], "slope": fit.slope,
        "slope_ci": fit.ci_halfwidth, "codim_target": target,
        "tolerance": cfg["tolerance"], "note": fit.note, "passed": passed,
    })
    failures = []
    if not passed:
        failures.append(
            f"codimension slope {fit.slope:.4f} outside {target:g} +/- {cfg['tolerance']:g}"
        )
    return CsvReport(columns, rows, tuple(failures))


def cmd_one_change(cfg: dict) -> CsvReport:
    rng = SeededRng(cfg["seed"])
    prior = NnPriorSpec(
        sigma_w_sq=cfg["sigma_w_sq"], M=cfg["M"], sigma_b_sq=cfg["sigma_b_sq"]
    )
    res = one_change_bounds(
        cfg["a"], cfg["b"], cfg["t"], cfg["k"], prior, cfg["eps"],
        n=cfg["n_samples"], rng=rng, cloud_width=cfg["cloud_width"],
        workers=cfg["workers"],
    )
    est = res.chi_hat
    within = None
    failures: list[str] = []
    if est.zero_hits:
        failures.append(
            f"no hits in {est.n_samples} samples; chi_hat is only a lower bound "
            f"{est.chi:.4g}"
        )
    else:
        within = (
            res.lower - 3.0 * est.std_err <= est.chi <= res.upper + 3.0 * est.std_err
        )
        if not within:
            failures.append(
                f"chi_hat {est.chi:.4f} outside [{res.lower:.4f}, {res.upper:.4f}] "
                f"within 3 SE ({3.0 * est.std_err:.4f})"
            )
    if res.violated:
        failures.append("assumption checks violated: " + ";".join(res.violated))
    passed = not failures
    columns = (
        "a", "b", "t", "k", "eps", "chi_hat", "std_err", "n_hits", "n_samples",
        "seed", "zero_hits", "lower", "upper", "assumptions_ok", "violated",
        "within_bounds", "passed",
    )
    rows = [{
        "a": cfg["a"], "b": cfg["b"], "t": cfg["t"], "k": cfg["k"], "eps": cfg["eps"],
        "chi_hat": est.chi, "std_err": est.std_err, "n_hits": est.n_hits,
        "n_samples": est.n_samples, "seed": cfg["seed"], "zero_hits": est.zero_hits,
        "lower": res.lower, "upper": res.upper, "assumptions_ok": not res.violated,
        "violated": ";".join(res.violated), "within_bounds": within, "passed": passed,
    }]
    return CsvReport(columns, rows, tuple(failures))


# Grid points per slice of periodic's sup check: the deep net's activations
# stay this many rows whatever n_grid is.
_SUP_SLICE = 1024


def cmd_periodic(cfg: dict) -> CsvReport:
    g0 = _pwl_target(cfg)
    l = cfg["l"]
    net, deep_count = build_periodic_deep_net(g0, l)
    tiled = periodize(g0, l)
    # n_grid >= 2 puts both ends on the grid.
    xs = np.linspace(0.0, float(l), _at_least(cfg, "n_grid", 2))
    sup_err = float(np.max([
        np.max(np.abs(net.forward(part) - tiled(part)))
        for part in np.split(xs, np.arange(_SUP_SLICE, xs.size, _SUP_SLICE))
    ]))
    m = interior_knot_count(g0)
    deep_bound = 4 * l + 2 * m + 6
    shallow_count = 2 * (l * (m + 2)) + 1
    passed = sup_err < cfg["sup_tol"] and deep_count <= deep_bound < shallow_count
    columns = (
        "l", "m", "deep_count", "deep_bound", "shallow_count", "sup_err",
        "sup_tol", "passed",
    )
    rows = [{
        "l": l, "m": m, "deep_count": deep_count, "deep_bound": deep_bound,
        "shallow_count": shallow_count, "sup_err": sup_err, "sup_tol": cfg["sup_tol"],
        "passed": passed,
    }]
    failures = []
    if sup_err >= cfg["sup_tol"]:
        failures.append(f"sup error {sup_err:.3g} >= {cfg['sup_tol']:g}")
    if not deep_count <= deep_bound < shallow_count:
        failures.append(
            f"parameter counts violate deep {deep_count} <= bound {deep_bound} "
            f"< shallow {shallow_count}"
        )
    return CsvReport(columns, rows, tuple(failures))


def cmd_pacbayes(cfg: dict) -> CsvReport:
    rng = SeededRng(cfg["seed"])
    d, N = cfg["d"], cfg["N"]
    n_trials = _at_least(cfg, "n_trials", 2)  # one trial has no standard error
    n_replicas = _at_least(cfg, "n_replicas", 1)
    sigma_e_sq, beta, C = cfg["sigma_e_sq"], cfg["beta"], cfg["clip_C"]
    basis = BasisSpec(d=d)
    prior = LinearPriorSpec(cfg["sigma_w_sq"])
    family = LinearFamily(basis, prior)
    if cfg["target_w"]:
        if len(cfg["target_w"]) != d:
            raise ConfigError(f"target_w must have d={d} entries")
        w = cfg["target_w"]
    else:
        w = family.sample_matrix(1, rng.stream(0).generator())[0]
    target = LinearTarget(w=tuple(w))
    loss_spec = LossSpec(clip_C=C)

    def make_dataset(r: SeededRng):
        return generate_dataset(w, basis, N, sigma_e_sq, r)

    # search_ls is the achieved search objective: the expected empirical loss
    # over the fixed replica set the bisection calibrated on.
    sigma_alg_sq, search_ls = find_sigma_alg(
        beta, sigma_e_sq, make_dataset, family, cfg["tol"], rng.stream(1),
        loss_spec=loss_spec, n_replicas=n_replicas,
    )
    prior_gauss = GaussianPosterior(np.zeros(d), cfg["sigma_w_sq"] * np.eye(d))
    chi_sharp = chi_from_q(
        target.kappa, math.sqrt(cfg["sigma_w_sq"]), beta * sigma_e_sq, d
    ).chi
    thm = theorem_bound(sigma_e_sq, beta, chi_sharp, N, C)
    columns = (
        "row", "L_S", "L_D", "kl", "pac_rhs", "pac_holds", "sigma_alg_sq",
        "L_S_search", "chi_sharp", "theorem_rhs", "std_err", "n_samples", "seed",
        "passed",
    )
    rows: list[dict] = []
    datasets = [make_dataset(rng.stream(200 + trial)) for trial in range(n_trials)]
    posts = [conjugate_posterior_linear(S, prior, sigma_alg_sq) for S in datasets]
    ls_vals = conjugate_empirical_loss(list(zip(datasets, posts)), loss_spec)
    ld_vals = conjugate_true_loss(posts, target, basis, sigma_e_sq, loss_spec)
    for trial, (post, L_S, L_D) in enumerate(zip(posts, ls_vals, ld_vals)):
        kl = kl_gaussians(post, prior_gauss)
        rhs = pac_bayes_rhs(L_S, kl, N, C)
        rows.append({
            "row": str(trial), "L_S": L_S, "L_D": L_D, "kl": kl, "pac_rhs": rhs,
            "pac_holds": L_D <= rhs, "seed": cfg["seed"],
        })
    pac_flags = [row["pac_holds"] for row in rows]
    mean_ls = float(np.mean(ls_vals))
    mean_ld = float(np.mean(ld_vals))
    se_ld = float(np.std(ld_vals) / math.sqrt(len(ld_vals)))
    failures = []
    if not all(pac_flags):
        bad = sum(1 for f in pac_flags if not f)
        failures.append(f"PAC-Bayes bound violated in {bad} of {len(pac_flags)} trials")
    theorem_ok = mean_ld <= thm + 3.0 * se_ld
    if not theorem_ok:
        failures.append(
            f"mean L_D {mean_ld:.6g} exceeds theorem bound {thm:.6g} + 3 SE "
            f"({3.0 * se_ld:.3g})"
        )
    target_loss = (1.0 + beta) * sigma_e_sq
    ls_ok = abs(search_ls - target_loss) <= cfg["tol"]
    if not ls_ok:
        failures.append(
            f"calibrated L_S {search_ls:.6g} misses target {target_loss:.6g} "
            f"by more than {cfg['tol']:g}"
        )
    passed = not failures
    rows.append({
        "row": "summary", "L_S": mean_ls, "L_D": mean_ld, "pac_holds": all(pac_flags),
        "sigma_alg_sq": sigma_alg_sq, "L_S_search": search_ls, "chi_sharp": chi_sharp,
        "theorem_rhs": thm, "std_err": se_ld, "n_samples": n_trials,
        "seed": cfg["seed"], "passed": passed,
    })
    return CsvReport(columns, rows, tuple(failures))


def cmd_sgld_check(cfg: dict) -> CsvReport:
    rng = SeededRng(cfg["seed"])
    d, N = cfg["d"], cfg["N"]
    basis = BasisSpec(d=d)
    prior = LinearPriorSpec(cfg["sigma_w_sq"])
    family = LinearFamily(basis, prior)
    if len(cfg["target_w"]) != d:
        raise ConfigError(f"target_w must have d={d} entries")
    S = generate_dataset(cfg["target_w"], basis, N, cfg["sigma_e_sq"], rng.stream(0))
    post = conjugate_posterior_linear(S, prior, cfg["sigma_y_sq"])
    chain_cfg = SgldConfig(
        eta=cfg["eta"], steps=cfg["steps"], burn_in=cfg["burn_in"],
        thin=cfg["thin"], sigma_y_sq=cfg["sigma_y_sq"],
    )
    draws = run_sgld(S, family, chain_cfg, rng.stream(1))
    map_cfg = SgldConfig(
        eta=cfg["map_eta"], steps=cfg["map_steps"], burn_in=cfg["map_steps"] - 1,
        thin=1, sigma_y_sq=cfg["sigma_y_sq"],
    )
    map_theta = run_sgld(S, family, map_cfg, rng.stream(2), inject_noise=False)[-1]
    columns = (
        "row", "exact_mean", "sgld_mean", "mean_se", "mean_ok", "exact_var",
        "sgld_var", "var_ratio", "var_ok", "map_value", "map_exact", "map_abs_err",
        "map_ok", "n_samples", "seed", "passed",
    )
    rows: list[dict] = []
    failures: list[str] = []
    for i in range(d):
        exact_mean = float(post.mean[i])
        exact_var = float(post.covariance[i, i])
        chain = draws[:, i]
        se = batch_means_se(chain)
        mean_ok = abs(float(chain.mean()) - exact_mean) <= 3.0 * se
        ratio = float(chain.var()) / exact_var
        var_ok = abs(ratio - 1.0) <= cfg["var_rel_tol"]
        map_err = abs(float(map_theta[i]) - exact_mean)
        map_ok = map_err <= cfg["map_tol"]
        if not mean_ok:
            failures.append(
                f"coordinate {i}: chain mean {chain.mean():.6g} vs exact "
                f"{exact_mean:.6g} beyond 3 SE ({3.0 * se:.3g})"
            )
        if not var_ok:
            failures.append(
                f"coordinate {i}: variance ratio {ratio:.4f} outside "
                f"1 +/- {cfg['var_rel_tol']:g}"
            )
        if not map_ok:
            failures.append(
                f"coordinate {i}: MAP error {map_err:.3g} exceeds {cfg['map_tol']:g}"
            )
        rows.append({
            "row": str(i), "exact_mean": exact_mean, "sgld_mean": float(chain.mean()),
            "mean_se": se, "mean_ok": mean_ok, "exact_var": exact_var,
            "sgld_var": float(chain.var()), "var_ratio": ratio, "var_ok": var_ok,
            "map_value": float(map_theta[i]), "map_exact": exact_mean,
            "map_abs_err": map_err, "map_ok": map_ok, "n_samples": draws.shape[0],
            "seed": cfg["seed"],
        })
    passed = not failures
    rows.append({
        "row": "summary", "n_samples": draws.shape[0], "seed": cfg["seed"],
        "passed": passed,
    })
    return CsvReport(columns, rows, tuple(failures))


def _random_admissible_theta(k: int, frac: float, gen: np.random.Generator) -> ShallowNetParams:
    threshold = 1.0 / (12.0 * (k + 1) ** 5)
    # |u_i| >= 1e-3 keeps every node active.
    u = [1e-3 if abs(x) < 1e-3 else x for x in gen.standard_normal(k).tolist()]
    b = tuple(gen.uniform(0.0, 1.0, size=k).tolist())

    def split(u: list[float]) -> ShallowNetParams:
        w1 = [math.sqrt(abs(x)) for x in u]
        w2 = [math.copysign(r, x) for r, x in zip(w1, u)]
        return ShallowNetParams(tuple(w1), tuple(w2), b, 0.0)

    cur = l2_norm_sq(shallow_to_pwl(split(u)))
    if cur <= 0.0:
        raise NumericalError("degenerate random target with zero norm")
    scale = math.sqrt(frac * threshold / cur)
    return split([x * scale for x in u])


def _phases_account_for(theta: ShallowNetParams, res: ProjectionResult) -> bool:
    """Whether replaying res.phases (bias moves, then weight changes, each
    from its recorded old value) onto theta's (b, u) gives theta_star's exactly,
    with the steps' summed squares within 1e-9 (relative) of movement_sq."""
    state = (list(theta.b1), theta.effective_weights().tolist())
    steps_sq = 0.0
    for values, steps in zip(state, (res.phases.bias_moves, res.phases.weight_changes)):
        for i, old, new in steps:
            if values[i] != old:
                return False
            values[i] = new
            steps_sq += (new - old) ** 2
    star = res.theta_star
    return (state == (list(star.b1), star.effective_weights().tolist())
            and abs(steps_sq - res.movement_sq) <= 1e-9 * max(1.0, res.movement_sq))


def cmd_projection_check(cfg: dict) -> CsvReport:
    rng = SeededRng(cfg["seed"])
    k = cfg["k"]
    lo, hi = cfg["norm_frac_lo"], cfg["norm_frac_hi"]
    if not 0.0 < lo <= hi < 1.0:
        raise ConfigError("norm fractions must satisfy 0 < lo <= hi < 1")
    n_trials = _at_least(cfg, "n_trials", 1)
    columns = (
        "row", "k", "norm_sq", "movement_sq", "bound", "ratio", "exact_zero",
        "bound_ok", "accounting_ok", "seed", "passed",
    )
    rows: list[dict] = []
    failures: list[str] = []
    max_ratio = 0.0
    for trial in range(n_trials):
        gen = rng.stream(1000 + trial).generator()
        frac = gen.uniform(lo, hi)
        theta = _random_admissible_theta(k, frac, gen)
        norm_sq = l2_norm_sq(shallow_to_pwl(theta))
        res = project_to_zero(theta)
        f_star = shallow_to_pwl(res.theta_star)
        exact = len(f_star.knots) == 0 and abs(f_star.bias) <= 1e-12
        bound_ok = res.movement_sq <= res.bound * (1.0 + 1e-12)
        accounting_ok = _phases_account_for(theta, res)
        ratio = res.movement_sq / res.bound if res.bound > 0 else math.inf
        max_ratio = max(max_ratio, ratio)
        ok = exact and bound_ok and accounting_ok
        if not exact:
            failures.append(f"trial {trial}: projection did not reach the zero function")
        if not bound_ok:
            failures.append(
                f"trial {trial}: movement^2 {res.movement_sq:.6g} exceeds bound "
                f"{res.bound:.6g}"
            )
        if not accounting_ok:
            failures.append(f"trial {trial}: phase accounting mismatch")
        rows.append({
            "row": str(trial), "k": k, "norm_sq": norm_sq,
            "movement_sq": res.movement_sq, "bound": res.bound, "ratio": ratio,
            "exact_zero": exact, "bound_ok": bound_ok, "accounting_ok": accounting_ok,
            "seed": cfg["seed"], "passed": ok,
        })
    passed = not failures
    rows.append({
        "row": "summary", "k": k, "ratio": max_ratio, "seed": cfg["seed"],
        "passed": passed,
    })
    return CsvReport(columns, rows, tuple(failures))


COMMANDS = {
    "linear_complexity": cmd_linear_complexity,
    "nn_complexity": cmd_nn_complexity,
    "codim": cmd_codim,
    "one_change": cmd_one_change,
    "periodic": cmd_periodic,
    "pacbayes": cmd_pacbayes,
    "sgld_check": cmd_sgld_check,
    "projection_check": cmd_projection_check,
}


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="bayescomplex",
        description="Experiment driver for Bayesian complexity estimators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(
            name,
            aliases=[f"cmd_{name}"],
            help=f"run {name.replace('_', ' ')}",
        )
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None, help="unsigned 64-bit seed")
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="independent sampling streams, run on up to min(N, CPUs) threads; "
            "the report depends on N, not on the thread count",
        )
        p.add_argument("--out", default=None, help="CSV output path (default stdout)")
        p.add_argument("pairs", nargs="*", help="key=value overrides")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand.startswith("cmd_"):
        args.subcommand = args.subcommand[4:]
    try:
        cfg = resolve_config(args)
        report = COMMANDS[args.subcommand](cfg)
        emit_report(cfg, report.columns, report.rows)
        if report.failures:
            raise CheckFailure("; ".join(report.failures))
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
