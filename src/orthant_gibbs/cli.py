"""Command-line interface.

One subcommand per module: ``simulate`` writes ``dataset.npz`` and
``model.json``, ``mode`` finds the posterior mode, ``check`` estimates the
local regularity constants and writes the good set it measured them on,
``sample`` runs a single projected Langevin chain,
``ess`` and ``coverage`` run the two batch studies, and ``gap`` runs the 1-D
spectral-gap benchmarks. ``mode``, ``check`` and ``sample`` read the dataset
beside model.json; their seed drives the algorithm, never the data.

Exit codes: 0 success, 1 assumption-check estimates below the user's
thresholds, 2 hard errors. ``ORTHANT_GIBBS_SEED`` overrides any seed from a
flag or config file; flags override config-file values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import assumptions, diagnostics, experiments, geometry, io, models, sampler
from .errors import ConfigError, OrthantGibbsError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2
DATASET = "dataset.npz"


def _resolve_seed(flag_seed: int | None, config_seed: int | None = None) -> int:
    env = os.environ.get("ORTHANT_GIBBS_SEED")
    if env is not None:
        return int(env)
    if flag_seed is not None:
        return flag_seed
    if config_seed is not None:
        return config_seed
    return 0


def _parse_vector(text: str) -> np.ndarray:
    """A non-empty flat JSON array of numbers as a 1-D float array."""
    vector = np.asarray(json.loads(text), dtype=float)
    if vector.ndim != 1 or vector.size == 0:
        raise ConfigError(f"expected a non-empty flat JSON array, got {text!r}")
    return vector


def _load_model(args) -> tuple[models.ModelInstance, int]:
    """The dataset beside model.json with model.json's prior and truth, and
    the algorithm seed: env, then ``--seed``, then model.json's seed. The
    dataset must agree with model.json on kind, d, n and any gmm mixture."""
    template, seed = io.load_model_config(args.model_config)
    data = io.load_dataset(Path(args.model_config).parent / DATASET)
    checks = [("kind", template.kind, data.kind),
              ("d", template.theta_star.size, data.d),
              ("n", template.n, data.n)]
    if data.kind == "gmm":
        checks += [(name, getattr(template, name), getattr(data, name))
                   for name in ("weights", "covariances")]
    for name, config, stored in checks:
        if not np.array_equal(config, stored):
            raise ConfigError(f"the dataset's {name} is {stored!r}, "
                              f"but model.json says {config!r}")
    model = models.ModelInstance(data, prior=template.prior,
                                 theta_star=template.theta_star)
    return model, _resolve_seed(args.seed, seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    theta_star = _parse_vector(args.theta_star)
    kwargs = {}
    if args.model == "gmm":
        weights = _parse_vector(args.weights) if args.weights else None
        if weights is not None and weights.size != args.k:
            raise ConfigError(f"--weights has {weights.size} entries but --k is "
                              f"{args.k}; give one weight per component")
        kwargs = experiments.gmm_mixture(args.k, theta_star.size, weights)
    template = models.ModelTemplate(kind=args.model, theta_star=theta_star,
                                    n=args.n, **kwargs)
    model = template.simulate(seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.save_dataset(model, out / DATASET)
    io.save_model_config(template, seed, out / "model.json")
    print(f"wrote {out / DATASET} and {out / 'model.json'} (seed {seed})")
    return EXIT_OK


def cmd_mode(args) -> int:
    model, seed = _load_model(args)
    bounds = None
    if args.bounds:
        lo, hi = json.loads(args.bounds)  # a ValueError unless it is a pair
        bounds = (lo, hi)
    result = experiments.find_mode(model, seed=seed, tol=args.tol, bounds=bounds,
                                   multistart=args.model_kind_global)
    io.write_json(args.out, result)
    print(f"mode objective {result.objective:.6f}, "
          f"residual {result.grad_norm:.3g}, converged={result.converged}")
    return EXIT_OK


def _show(value: float | None) -> str:
    return "null" if value is None else f"{value:.6g}"


def cmd_check(args) -> int:
    for flag in ("min_c_s0", "min_c_s1", "max_c_pi"):
        value = getattr(args, flag)
        if value is not None and math.isnan(value):
            # every comparison with NaN fails: the check could never pass
            raise ConfigError(f"--{flag.replace('_', '-')} must not be NaN")
    model, seed = _load_model(args)
    theta_hat = np.asarray(io.read_json(args.mode_result)["theta_hat"], dtype=float)
    split, center = geometry.split_coordinates(theta_hat, args.tau)
    delta0, delta1 = geometry.default_deltas(split.d1, eps=args.eps)
    gs = geometry.build_good_set(center, split,
                                 delta0 if split.d0 > 0 else None,
                                 delta1, model.n,
                                 warn=lambda msg: print(f"warning: {msg}",
                                                        file=sys.stderr))
    region = assumptions.RegionSpec(center=center, split=split, r0=gs.r0,
                                    r1=gs.r1, grid=args.grid, seed=seed)
    report = assumptions.estimate_constants(model, region)
    io.write_json(args.out, report)
    gs.save(Path(args.out).parent / "good_set.json")  # for sample --good-set
    c_s0, c_s1 = report.c_S0_hat, report.C_S1_hat  # None for an empty block
    print(f"c_S0_hat={_show(c_s0)}  C_S1_hat={_show(c_s1)}  "
          f"s2_hat={report.s2_hat:.6g}")
    print(f"osc_bound={report.osc_bound:.6g}  C_PI_bound={report.C_PI_bound:.6g}  "
          f"log10_C_PI_bound={report.log10_C_PI_bound:.6g}")
    # the paper's n for good-set concentration; it needs both blocks
    n_conc = (assumptions.concentration_sample_size(split.d0, split.d1, args.eps)
              if split.d0 > 0 and split.d1 > 0 else "n/a")
    print(f"n={model.n}  concentration_sample_size={n_conc}")
    failed = []  # a threshold on an empty block passes
    if args.min_c_s0 is not None and c_s0 is not None and c_s0 < args.min_c_s0:
        failed.append(f"c_S0_hat {c_s0:.6g} < {args.min_c_s0}")
    if args.min_c_s1 is not None and c_s1 is not None and c_s1 < args.min_c_s1:
        failed.append(f"C_S1_hat {c_s1:.6g} < {args.min_c_s1}")
    if args.max_c_pi is not None and not report.C_PI_bound <= args.max_c_pi:
        failed.append(f"C_PI_bound {report.C_PI_bound:.6g} > {args.max_c_pi}")
    for msg in failed:
        print(f"check failed: {msg}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_sample(args) -> int:
    model, seed = _load_model(args)
    projection: str | geometry.GoodSet = "orthant"
    if args.good_set:
        projection = geometry.GoodSet.from_json(io.read_json(args.good_set))
    init = _parse_vector(args.init) if args.init else None
    config = sampler.SamplerConfig(step_size=args.step, n_steps=args.steps,
                                   burn_in=args.burn_in, projection=projection,
                                   init=init, seed=seed, thin=args.thin)
    chain = sampler.run_chain(model, config)
    chain.export_csv(args.out)
    print(f"wrote {args.out}: {chain.samples.shape[0]} kept steps, "
          f"{chain.runtime_ms:.0f} ms")
    return EXIT_OK


def _experiment_config(args, study: str) -> experiments.ExperimentConfig:
    file_cfg = io.read_json(args.config) if args.config else {}
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object of "
                          f"ExperimentConfig fields, not {type(file_cfg).__name__}")
    seed = _resolve_seed(args.seed, file_cfg.get("seed"))
    overrides = dict(file_cfg)
    overrides.pop("preset", None)
    overrides.pop("model", None)
    overrides.pop("out_dir", None)
    overrides["seed"] = seed
    # flags win over the config file
    for key in ("n_trials", "n_steps", "burn_in"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.step is not None:
        overrides["sampler_step"] = args.step
    preset = args.preset or file_cfg.get("preset") or (
        "pre_asymptotic" if study == "ess" else "asymptotic")
    model = args.model or file_cfg.get("model") or "logistic"
    out_dir = args.out or file_cfg.get("out_dir") or "out"
    return experiments.preset_config(preset, model, out_dir=out_dir, **overrides)


def cmd_ess(args) -> int:
    config = _experiment_config(args, "ess")
    out = experiments.run_ess_study(config)
    print(f"wrote {out}/ess_per_coordinate.csv, llr_ess.csv, chains/, manifest.json")
    return EXIT_OK


def cmd_coverage(args) -> int:
    config = _experiment_config(args, "coverage")
    out = experiments.run_coverage_study(config, level=args.level)
    print(f"wrote {out}/coverage.csv, chains/, manifest.json")
    return EXIT_OK


_GAP_BENCHMARKS = {
    # name: (log-density, domain, analytic gap or None)
    "uniform": (lambda x: np.zeros_like(x), (0.0, 1.0), np.pi**2),
    # symmetric truncation keeps the odd eigenfunction f(x) = x, so the gap
    # equals the strong log-concavity constant 1
    "gaussian": (lambda x: -0.5 * x**2, (-8.0, 8.0), 1.0),
    "exponential": (lambda x: -x, (0.0, 20.0), 0.25 + (np.pi / 20.0) ** 2),
}


def cmd_gap(args) -> int:
    results = {}
    names = args.benchmark or list(_GAP_BENCHMARKS)
    for name in names:
        if name not in _GAP_BENCHMARKS:
            raise OrthantGibbsError(f"unknown benchmark {name!r}; "
                                    f"choose from {sorted(_GAP_BENCHMARKS)}")
        log_density, (a, b), analytic = _GAP_BENCHMARKS[name]
        result = diagnostics.spectral_gap_1d(log_density, a, b,
                                             grid_points=args.grid_points)
        results[name] = {**io.to_jsonable(result),
                         "implied_C_PI": result.implied_C_PI,
                         "analytic_gap": analytic}
        print(f"{name}: gap={result.gap:.6f} (analytic {analytic:.6f}), "
              f"implied_C_PI={result.implied_C_PI:.6f}")
    if args.out:
        io.write_json(args.out, results)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthant-gibbs",
        description="Constrained Gibbs posterior sampling on the orthant.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a dataset and write it to disk")
    p.add_argument("--model", required=True, choices=models.KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta-star", required=True,
                   help="JSON array, e.g. '[1,1,0]'")
    p.add_argument("--k", type=int, default=2, help="gmm component count")
    p.add_argument("--weights", help="gmm weights as a JSON array")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mode", help="find the posterior mode")
    p.add_argument("--model-config", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--global", dest="model_kind_global", action="store_true",
                   help="force the multi-start global search")
    p.add_argument("--bounds", help="JSON [[lo...],[hi...]]: run the global "
                   "search, drawing its starts from this box")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="mode result JSON path")
    p.set_defaults(func=cmd_mode)

    p = sub.add_parser("check", help="estimate local constants over the good set")
    p.add_argument("--model-config", required=True)
    p.add_argument("--mode-result", required=True, help="JSON from 'mode'")
    p.add_argument("--tau", type=float, default=1e-7)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--min-c-s0", type=float)
    p.add_argument("--min-c-s1", type=float)
    p.add_argument("--max-c-pi", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="assumption report JSON path; "
                   "good_set.json is written beside it")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sample", help="run one projected Langevin chain")
    p.add_argument("--model-config", required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--good-set", help="restrict the chain to this good-set JSON")
    p.add_argument("--init", help="explicit start as a JSON array")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="chain CSV path")
    p.set_defaults(func=cmd_sample)

    for study in ("ess", "coverage"):
        p = sub.add_parser(study, help=f"run the batch {study} study")
        p.add_argument("--preset", choices=("pre_asymptotic", "asymptotic"))
        p.add_argument("--model", choices=models.KINDS)
        p.add_argument("--config", help="JSON file of ExperimentConfig fields")
        p.add_argument("--n-trials", type=int)
        p.add_argument("--n-steps", type=int)
        p.add_argument("--burn-in", type=int)
        p.add_argument("--step", type=float, help="sampler step (default: the preset's)")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory (default 'out')")
        if study == "coverage":
            p.add_argument("--level", type=float, default=0.95)
            p.set_defaults(func=cmd_coverage)
        else:
            p.set_defaults(func=cmd_ess)

    p = sub.add_parser("gap", help="1-D spectral-gap benchmarks")
    p.add_argument("--benchmark", action="append",
                   choices=sorted(_GAP_BENCHMARKS),
                   help="repeatable; default runs all")
    p.add_argument("--grid-points", type=int, default=10_000)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_gap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OrthantGibbsError, OSError, ValueError, TypeError, KeyError) as exc:
        # a KeyError is a document without a key its reader needs
        print(f"error: {'missing key ' if isinstance(exc, KeyError) else ''}{exc}",
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
