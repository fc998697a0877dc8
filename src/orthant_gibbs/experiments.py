"""Batch experiment presets and runners for the two simulation studies.

``pre_asymptotic`` (d=200, n=800) measures mixing via per-coordinate and
log-posterior bulk ESS over 20 trials with a warm start near the truth.
``asymptotic`` (d=10, n=1000) measures frequentist coverage of 95% credible
intervals over 20 trials, warm-started at the posterior mode.

Step-size convention: the pre-asymptotic study quotes step sizes on the
normalized log-likelihood scale; the sampler step is step/n so that the
update reads x + step*grad(loglik) + N(0, 2*step/n). The asymptotic study
quotes the sampler step directly. Both conventions reproduce the reported
mixing behavior; see the README for discussion.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import diagnostics, io, models, sampler
from .errors import ConfigError, OrthantGibbsError
from .geometry import split_coordinates
from .mode import default_box, find_mode_global, find_mode_local
from .rng import derive_seed

PRESETS = ("pre_asymptotic", "asymptotic", "custom")
GMM_WEIGHTS = (0.7, 0.3)
BOUNDARY_SPLIT_TAU = 1e-7


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    model: str
    d: int
    n: int
    n_trials: int
    n_steps: int
    burn_in: int
    step_size: float
    step_scale: str  # "normalized": sampler step = step_size/n; "literal": as-is
    k: int = 1  # gmm component count
    warm_start: str = "truth"  # "truth" | "mode"
    thin: int = 1
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.model not in models.KINDS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.step_scale not in ("normalized", "literal"):
            raise ConfigError(f"unknown step_scale {self.step_scale!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.model == "gmm" and self.d % self.k != 0:
            raise ConfigError("gmm requires d divisible by k")
        if self.n < 1 or self.n_trials < 1:
            raise ConfigError("n and n_trials must be >= 1")
        self.sampler_config()  # the sampler's own checks, before any trial runs

    @property
    def sampler_step(self) -> float:
        return self.step_size / self.n if self.step_scale == "normalized" else self.step_size

    def sampler_config(self, init=None, seed: int = 0) -> sampler.SamplerConfig:
        return sampler.SamplerConfig(
            step_size=self.sampler_step, n_steps=self.n_steps,
            burn_in=self.burn_in, projection="orthant", init=init,
            seed=seed, thin=self.thin)

    def config_hash(self) -> str:
        """Hash of every field except ``out_dir``: the same study written to
        two directories has one hash."""
        fields = asdict(self)
        del fields["out_dir"]
        payload = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def run_tag(self) -> str:
        return f"{self.preset}_{self.model}_seed{self.seed}"


def preset_config(preset: str, model: str, *, out_dir: str = "out",
                  seed: int = 0, **overrides) -> ExperimentConfig:
    """The two pinned study configurations, with flag overrides on top."""
    if preset == "pre_asymptotic":
        base = dict(d=200, n=800, n_trials=20, n_steps=30_000, burn_in=20_000,
                    step_size=0.5 if model == "logistic" else 0.1,
                    step_scale="normalized", warm_start="truth",
                    k=2 if model == "gmm" else 1)
    elif preset == "asymptotic":
        base = dict(d=10, n=1000, n_trials=20, n_steps=30_000, burn_in=20_000,
                    step_size=0.001, step_scale="literal", warm_start="mode",
                    k=2 if model == "gmm" else 1)
    else:
        raise ConfigError("preset_config handles pre_asymptotic and asymptotic only")
    base.update(overrides)
    return ExperimentConfig(preset=preset, model=model, out_dir=out_dir,
                            seed=seed, **base)


def default_theta_star(config: ExperimentConfig) -> np.ndarray:
    """Artifact-chosen truths with explicit boundary coordinates.

    Logistic/Poisson keep the truth at constant Euclidean norm with the
    remaining coordinates on the boundary. The GMM uses two separated means
    with one boundary coordinate in the minor component.
    """
    d = config.d
    if config.model == "gmm":
        k = config.k
        m = d // k
        mu = np.ones((k, m))
        for j in range(1, k):
            mu[j] *= 3.0 * j + 1.0
        mu[-1, min(2, m - 1)] = 0.0
        return mu.ravel()
    theta = np.zeros(d)
    if config.preset == "pre_asymptotic":
        theta[: min(4, d)] = 1.0
    else:
        theta[:-1] = 1.0
    return theta


def gmm_mixture(k: int, d: int, weights=None) -> dict:
    """Template arguments of a k-component gmm whose d location coordinates
    are k means of dimension d/k: the weights (the defaults when none are
    given), normalized, and identity covariances."""
    if k < 1:
        raise ConfigError(f"gmm needs k >= 1 components, got k={k}")
    if d % k != 0:
        raise ConfigError(f"gmm requires d divisible by k, got d={d}, k={k}")
    if weights is None:
        if k > len(GMM_WEIGHTS):
            raise ConfigError(f"gmm with k={k} needs explicit weights; "
                              f"default weights exist for k <= {len(GMM_WEIGHTS)}")
        weights = GMM_WEIGHTS[:k]
    weights = np.asarray(weights, dtype=float)
    return {"weights": weights / weights.sum(),
            "covariances": np.stack([np.eye(d // k)] * k)}


def build_template(config: ExperimentConfig, theta_star=None) -> models.ModelTemplate:
    theta_star = default_theta_star(config) if theta_star is None else np.asarray(theta_star)
    kwargs = gmm_mixture(config.k, config.d) if config.model == "gmm" else {}
    return models.ModelTemplate(kind=config.model, theta_star=theta_star,
                                n=config.n, **kwargs)


def _warm_start_point(config: ExperimentConfig, model: models.ModelInstance,
                      trial_seed: int) -> np.ndarray | None:
    """Explicit start for warm_start='mode'; None keeps the noisy-truth start."""
    if config.warm_start != "mode":
        return None
    if config.model == "gmm":
        result = find_mode_global(model, default_box(model.theta_star),
                                  seed=trial_seed, tol=1e-6, n_restarts=4)
    else:
        init = np.maximum(model.theta_star + 0.1, 0.5)
        result = find_mode_local(model, init, tol=1e-8)
    return result.theta_hat


def run_trial(config: ExperimentConfig, template: models.ModelTemplate,
              trial: int) -> sampler.Chain:
    """One seeded trial: simulate, warm start, run the chain."""
    model = template.simulate(derive_seed(config.seed, trial, 0))
    init = _warm_start_point(config, model, derive_seed(config.seed, trial, 2))
    chain_config = config.sampler_config(init, derive_seed(config.seed, trial, 1))
    return sampler.run_chain(model, chain_config)


def _run_all_trials(config: ExperimentConfig, template: models.ModelTemplate):
    """Every trial in order. A failed trial is recorded as [trial, repr(exc)]
    and the remaining trials still run."""
    chains: dict[int, sampler.Chain] = {}
    failures: list[list] = []
    for trial in range(config.n_trials):
        try:
            chains[trial] = run_trial(config, template, trial)
        except Exception as exc:  # noqa: BLE001 - recorded in the manifest
            failures.append([trial, repr(exc)])
    return chains, failures


def _write_manifest(config: ExperimentConfig, out: Path, failures, wall_s: float,
                    extra=None) -> None:
    manifest = {
        "config": config,
        "config_hash": config.config_hash(),
        "trial_seeds": {trial: {"data": derive_seed(config.seed, trial, 0),
                                "chain": derive_seed(config.seed, trial, 1)}
                        for trial in range(config.n_trials)},
        "failures": failures,
        "versions": {"numpy": np.__version__},
        "wall_time_s": wall_s,
    }
    if extra:
        manifest.update(extra)
    io.write_json(out / "manifest.json", manifest)


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out_dir) / config.run_tag()
    (out / "chains").mkdir(parents=True, exist_ok=True)
    return out


def _chain_path(out: Path, trial: int) -> Path:
    """Where a study writes the kept chain of one trial."""
    return out / "chains" / f"{trial}.npy"


def run_ess_study(config: ExperimentConfig, theta_star=None) -> Path:
    """Run trials and write per-coordinate and log-posterior ESS tables.

    A trial whose ESS fails is recorded in the manifest's failures like a
    failed trial; its chain is still written.
    """
    t0 = time.perf_counter()
    template = build_template(config, theta_star)
    out = _out_dir(config)
    chains, failures = _run_all_trials(config, template)

    try:
        with open(out / "ess_per_coordinate.csv", "w") as coord_fh, \
                open(out / "llr_ess.csv", "w") as llr_fh:
            coord_fh.write("trial,coordinate,ess\n")
            llr_fh.write("trial,ess\n")
            for trial in sorted(chains):
                chain = chains[trial]
                chain.export_npy(_chain_path(out, trial))
                try:
                    report = diagnostics.ess_report([chain.samples],
                                                    [chain.log_posterior])
                except OrthantGibbsError as exc:
                    failures.append([trial, repr(exc)])
                    continue
                for j, ess in enumerate(report.per_coordinate):
                    coord_fh.write(f"{trial},{j},{ess:.6f}\n")
                llr_fh.write(f"{trial},{report.llr_ess:.6f}\n")
    finally:
        failures.sort()
        _write_manifest(config, out, failures, time.perf_counter() - t0)
    return out


def run_coverage_study(config: ExperimentConfig, theta_star=None,
                       level: float = 0.95) -> Path:
    """Run trials and write the per-coordinate coverage table."""
    if not 0 < level < 1:
        raise ConfigError(f"level must lie in (0, 1), got {level}")
    t0 = time.perf_counter()
    template = build_template(config, theta_star)
    out = _out_dir(config)
    chains, failures = _run_all_trials(config, template)

    split, _ = split_coordinates(template.theta_star, BOUNDARY_SPLIT_TAU)
    try:
        # raises when every trial failed; the manifest still records why
        report = diagnostics.coverage_experiment(
            [chains[t].samples for t in sorted(chains)], template.theta_star,
            level, split)
        with open(out / "coverage.csv", "w") as fh:
            fh.write("coordinate,coverage,is_boundary\n")
            for j in range(config.d):
                fh.write(f"{j},{report.per_coordinate_coverage[j]:.6f},"
                         f"{int(report.boundary_flags[j])}\n")
        for trial in sorted(chains):
            chains[trial].export_npy(_chain_path(out, trial))
    finally:
        _write_manifest(config, out, failures, time.perf_counter() - t0,
                        extra={"level": level, "n_completed": len(chains)})
    return out
