"""Batch experiment presets and runners for the two simulation studies.

``pre_asymptotic`` (d=200, n=800) measures mixing via per-coordinate and
log-posterior bulk ESS over 20 trials with a warm start near the truth.
``asymptotic`` (d=10, n=1000) measures frequentist coverage of 95% credible
intervals over 20 trials, warm-started at the posterior mode.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import diagnostics, io, models, sampler
from .errors import ConfigError
from .mode import ModeResult, default_box, find_mode_global, find_mode_local
from .rng import derive_seed

PRESETS = ("pre_asymptotic", "asymptotic")
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
    sampler_step: float  # SamplerConfig.step_size
    k: int = 1  # gmm component count
    warm_start: str = "truth"  # "truth" | "mode"
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.warm_start not in ("truth", "mode"):
            raise ConfigError(f"unknown warm_start {self.warm_start!r}")
        # a seed sequence takes no negative entropy
        if self.n_trials < 1 or self.seed < 0:
            raise ConfigError("n_trials must be >= 1 and seed >= 0")
        # the sampler's and the model's own checks, before any trial runs
        self.sampler_config()
        build_template(self)

    def sampler_config(self, init=None, seed: int = 0) -> sampler.SamplerConfig:
        return sampler.SamplerConfig(
            step_size=self.sampler_step, n_steps=self.n_steps,
            burn_in=self.burn_in, projection="orthant", init=init, seed=seed)

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
    """The two pinned study configurations, with flag overrides on top.

    With no ``sampler_step`` given, the step follows the preset's rule at the
    study's final ``n``: under ``pre_asymptotic`` 0.5/n for logistic and 0.1/n
    for Poisson and gmm, so that it shrinks as the posterior sharpens; under
    ``asymptotic`` 0.001.
    """
    if preset == "pre_asymptotic":
        base = dict(d=200, n=800, n_trials=20, n_steps=30_000, burn_in=20_000,
                    warm_start="truth", k=2 if model == "gmm" else 1)
    elif preset == "asymptotic":
        base = dict(d=10, n=1000, n_trials=20, n_steps=30_000, burn_in=20_000,
                    sampler_step=0.001, warm_start="mode",
                    k=2 if model == "gmm" else 1)
    else:
        raise ConfigError(f"unknown preset {preset!r}")
    base.update(overrides)
    if "sampler_step" not in base:  # ExperimentConfig rejects an n below 1
        base["sampler_step"] = (0.5 if model == "logistic" else 0.1) / max(base["n"], 1)
    return ExperimentConfig(preset=preset, model=model, out_dir=out_dir,
                            seed=seed, **base)


def default_theta_star(config: ExperimentConfig) -> np.ndarray:
    """Artifact-chosen truths with explicit boundary coordinates.

    Logistic/Poisson keep the truth at constant Euclidean norm with the
    remaining coordinates on the boundary. The GMM uses two separated means
    with one boundary coordinate in the minor component.
    """
    d = config.d
    if config.model == "gmm":  # the j-th of the k means is all 3j + 1
        m = d // config.k
        theta = 1.0 + 3.0 * (np.arange(d) // max(m, 1))
        if m:  # else d < k, which the template rejects
            theta[(config.k - 1) * m + min(2, m - 1)] = 0.0
        return theta
    theta = np.zeros(d)
    if config.preset == "pre_asymptotic":
        theta[: min(4, d)] = 1.0
    else:
        theta[:-1] = 1.0
    return theta


def gmm_mixture(k: int, d: int, weights=None) -> dict:
    """Template arguments of a k-component gmm whose d location coordinates
    are k means of dimension d/k: the weights (the defaults when none are
    given), scaled to sum to 1, and identity covariances."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got k={k}")
    if weights is None:
        if k > len(GMM_WEIGHTS):
            raise ConfigError(f"gmm with k={k} needs explicit weights; "
                              f"default weights exist for k <= {len(GMM_WEIGHTS)}")
        weights = GMM_WEIGHTS[:k]
    weights = models.mixture_weights(weights)
    return {"weights": weights / weights.sum(),
            "covariances": np.stack([np.eye(d // k)] * k)}


def build_template(config: ExperimentConfig) -> models.ModelTemplate:
    kwargs = gmm_mixture(config.k, config.d) if config.model == "gmm" else {}
    return models.ModelTemplate(kind=config.model, n=config.n,
                                theta_star=default_theta_star(config), **kwargs)


def find_mode(model: models.ModelInstance, *, seed: int = 0, tol: float = 1e-8,
              bounds=None, multistart: bool = False) -> ModeResult:
    """The posterior mode, by the one rule of the ``mode`` command and the
    ``asymptotic`` warm start: for a gmm, with ``multistart`` or with
    ``bounds`` given, the best of ``find_mode_global``'s restarts from
    uniform starts in ``bounds`` (default ``default_box(theta*)``) seeded by
    ``seed``; otherwise one ascent from max(theta* + 0.1, 0.1). The searches
    are looked up in this module at call time, so a wrapper installed here
    sees every one."""
    if multistart or bounds is not None or model.kind == "gmm":
        if bounds is None:
            bounds = default_box(model.theta_star)
        return find_mode_global(model, bounds, seed=seed, tol=tol)
    return find_mode_local(model, np.maximum(model.theta_star + 0.1, 0.1), tol=tol)


def run_trial(config: ExperimentConfig, template: models.ModelTemplate,
              trial: int) -> sampler.Chain:
    """One seeded trial: simulate, warm start, run the chain. Under
    ``warm_start="mode"`` the chain starts at ``find_mode`` seeded by the
    trial's stream 2, else at the truth plus N(0, I) noise."""
    model = template.simulate(derive_seed(config.seed, trial, 0))
    init = None
    if config.warm_start == "mode":
        init = find_mode(model, seed=derive_seed(config.seed, trial, 2)).theta_hat
    chain_config = config.sampler_config(init, derive_seed(config.seed, trial, 1))
    return sampler.run_chain(model, chain_config)


def _ess_summary(chain: sampler.Chain, theta_star: np.ndarray) -> np.ndarray:
    """A trial's ESS row: each coordinate's, then the log-posterior's."""
    report = diagnostics.ess_report([chain.samples], [chain.log_posterior])
    return np.append(report.per_coordinate, report.llr_ess)


def _coverage_summary(chain: sampler.Chain, theta_star: np.ndarray,
                      level: float) -> np.ndarray:
    """A trial's coverage row: whether each coordinate's ``level`` interval
    holds the truth."""
    return diagnostics.interval_hits(chain.samples, theta_star, level)


def _trial_outcome(summarise, config: ExperimentConfig,
                   template: models.ModelTemplate, out: Path, trial: int):
    """One trial as one job: run it, write ``chains/<t>.npy`` and return
    ``(summarise(chain, theta_star), None)``, or ``(None, repr(exc))`` if
    anything in it raised; a chain whose summary failed stays written.
    ``run_trial`` is looked up at call time, so a replacement installed on
    it reaches forked workers too."""
    try:
        chain = run_trial(config, template, trial)
        chain.export_npy(out / "chains" / f"{trial}.npy")
        return summarise(chain, template.theta_star), None
    except Exception as exc:  # noqa: BLE001 - recorded in the manifest
        return None, repr(exc)


def _processes(n_trials: int) -> int:
    """Worker processes for a study: one per CPU this process may run on, up
    to the trial count. 1, meaning the trials run in this process, where the
    CPU set cannot be read, or where other threads run: fork copies only the
    calling thread, so a lock another thread holds would stay held in the
    child."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(n_trials, len(os.sched_getaffinity(0)))


def _pooled_outcomes(config: ExperimentConfig, template: models.ModelTemplate,
                     out: Path, processes: int, summarise) -> list:
    """Each trial's outcome from a pool of forked workers, in trial order. A
    trial whose worker died, or whose row could not be sent back, is
    recorded as failed with that error, and whatever its worker had written
    of its chain is deleted. No worker outlives the call."""
    # imported here: a study that runs in one process never pays for them
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(processes,
                               mp_context=multiprocessing.get_context("fork"))
    outcomes, lost = [], []
    try:
        futures = []
        for trial in range(config.n_trials):
            try:
                future = pool.submit(_trial_outcome, summarise, config, template,
                                     out, trial)
            except BrokenProcessPool as exc:  # a worker died before this trial was queued
                future = Future()
                future.set_exception(exc)
            futures.append(future)
        for trial, future in enumerate(futures):
            try:
                outcomes.append(future.result())
            except Exception as exc:  # noqa: BLE001 - recorded in the manifest
                outcomes.append((None, repr(exc)))
                lost.append(trial)
    finally:
        pool.shutdown(cancel_futures=True)
    for trial in lost:  # every worker has exited: no file is still growing
        for path in (out / "chains").glob(f"{trial}.npy*"):  # with its sidecar
            path.unlink()
    return outcomes


def _run_all_trials(config: ExperimentConfig, template: models.ModelTemplate,
                    out: Path, summarise):
    """Every trial's ``_trial_outcome`` with ``summarise``; returns
    ``(rows, failures, processes)``, ``rows`` mapping each completed trial to
    its row in trial order. With two or more ``_processes`` the jobs run on
    that many forked workers, each sending back only its row, else in this
    process. Either way a failed trial is recorded as [trial, repr(exc)], in
    trial order, and a trial's draws depend only on its own derived seeds."""
    processes = _processes(config.n_trials)
    if processes > 1:
        outcomes = _pooled_outcomes(config, template, out, processes, summarise)
    else:
        outcomes = [_trial_outcome(summarise, config, template, out, trial)
                    for trial in range(config.n_trials)]
    rows = {trial: row for trial, (row, _) in enumerate(outcomes) if row is not None}
    failures = [[trial, error] for trial, (_, error) in enumerate(outcomes)
                if error is not None]
    return rows, failures, processes


def _run_study(config: ExperimentConfig, summarise, write_tables,
               extra=lambda rows: {}) -> Path:
    """The steps both studies share: build the template, run every trial
    with ``summarise`` and pass the completed rows to
    ``write_tables(out, rows, template)``. The manifest, with
    ``extra(rows)`` added, is written whatever happens, so a study in which
    no trial completed still records why before it raises ConfigError."""
    t0 = time.perf_counter()
    template = build_template(config)
    out = Path(config.out_dir) / config.run_tag()
    (out / "chains").mkdir(parents=True, exist_ok=True)
    rows, failures, processes = _run_all_trials(config, template, out, summarise)
    try:
        if not rows:
            raise ConfigError("the study needs at least one completed trial; "
                              f"see the failures in {out / 'manifest.json'}")
        write_tables(out, rows, template)
    finally:
        io.write_json(out / "manifest.json", {
            "config": config,
            "config_hash": config.config_hash(),
            "trial_seeds": {trial: {"data": derive_seed(config.seed, trial, 0),
                                    "chain": derive_seed(config.seed, trial, 1),
                                    "mode": derive_seed(config.seed, trial, 2)}
                            for trial in range(config.n_trials)},
            "failures": failures,
            "versions": {"numpy": np.__version__},
            "processes": processes,
            "wall_time_s": time.perf_counter() - t0,
            **extra(rows)})
    return out


def _write_ess_tables(out: Path, rows, template) -> None:
    with open(out / "ess_per_coordinate.csv", "w") as coord_fh, \
            open(out / "llr_ess.csv", "w") as llr_fh:
        coord_fh.write("trial,coordinate,ess\n")
        llr_fh.write("trial,ess\n")
        for trial, row in rows.items():
            for j, ess in enumerate(row[:-1]):
                coord_fh.write(f"{trial},{j},{ess:.6f}\n")
            llr_fh.write(f"{trial},{row[-1]:.6f}\n")


def _write_coverage_table(out: Path, rows, template) -> None:
    coverage = np.sum(list(rows.values()), axis=0) / len(rows)
    boundary = template.theta_star <= BOUNDARY_SPLIT_TAU
    with open(out / "coverage.csv", "w") as fh:
        fh.write("coordinate,coverage,is_boundary\n")
        for j, share in enumerate(coverage):
            fh.write(f"{j},{share:.6f},{int(boundary[j])}\n")


def run_ess_study(config: ExperimentConfig) -> Path:
    """Run trials and write per-coordinate and log-posterior ESS tables.

    A trial whose ESS fails is recorded in the manifest's failures like a
    failed trial; its chain is still written.
    """
    return _run_study(config, _ess_summary, _write_ess_tables)


def run_coverage_study(config: ExperimentConfig, level: float = 0.95) -> Path:
    """Run trials and write the per-coordinate coverage table: the share of
    completed trials whose ``level`` interval holds the truth."""
    if not 0 < level < 1:
        raise ConfigError(f"level must lie in (0, 1), got {level}")
    return _run_study(config, partial(_coverage_summary, level=level),
                      _write_coverage_table,
                      extra=lambda rows: {"level": level, "n_completed": len(rows)})
