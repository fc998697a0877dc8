"""The benchmark workloads: the timed study and the checks of its outputs.

Every workload is one study of the shape of a study preset, with fewer trials
and steps than the preset and the preset's burn-in fraction. The study runs
only through CLI-contract entry points (``preset_config``,
``run_ess_study``, ``cli.main``) and the public
geometry, assumptions, diagnostics and sampler functions the README workflow
uses. Its outputs are read back from the documented files alone.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import types
from pathlib import Path

import numpy as np

from orthant_gibbs import (assumptions, cli, diagnostics, experiments, geometry,
                           io, sampler)

import kernels

# (preset, models run one after the other)
STUDIES = {
    "ess_d200": ("pre_asymptotic", ("logistic", "poisson")),
    "gmm_d200": ("pre_asymptotic", ("gmm",)),
    "check_pipeline": ("pre_asymptotic", ("logistic",)),
}

# (trials, steps) per model; "smoke" only proves that every metric is emitted
SIZES = {
    "full": {"ess_d200": (2, 3000), "gmm_d200": (1, 180), "check_pipeline": (1, 3000)},
    "smoke": {"ess_d200": (1, 300), "gmm_d200": (1, 60), "check_pipeline": (1, 300)},
}
CHECK_GRID = {"full": 200, "smoke": 4}

# Inputs per run: a run with --seed s studies the inputs of seeds s, s+1, ...,
# in turn. How long the study takes and how many effective draws it gives
# vary by input (on check_pipeline, mode needs 3174 iterations at seed 3
# and about 40 at seeds 1 and 5), so a run reports the median over inputs.
INPUTS = {"ess_d200": 2, "gmm_d200": 2, "check_pipeline": 4}

# the pre-asymptotic truth has four ones and zeros elsewhere
PIPELINE_ONES = 4
BOUNDARY_TAU = 1e-7
# posterior means may differ from the recorded reference by this many
# standard errors of the difference before the check fails
REFERENCE_Z = 5.0


def configs(name: str, size: str, out: Path, seed: int):
    """The study configuration of each model, in run order."""
    preset, kinds = STUDIES[name]
    trials, steps = SIZES[size][name]
    result = []
    for kind in kinds:
        base = experiments.preset_config(preset, kind)
        burn_in = steps * base.burn_in // base.n_steps
        result.append(experiments.preset_config(
            preset, kind, out_dir=str(out), seed=seed, n_trials=trials,
            n_steps=steps, burn_in=burn_in))
    return result


def run(name: str, size: str, out: Path, seed: int) -> dict:
    """The timed section: the whole study, including every file it writes."""
    cfgs = configs(name, size, out, seed)
    if name == "check_pipeline":
        return _pipeline(cfgs[0], size, out, seed)
    return {"dirs": [str(experiments.run_ess_study(cfg)) for cfg in cfgs]}


def _pipeline(cfg, size: str, out: Path, seed: int) -> dict:
    """The README's single-model workflow, one subcommand after another."""
    sim, model_json = out / "sim", out / "sim" / "model.json"
    mode_json, check_json = out / "mode.json", out / "check.json"
    good_json, chain_csv = out / "good_set.json", out / "chain.csv"
    truth = [1.0] * PIPELINE_ONES + [0.0] * (cfg.d - PIPELINE_ONES)
    codes = {"simulate": cli.main([
        "simulate", "--model", cfg.model, "--n", str(cfg.n),
        "--theta-star", json.dumps(truth), "--seed", str(seed), "--out", str(sim)])}
    codes["mode"] = cli.main(["mode", "--model-config", str(model_json),
                              "--out", str(mode_json)])
    codes["check"] = cli.main(["check", "--model-config", str(model_json),
                               "--mode-result", str(mode_json),
                               "--grid", str(CHECK_GRID[size]), "--out", str(check_json)])

    theta_hat = np.asarray(json.loads(mode_json.read_text())["theta_hat"])
    split, center = geometry.split_coordinates(theta_hat, BOUNDARY_TAU)
    delta0, delta1 = geometry.default_deltas(split.d1)
    good = geometry.build_good_set(center, split, delta0 if split.d0 > 0 else None,
                                   delta1, cfg.n)
    good.save(good_json)

    template, _ = io.load_model_config(model_json)
    region = assumptions.RegionSpec(center=center, split=split, r0=good.r0,
                                    r1=good.r1, seed=seed)
    span = max(truth) + 2.0
    zeta = assumptions.check_well_separation(
        template.simulate(seed), types.SimpleNamespace(theta_hat=theta_hat), region,
        (np.zeros(cfg.d), np.full(cfg.d, span)), seed=seed)

    codes["sample"] = cli.main([
        "sample", "--model-config", str(model_json), "--step", repr(cfg.sampler_step),
        "--steps", str(cfg.n_steps), "--burn-in", str(cfg.burn_in),
        "--good-set", str(good_json), "--seed", str(seed), "--out", str(chain_csv)])
    samples, log_post = _read_chain(chain_csv)[1:]
    chain = sampler.Chain(samples=samples, log_posterior=log_post,
                          config=sampler.SamplerConfig(
                              step_size=cfg.sampler_step, n_steps=cfg.n_steps,
                              burn_in=cfg.burn_in, projection=good, seed=seed))
    return {"codes": codes, "zeta": zeta,
            "member": sampler.check_membership(chain),
            "mass": diagnostics.good_set_mass(chain, good)}


# ---------------------------------------------------------------------------
# reading outputs back
# ---------------------------------------------------------------------------


def _read_chain(path: Path):
    """(header, draws, log_post) of one chain file."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, body[:, :-1], body[:, -1]


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class Checks:
    """Counts operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def __call__(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return bool(ok)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} failed")


def _bulk_ess_per_coordinate(draws: np.ndarray) -> np.ndarray:
    return np.array([diagnostics.bulk_ess(draws[:, j]) for j in range(draws.shape[1])])


def _check_chain(check: Checks, path: Path, d: int):
    """Kept draws of one chain file. A study chain may instead be a binary
    ``.npy`` file whose first d columns are the draws."""
    binary = path.with_suffix(".npy")
    if not path.exists() and binary.exists():
        draws = np.load(binary)[:, :d]
    else:
        header, draws, _ = _read_chain(path)
        expected = [f"theta_{j}" for j in range(d)] + ["log_post"]
        check(header == expected, f"{path.name}: header is not theta_0..theta_{d - 1},log_post")
    check(draws.shape[1] == d and np.all(draws >= 0), f"{path.name}: a draw is negative")
    return draws


def inspect(name: str, size: str, out: Path, seed: int, state: dict):
    """Check the study's outputs. Returns (checks, draws per chain, per-coordinate
    bulk ESS per chain), chains in study order."""
    check = Checks()
    chains, ess = [], []
    cfgs = configs(name, size, out, seed)
    if name == "check_pipeline":
        cfg = cfgs[0]
        for command, code in state["codes"].items():
            check(code == 0, f"{command} exited with code {code}")
        check(json.loads((out / "mode.json").read_text())["converged"], "mode did not converge")
        report = json.loads((out / "check.json").read_text())
        for key in ("c_S0_hat", "C_S1_hat", "s2_hat", "osc_bound"):
            check(math.isfinite(report[key]), f"check.json {key} = {report[key]}")
        # the Poincare bound is +inf, by contract, exactly when a measured
        # constant is not positive
        vacuous = min(report["c_S0_hat"], report["C_S1_hat"]) <= 0
        check(math.isinf(report["C_PI_bound"]) == vacuous and report["C_PI_bound"] > 0,
              f"check.json C_PI_bound = {report['C_PI_bound']}")
        check(math.isfinite(state["zeta"]), f"well-separation gap {state['zeta']}")
        check(state["member"], "good-set chain left the good set")
        check(state["mass"] == 1.0, f"good-set mass of the good-set chain {state['mass']}")
        draws = _check_chain(check, out / "chain.csv", cfg.d)
        return check, [draws], [_bulk_ess_per_coordinate(draws)]

    for cfg, run_dir in zip(cfgs, map(Path, state["dirs"])):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        check.count(cfg.n_trials, len(manifest["failures"]), f"{cfg.model} trials")
        done = sorted(set(range(cfg.n_trials)) - {int(t) for t, _ in manifest["failures"]})
        draws = [_check_chain(check, run_dir / "chains" / f"{t}.csv", cfg.d) for t in done]
        chains += draws
        header, rows = _read_table(run_dir / "ess_per_coordinate.csv")
        check(header == ["trial", "coordinate", "ess"], "ess_per_coordinate.csv header")
        check(len(rows) == len(done) * cfg.d,
              f"ess_per_coordinate.csv has {len(rows)} rows, expected {len(done) * cfg.d}")
        table = np.array(rows, dtype=float).reshape(len(done), cfg.d, 3)
        check(np.all(np.isfinite(table[:, :, 2]) & (table[:, :, 2] > 0)),
              "ess_per_coordinate.csv has a non-finite or non-positive ESS")
        ess += list(table[:, :, 2])
    return check, chains, ess


def digest(chains) -> str:
    """SHA-256 of the kept draws of every chain, in study order."""
    h = hashlib.sha256()
    for draws in chains:
        h.update(np.ascontiguousarray(draws, dtype=np.float64).tobytes())
    return h.hexdigest()


def means_and_errors(chains, ess):
    """Per-coordinate posterior mean and its Monte Carlo standard error."""
    means = [draws.mean(axis=0) for draws in chains]
    errors = [draws.std(axis=0) / np.sqrt(e) for draws, e in zip(chains, ess)]
    return means, errors


def compare_reference(check: Checks, reference, chains, ess) -> str:
    """Compare posterior means with the reference recorded for this seed.

    Returns "bitwise" when the draws are identical, "within" when every mean
    lies within REFERENCE_Z standard errors, "outside" otherwise, and "none"
    when no reference exists for this seed.
    """
    if reference is None:
        return "none"
    if digest(chains) == reference["digest"]:
        return "bitwise"
    means, errors = means_and_errors(chains, ess)
    ok = len(means) == len(reference["means"])
    worst = math.inf
    if ok:
        # the reference chain has the same standard error as this one
        z = [np.abs(m - np.asarray(r)) / (math.sqrt(2.0) * e)
             for m, r, e in zip(means, reference["means"], errors)]
        worst = max(float(np.max(x)) for x in z)
        ok = worst <= REFERENCE_Z
    check(ok, f"posterior means differ from the reference by up to {worst:.3g} SE")
    return "within" if ok else "outside"


def kernel_counts(name: str, size: str, out: Path, seed: int) -> dict:
    """Computed flop and byte counts per evaluation at this workload's shapes."""
    result = {}
    for cfg in configs(name, size, out, seed):
        for what in ("value", "grad"):
            flop, nbytes = kernels.shape_counts(cfg.model, what, cfg.n, cfg.d, cfg.k)
            result[f"{cfg.model}.{what}"] = {
                "n": cfg.n, "d": cfg.d, "k": cfg.k, "flop": flop, "bytes": nbytes,
                "flop_per_byte": flop / nbytes, "label": "computed"}
    return result
