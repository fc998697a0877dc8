import json
import multiprocessing
import os
from concurrent import futures
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from orthant_gibbs import experiments, sampler
from orthant_gibbs.errors import ConfigError


def _config(tmp_path, **overrides):
    fields = dict(preset="custom", model="logistic", d=3, n=50, n_trials=6,
                  n_steps=40, burn_in=0, step_size=0.1, step_scale="literal",
                  out_dir=str(tmp_path))
    fields.update(overrides)
    return experiments.ExperimentConfig(**fields)


def _fail_trials(monkeypatch, failing):
    """Replace the trial body: the trials in ``failing`` raise, the others
    return 40 non-negative draws."""

    def fake_trial(config, template, trial):
        if trial in failing:
            raise RuntimeError(f"trial {trial} failed")
        draws = np.random.default_rng(trial).standard_normal((40, config.d)) ** 2
        return sampler.Chain(samples=draws, log_posterior=-draws.sum(axis=1),
                             config=sampler.SamplerConfig(step_size=0.1, n_steps=40))

    monkeypatch.setattr(experiments, "run_trial", fake_trial)


def test_manifest_failures_do_not_depend_on_thread_timing(monkeypatch, tmp_path):
    # one loop, in trial order: failures are written as [trial, repr(exc)]
    _fail_trials(monkeypatch, (0, 3))
    out = experiments.run_ess_study(_config(tmp_path))
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [[0, "RuntimeError('trial 0 failed')"],
                        [3, "RuntimeError('trial 3 failed')"]]


def test_ess_failure_of_one_trial_is_recorded_and_the_study_written(
        monkeypatch, tmp_path):
    _fail_trials(monkeypatch, (2,))
    real_trial = experiments.run_trial

    def constant_column(config, template, trial):
        chain = real_trial(config, template, trial)
        if trial == 1:
            chain.samples[:, 1] = 0.0  # a coordinate stuck at the boundary
        return chain

    monkeypatch.setattr(experiments, "run_trial", constant_column)
    config = _config(tmp_path, n_trials=4)
    out = experiments.run_ess_study(config)
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [[1, "DegenerateChainError('constant chain has no information')"],
                        [2, "RuntimeError('trial 2 failed')"]]
    rows = (out / "ess_per_coordinate.csv").read_text().splitlines()[1:]
    assert sorted({int(row.split(",")[0]) for row in rows}) == [0, 3]
    assert len(rows) == 2 * config.d
    llr = (out / "llr_ess.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in llr] == [0, 3]
    assert sorted(p.name for p in (out / "chains").glob("*.npy")) == [
        "0.npy", "1.npy", "3.npy"]
    assert np.all(np.load(out / "chains" / "1.npy")[:, 1] == 0.0)


@pytest.mark.parametrize("queued", ["at once", "one at a time"])
def test_a_dead_worker_costs_its_trials_not_the_study(monkeypatch, tmp_path, queued):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _fail_trials(monkeypatch, ())
    real_trial = experiments.run_trial

    def die_on_trial_1(config, template, trial):
        if trial == 1:
            os._exit(1)  # as an OOM kill would end the worker
        return real_trial(config, template, trial)

    monkeypatch.setattr(experiments, "run_trial", die_on_trial_1)
    if queued == "one at a time":
        # each trial is queued once the one before it has ended, so the
        # trials after the dead worker meet a broken pool at submission
        real_submit = ProcessPoolExecutor.submit

        def submit_and_wait(self, *args, **kwargs):
            future = real_submit(self, *args, **kwargs)
            futures.wait([future])
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_and_wait)
    out = experiments.run_ess_study(_config(tmp_path, n_trials=4))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["processes"] == 2
    failed = dict(manifest["failures"])
    assert failed[1].startswith("BrokenProcessPool(")
    # every trial is either written or recorded as failed
    written = {int(p.stem) for p in (out / "chains").glob("*.npy")}
    assert written | set(failed) == {0, 1, 2, 3} and not written & set(failed)
    if queued == "one at a time":
        assert written == {0}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("study", ["ess", "coverage"])
def test_a_worker_that_dies_after_writing_its_chain_leaves_no_file(
        monkeypatch, tmp_path, study):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _fail_trials(monkeypatch, ())
    real_export = sampler.Chain.export_npy

    def export_then_die(chain, path):
        real_export(chain, path)
        if Path(path).stem == "1":
            os._exit(1)  # the chain and its sidecar are on disk

    monkeypatch.setattr(sampler.Chain, "export_npy", export_then_die)
    config = _config(tmp_path, n_trials=4)
    try:
        out = getattr(experiments, f"run_{study}_study")(config)
    except ConfigError as exc:  # no coverage trial completed
        assert study == "coverage"
        assert "at least one completed trial" in str(exc)
        out = tmp_path / config.run_tag()
    failed = dict(json.loads((out / "manifest.json").read_text())["failures"])
    assert failed[1].startswith("BrokenProcessPool(")
    chains = out / "chains"
    assert not (chains / "1.npy").exists()
    assert not (chains / "1.npy.meta.json").exists()
    written = {int(p.stem) for p in chains.glob("*.npy")}
    assert written | set(failed) == {0, 1, 2, 3} and not written & set(failed)
    assert {int(p.name.split(".")[0]) for p in chains.glob("*.meta.json")} == written
    assert multiprocessing.active_children() == []


def test_config_hash_ignores_out_dir(tmp_path):
    a = _config(tmp_path / "a")
    assert a.config_hash() == _config(tmp_path / "b").config_hash()
    assert a.config_hash() != _config(tmp_path / "a", n_steps=41).config_hash()


def test_coverage_study_with_every_trial_failed_writes_manifest_and_raises(
        monkeypatch, tmp_path):
    _fail_trials(monkeypatch, range(3))
    config = _config(tmp_path, n_trials=3)
    with pytest.raises(ConfigError, match="at least one completed trial"):
        experiments.run_coverage_study(config)
    manifest = json.loads(
        (tmp_path / config.run_tag() / "manifest.json").read_text())
    assert [trial for trial, _ in manifest["failures"]] == [0, 1, 2]
    assert manifest["n_completed"] == 0
    assert not (tmp_path / config.run_tag() / "coverage.csv").exists()


@pytest.mark.parametrize("overrides", [
    {"n_trials": 0},
    {"n_steps": 100, "burn_in": 100},
    {"step_size": 0.0},
    {"thin": 0},
    {"warm_start": "Mode"},  # was accepted, and warm-started at the truth
    {"seed": -1},  # failed every trial in derive_seed, then the manifest
    {"d": 0},  # ran every trial into DegenerateChainError
])
def test_config_rejects_bad_study_settings(tmp_path, overrides):
    with pytest.raises(ConfigError):
        _config(tmp_path, **overrides)


def test_gmm_template_needs_weights_beyond_the_defaults(tmp_path):
    config = _config(tmp_path, model="gmm", d=8, k=4)
    with pytest.raises(ConfigError, match="k=4"):
        experiments.run_ess_study(config)
    assert not (tmp_path / config.run_tag()).exists()  # no trial ran
    mixture = experiments.gmm_mixture(4, 8, weights=[1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(mixture["weights"], [0.25] * 4)
    assert mixture["covariances"].shape == (4, 2, 2)
