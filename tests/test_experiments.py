import json
import threading

import numpy as np

from orthant_gibbs import experiments, sampler


def _failures_written(monkeypatch, tmp_path, jobs):
    """The manifest's failure list of a 6-trial study in which trials 0 and 3
    fail; under a thread pool trial 0 fails only after trial 3 has."""
    trial_3_failed = threading.Event()

    def fake_trial(config, template, trial):
        if trial == 0 and threading.current_thread() is not threading.main_thread():
            assert trial_3_failed.wait(timeout=30)
        if trial in (0, 3):
            if trial == 3:
                trial_3_failed.set()
            raise RuntimeError(f"trial {trial} failed")
        draws = np.random.default_rng(trial).standard_normal((40, config.d)) ** 2
        return sampler.Chain(samples=draws, log_posterior=-draws.sum(axis=1),
                             config=sampler.SamplerConfig(step_size=0.1, n_steps=40))

    monkeypatch.setattr(experiments, "run_trial", fake_trial)
    config = experiments.ExperimentConfig(
        preset="custom", model="logistic", d=3, n=50, n_trials=6, n_steps=40,
        burn_in=0, step_size=0.1, step_scale="literal", jobs=jobs,
        out_dir=str(tmp_path / f"jobs{jobs}"))
    out = experiments.run_ess_study(config)
    return json.loads((out / "manifest.json").read_text())["failures"]


def test_manifest_failures_do_not_depend_on_thread_timing(monkeypatch, tmp_path):
    serial = _failures_written(monkeypatch, tmp_path, jobs=1)
    pooled = _failures_written(monkeypatch, tmp_path, jobs=2)
    assert [trial for trial, _ in serial] == [0, 3]
    assert pooled == serial
