import json
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import orthant_gibbs
from orthant_gibbs import (assumptions, cli, diagnostics, experiments, geometry, io,
                          models, sampler)


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    code = run(["simulate", "--model", "logistic", "--n", 300,
                "--theta-star", "[1,1,0]", "--seed", 5, "--out", out])
    assert code == 0
    return out


def test_simulate_writes_dataset_and_config(sim_dir):
    assert sorted(p.name for p in sim_dir.iterdir()) == ["dataset.npz", "model.json"]
    doc = json.loads((sim_dir / "model.json").read_text())
    assert doc["kind"] == "logistic" and doc["n"] == 300 and doc["seed"] == 5


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHANT_GIBBS_SEED", "99")
    out = tmp_path / "sim"
    run(["simulate", "--model", "logistic", "--n", 50,
         "--theta-star", "[1]", "--seed", 5, "--out", out])
    doc = json.loads((out / "model.json").read_text())
    assert doc["seed"] == 99


def test_mode_check_sample_pipeline(tmp_path, sim_dir):
    mode_path = tmp_path / "mode.json"
    assert run(["mode", "--model-config", sim_dir / "model.json",
                "--out", mode_path]) == 0
    mode_doc = json.loads(mode_path.read_text())
    assert mode_doc["converged"]

    check_path = tmp_path / "check.json"
    assert run(["check", "--model-config", sim_dir / "model.json",
                "--mode-result", mode_path, "--grid", 40,
                "--out", check_path]) == 0
    report = json.loads(check_path.read_text())
    assert report["s2_hat"] >= report["c_S0_hat"] > 0

    # unreachable threshold: exit code 1, report still written
    assert run(["check", "--model-config", sim_dir / "model.json",
                "--mode-result", mode_path, "--grid", 40,
                "--min-c-s0", 1e6, "--out", check_path]) == 1

    chain_path = tmp_path / "chain.csv"
    assert run(["sample", "--model-config", sim_dir / "model.json",
                "--step", 1e-3, "--steps", 400, "--burn-in", 200,
                "--seed", 1, "--out", chain_path]) == 0
    body = np.loadtxt(chain_path, delimiter=",", skiprows=1)
    assert body.shape == (200, 4)  # theta_0..theta_2, log_post
    assert np.all(body[:, :3] >= 0)


def test_sample_is_reproducible(tmp_path, sim_dir):
    paths = [tmp_path / f"chain{i}.csv" for i in range(2)]
    for path in paths:
        run(["sample", "--model-config", sim_dir / "model.json",
             "--step", 1e-3, "--steps", 100, "--seed", 4, "--out", path])
    a = paths[0].read_text().splitlines()
    b = paths[1].read_text().splitlines()
    assert a == b


def test_gap_exponential_benchmark(tmp_path, capsys):
    out = tmp_path / "gap.json"
    assert run(["gap", "--benchmark", "exponential", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["exponential"]["gap"] == pytest.approx(0.25 + (np.pi / 20) ** 2,
                                                      rel=0.01)
    assert doc["exponential"]["implied_C_PI"] <= 4.0


def test_gap_all_benchmarks(tmp_path):
    out = tmp_path / "gap.json"
    assert run(["gap", "--grid-points", 4000, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"uniform", "gaussian", "exponential"}
    assert doc["uniform"]["gap"] == pytest.approx(np.pi**2, rel=0.01)
    assert doc["gaussian"]["gap"] == pytest.approx(1.0, rel=0.01)


def test_ess_study_outputs(tmp_path):
    out = tmp_path / "ess"
    code = run(["ess", "--preset", "asymptotic", "--model", "logistic",
                "--n-trials", 2, "--n-steps", 600, "--burn-in", 300,
                "--seed", 3, "--out", out])
    assert code == 0
    run_dir = out / "asymptotic_logistic_seed3"
    per_coord = (run_dir / "ess_per_coordinate.csv").read_text().splitlines()
    assert per_coord[0] == "trial,coordinate,ess"
    assert len(per_coord) == 1 + 2 * 10  # 2 trials x d=10
    llr = (run_dir / "llr_ess.csv").read_text().splitlines()
    assert llr[0] == "trial,ess" and len(llr) == 3
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["failures"] == [] and "config_hash" in manifest
    assert (run_dir / "chains" / "0.npy").exists()


def test_coverage_study_outputs(tmp_path):
    out = tmp_path / "cov"
    code = run(["coverage", "--preset", "asymptotic", "--model", "logistic",
                "--n-trials", 2, "--n-steps", 600, "--burn-in", 300,
                "--seed", 3, "--out", out])
    assert code == 0
    rows = (out / "asymptotic_logistic_seed3" / "coverage.csv"
            ).read_text().splitlines()
    assert rows[0] == "coordinate,coverage,is_boundary"
    assert len(rows) == 11  # d=10
    flags = [row.split(",")[2] for row in rows[1:]]
    assert flags.count("1") == 1  # exactly one boundary coordinate
    chains = sorted(p.name for p in (out / "asymptotic_logistic_seed3" / "chains").iterdir())
    assert chains == ["0.npy", "0.npy.meta.json", "1.npy", "1.npy.meta.json"]
    assert np.load(out / "asymptotic_logistic_seed3" / "chains" / "1.npy").shape == (300, 11)


def test_a_study_with_no_completed_trial_exits_2_after_its_manifest(
        tmp_path, capsys, monkeypatch):
    # 5 kept draws, and bulk ESS needs 8: both ess trials fail
    argv = ["--model", "logistic", "--n-trials", 2, "--n-steps", 10, "--burn-in", 5]
    assert run(["ess", *argv, "--out", tmp_path / "ess"]) == 2
    assert "at least one completed trial" in capsys.readouterr().err
    run_dir = tmp_path / "ess" / "pre_asymptotic_logistic_seed0"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["failures"] == [[trial, "ConfigError('each chain must have at "
                                            "least 8 draws')"] for trial in (0, 1)]
    assert not (run_dir / "ess_per_coordinate.csv").exists()
    assert not (run_dir / "llr_ess.csv").exists()

    def no_interval(*args):
        raise RuntimeError("no interval")

    monkeypatch.setattr(diagnostics, "interval_hits", no_interval)
    assert run(["coverage", *argv, "--out", tmp_path / "cov"]) == 2
    assert "at least one completed trial" in capsys.readouterr().err
    run_dir = tmp_path / "cov" / "asymptotic_logistic_seed0"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert [trial for trial, _ in manifest["failures"]] == [0, 1]
    assert manifest["n_completed"] == 0
    assert not (run_dir / "coverage.csv").exists()


def test_study_rerun_is_byte_identical(tmp_path):
    args = ["ess", "--preset", "asymptotic", "--model", "logistic",
            "--n-trials", 1, "--n-steps", 400, "--burn-in", 200, "--seed", 8]
    bodies = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(args + ["--out", out]) == 0
        run_dir = out / "asymptotic_logistic_seed8"
        bodies.append(((run_dir / "ess_per_coordinate.csv").read_bytes(),
                       (run_dir / "chains" / "0.npy").read_bytes()))
    assert bodies[0] == bodies[1]


def test_package_import_leaves_scipy_stats_unloaded():
    code = ("import sys, orthant_gibbs, orthant_gibbs.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    # the same sources as this process, whether installed or on pytest's path
    env = dict(os.environ, PYTHONPATH=str(Path(orthant_gibbs.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"


def test_package_import_loads_no_scipy():
    code = ("import sys, orthant_gibbs, orthant_gibbs.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(orthant_gibbs.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"


def test_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "preset": "asymptotic", "model": "logistic", "n_trials": 5,
        "n_steps": 400, "burn_in": 200, "seed": 2}))
    out = tmp_path / "run"
    assert run(["ess", "--config", config_path, "--n-trials", 1,
                "--out", out]) == 0
    manifest = json.loads(
        (out / "asymptotic_logistic_seed2" / "manifest.json").read_text())
    assert manifest["config"]["n_trials"] == 1  # flag beat the file
    assert manifest["config"]["n_steps"] == 400


def test_hard_error_exit_code(tmp_path):
    assert run(["mode", "--model-config", tmp_path / "missing.json",
                "--out", tmp_path / "m.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["mode", "--model-config", bad,
                "--out", tmp_path / "m.json"]) == 2


def _beside_the_dataset(tmp_path, sim_dir, **change) -> Path:
    """A copy of sim_dir's dataset with an edited model.json beside it."""
    bad_dir = tmp_path / "edited"
    bad_dir.mkdir()
    shutil.copy(sim_dir / "dataset.npz", bad_dir)
    doc = json.loads((sim_dir / "model.json").read_text())
    (bad_dir / "model.json").write_text(json.dumps({**doc, **change}))
    return bad_dir / "model.json"


def test_check_exits_2_on_a_non_finite_model_config(tmp_path, sim_dir):
    # model.json's truth warm-starts mode and is checked when it is read:
    # a NaN there stops check before it reads the dataset beside it
    mode_path = tmp_path / "mode.json"
    assert run(["mode", "--model-config", sim_dir / "model.json",
                "--out", mode_path]) == 0
    # written as the JSON literal NaN
    bad = _beside_the_dataset(tmp_path, sim_dir, theta_star=[float("nan"), 1.0, 0.0])
    assert run(["check", "--model-config", bad, "--mode-result", mode_path,
                "--grid", 10, "--out", tmp_path / "check.json"]) == 2
    assert not (tmp_path / "check.json").exists()


@pytest.mark.parametrize("change,message", [
    ({"kind": "poisson"}, "kind is 'logistic', but model.json says 'poisson'"),
    ({"theta_star": [1, 1, 0, 0]}, "d is 3, but model.json says 4"),
    ({"n": 299}, "n is 300, but model.json says 299"),
])
def test_exits_2_when_the_dataset_disagrees_with_model_json(tmp_path, sim_dir, capsys,
                                                            change, message):
    bad = _beside_the_dataset(tmp_path, sim_dir, **change)
    assert run(["mode", "--model-config", bad, "--out", tmp_path / "mode.json"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "mode.json").exists()


def _corrupt(path: Path, name: str) -> None:
    stored = bytearray(path.read_bytes())
    if name == "empty":
        del stored[:]
    elif name == "cut":
        del stored[100:]
    else:  # one flipped bit in the middle of the X member fails its CRC on read
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("X.npy")
        stored[info.header_offset + info.file_size // 2] ^= 0x10
    path.write_bytes(stored)


@pytest.mark.parametrize("name", ["empty", "cut", "bit_flip"])
def test_exits_2_on_an_unreadable_dataset(tmp_path, sim_dir, capsys, name):
    mode_path = tmp_path / "mode.json"
    assert run(["mode", "--model-config", sim_dir / "model.json",
                "--out", mode_path]) == 0
    bad = _beside_the_dataset(tmp_path, sim_dir)
    dataset = bad.parent / "dataset.npz"
    _corrupt(dataset, name)
    out = tmp_path / "out"
    for command in (["mode"], ["check", "--mode-result", mode_path, "--grid", 10],
                    ["sample", "--step", 1e-3, "--steps", 20]):
        capsys.readouterr()
        assert run([*command, "--model-config", bad, "--out", out]) == 2, command
        assert f"dataset {dataset} cannot be read" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("field", ["weights", "covariances"])
def test_exits_2_when_the_gmm_mixture_disagrees_with_model_json(tmp_path, capsys, field):
    sim = tmp_path / "gsim"
    assert run(["simulate", "--model", "gmm", "--n", 40, "--theta-star", "[1,1,4,0]",
                "--seed", 3, "--out", sim]) == 0
    doc = json.loads((sim / "model.json").read_text())
    edited = {"weights": [0.6, 0.4],
              "covariances": (2.0 * np.asarray(doc["covariances"])).tolist()}
    bad = _beside_the_dataset(tmp_path, sim, **{field: edited[field]})
    assert run(["mode", "--model-config", bad, "--out", tmp_path / "mode.json"]) == 2
    assert f"the dataset's {field} is" in capsys.readouterr().err
    assert not (tmp_path / "mode.json").exists()


def test_sample_with_a_good_set_file(tmp_path, sim_dir):
    # a good set built in Python, as in README's library example
    config, mode_path = sim_dir / "model.json", tmp_path / "mode.json"
    assert run(["mode", "--model-config", config, "--out", mode_path]) == 0
    split, center = geometry.split_coordinates(io.read_json(mode_path)["theta_hat"], 1e-7)
    delta0, delta1 = geometry.default_deltas(split.d1)
    gs = geometry.build_good_set(center, split, delta0, delta1, 300)
    good_path, chain_path = tmp_path / "good_set.json", tmp_path / "chain.csv"
    gs.save(good_path)
    assert run(["sample", "--model-config", config, "--step", 1e-3, "--steps", 400,
                "--burn-in", 200, "--good-set", good_path, "--out", chain_path]) == 0
    draws = np.loadtxt(chain_path, delimiter=",", skiprows=1)[:, :-1]
    assert draws.shape == (200, 3) and geometry.contains_many(gs, draws).all()
    meta = io.read_json(str(chain_path) + ".meta.json")
    assert meta["config"]["projection"] == io.read_json(good_path)


@pytest.mark.parametrize("theta_hat", [None, [0.0, 0.0, 0.0]],
                         ids=["mode", "every_coordinate_at_0"])
def test_check_writes_the_good_set_it_measured(tmp_path, sim_dir, theta_hat):
    # every coordinate at 0 is the box-only good set (d0 = 0, r0 = 0)
    config, mode_path = sim_dir / "model.json", tmp_path / "mode.json"
    if theta_hat is None:
        assert run(["mode", "--model-config", config, "--out", mode_path]) == 0
    else:
        mode_path.write_text(json.dumps({"theta_hat": theta_hat}))
    out = tmp_path / "check"
    out.mkdir()
    assert run(["check", "--model-config", config, "--mode-result", mode_path,
                "--tau", 1e-6, "--eps", 0.1, "--grid", 10,
                "--out", out / "check.json"]) == 0
    good_path = out / "good_set.json"
    gs = geometry.GoodSet.from_json(io.read_json(good_path))
    split, center = geometry.split_coordinates(io.read_json(mode_path)["theta_hat"], 1e-6)
    delta0, delta1 = geometry.default_deltas(split.d1, eps=0.1)
    expected = geometry.build_good_set(center, split, delta0 if split.d0 else None,
                                       delta1, 300)
    assert io.to_jsonable(gs) == io.to_jsonable(expected)

    chain_path = tmp_path / "chain.csv"
    assert run(["sample", "--model-config", config, "--step", 1e-3, "--steps", 300,
                "--burn-in", 100, "--good-set", good_path, "--out", chain_path]) == 0
    body = np.loadtxt(chain_path, delimiter=",", skiprows=1)
    chain = sampler.Chain(samples=body[:, :-1], log_posterior=body[:, -1],
                          config=sampler.SamplerConfig(step_size=1e-3, n_steps=300,
                                                       burn_in=100, projection=gs))
    assert chain.samples.shape == (200, 3) and sampler.check_membership(chain)


@pytest.mark.parametrize("theta_hat,flag,empty", [
    ([1.0, 1.0, 1.0], "--min-c-s1", "C_S1_hat"),
    ([0.0, 0.0, 0.0], "--min-c-s0", "c_S0_hat"),
], ids=["no_boundary_coordinate", "no_regular_coordinate"])
def test_an_empty_block_has_a_null_constant_and_passes_its_threshold(
        tmp_path, sim_dir, capsys, theta_hat, flag, empty):
    # a block with no coordinates has no constant to hold to a threshold,
    # and check.json stays standard JSON: null, never the literal NaN
    mode_path, out = tmp_path / "mode.json", tmp_path / "check.json"
    mode_path.write_text(json.dumps({"theta_hat": theta_hat}))
    assert run(["check", "--model-config", sim_dir / "model.json", "--mode-result",
                mode_path, "--grid", 10, flag, 0.01, "--out", out]) == 0
    assert f"{empty}=null" in capsys.readouterr().out
    text = out.read_text()
    assert f'"{empty}": null' in text and "NaN" not in text
    report = json.loads(text)
    assert all(report[key] is not None for key in report if key != empty)


@pytest.mark.parametrize("theta_hat,size", [
    ([1.0, 0.5, 0.0], assumptions.concentration_sample_size(2, 1, 0.05)),
    ([1.0, 1.0, 1.0], "n/a"),
    ([0.0, 0.0, 0.0], "n/a"),
], ids=["both_blocks", "no_boundary_coordinate", "no_regular_coordinate"])
def test_check_prints_the_concentration_sample_size_beside_n(tmp_path, sim_dir, capsys,
                                                             theta_hat, size):
    # the paper's sample size for good-set concentration needs both blocks
    mode_path, out = tmp_path / "mode.json", tmp_path / "check.json"
    mode_path.write_text(json.dumps({"theta_hat": theta_hat}))
    assert run(["check", "--model-config", sim_dir / "model.json", "--mode-result",
                mode_path, "--grid", 10, "--out", out]) == 0
    assert f"n=300  concentration_sample_size={size}\n" in capsys.readouterr().out
    assert "concentration" not in out.read_text()


def test_mode_bounds_select_the_search_in_that_box(tmp_path, sim_dir):
    # a box given to a logistic mode runs the multi-start search in it, as
    # with --global; without one, mode runs one ascent from the truth
    box = "[[0, 0, 0], [3, 3, 3]]"
    paths = {name: tmp_path / f"{name}.json" for name in ("bounds", "global", "local")}
    for name, flags in (("bounds", ["--bounds", box]),
                        ("global", ["--global", "--bounds", box]), ("local", [])):
        assert run(["mode", "--model-config", sim_dir / "model.json", *flags,
                    "--out", paths[name]]) == 0
    assert paths["bounds"].read_bytes() == paths["global"].read_bytes()
    assert paths["bounds"].read_bytes() != paths["local"].read_bytes()


@pytest.mark.parametrize("bounds", ["[[0, 0, 0]]", "[[0, 0, 0], [5, 5, 5], [6, 6, 6]]",
                                    "5"])
def test_mode_bounds_that_are_not_a_pair_exit_2(tmp_path, sim_dir, capsys, bounds):
    out = tmp_path / "mode.json"
    assert run(["mode", "--model-config", sim_dir / "model.json", "--global",
                "--bounds", bounds, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bounds", ["[[0, 0], [1, 1]]", "[[0, 0, 0, 0], [1, 1, 1, 1]]"])
def test_mode_bounds_of_the_wrong_length_exit_2_naming_the_box(tmp_path, sim_dir,
                                                               capsys, bounds):
    # refused before any ascent, naming the box and the model's d
    out = tmp_path / "mode.json"
    assert run(["mode", "--model-config", sim_dir / "model.json",
                "--bounds", bounds, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "bounding box" in err and "d=3" in err
    assert not out.exists()


@pytest.mark.parametrize("radius,value", [("r0", -0.5), ("r0", float("nan")),
                                          ("r0", float("inf")), ("r1", -0.1),
                                          ("r1", float("nan")), ("r1", float("inf"))])
def test_sample_refuses_a_good_set_file_with_a_bad_radius(tmp_path, sim_dir, capsys,
                                                          radius, value):
    # json writes NaN and Infinity, and reads them back
    good_path, chain_path = tmp_path / "good_set.json", tmp_path / "c.csv"
    good_path.write_text(json.dumps({"center": [1.0, 1.0, 0.0],
                                     "split": {"S0": [0, 1], "S1": [2]},
                                     "r0": 0.2, "r1": 0.01, radius: value}))
    assert run(["sample", "--model-config", sim_dir / "model.json", "--step", 1e-3,
                "--steps", 10, "--good-set", good_path, "--out", chain_path]) == 2
    assert "error:" in capsys.readouterr().err
    assert not chain_path.exists()


def test_files_in_the_earlier_layout_exit_2_naming_the_missing_key(tmp_path, sim_dir,
                                                                  capsys):
    # the prior as {name, lipschitz}, and the good set with a flat S0/S1 and
    # its radius multipliers
    bad = _beside_the_dataset(tmp_path, sim_dir,
                              prior={"name": "flat", "lipschitz": 0.0})
    assert run(["mode", "--model-config", bad, "--out", tmp_path / "mode.json"]) == 2
    assert "missing key 'rate'" in capsys.readouterr().err
    good_path = tmp_path / "good_set.json"
    good_path.write_text(json.dumps({"center": [1.0, 1.0, 0.0], "S0": [0, 1], "S1": [2],
                                     "delta0": 3.0, "delta1": 4.0, "n": 300,
                                     "r0": 0.2, "r1": 0.01}))
    assert run(["sample", "--model-config", sim_dir / "model.json", "--step", 1e-3,
                "--steps", 10, "--good-set", good_path, "--out", tmp_path / "c.csv"]) == 2
    assert "missing key 'split'" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_seed_drives_the_algorithm_not_the_data(tmp_path, monkeypatch):
    sim = tmp_path / "sim"
    assert run(["simulate", "--model", "logistic", "--n", 400, "--theta-star",
                "[1,1,1,0]", "--seed", 3, "--out", sim]) == 0
    config = sim / "model.json"
    mode_args = ["mode", "--model-config", config, "--out"]
    assert run(mode_args + [tmp_path / "mode.json"]) == 0
    assert run(mode_args + [tmp_path / "flag.json", "--seed", 4]) == 0
    monkeypatch.setenv("ORTHANT_GIBBS_SEED", "4")
    assert run(mode_args + [tmp_path / "env.json"]) == 0
    monkeypatch.delenv("ORTHANT_GIBBS_SEED")
    plain = (tmp_path / "mode.json").read_bytes()
    assert (tmp_path / "flag.json").read_bytes() == plain
    assert (tmp_path / "env.json").read_bytes() == plain

    chain_path = tmp_path / "chain.csv"
    assert run(["sample", "--model-config", config, "--step", 1e-3, "--steps", 300,
                "--burn-in", 100, "--seed", 4, "--out", chain_path]) == 0
    template, _ = io.load_model_config(config)
    model = models.ModelInstance(io.load_dataset(sim / "dataset.npz"),
                                 prior=template.prior, theta_star=template.theta_star)
    chain = sampler.run_chain(model, sampler.SamplerConfig(
        step_size=1e-3, n_steps=300, burn_in=100, seed=4))
    # %.17g reads back every double exactly
    body = np.loadtxt(chain_path, delimiter=",", skiprows=1)
    assert body[:, :-1].tobytes() == chain.samples.tobytes()
    assert body[:, -1].tobytes() == chain.log_posterior.tobytes()


def test_mode_exits_2_on_a_non_finite_prior_rate(tmp_path, sim_dir, capsys):
    doc = json.loads((sim_dir / "model.json").read_text())
    doc["prior"] = {"rate": float("nan")}
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    assert run(["mode", "--model-config", bad, "--out", tmp_path / "mode.json"]) == 2
    assert "prior rate" in capsys.readouterr().err
    assert not (tmp_path / "mode.json").exists()


@pytest.mark.parametrize("argv", [
    ["ess", "--n-steps", 100, "--burn-in", 100],
    ["ess", "--step", 0],
    ["ess", "--step", "nan"],
    ["coverage", "--n-trials", 0],
    ["coverage", "--level", 1.5],
    ["coverage", "--level", "nan"],
    ["ess", "--seed", -1],
    ["ess", {"warm_start": "Mode", "preset": "asymptotic"}],
    ["ess", {"preset": "custom"}],  # a preset value of earlier versions
    ["ess", {"d": 0}],
    ["ess", {"n": 0}],  # the preset step 0.5/n is never divided by 0
    # keys of the earlier study config: one step field, and no study thin
    ["ess", {"step_scale": "literal"}],
    ["ess", {"step_size": 0.5}],
    ["ess", {"thin": 2}],
])
def test_bad_study_settings_exit_2_before_any_trial(tmp_path, capsys, argv):
    if isinstance(argv[-1], dict):  # the fields of a --config file
        config = tmp_path / "config.json"
        config.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + ["--config", config]
    out = tmp_path / "run"
    assert run(argv + ["--model", "logistic", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mode", "--tol", "nan"],
    ["mode", "--tol", 0],
    ["mode", "--global", "--tol", "nan"],
    ["check", "--tau", "nan"],
    ["check", "--tau", 0],
])
def test_bad_tolerance_exits_2(tmp_path, sim_dir, capsys, argv):
    # a NaN or non-positive --tol is never met; a NaN --tau puts every
    # coordinate in S0 and reports a finite bound beside C_S1_hat = null
    mode_path = tmp_path / "mode.json"
    assert run(["mode", "--model-config", sim_dir / "model.json",
                "--out", mode_path]) == 0
    if argv[0] == "check":
        argv = argv + ["--mode-result", mode_path, "--grid", 10]
    out = tmp_path / "out.json"
    assert run(argv + ["--model-config", sim_dir / "model.json", "--out", out]) == 2
    assert "must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--min-c-s0", "--min-c-s1", "--max-c-pi"])
def test_nan_check_threshold_exits_2_before_the_estimate(tmp_path, sim_dir, capsys,
                                                         monkeypatch, flag):
    # no estimate can pass a NaN threshold, so exit 1 would be a false verdict
    mode_path = tmp_path / "mode.json"
    assert run(["mode", "--model-config", sim_dir / "model.json",
                "--out", mode_path]) == 0

    def estimate(*args, **kwargs):
        raise AssertionError("the estimate ran")

    monkeypatch.setattr(assumptions, "estimate_constants", estimate)
    out = tmp_path / "check.json"
    assert run(["check", "--model-config", sim_dir / "model.json",
                "--mode-result", mode_path, flag, "nan", "--out", out]) == 2
    assert "must not be NaN" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "good_set.json").exists()


@pytest.mark.parametrize("flag,text", [
    ("--theta-star", "[]"),
    ("--theta-star", "[[1,0],[1,1]]"),
    ("--theta-star", "1"),
    ("--weights", "[[1],[1]]"),
])
def test_simulate_rejects_a_vector_that_is_not_flat(tmp_path, capsys, flag, text):
    argv = {"--theta-star": "[1,1,4,0]", "--weights": "[1,1]", flag: text}
    out = tmp_path / "sim"
    assert run(["simulate", "--model", "gmm", "--n", 20, "--out", out,
                *(a for pair in argv.items() for a in pair)]) == 2
    assert "non-empty flat JSON array" in capsys.readouterr().err
    assert not out.exists()


def test_sample_rejects_a_nested_init(tmp_path, sim_dir, capsys):
    out = tmp_path / "chain.csv"
    assert run(["sample", "--model-config", sim_dir / "model.json", "--step", 1e-3,
                "--steps", 10, "--init", "[[1,1,0]]", "--out", out]) == 2
    assert "non-empty flat JSON array" in capsys.readouterr().err
    assert not out.exists()


def test_gmm_with_no_components_exits_2(tmp_path, capsys):
    assert run(["simulate", "--model", "gmm", "--k", 0, "--n", 10,
                "--theta-star", "[1,1]", "--out", tmp_path / "sim"]) == 2
    assert "k=0" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()
    config = tmp_path / "k0.json"
    config.write_text(json.dumps({"k": 0}))
    out = tmp_path / "run"
    assert run(["ess", "--model", "gmm", "--config", config, "--out", out]) == 2
    assert "k must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_gmm_without_weights_beyond_defaults_exits_2(tmp_path, capsys):
    assert run(["simulate", "--model", "gmm", "--k", 3, "--n", 50,
                "--theta-star", "[1,1,1,2,2,2]", "--out", tmp_path / "sim"]) == 2
    assert "k=3" in capsys.readouterr().err
    # with weights given, three components simulate
    assert run(["simulate", "--model", "gmm", "--k", 3, "--n", 50,
                "--theta-star", "[1,1,1,2,2,2]", "--weights", "[1,1,2]",
                "--out", tmp_path / "sim"]) == 0


def test_preset_pins():
    config = experiments.preset_config("pre_asymptotic", "logistic")
    assert (config.d, config.n, config.n_trials) == (200, 800, 20)
    assert (config.n_steps, config.burn_in) == (30_000, 20_000)
    # the pre-asymptotic step is 0.5/n or 0.1/n at the study's final n
    assert config.sampler_step == 0.5 / 800
    for model in ("poisson", "gmm"):
        assert experiments.preset_config("pre_asymptotic", model).sampler_step == 0.1 / 800
    assert experiments.preset_config("pre_asymptotic", "logistic",
                                     n=200).sampler_step == 0.5 / 200
    config = experiments.preset_config("asymptotic", "poisson")
    assert (config.d, config.n) == (10, 1000)
    assert config.sampler_step == 0.001


@pytest.mark.parametrize("preset", ["pre_asymptotic", "asymptotic"])
@pytest.mark.parametrize("study", ["ess", "coverage"])
def test_step_flag_is_the_sampler_step(study, preset):
    # ess --step 1e-3 under pre_asymptotic ran its chains at 1e-3/800
    args = cli.build_parser().parse_args([study, "--preset", preset, "--step", "1e-3"])
    config = cli._experiment_config(args, study)
    assert config.sampler_step == 1e-3
    assert config.sampler_config().step_size == 1e-3


def test_simulate_names_a_k_and_weights_disagreement(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run(["simulate", "--model", "gmm", "--k", 2, "--weights", "[0.5,0.3,0.2]",
                "--n", 50, "--theta-star", "[1,1,1,2,2,2]", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "--weights has 3 entries but --k is 2" in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["[1]", "3", '"ess"', "null"])
def test_a_study_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    out = tmp_path / "run"
    assert run(["ess", "--config", config, "--out", out]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_check_on_a_poisson_input_of_the_study_shape_exits_0_or_1(tmp_path, capsys):
    # the pre_asymptotic Poisson shape: both constants are positive, and the
    # Poincare bound's exponent (about 2830) is far past exp's range
    sim, mode, report = tmp_path / "sim", tmp_path / "mode.json", tmp_path / "check.json"
    truth = json.dumps([1.0] * 4 + [0.0] * 196)
    assert run(["simulate", "--model", "poisson", "--n", 800, "--theta-star", truth,
                "--seed", 0, "--out", sim]) == 0
    assert run(["mode", "--model-config", sim / "model.json", "--out", mode]) == 0
    assert run(["check", "--model-config", sim / "model.json", "--mode-result", mode,
                "--out", report]) in (0, 1)
    doc = json.loads(report.read_text())
    assert doc["C_S1_hat"] > 0 and doc["c_S0_hat"] > 0
    assert doc["C_PI_bound"] == float("inf")
    assert 1000 < doc["log10_C_PI_bound"] < float("inf")
    assert "log10_C_PI_bound=" in capsys.readouterr().out
