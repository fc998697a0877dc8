import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthant_gibbs import assumptions, geometry, io
from orthant_gibbs.errors import ConfigError, ShapeError


def make_good_set(theta_hat=(1.0, 2.0, 0.0, 0.0), delta0=2.0, delta1=5.0, n=100):
    theta_hat = np.asarray(theta_hat, dtype=float)
    split, center = geometry.split_coordinates(theta_hat, 1e-6)
    return geometry.build_good_set(center, split, delta0, delta1, n)


def test_split_coordinates_basic():
    split, center = geometry.split_coordinates(np.array([1.0, 0.0]), 1e-6)
    assert split.S0.tolist() == [0] and split.S1.tolist() == [1]
    assert split.d0 == 1 and split.d1 == 1


def test_split_coordinates_all_regular():
    split, _ = geometry.split_coordinates(np.array([0.5, 2.0]), 1e-6)
    assert split.d1 == 0 and split.d0 == 2


def test_split_coordinates_snaps_threshold():
    split, center = geometry.split_coordinates(np.array([3e-7, 2.0]), 1e-6)
    assert split.S0.tolist() == [1] and split.S1.tolist() == [0]
    np.testing.assert_array_equal(center, [0.0, 2.0])


def test_split_partition_invariant():
    theta = np.array([0.0, 1.0, 0.0, 3.0, 2e-8])
    split, _ = geometry.split_coordinates(theta, 1e-6)
    assert sorted(split.S0.tolist() + split.S1.tolist()) == list(range(5))
    assert split.d0 + split.d1 == 5


def test_build_good_set_radii():
    gs = make_good_set(delta0=2.0, delta1=5.0, n=100)
    # r0 = 2*sqrt(2/100), r1 = 5/100
    assert gs.r0 == pytest.approx(2.0 * np.sqrt(2.0 / 100.0))
    assert gs.r1 == pytest.approx(0.05)


def test_build_good_set_r0_formula_matches_spec_example():
    theta_hat = np.ones(4)
    split, center = geometry.split_coordinates(theta_hat, 1e-6)
    gs = geometry.build_good_set(center, split, 2.0, 1.0, 400)
    assert gs.r0 == pytest.approx(0.2)


@pytest.mark.parametrize("tau", [float("nan"), 0.0, -1e-6, float("inf")])
def test_split_coordinates_rejects_a_bad_threshold(tau):
    # a NaN tau would put every coordinate in S0, an infinite one all in S1
    with pytest.raises(ConfigError, match="tau"):
        geometry.split_coordinates(np.array([1.0, 0.0]), tau)


def test_default_deltas():
    delta0, delta1 = geometry.default_deltas(d1=3, eps=0.05)
    assert delta0 == pytest.approx(np.log(1 / 0.05))
    assert delta1 == pytest.approx(np.log(3 / 0.05))


def test_build_good_set_rejects_delta0_without_regular_part():
    split, center = geometry.split_coordinates(np.zeros(3), 1e-6)
    with pytest.raises(ConfigError):
        geometry.build_good_set(center, split, 1.0, 1.0, 10)
    gs = geometry.build_good_set(center, split, None, 1.0, 10)
    assert gs.r0 == 0.0 and gs.r1 == pytest.approx(0.1)


def test_build_good_set_warns_on_large_ball():
    theta_hat = np.array([0.01, 0.0])
    split, center = geometry.split_coordinates(theta_hat, 1e-6)
    messages = []
    geometry.build_good_set(center, split, 10.0, 1.0, 100,
                            warn=messages.append)
    assert len(messages) == 1


def contains(gs, theta) -> bool:
    """Membership of one point, as a one-row batch."""
    return bool(geometry.contains_many(gs, np.asarray(theta)[None])[0])


def test_contains_center_and_boundary():
    gs = make_good_set()
    assert contains(gs, gs.center)
    # S1 coordinate just past r1: outside (closed set, exact comparison)
    theta = gs.center.copy()
    theta[gs.split.S1[0]] = gs.r1 + 1e-9
    assert not contains(gs, theta)
    theta[gs.split.S1[0]] = gs.r1
    assert contains(gs, theta)
    # S0 displaced by exactly r0 along one axis: inside (closed ball)
    theta = gs.center.copy()
    theta[gs.split.S0[0]] += gs.r0
    assert contains(gs, theta)


def test_contains_requires_orthant():
    gs = make_good_set(theta_hat=(0.001, 2.0, 0.0, 0.0), delta0=2.0, n=100)
    theta = gs.center.copy()
    theta[0] = -0.01  # inside the ball but outside the orthant
    assert np.linalg.norm(theta[gs.split.S0] - gs.center[gs.split.S0]) <= gs.r0
    assert not contains(gs, theta)


def test_contains_shape_error():
    gs = make_good_set()
    with pytest.raises(ShapeError):
        contains(gs, np.zeros(7))


def test_contains_many_matches_scalar():
    gs = make_good_set()
    rng = np.random.default_rng(0)
    thetas = np.abs(gs.center + 0.1 * rng.standard_normal((50, 4)))
    # a NaN in the S0 block, the S1 block, or the whole row is outside
    thetas = np.vstack([thetas, [np.nan, 2.0, 0.0, 0.0], [1.0, 2.0, np.nan, 0.0],
                        np.full(4, np.nan)])
    many = geometry.contains_many(gs, thetas)
    singles = np.array([contains(gs, t) for t in thetas])
    np.testing.assert_array_equal(many, singles)
    assert not many[-3:].any()


def test_good_set_json_roundtrip(tmp_path):
    gs = make_good_set()
    path = tmp_path / "gs.json"
    gs.save(path)
    doc = io.read_json(path)
    assert doc == {"center": [1.0, 2.0, 0.0, 0.0], "split": {"S0": [0, 1], "S1": [2, 3]},
                   "r0": gs.r0, "r1": gs.r1}
    again = geometry.GoodSet.from_json(doc)
    np.testing.assert_array_equal(again.center, gs.center)
    np.testing.assert_array_equal(again.split.S0, gs.split.S0)
    np.testing.assert_array_equal(again.split.S1, gs.split.S1)
    assert (again.r0, again.r1) == (gs.r0, gs.r1)


@pytest.mark.parametrize("change", [{"center": [-3.0, 0.0]}, {"center": [np.nan, 0.0]},
                                    {"r0": -0.5}, {"r0": np.nan}, {"r0": np.inf}],
                         ids=["center-3", "center-nan", "r0-0.5", "r0-nan", "r0-inf"])
def test_good_set_rejects_a_bad_center_or_radius(change):
    # the ball projection steps its scale down until the point lies in the
    # ball; with a negative radius, or a center the orthant clamp keeps it
    # away from, that never happens, so such a set must not be built
    doc = {"center": [1.0, 0.0], "split": {"S0": [0], "S1": [1]}, "r0": 0.5, "r1": 0.1,
           **change}
    with pytest.raises(ConfigError):
        geometry.GoodSet.from_json(doc)
    with pytest.raises(ConfigError):
        geometry.GoodSet(center=doc["center"], split=geometry.CoordinateSplit(S0=[0], S1=[1]),
                         r0=doc["r0"], r1=doc["r1"])


@given(hnp.arrays(float, st.integers(1, 8),
                  elements=st.floats(-10, 10, allow_nan=False)))
@settings(max_examples=100, deadline=None)
def test_project_orthant_properties(theta):
    proj = geometry.project_orthant(theta)
    assert np.all(proj >= 0)
    # idempotent and a true Euclidean projection (coordinate-wise max)
    np.testing.assert_array_equal(geometry.project_orthant(proj), proj)
    np.testing.assert_array_equal(proj, np.maximum(theta, 0.0))


@given(st.integers(0, 500))
@settings(max_examples=100, deadline=None)
def test_project_good_set_lands_inside(seed):
    gs = make_good_set()
    rng = np.random.default_rng(seed)
    theta = gs.center + rng.uniform(-3, 3, size=4)
    proj = geometry.project_good_set(gs, theta)
    assert contains(gs, proj)


@given(seed=st.integers(0, 2**32 - 1), d0=st.integers(50, 150))
@settings(max_examples=10, deadline=None)
def test_projected_batch_passes_contains_many(seed, d0):
    # projected points sit on the ball's sphere and on the box's faces to the
    # last ulp, so the batch membership test must reduce each row in the
    # projection's own order and compare against the box it clamps to. The
    # second set is one a --good-set file can give: a boundary centre c > 0,
    # whose face c + r1 lies, once rounded, up to an ulp more than r1 from c
    rng = np.random.default_rng(seed)
    theta_hat = np.concatenate([rng.uniform(1.0, 3.0, d0), np.zeros(3)])
    built = make_good_set(theta_hat, delta0=3.0, delta1=5.0, n=800)
    theta_hat[d0:] = rng.uniform(0.0, 1.0, 3)
    doc = {**io.to_jsonable(built), "center": theta_hat.tolist(),
           "r1": rng.uniform(0.01, 0.5)}
    for gs in (built, geometry.GoodSet.from_json(doc)):
        outside = theta_hat + rng.uniform(-0.5, 0.5, size=(500, theta_hat.size))
        assert not geometry.contains_many(gs, outside).any()
        proj = np.array([geometry.project_good_set(gs, t) for t in outside])
        many = geometry.contains_many(gs, proj)
        assert many.all()
        np.testing.assert_array_equal(many, [contains(gs, t) for t in proj])
        # the constants' Monte Carlo region draws from the same set
        region = assumptions.RegionSpec(center=gs.center, split=gs.split,
                                        r0=gs.r0, r1=gs.r1)
        assert geometry.contains_many(gs, assumptions.sample_region(
            region, np.random.default_rng(seed), 500)).all()


def test_project_good_set_fixes_members():
    gs = make_good_set()
    theta = gs.center.copy()
    theta[gs.split.S0] += gs.r0 / 3.0
    theta[gs.split.S1] = gs.r1 / 2.0
    np.testing.assert_allclose(geometry.project_good_set(gs, theta), theta)
