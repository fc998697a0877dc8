import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from orthant_gibbs import experiments, models


@pytest.fixture
def logistic_model():
    return models.ModelTemplate("logistic", np.array([1.0, 0.5, 0.0]), 200).simulate(7)


@pytest.fixture
def poisson_model():
    return models.ModelTemplate("poisson", np.array([1.0, 0.5, 0.0]), 200).simulate(7)


@pytest.fixture
def gmm_model():
    theta_star = np.array([1.0, 1.0, 4.0, 0.0])
    return models.ModelTemplate("gmm", theta_star, 300, weights=np.array([0.6, 0.4]),
                                covariances=np.stack([np.eye(2), np.eye(2)])).simulate(7)


@pytest.fixture
def gmm_corr_model():
    # unequal, correlated covariances: a transposed or misapplied precision
    # factor passes every identity-covariance test but not this one
    cov_a = np.array([[1.0, 0.6, 0.2], [0.6, 2.0, -0.5], [0.2, -0.5, 1.5]])
    cov_b = np.array([[0.5, -0.2, 0.1], [-0.2, 0.8, 0.3], [0.1, 0.3, 1.2]])
    theta_star = np.array([1.0, 0.5, 2.0, 3.0, 0.0, 1.0])
    return models.ModelTemplate("gmm", theta_star, 300, weights=np.array([0.6, 0.4]),
                                covariances=np.stack([cov_a, cov_b])).simulate(7)


@pytest.fixture
def gmm_far_model(gmm_corr_model):
    # the same mixture with both means 1e3 from the origin: an expanded
    # quadratic form that is not centred on the data mean loses digits here
    data = gmm_corr_model.data
    return models.ModelTemplate("gmm", 1e3 + gmm_corr_model.theta_star, 300,
                                weights=data.weights,
                                covariances=data.covariances).simulate(7)


@pytest.fixture
def gmm_workload_model():
    # the pre_asymptotic gmm study's inputs: k=2, m=100, n=800
    config = experiments.preset_config("pre_asymptotic", "gmm")
    return experiments.build_template(config).simulate(0)
