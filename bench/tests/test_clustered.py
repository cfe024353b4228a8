import numpy as np
import pytest

import clustered
from tracetaylor import cli, operator_core


def _tol(lam):
    return clustered.CLUSTER_TOL * (1.0 + lam[-1] - lam[0])


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("dim", clustered.DIMS)
def test_exact_clusters_repeat_each_value_four_times(seed, dim):
    rng = np.random.default_rng(seed)
    w = clustered.clustered_spectrum(rng, dim, "exact", -0.8, 0.8)
    groups = w.reshape(-1, clustered.CLUSTER_SIZE)
    assert np.all(groups == groups[:, :1])
    assert np.unique(w).size == dim // clustered.CLUSTER_SIZE
    assert w.min() >= -0.8 and w.max() <= 0.8


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("dim", clustered.DIMS)
def test_near_chains_have_gaps_of_two_to_five_tolerances(seed, dim):
    rng = np.random.default_rng(seed)
    w = clustered.clustered_spectrum(rng, dim, "near", -0.8, 0.8)
    assert np.all(np.diff(w) > 0)
    ratios = np.diff(w.reshape(-1, clustered.CLUSTER_SIZE), axis=1) / _tol(w)
    assert ratios.min() >= 2.0 and ratios.max() <= 5.0
    # clusters themselves stay far apart
    between = w[clustered.CLUSTER_SIZE::clustered.CLUSTER_SIZE] - \
        w[clustered.CLUSTER_SIZE - 1:-1:clustered.CLUSTER_SIZE]
    assert np.all(between > 1e3 * _tol(w))


@pytest.mark.parametrize("seed", [0, 12345])
def test_decompose_sees_the_intended_clusters(seed):
    cfg = cli.ExperimentConfig(seed=seed)
    for dim in clustered.DIMS:
        for order in clustered.ORDERS:
            for trial, kind in enumerate(clustered.KINDS):
                H0, V, got_kind = clustered.make_instance(cfg, dim, order, trial)
                assert got_kind == kind
                D = operator_core.decompose(H0.mat)
                if kind == "exact":
                    assert len(D.clusters) == dim // clustered.CLUSTER_SIZE
                    assert all(len(c) == clustered.CLUSTER_SIZE for c in D.clusters)
                else:
                    # every chained eigenvalue is its own cluster, so the
                    # quotient branch runs on gaps of 2-5 tolerances
                    assert len(D.clusters) == dim
                    lam = D.eigenvalues
                    gaps = np.diff(lam).reshape(-1)
                    ratios = gaps[gaps < 1e3 * _tol(lam)] / _tol(lam)
                    assert ratios.size == dim - dim // clustered.CLUSTER_SIZE
                    assert ratios.min() >= 2.0 and ratios.max() <= 5.0
                assert operator_core.operator_norm(V) == pytest.approx(
                    cfg.perturbation_scale)
