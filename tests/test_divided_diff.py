import math
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (PolynomialProbe, divided_difference_loop,
                     mean_value_bound_check, permutation_symmetry_residual)
from tracetaylor.divided_diff import (DividedDifferenceCache, divided_difference,
                                      divided_difference_tensor,
                                      sqrt_split_residual,
                                      u_conjugation_residual)
from tracetaylor.operator_core import CLUSTER_TOL, decompose
from tracetaylor.scalar_functions import (DerivativeOrderError, dyadic_root,
                                          make_poly_bump)


def test_polynomial_probe_values():
    assert divided_difference(PolynomialProbe.monomial(2), (1.0, 3.0)) == pytest.approx(4.0)
    assert divided_difference(PolynomialProbe.monomial(3), (1.0, 1.0, 1.0)) == pytest.approx(3.0)
    # complete homogeneous symmetric polynomial h_2(0,1,2) = 7
    assert divided_difference(PolynomialProbe.monomial(4), (0.0, 1.0, 2.0)) == pytest.approx(7.0)


def test_single_node_is_value():
    f = make_poly_bump(0.0, 1.0, 4)
    assert divided_difference(f, (0.25,)) == pytest.approx(f.value(0.25))


def test_confluent_switch_continuity():
    f = make_poly_bump(0.0, 1.0, 6)
    for a in (-0.4, 0.0, 0.55):
        h = 1e-7 * (1 + abs(a))
        two_node = divided_difference(f, (a, a + h))
        assert abs(two_node - f.deriv(1, a)) < 1e-6


def test_node_merging():
    f = make_poly_bump(0.0, 1.0, 6)
    merged = divided_difference(f, (0.5, 0.5 + 1e-12, -0.2))
    exact = divided_difference(f, (0.5, 0.5, -0.2))
    assert merged == pytest.approx(exact, abs=1e-9)
    # a chain of small gaps is one confluent group of three, which needs a
    # second derivative that a C^1 bump does not certify
    c1 = make_poly_bump(0.0, 1.0, 2)
    divided_difference(c1, (0.5, 0.5 + 1e-12))
    with pytest.raises(DerivativeOrderError):
        divided_difference(c1, (0.5, 0.5 + 1e-12, 0.5 + 2e-12))


@pytest.mark.parametrize("gap_ratio", [0.5, 2.0])
def test_decompose_and_divided_difference_share_one_clustering_rule(gap_ratio):
    f = make_poly_bump(0.0, 1.0, 6)
    k = gap_ratio * CLUSTER_TOL
    delta = k / (1.0 - k)  # delta = gap_ratio * CLUSTER_TOL * (1 + span)
    for a in (-0.45, 0.0, 0.3):
        nodes = (a, a + delta)
        one_cluster = len(decompose(np.diag(nodes).astype(complex)).clusters) == 1
        confluent = (divided_difference(f, nodes)
                     == f.deriv(1, float(np.mean(nodes))))
        assert one_cluster == confluent == (gap_ratio < 1.0)


def test_confluency_needs_derivatives():
    f = make_poly_bump(0.0, 1.0, 4)  # only 3 certified derivatives
    with pytest.raises(DerivativeOrderError):
        divided_difference(f, (0.1,) * 6)


def test_permutation_symmetry():
    f = make_poly_bump(0.0, 1.0, 8)
    assert permutation_symmetry_residual(f, (0.1, 0.7)) < 1e-12
    rng = np.random.default_rng(0)
    nodes = rng.uniform(-0.9, 0.9, 4)
    assert permutation_symmetry_residual(f, nodes) < 1e-9
    a = divided_difference(f, (0.3, 0.3, 0.6))
    b = divided_difference(f, (0.3, 0.6, 0.3))
    assert abs(a - b) < 1e-9


def test_sqrt_split_low_order():
    f = make_poly_bump(0.0, 1.0, 8)
    g = dyadic_root(f, 1)
    # n=1 Leibniz by hand: f^[1](a,b) = g(a)g^[1](a,b) + g^[1](a,b)g(b)
    a, b = 0.2, -0.5
    lhs = divided_difference(f, (a, b))
    gg = divided_difference(g, (a, b))
    assert abs(lhs - (g.value(a) * gg + gg * g.value(b))) < 1e-10
    assert sqrt_split_residual(f, (a, b)) < 1e-10
    assert sqrt_split_residual(f, (0.3, 0.3)) < 1e-10
    rng = np.random.default_rng(1)
    assert sqrt_split_residual(f, rng.uniform(-0.9, 0.9, 3)) < 1e-9


def test_u_conjugation_identity():
    f = make_poly_bump(0.0, 1.0, 8)
    assert u_conjugation_residual(f, (0.4, -0.1)) < 1e-10
    assert u_conjugation_residual(f, (0.0, 0.0, 0.0)) < 1e-10
    rng = np.random.default_rng(2)
    assert u_conjugation_residual(f, rng.uniform(-0.9, 0.9, 4)) < 1e-9


def test_mean_value_bound():
    f = make_poly_bump(0.0, 1.0, 8)
    assert mean_value_bound_check(f, (0.1, 0.1, 0.1))
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = int(rng.integers(1, 5))
        nodes = rng.uniform(-1.1, 1.1, p + 1)
        assert mean_value_bound_check(f, nodes)


def test_cache_consistency():
    f = make_poly_bump(0.0, 1.0, 8)
    dd = DividedDifferenceCache(f)
    nodes = (0.55, -0.25, 0.1)
    assert dd(*nodes) == pytest.approx(divided_difference(f, nodes))
    # permuted call hits the same cached value
    assert dd(0.1, 0.55, -0.25) == dd(*nodes)


# spectra on a 1/20 grid inside the bump support; drawing grid points with
# replacement gives exact repeats, and distinct values never cluster
spectra = st.lists(st.integers(-18, 18), min_size=1, max_size=6).map(
    lambda ks: np.sort(np.array(ks, dtype=float) / 20.0))


@settings(max_examples=60, deadline=None)
@given(lam=spectra, p=st.integers(0, 4))
def test_tensor_matches_scalar_divided_difference(lam, p):
    f = make_poly_bump(0.0, 1.0, 12)
    F = divided_difference_tensor(f, lam, p)
    assert F.shape == (lam.size,) * (p + 1)
    scalar = DividedDifferenceCache(f)  # one scalar call per node multiset
    for idx in product(range(lam.size), repeat=p + 1):
        assert F[idx] == scalar(*lam[list(idx)])
    for idx in combinations_with_replacement(range(lam.size), p + 1):
        assert F[idx] == divided_difference_loop(f, lam[list(idx)])
    for perm in permutations(range(p + 1)):
        assert np.array_equal(F, F.transpose(perm))


def test_tensor_matches_polynomial_probe():
    # x^k has f^[p](x_0..x_p) = h_{k-p}(x_0..x_p), the complete homogeneous
    # symmetric polynomial; every intermediate of the recursion is an integer
    # at integer nodes, so the values are exact
    lam = np.array([-1.0, 0.0, 0.0, 1.0, 2.0])
    for k in range(8):
        probe = PolynomialProbe.monomial(k)
        for p in range(5):
            F = divided_difference_tensor(probe, lam, p)
            for idx in product(range(lam.size), repeat=p + 1):
                nodes = lam[list(idx)]
                h = sum(math.prod(c) for c in
                        combinations_with_replacement(nodes, k - p)) if k >= p else 0.0
                assert F[idx] == h


def test_tensor_needs_ascending_values():
    f = make_poly_bump(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        divided_difference_tensor(f, np.array([0.2, -0.1]), 1)
