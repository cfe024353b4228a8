import math
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (PolynomialProbe, divided_difference_loop,
                     mean_value_bound_check, permutation_symmetry_residual)
from tracetaylor.divided_diff import (DividedDifferenceCache,
                                      _divided_difference_rows, _node_triangle,
                                      divided_difference,
                                      divided_difference_tensor,
                                      sqrt_split_residual,
                                      u_conjugation_residual)
from tracetaylor.moi import _trace_derivative, evaluate_moi
from tracetaylor.operator_core import CLUSTER_TOL, decompose, random_hermitian
from tracetaylor.scalar_functions import (DerivativeOrderError,
                                          SmoothCompactFunction, dyadic_root,
                                          make_poly_bump, product_with_u,
                                          product_with_u2, weight_u)


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


def test_permutation_symmetry_fails_on_nan(monkeypatch):
    # a NaN divided difference must not read as a zero deviation
    monkeypatch.setattr(oracles, "divided_difference", lambda f, nodes: float("nan"))
    f = make_poly_bump(0.0, 1.0, 8)
    assert not permutation_symmetry_residual(f, (0.1, 0.7)) < 1e-12
    nodes = np.random.default_rng(0).uniform(-0.9, 0.9, 4)
    assert not permutation_symmetry_residual(f, nodes) < 1e-9


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


@pytest.mark.parametrize("nodes", [(0.4, -0.1, 0.25, 0.7), (0.3, 0.3, -0.2),
                                   (0.5, 0.5 + 1e-12, -0.6, 0.1, 0.5)])
def test_scalar_identities_make_one_pass_per_function(monkeypatch, nodes):
    # each identity reads every divided difference of a function over the
    # node slices from one triangle, so it evaluates that function once, at
    # the merged nodes
    f = make_poly_bump(0.0, 1.0, 10)
    g, fu, fu2 = dyadic_root(f, 1), product_with_u(f), product_with_u2(f)
    calls = []
    derivs = SmoothCompactFunction.derivs
    monkeypatch.setattr(SmoothCompactFunction, "derivs", lambda self, orders, x: (
        calls.append((self, np.size(x))) or derivs(self, orders, x)))
    for residual, functions in ((sqrt_split_residual, (g, f)),
                                (u_conjugation_residual, (f, weight_u(), fu, fu2))):
        calls.clear()
        assert residual(f, nodes) < 1e-9
        assert sorted(calls, key=lambda c: id(c[0])) == sorted(
            ((h, len(nodes)) for h in functions), key=lambda c: id(c[0]))


# node multisets on a 1/20 grid inside the bump support: exact repeats, and
# no two distinct values within the clustering tolerance
node_sets = st.lists(st.integers(-18, 18), min_size=1, max_size=6).map(
    lambda ks: np.array(ks, dtype=float) / 20.0)


@settings(max_examples=60, deadline=None)
@given(nodes=node_sets, rows=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_triangle_entries_equal_the_scalar_loop_of_their_slice(nodes, rows, seed):
    # entry [w][i] of the triangle is f^[w](x_i..x_{i+w}) of each row, with
    # the bits of the scalar recursion over that slice alone; so is the
    # slice lookup of a node set
    f = make_poly_bump(0.0, 1.0, 12)
    lam = np.sort(nodes)
    p = lam.size - 1
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.integers(0, lam.size, size=(rows, p + 1)), axis=1)
    tri = list(_divided_difference_rows(f.derivs(range(p + 1), lam), lam, idx))
    assert [len(row) for row in tri] == list(range(p + 1, 0, -1))
    vals, dd = _node_triangle(f, nodes)
    assert np.array_equal(vals, lam)
    for w in range(p + 1):
        for i in range(p + 1 - w):
            assert dd(i, i + w) == divided_difference_loop(f, lam[i:i + w + 1])
            for r in range(rows):
                assert tri[w][i][r] == divided_difference_loop(
                    f, lam[idx[r, i:i + w + 1]])


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
    F = divided_difference_tensor(f.derivs(range(p + 1), lam), lam)
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
            F = divided_difference_tensor(probe.derivs(range(p + 1), lam), lam)
            for idx in product(range(lam.size), repeat=p + 1):
                nodes = lam[list(idx)]
                h = sum(math.prod(c) for c in
                        combinations_with_replacement(nodes, k - p)) if k >= p else 0.0
                assert F[idx] == h


def test_tensor_needs_ascending_values():
    f = make_poly_bump(0.0, 1.0, 8)
    lam = np.array([0.2, -0.1])
    with pytest.raises(ValueError):
        divided_difference_tensor(f.derivs(range(2), lam), lam)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_tensor_evaluates_each_order_once(monkeypatch, p):
    # a decomposition evaluates f^(0..p) at its index values in one pass, and
    # every tensor over f at that spectrum reads the table: the order-p
    # operator integral, those of lower order and the trace derivatives
    # (f')^[q-1]; a repeated value needs every order
    f = make_poly_bump(0.0, 1.0, 12)
    lam = np.array([-0.4, -0.1, -0.1, 0.3, 0.6, 0.6])
    D = decompose(np.diag(lam).astype(complex))
    assert np.array_equal(D.index_values(), lam)
    V = random_hermitian(np.random.default_rng(p), lam.size, norm=0.1)
    calls = []
    derivs = type(f).derivs
    monkeypatch.setattr(type(f), "derivs", lambda self, orders, x: (
        calls.append((tuple(orders), x)) or derivs(self, orders, x)))
    for q in range(p, -1, -1):
        evaluate_moi(f, D, [V] * q)
        if q:
            _trace_derivative(f, D, V, q)
    assert [orders for orders, _ in calls] == [tuple(range(p + 1))]
    assert np.array_equal(calls[0][1], lam)
    monkeypatch.undo()
    F = divided_difference_tensor(D.derivative_table(f, p), lam)
    for idx in combinations_with_replacement(range(lam.size), p + 1):
        assert F[idx] == divided_difference_loop(f, lam[list(idx)])
