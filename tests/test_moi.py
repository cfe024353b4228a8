import math

import numpy as np
import pytest

from oracles import (PolynomialProbe, finite_difference_derivative,
                     hilbert_schmidt_bound_check, schatten_bound_check)
from tracetaylor.divided_diff import DividedDifferenceCache, divided_difference
from tracetaylor.moi import (additivity_check, edge_multiplier_check,
                             evaluate_moi, evaluate_symbol_moi,
                             gateaux_derivative, moi_trace_identity_check,
                             product_split_check, trace_derivative_first,
                             trace_derivative_higher)
from tracetaylor.operator_core import (decompose, random_hermitian,
                                       random_hermitian_in_window)
from tracetaylor.scalar_functions import make_plateau_bump, make_poly_bump


def rand_instance(seed, dim, vnorm=0.5, lo=-0.8, hi=0.8):
    rng = np.random.default_rng(seed)
    H = random_hermitian_in_window(rng, dim, lo, hi)
    V = random_hermitian(rng, dim, norm=vnorm)
    return H, decompose(H.mat), V.mat


def test_first_order_square_probe():
    # f(x)=x^2: T_{f^[1]}(V) has entries (l_i+l_j)V_ij = HV + VH
    H = np.diag([1.0, 2.0]).astype(complex)
    D = decompose(H)
    V = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
    T = evaluate_moi(PolynomialProbe.monomial(2), D, [V])
    assert np.max(np.abs(T - (H @ V + V @ H))) < 1e-12


def test_first_order_diagonal_perturbation():
    H, D, _ = rand_instance(0, 4)
    f = make_poly_bump(0.0, 1.0, 6)
    U = D.eigenvectors
    diag = np.diag([0.3, -0.1, 0.7, 0.2])
    V = U @ diag @ U.conj().T
    T = evaluate_moi(f, D, [V])
    expect = U @ np.diag(f.deriv(1, D.index_values()) * np.diag(diag)) @ U.conj().T
    assert np.max(np.abs(T - expect)) < 1e-10


def test_gateaux_vs_finite_difference():
    f = make_poly_bump(0.0, 1.0, 12)
    H, D, V = rand_instance(7, 4, vnorm=0.3)
    for p in (1, 2, 3):
        g = gateaux_derivative(f, D, V, p)
        fd = finite_difference_derivative(f, H.mat, V, p)
        assert np.linalg.norm(g - fd, 2) < 1e-6 * (1 + 0.3) ** p
        # the derivative of a Hermitian family along Hermitian V is Hermitian
        assert np.max(np.abs(g - g.conj().T)) < 1e-9


def test_gateaux_trivial_cases():
    H, D, V = rand_instance(1, 4)
    flat = make_plateau_bump(-0.9, 0.9, 0.5, 3)  # f' = 0 on the spectrum
    assert np.max(np.abs(gateaux_derivative(flat, D, V, 1))) < 1e-10
    f = make_poly_bump(0.0, 1.0, 6)
    assert np.max(np.abs(gateaux_derivative(f, D, np.zeros_like(V), 2))) == 0.0


def test_degenerate_spectrum_reduces_to_confluent_scalar():
    D = decompose(np.eye(3) * 0.4)
    f = make_poly_bump(0.0, 1.0, 8)
    rng = np.random.default_rng(3)
    V1 = random_hermitian(rng, 3).mat
    V2 = random_hermitian(rng, 3).mat
    T = evaluate_moi(f, D, [V1, V2])
    c = divided_difference(f, (0.4, 0.4, 0.4))
    assert np.max(np.abs(T - c * V1 @ V2)) < 1e-12


def test_trace_derivative_first_paths():
    f = make_poly_bump(0.0, 1.0, 8)
    H, D, V = rand_instance(4, 6, vnorm=0.4)
    lhs = trace_derivative_first(f, D, V)
    rhs = np.trace(gateaux_derivative(f, D, V, 1)).real
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))
    # zero-diagonal V in the eigenbasis kills the first-order trace
    U = D.eigenvectors
    off = np.zeros((6, 6), dtype=complex)
    off[0, 1] = 1.0
    off[1, 0] = 1.0
    Voff = U @ off @ U.conj().T
    assert abs(trace_derivative_first(f, D, Voff)) < 1e-12


def test_trace_derivative_higher_scalar_case():
    f = make_poly_bump(0.0, 1.0, 8)
    lam, v = 0.3, 0.05
    D = decompose(np.array([[lam]], dtype=complex))
    V = np.array([[v]], dtype=complex)
    d2 = trace_derivative_higher(f, D, V, 2)
    assert d2 == pytest.approx(f.deriv(2, lam) * v * v, abs=1e-12)
    assert trace_derivative_higher(f, D, np.zeros((1, 1)), 3) == 0.0


def test_moi_trace_identity():
    f = make_poly_bump(0.0, 1.0, 12)
    for seed, dim in ((5, 4), (6, 6), (7, 8)):
        H, D, V = rand_instance(seed, dim, vnorm=0.4)
        assert moi_trace_identity_check(f, D, V, 1) < 1e-10
        for k in (2, 3):
            assert moi_trace_identity_check(f, D, V, k) < 1e-9


def test_algebra_trivial_cases():
    f = make_poly_bump(0.0, 1.0, 8)
    H, D, V = rand_instance(8, 5)
    phi = DividedDifferenceCache(f)
    one = lambda *a: 1.0
    # phi2 == 1 glued at the last variable: T_phi(V) times identity
    assert product_split_check(phi, one, D, [V], 1) < 1e-9
    # trivial edge multipliers
    assert edge_multiplier_check(lambda x: 1.0, phi, lambda x: 1.0, D, [V, V]) < 1e-9


def test_algebra_random_splits():
    f = make_poly_bump(0.0, 1.0, 12)
    g = make_poly_bump(0.2, 0.9, 8)
    for seed in (10, 11, 12):
        H, D, V = rand_instance(seed, 5)
        rng = np.random.default_rng(seed + 100)
        W = random_hermitian(rng, 5, norm=0.7).mat
        p1, p2 = DividedDifferenceCache(f), DividedDifferenceCache(g)
        assert additivity_check(p1, p2, D, [V, W]) < 1e-9
        assert product_split_check(p1, p2, D, [V, W], 1) < 1e-9
        assert edge_multiplier_check(lambda x: g.value(x), p1,
                                     lambda x: f.value(x), D, [V, W]) < 1e-9


def test_schatten_bound():
    f = make_poly_bump(0.0, 1.0, 8)
    H, D, V = rand_instance(13, 6)
    assert schatten_bound_check(f, D, [np.zeros((6, 6))], [2], 2)
    for a in (1, 2, np.inf):
        assert schatten_bound_check(f, D, [V], [a], a)
    rng = np.random.default_rng(14)
    W = random_hermitian(rng, 6, norm=0.9).mat
    assert schatten_bound_check(f, D, [V, W], [2, 2], 1)
    with pytest.raises(ValueError):
        schatten_bound_check(f, D, [V, W], [2, 2], 2)


def test_hilbert_schmidt_bound():
    f = make_poly_bump(0.0, 1.0, 8)
    H, D, V = rand_instance(15, 8)
    assert hilbert_schmidt_bound_check(lambda a, b: 1.0, D, V)
    assert hilbert_schmidt_bound_check(DividedDifferenceCache(f), D, V)
    assert hilbert_schmidt_bound_check(DividedDifferenceCache(f), D, np.zeros((8, 8)))


def test_symbol_moi_multilinearity():
    f = make_poly_bump(0.0, 1.0, 8)
    H, D, V = rand_instance(16, 4)
    phi = DividedDifferenceCache(f)
    T1 = evaluate_symbol_moi(phi, D, [V, 2.0 * V])
    T2 = evaluate_symbol_moi(phi, D, [V, V])
    assert np.max(np.abs(T1 - 2.0 * T2)) < 1e-10
