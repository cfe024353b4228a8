import numpy as np
import pytest

from oracles import (projection_inequality_check, psd_leq,
                     resolvent_inequality_check, spectral_projection, trace,
                     trace_class_bound_check)
from tracetaylor.operator_core import (HermitianOperator,
                                       _cluster, _symmetrized,
                                       HermitianValidationError, Interval,
                                       apply_function, counting_trace,
                                       decompose, operator_norm,
                                       random_hermitian,
                                       random_hermitian_in_window,
                                       schatten_norm)
from tracetaylor.scalar_functions import make_plateau_bump, make_poly_bump


def test_hermitian_validation():
    with pytest.raises(HermitianValidationError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(HermitianValidationError):
        HermitianOperator(np.zeros((2, 3)))
    H = HermitianOperator(np.array([[1.0, 2.0], [2.0, -1.0]]))
    assert H.mat.shape == (2, 2)


@pytest.mark.parametrize("entries", [
    [[np.nan]], [[1.0, np.inf], [np.inf, 1.0]], [[-np.inf, 0.0], [0.0, 1.0]],
    [[1.0, complex(0.0, np.nan)], [complex(0.0, np.nan), 1.0]]],
    ids=["nan", "inf-pair", "-inf-diagonal", "nan-imaginary"])
def test_hermitian_validation_rejects_non_finite_entries(entries):
    # a NaN deviation compares False against the tolerance, and inf - inf
    # is NaN: without its own check a non-finite matrix passed validation
    with pytest.raises(HermitianValidationError, match="finite"):
        HermitianOperator(np.array(entries))
    with pytest.raises(HermitianValidationError, match="finite"):
        HermitianOperator(np.eye(len(entries))) + np.array(entries)


def test_symmetrized_is_the_operator_class_bit_for_bit():
    # the library symmetrizes with _symmetrized and builds no
    # HermitianOperator: both must give the same bits
    rng = np.random.default_rng(0)
    G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    A = G + G.conj().T
    # off-Hermitian by rounding-size amounts, within the class's tolerance
    near = A + 1e-14 * (rng.standard_normal((5, 5))
                        + 1j * rng.standard_normal((5, 5)))
    assert not np.array_equal(near, near.conj().T)
    S = _symmetrized(near)
    assert np.array_equal(S, HermitianOperator(near).mat)
    assert np.array_equal(S, 0.5 * (near + near.conj().T))
    assert np.array_equal(S, S.conj().T)
    # an exactly Hermitian matrix comes back unchanged
    assert np.array_equal(A, A.conj().T)
    assert np.array_equal(_symmetrized(A), A)
    assert np.array_equal(HermitianOperator(A).mat, A)


def test_decompose_diagonal():
    D = decompose(np.diag([2.0, 0.0, 1.0]))
    assert np.allclose(D.eigenvalues, [0.0, 1.0, 2.0])
    assert D.clusters == ((0,), (1,), (2,))


def test_decompose_degenerate_identity():
    D = decompose(np.eye(3))
    assert len(D.clusters) == 1
    U = D.eigenvectors[:, list(D.clusters[0])]
    assert np.allclose(U @ U.conj().T, np.eye(3))


def test_cluster_keeps_a_run_of_equal_values():
    # np.mean([0.1] * 3) is one ulp off 0.1; a cluster of equal values must
    # keep their value, or nodes taken from it shift before a quotient
    runs, values = _cluster(np.array([0.1] * 3))
    assert [tuple(r) for r in runs] == [(0, 1, 2)]
    assert values[0] == 0.1
    runs, values = _cluster(np.array([-0.2, 0.1, 0.1, 0.1, 0.1 + 2e-9]))
    assert [tuple(r) for r in runs] == [(0,), (1, 2, 3, 4)]
    assert values[1] == np.mean([0.1, 0.1, 0.1, 0.1 + 2e-9])


def test_decompose_completeness_and_reconstruction():
    rng = np.random.default_rng(1)
    H = random_hermitian(rng, 8)
    D = decompose(H)
    U = D.eigenvectors
    assert np.max(np.abs(U @ U.conj().T - np.eye(8))) < 1e-10
    rec = (U * D.index_values()) @ U.conj().T
    scale = max(1.0, float(np.max(np.abs(H))))
    assert np.max(np.abs(rec - H)) < 1e-9 * scale


def test_apply_function_zero_and_one():
    rng = np.random.default_rng(2)
    H = random_hermitian_in_window(rng, 4, -0.5, 0.5)
    D = decompose(H)
    f = make_poly_bump(10.0, 1.0, 4)  # vanishes on the spectrum
    assert np.max(np.abs(apply_function(f, D).mat)) < 1e-14
    g = make_plateau_bump(-0.6, 0.6, 0.4, 3)  # identically 1 on the spectrum
    assert np.max(np.abs(apply_function(g, D).mat - np.eye(4))) < 1e-12


def test_apply_function_hand_eigenvectors():
    # H = [[0,1],[1,0]] has eigenvectors (1,+-1)/sqrt(2) for +-1
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = make_poly_bump(0.0, 2.0, 4)
    D = decompose(H)
    c1, c2 = f.value(1.0), f.value(-1.0)
    expect = 0.5 * np.array([[c1 + c2, c1 - c2], [c1 - c2, c1 + c2]])
    assert np.max(np.abs(apply_function(f, D).mat - expect)) < 1e-12


def test_apply_function_multiplicative():
    rng = np.random.default_rng(3)
    H = random_hermitian_in_window(rng, 5, -0.8, 0.8)
    D = decompose(H)
    f = make_poly_bump(0.0, 1.0, 4)
    g = make_poly_bump(0.2, 1.5, 6)
    lhs = apply_function(f.mul(g), D).mat
    rhs = apply_function(f, D).mat @ apply_function(g, D).mat
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


def test_trace_examples():
    assert trace(np.eye(3)) == 3
    assert trace(np.zeros((2, 2))) == 0
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert abs(trace(A + A.conj().T).imag) < 1e-12


def test_schatten_examples():
    assert schatten_norm(np.eye(4), 1) == pytest.approx(4.0)
    u = np.array([1.0, 2.0, 2.0])
    P = np.outer(u, u)
    for a in (1, 2, np.inf):
        assert schatten_norm(P, a) == pytest.approx(9.0)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    n1, n2, ninf = (schatten_norm(A, a) for a in (1, 2, np.inf))
    assert n1 >= n2 >= ninf
    with pytest.raises(ValueError):
        schatten_norm(A, 0.5)


def test_counting_trace_examples():
    D = decompose(np.diag([-1.0, 0.0, 2.0]))
    assert counting_trace(D, Interval(-0.5, 1.0)) == 1
    D2 = decompose(np.eye(3))
    assert counting_trace(D2, Interval(1.0, 1.0)) == 3
    rng = np.random.default_rng(6)
    D3 = decompose(random_hermitian(rng, 8))
    full = Interval(float(D3.eigenvalues[0]), float(D3.eigenvalues[-1]))
    assert counting_trace(D3, full) == 8


def test_psd_leq():
    assert psd_leq(np.zeros((3, 3)), np.eye(3))
    A = np.diag([1.0, 2.0])
    assert psd_leq(A, A)
    assert not psd_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
    assert not psd_leq(np.diag([1.0, 1.0]), np.diag([2.0, 0.0]))


def test_resolvent_inequality():
    rng = np.random.default_rng(7)
    H0 = random_hermitian(rng, 4)
    assert resolvent_inequality_check(H0, np.zeros((4, 4)))
    W = random_hermitian(rng, 4, norm=2.0)
    assert resolvent_inequality_check(np.zeros((4, 4)), W)
    for _ in range(20):
        H0 = random_hermitian(rng, 6)
        W = random_hermitian(rng, 6, norm=float(rng.uniform(0.1, 3.0)))
        assert resolvent_inequality_check(H0, W)


def test_projection_inequality():
    rng = np.random.default_rng(8)
    H0 = random_hermitian(rng, 6)
    assert projection_inequality_check(H0, np.zeros((6, 6)), Interval(100.0, 101.0))
    for _ in range(20):
        H0 = random_hermitian(rng, 6)
        W = random_hermitian(rng, 6, norm=float(rng.uniform(0.1, 2.0)))
        assert projection_inequality_check(H0, W, Interval(-1.0, 1.0))


def test_spectral_projection_idempotent():
    rng = np.random.default_rng(9)
    D = decompose(random_hermitian(rng, 6))
    E = spectral_projection(D, Interval(-1.0, 1.0))
    assert np.max(np.abs(E @ E - E)) < 1e-12


def test_trace_class_bounds():
    rng = np.random.default_rng(10)
    f = make_poly_bump(0.0, 1.0, 6)
    for _ in range(20):
        D = decompose(random_hermitian_in_window(rng, 8, -1.5, 1.5))
        assert trace_class_bound_check(f, D)


def test_random_matrices_are_exactly_hermitian_ndarrays():
    rng = np.random.default_rng(12)
    for _ in range(5):
        for A in (random_hermitian(rng, 5), random_hermitian(rng, 5, norm=0.3),
                  random_hermitian_in_window(rng, 5, -0.8, 0.8)):
            assert type(A) is np.ndarray and A.dtype == complex
            assert np.array_equal(A, A.conj().T)


def test_random_hermitian_window():
    rng = np.random.default_rng(11)
    H = random_hermitian_in_window(rng, 5, -0.3, 0.7)
    w = np.linalg.eigvalsh(H)
    assert w[0] == pytest.approx(-0.3, abs=1e-12)
    assert w[-1] == pytest.approx(0.7, abs=1e-12)
    V = random_hermitian(rng, 5, norm=0.25)
    assert operator_norm(V) == pytest.approx(0.25)
