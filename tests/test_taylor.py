import math

import numpy as np
import pytest

from oracles import (expansion_terms_eigensum, integral_remainder_check,
                     trace_by_matrix)
from tracetaylor import taylor
from tracetaylor.divided_diff import divided_difference
from tracetaylor.operator_core import (CLUSTER_TOL, HermitianOperator, decompose,
                                       operator_norm, random_hermitian,
                                       random_hermitian_in_window)
from tracetaylor.scalar_functions import make_poly_bump
from tracetaylor.taylor import (InsufficientDataError, expansion_report,
                                expansion_terms, operator_remainder,
                                remainder_sweep, remainder_trace,
                                scaling_exponent)

EPS_GRID = tuple(2.0 ** -k for k in range(3, 11))


def rand_instance(seed, dim, vnorm=0.2):
    rng = np.random.default_rng(seed)
    H = random_hermitian_in_window(rng, dim, -0.7, 0.7)
    V = random_hermitian(rng, dim, norm=vnorm)
    return H, V


def in_random_basis(rng, w):
    """The matrix with spectrum w in a Haar-random unitary eigenbasis."""
    Q, R = np.linalg.qr(rng.standard_normal((w.size, w.size))
                        + 1j * rng.standard_normal((w.size, w.size)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    return (U * w) @ U.conj().T


def test_terms_zero_perturbation():
    f = make_poly_bump(0.0, 1.0, 8)
    H, _ = rand_instance(0, 4)
    D = decompose(H)
    assert expansion_terms(f, D, np.zeros((4, 4)), 3) == [0.0, 0.0]


def test_terms_scalar_case():
    f = make_poly_bump(0.0, 1.0, 10)
    lam, v = 0.2, 0.07
    D = decompose(np.array([[lam]], dtype=complex))
    taus = expansion_terms(f, D, np.array([[v]], dtype=complex), 4)
    for p, tau in enumerate(taus, start=1):
        expect = f.deriv(p, lam) * v ** p / math.factorial(p)
        assert tau == pytest.approx(expect, abs=1e-12)


def test_terms_two_level_example():
    # H0 = diag(0,1), V = off-diagonal eps: tau_1 = 0,
    # tau_2 = eps^2 * (f')^[1](0,1)
    f = make_poly_bump(0.5, 1.2, 8)
    eps = 0.05
    D = decompose(np.diag([0.0, 1.0]).astype(complex))
    V = np.array([[0.0, eps], [eps, 0.0]], dtype=complex)
    taus = expansion_terms(f, D, V, 3)
    assert abs(taus[0]) < 1e-14
    expect = eps ** 2 * divided_difference(f.derivative(), (0.0, 1.0))
    assert taus[1] == pytest.approx(expect, abs=1e-12)


def test_terms_match_eigensum_oracle():
    f = make_poly_bump(0.0, 1.0, 12)
    for seed, dim in ((1, 3), (2, 5), (3, 6)):
        H, V = rand_instance(seed, dim)
        D = decompose(H)
        a = np.array(expansion_terms(f, D, V, 4))
        b = np.array(expansion_terms_eigensum(f, D, V, 4))
        assert np.max(np.abs(a - b)) < 1e-10 * (1 + np.max(np.abs(a)))


def test_remainder_trace_cases():
    f = make_poly_bump(0.0, 1.0, 8)
    H, V = rand_instance(4, 4)
    from oracles import trace
    from tracetaylor.operator_core import apply_function
    D0 = decompose(H)
    D1 = decompose(H + V)
    direct = (trace(apply_function(f, D1)) - trace(apply_function(f, D0))).real
    assert remainder_trace(f, H, V, 1) == pytest.approx(direct, abs=1e-12)
    assert remainder_trace(f, H, np.zeros((4, 4)), 3) == pytest.approx(0.0, abs=1e-14)
    lam, v = 0.1, 0.1
    H1 = HermitianOperator(np.array([[lam]], dtype=complex))
    r = remainder_trace(f, H1, np.array([[v]], dtype=complex), 2)
    scalar = f.value(lam + v) - f.value(lam) - f.deriv(1, lam) * v
    assert r == pytest.approx(scalar, abs=1e-13)


def test_operator_remainder():
    f = make_poly_bump(0.0, 1.0, 8)
    H, V = rand_instance(5, 3)
    from tracetaylor.operator_core import apply_function
    R1 = operator_remainder(f, H, V, 1)
    diff = (apply_function(f, decompose(H + V)).mat
            - apply_function(f, decompose(H)).mat)
    assert np.max(np.abs(R1 - diff)) < 1e-12
    assert np.max(np.abs(operator_remainder(f, H, np.zeros((3, 3)), 2))) < 1e-14
    # quadratic shrink under V -> V/2
    n_half = operator_norm(operator_remainder(f, H, 0.5 * V, 2))
    n_quarter = operator_norm(operator_remainder(f, H, 0.25 * V, 2))
    assert n_quarter < 0.3 * n_half


def test_integral_remainder_representation():
    f = make_poly_bump(0.0, 1.0, 12)
    H1 = HermitianOperator(np.array([[0.1]], dtype=complex))
    assert integral_remainder_check(f, H1, np.array([[0.2]]), 2) < 1e-12
    H, V = rand_instance(6, 4)
    r32 = integral_remainder_check(f, H, V, 2, quad_nodes=32)
    r64 = integral_remainder_check(f, H, V, 2, quad_nodes=64)
    assert r32 < 1e-8 and r64 < 1e-8
    assert integral_remainder_check(f, H, np.zeros((4, 4)), 2) < 1e-14


def test_scaling_exponent():
    f = make_poly_bump(0.0, 1.0, 12)
    H, V = rand_instance(7, 4)
    D0 = decompose(H)
    for n in (1, 2):
        Ds = [decompose(H + eps * V) for eps in EPS_GRID]
        rems = remainder_sweep(f, D0, Ds, V, n, EPS_GRID)
        assert scaling_exponent(EPS_GRID, rems) == pytest.approx(n, abs=0.1)
    Z = np.zeros((4, 4))
    Ds = [decompose(H + eps * Z) for eps in EPS_GRID]
    zero = remainder_sweep(f, D0, Ds, Z, 1, EPS_GRID)
    with pytest.raises(InsufficientDataError):
        scaling_exponent(EPS_GRID, zero)


def test_remainder_sweep_matches_direct():
    f = make_poly_bump(0.0, 1.0, 12)
    H, V = rand_instance(8, 4)
    rems = remainder_sweep(f, decompose(H),
                           [decompose(H + eps * V) for eps in EPS_GRID[:3]],
                           V, 2, EPS_GRID[:3])
    for eps, r in zip(EPS_GRID[:3], rems):
        assert r == pytest.approx(remainder_trace(f, H, eps * V, 2), abs=1e-12)


def test_expansion_report_identity():
    f = make_poly_bump(0.0, 1.0, 12)
    H, V = rand_instance(9, 5)
    rep = expansion_report(f, decompose(H), decompose(H + V), V, 3)
    assert rep.identity_residual() < 1e-12
    # trace of the operator remainder is dominated by its trace norm
    assert abs(rep.remainder_trace) <= rep.operator_remainder_trace_norm + 1e-10


def test_identity_residual_detects_a_wrong_term(monkeypatch):
    # mutation check: Tr R_n does not go through the expansion terms, so a
    # perturbed tau_1 shows up in the two-route residual
    f = make_poly_bump(0.0, 1.0, 12)
    H, V = rand_instance(9, 5)
    expansion_terms = taylor.expansion_terms

    def perturbed(*args):
        taus = expansion_terms(*args)
        taus[0] += 1e-6
        return taus

    monkeypatch.setattr(taylor, "expansion_terms", perturbed)
    rep = expansion_report(f, decompose(H), decompose(H + V), V, 3)
    assert rep.identity_residual() > 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expansion_report_identity_on_near_chains(seed):
    # two chains of four eigenvalues with gaps of 2-5 cluster tolerances:
    # decompose keeps all eight apart, so order 4 runs the quotient branch on
    # near-confluent tuples, whose repeated values must enter it unshifted
    rng = np.random.default_rng(seed)
    span = 0.7 + 1e-6
    gaps = rng.uniform(2.25, 4.75, size=(2, 3)) * CLUSTER_TOL * (1.0 + span)
    chains = np.array([[-0.4], [0.3]]) + np.concatenate(
        [np.zeros((2, 1)), np.cumsum(gaps, axis=1)], axis=1)
    H = HermitianOperator(in_random_basis(rng, chains.ravel()))
    assert len(decompose(H.mat).clusters) == 8
    V = random_hermitian(rng, 8, norm=0.1)
    f = make_poly_bump(0.0, 1.0, 20)
    rep = expansion_report(f, decompose(H.mat), decompose(H.mat + V), V, 4)
    assert rep.identity_residual() <= 1e-10 * (1.0 + abs(rep.perturbed_trace))


# gaps of a chain in cluster tolerances: below 1 it merges into one cluster
# at its mean, above 2 decompose keeps its values apart
CHAIN_GAPS = {"merged_chain": (0.25, 0.75), "near_chain": (2.25, 4.75)}


@pytest.mark.parametrize("kind", ["gue", "repeated", *CHAIN_GAPS])
def test_traces_match_the_matrix_route(kind):
    # a trace is the sum of f over the index values, where a cluster value
    # stands once per eigenvector: on two clusters of four it must count
    # each cluster four times to match the trace of f(H) formed as a matrix
    rng = np.random.default_rng(21)
    f = make_poly_bump(0.0, 1.0, 12)
    Hs = []
    for _ in range(3):
        if kind == "gue":
            Hs.append(random_hermitian_in_window(rng, 8, -0.7, 0.7))
            continue
        centers = rng.uniform(-0.7, 0.7, size=(2, 1))
        gaps = np.zeros((2, 3))
        if kind != "repeated":
            span = float(np.ptp(centers))
            gaps = rng.uniform(*CHAIN_GAPS[kind], size=(2, 3)) * CLUSTER_TOL * (1.0 + span)
        w = centers + np.concatenate([np.zeros((2, 1)), np.cumsum(gaps, axis=1)], 1)
        Hs.append(in_random_basis(rng, w.ravel()))
    D0, *Ds = [decompose(H) for H in Hs]
    sizes = sorted(len(c) for c in D0.clusters)
    assert sizes == ([4, 4] if kind in ("repeated", "merged_chain") else [1] * 8)
    V = random_hermitian(rng, 8, norm=0.1)
    _, base, perts = taylor._expansion(f, D0, Ds, V, 3)
    assert taylor._traces(f, Ds) == perts
    for D, tr in zip([D0, *Ds], [base, *perts]):
        assert abs(tr - trace_by_matrix(f, D)) <= 1e-14 * (1.0 + abs(tr))
