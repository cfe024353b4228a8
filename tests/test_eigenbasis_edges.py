"""Edge cases of the eigenbasis path against closed forms: dim 1, V = 0,
H0 = c I (one cluster holding every index) and eigenvalues exactly on the
support edges and piece breaks of f."""

import math

import numpy as np
import pytest

from tracetaylor.moi import trace_derivative_first
from tracetaylor.operator_core import (Interval, decompose, random_hermitian,
                                       random_hermitian_in_window)
from tracetaylor.scalar_functions import make_plateau_bump, make_poly_bump
from tracetaylor.shift import mu_measure
from tracetaylor.taylor import (expansion_report, expansion_terms,
                                remainder_trace)

F = make_poly_bump(0.0, 1.0, 12)
WINDOW = Interval(-2.0, 2.0)


def test_dim_one_is_the_scalar_taylor_expansion():
    h, v = 0.3, 0.15
    H0, V = np.array([[h]], dtype=complex), np.array([[v]], dtype=complex)
    D0 = decompose(H0)
    taus = expansion_terms(F, D0, V, 5)
    exact = [F.deriv(p, h) * v**p / math.factorial(p) for p in range(1, 5)]
    assert taus == pytest.approx(exact, rel=1e-12)
    assert remainder_trace(F, H0, V, 5) == pytest.approx(
        F.value(h + v) - F.value(h) - sum(exact), abs=1e-14)
    assert mu_measure(D0, V, WINDOW) == [(h, pytest.approx(v, rel=1e-15))]


def test_zero_perturbation_gives_exact_zeros():
    rng = np.random.default_rng(3)
    H0 = random_hermitian_in_window(rng, 5, -0.8, 0.8)
    Z = np.zeros((5, 5))
    D0 = decompose(H0)
    assert expansion_terms(F, D0, Z, 5) == [0.0] * 4
    for n in (1, 2, 3, 5):
        assert remainder_trace(F, H0, Z, n) == 0.0
    atoms = mu_measure(D0, Z, WINDOW)
    assert len(atoms) == 5 and all(w == 0.0 for _, w in atoms)


def test_multiple_of_identity_is_one_cluster():
    # H0 = c I: tau_p = f^(p)(c) Tr V^p / p!, and mu is one atom of mass Tr V
    c, n = 0.3, 6
    V = random_hermitian(np.random.default_rng(4), n, norm=0.2)
    D0 = decompose(c * np.eye(n))
    assert D0.clusters == (tuple(range(n)),) and D0.cluster_values[0] == c
    tr_v = np.trace(V).real
    assert trace_derivative_first(F, D0, V) == pytest.approx(
        F.deriv(1, c) * tr_v, rel=1e-12)
    exact = [F.deriv(p, c) * np.trace(np.linalg.matrix_power(V, p)).real
             / math.factorial(p) for p in range(1, 5)]
    assert expansion_terms(F, D0, V, 5) == pytest.approx(exact, rel=1e-12)
    [(t, w)] = mu_measure(D0, V, WINDOW)
    assert t == c and w == pytest.approx(tr_v, rel=1e-12)


@pytest.mark.parametrize("f, spectrum", [
    (make_poly_bump(0.0, 1.0, 12), [-1.0, -0.2, 0.5, 1.0]),
    # support edges -0.9, 0.9 and the piece break 0.5
    (make_plateau_bump(-0.5, 0.5, 0.4, 6), [-0.9, 0.1, 0.5, 0.9]),
])
def test_spectrum_on_support_edges_passes_the_expand_gate(f, spectrum):
    H0 = np.diag(spectrum).astype(complex)
    assert list(decompose(H0).eigenvalues) == sorted(spectrum)
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        V = random_hermitian(rng, 4, norm=0.1)
        rep = expansion_report(f, decompose(H0), decompose(H0 + V), V, n)
        assert rep.identity_residual() <= 1e-10 * (1.0 + abs(rep.perturbed_trace))
        assert rep.operator_remainder_trace_norm - abs(rep.remainder_trace) >= -1e-10
