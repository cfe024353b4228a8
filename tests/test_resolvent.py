"""The expansion engine against the resolvent oracle of a Lorentzian.

For f_z(x) = Im 1/(x - z) the terms tau_k and the remainder Tr R_n follow
from the iterated second resolvent identity (``oracles.resolvent_expansion``)
with no divided differences and no clustering, so the corpus checks the
divided-difference tensors, their equal-node branch and the trace sums of
``taylor`` from outside.
"""

import numpy as np
import pytest

from oracles import Lorentzian, resolvent_expansion
from tracetaylor.operator_core import (_symmetrized, decompose, random_hermitian,
                                       random_hermitian_in_window)
from tracetaylor.taylor import _remainder_trace, expansion_terms

Z = 0.25 + 0.2j
ORDER = 5  # tau_1..tau_4 and Tr R_5
TOL = 1e-13


def haar_unitary(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def instance(case, n, seed):
    """(H0, V) of one corpus case: a GUE H0 in [-0.8, 0.8] with a GUE V of
    norm 0.1, except where the case says otherwise."""
    rng = np.random.default_rng(seed)
    if case == "exact repeats":
        # four distinct eigenvalues, each repeated, in a Haar-random basis
        w = np.sort(rng.choice(np.linspace(-0.6, 0.6, 4), n))
        U = haar_unitary(rng, n)
        H0 = _symmetrized((U * w) @ U.conj().T)
    elif case == "H0 = cI":
        H0 = 0.3 * np.eye(n, dtype=complex)
    else:
        H0 = random_hermitian_in_window(rng, n, -0.8, 0.8)
    if case == "V = 0":
        V = np.zeros((n, n), dtype=complex)
    elif case == "rank-one V":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        V = 0.1 * np.outer(v, v.conj()) / np.vdot(v, v).real
    else:
        V = random_hermitian(rng, n, norm=0.1)
    return H0, V


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [4, 8, 16, 32])
@pytest.mark.parametrize("case", ["GUE", "exact repeats", "H0 = cI", "V = 0",
                                  "rank-one V"])
def test_expansion_matches_the_resolvent_oracle(case, n, seed):
    f = Lorentzian(Z)
    H0, V = instance(case, n, seed)
    D0, D1 = decompose(H0), decompose(H0 + V)
    taus = expansion_terms(f, D0, V, ORDER)
    rem = _remainder_trace(f, D0, D1, V, ORDER)
    exact_taus, exact_rem = resolvent_expansion(Z, H0, V, ORDER)
    assert len(taus) == len(exact_taus) == ORDER - 1
    for tau, exact in zip(taus, exact_taus):
        assert abs(tau - exact) <= TOL * (1.0 + abs(tau))
    assert abs(rem - exact_rem) <= TOL * (1.0 + abs(rem))


def test_lorentzian_derivatives_are_closed_form():
    # f_z = b / ((x - a)^2 + b^2), and its first two derivatives by hand
    f = Lorentzian(Z)
    a, b = Z.real, Z.imag
    x = np.linspace(-1.0, 1.0, 9)
    s = (x - a) ** 2 + b * b
    d = f.derivs((0, 1, 2), x)
    assert np.allclose(d[0], b / s, rtol=1e-14, atol=0.0)
    assert np.allclose(d[1], -2.0 * b * (x - a) / s ** 2, rtol=1e-13, atol=1e-13)
    assert np.allclose(d[2], b * (6.0 * (x - a) ** 2 - 2.0 * b * b) / s ** 3,
                       rtol=1e-13, atol=1e-12)
    assert isinstance(f.value(0.5), float)
    assert f.value(0.5) == pytest.approx(b / ((0.5 - a) ** 2 + b * b), rel=1e-14)
