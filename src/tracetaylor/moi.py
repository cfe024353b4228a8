"""Multiple operator integrals as exact finite-dimensional spectral sums.

T over p perturbations inserts V_1..V_p between eigenprojections of H and
weights each tuple of spectral points by the divided difference of the symbol
function.  At finite dimension the defining double-limit construction reduces
to this exact sum, which is what everything here evaluates.
"""

import math
from itertools import product

import numpy as np

from .divided_diff import divided_difference_tensor
from .operator_core import apply_function, as_matrix, schatten_norm


def _tabulate(phi, lam, p):
    """Tensor phi(lam_{i0},..,lam_{ip}) of a callable (p+1)-variable symbol
    over all index tuples."""
    F = np.empty((lam.size,) * (p + 1))
    for idx in product(range(lam.size), repeat=p + 1):
        F[idx] = float(phi(*(lam[i] for i in idx)))
    return F


_EINSUM_LETTERS = "abcdefghij"


def evaluate_symbol_moi(phi, D, perturbations):
    """Spectral-sum operator integral T_phi(V_1..V_p) as a matrix.  ``phi``
    is a callable (p+1)-variable symbol or its tensor over the index tuples
    of ``D.index_values()``."""
    p = len(perturbations)
    U = D.eigenvectors
    lam = D.index_values()
    n = lam.size
    for V in perturbations:
        if as_matrix(V).shape != (n, n):
            raise ValueError("perturbation dimension mismatch")
    F = _tabulate(phi, lam, p) if callable(phi) else phi
    if p == 0:
        return (U * F) @ U.conj().T
    Vt = [U.conj().T @ as_matrix(V) @ U for V in perturbations]
    idx = _EINSUM_LETTERS[: p + 1]
    spec = idx + "," + ",".join(idx[i: i + 2] for i in range(p)) + "->" + idx[0] + idx[-1]
    M = np.einsum(spec, F, *Vt)
    return U @ M @ U.conj().T


def evaluate_moi(f, D, perturbations):
    """T over the divided difference f^[p] of a scalar function f."""
    p = len(perturbations)
    if p == 0:
        return apply_function(f, D).mat
    F = divided_difference_tensor(f, D.index_values(), p)
    return evaluate_symbol_moi(F, D, perturbations)


def gateaux_derivative(f, D, V, p):
    """p-th Gateaux derivative of s -> f(H + sV) at 0, i.e. p! times the
    operator integral with symbol f^[p]."""
    return math.factorial(p) * evaluate_moi(f, D, [V] * p)


def _trace_derivative(f, D, V, p):
    """(p-1)! sum over index tuples of (f')^[p-1] times the cyclic product of
    the eigenbasis entries of V: the trace of the p-th Gateaux derivative,
    for any p >= 1 (at p = 1, sum f'(lambda_i) (U*VU)_ii)."""
    U = D.eigenvectors
    Vt = U.conj().T @ as_matrix(V) @ U
    F = divided_difference_tensor(f.derivative(), D.index_values(), p - 1)
    idx = _EINSUM_LETTERS[:p]
    pairs = [idx[i] + idx[(i + 1) % p] for i in range(p)]
    spec = idx + "," + ",".join(pairs) + "->"
    return math.factorial(p - 1) * complex(np.einsum(spec, F, *([Vt] * p))).real


def trace_derivative_first(f, D, V):
    """Trace of the first derivative, integral of f' against the spectral
    measure Tr(E(.) V): sum of f'(lambda_i) (U*VU)_ii."""
    return _trace_derivative(f, D, V, 1)


def trace_derivative_higher(f, D, V, p):
    """(p-1)! sum over spectral tuples of (f')^[p-1] times the cyclic trace
    Tr(E V ... E V); equals the trace of the p-th Gateaux derivative."""
    if p < 2:
        raise ValueError("p must be >= 2; use trace_derivative_first")
    return _trace_derivative(f, D, V, p)


def moi_trace_identity_check(f, D, V, k):
    """|Tr T_{f^[k]}(V,..,V) - (1/k) sum (f')^[k-1] Tr(E V .. E V)|, both
    sides computed independently."""
    lhs = np.trace(evaluate_moi(f, D, [V] * k)).real
    if k == 1:
        rhs = trace_derivative_first(f, D, V)
    else:
        rhs = trace_derivative_higher(f, D, V, k) / math.factorial(k)
    return abs(lhs - rhs)


def additivity_check(phi1, phi2, D, perturbations):
    """Residual of T_{phi1+phi2} = T_{phi1} + T_{phi2}."""
    both = evaluate_symbol_moi(lambda *a: phi1(*a) + phi2(*a), D, perturbations)
    t1 = evaluate_symbol_moi(phi1, D, perturbations)
    t2 = evaluate_symbol_moi(phi2, D, perturbations)
    return schatten_norm(both - t1 - t2, 2)


def product_split_check(phi1, phi2, D, perturbations, k):
    """Residual of the glued-symbol factorization
    T_{phi1 . phi2}(V_1..V_p) = T_{phi1}(V_1..V_k) T_{phi2}(V_{k+1}..V_p)."""
    p = len(perturbations)
    if not 0 <= k <= p:
        raise ValueError("split index out of range")

    def glued(*lams):
        return phi1(*lams[: k + 1]) * phi2(*lams[k:])

    whole = evaluate_symbol_moi(glued, D, perturbations)
    left = evaluate_symbol_moi(phi1, D, perturbations[:k])
    right = evaluate_symbol_moi(phi2, D, perturbations[k:])
    return schatten_norm(whole - left @ right, 2)


def edge_multiplier_check(psi1, phi, psi2, D, perturbations):
    """Residual of absorbing the edge multipliers into the outer
    perturbations: T_{psi1 phi psi2}(V_1,..,V_p) = T_phi(psi1(H)V_1,..,V_p psi2(H))."""
    if not perturbations:
        raise ValueError("needs at least one perturbation")

    def weighted(*lams):
        return psi1(lams[0]) * phi(*lams) * psi2(lams[-1])

    lhs = evaluate_symbol_moi(weighted, D, perturbations)
    mod = [as_matrix(V) for V in perturbations]
    mod[0] = evaluate_symbol_moi(psi1, D, []) @ mod[0]
    mod[-1] = mod[-1] @ evaluate_symbol_moi(psi2, D, [])
    rhs = evaluate_symbol_moi(phi, D, mod)
    return schatten_norm(lhs - rhs, 2)
