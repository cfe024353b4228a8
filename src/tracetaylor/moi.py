"""Multiple operator integrals as exact finite-dimensional spectral sums.

T over p perturbations inserts V_1..V_p between eigenprojections of H and
weights each tuple of spectral points by the divided difference of the symbol
function.  At finite dimension the defining double-limit construction reduces
to this exact sum, which is what everything here evaluates.
"""

import math

import numpy as np

from .divided_diff import divided_difference_tensor
from .operator_core import _function_of, schatten_norm
from .scalar_functions import _memoized


def evaluate_symbol_moi(F, D, perturbations):
    """Spectral-sum operator integral T_phi(V_1..V_p) as a matrix, for the
    tensor ``F`` of a (p+1)-variable symbol phi over the index tuples of
    ``D.index_values()`` (a vector when p = 0)."""
    p = len(perturbations)
    U = D.eigenvectors
    n = D.dim
    for V in perturbations:
        if V.shape != (n, n):
            raise ValueError("perturbation dimension mismatch")
    if p == 0:
        return _function_of(D, F)
    # integer subscripts, uncapped in p: V_k joins i_{k-1} to i_k
    operands = [F, list(range(p + 1))]
    for k, V in enumerate(perturbations):
        operands += [U.conj().T @ V @ U, [k, k + 1]]
    M = np.einsum(*operands, [0, p])
    return U @ M @ U.conj().T


def evaluate_moi(f, D, perturbations):
    """T over the divided difference f^[p] of a scalar function f, read from
    D's table of f (f(H) itself when p = 0)."""
    F = divided_difference_tensor(D.derivative_table(f, len(perturbations)),
                                  D.index_values())
    return evaluate_symbol_moi(F, D, perturbations)


def _trace_derivative(f, D, V, p):
    """(p-1)! sum over index tuples of (f')^[p-1] times the cyclic product of
    the eigenbasis entries of V: the trace of the p-th Gateaux derivative,
    for any p >= 1 (at p = 1, sum f'(lambda_i) (U*VU)_ii).  (f')^(r) is
    f^(r+1), so the tensor reads D's table of f."""
    U = D.eigenvectors
    Vt = U.conj().T @ V @ U
    F = divided_difference_tensor(D.derivative_table(f, p)[1:], D.index_values())
    operands = [F, list(range(p))]
    for k in range(p):
        operands += [Vt, [k, (k + 1) % p]]
    return math.factorial(p - 1) * complex(np.einsum(*operands, [])).real


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
    rhs = _trace_derivative(f, D, V, k) / math.factorial(k)
    return abs(lhs - rhs)


def _glue(F1, F2):
    """Tensor of the glued symbol F1(l_0..l_k) F2(l_k..l_p): F2's first
    variable is F1's last."""
    k, q = F1.ndim - 1, F2.ndim - 1
    return F1.reshape(F1.shape + (1,) * q) * F2.reshape((1,) * k + F2.shape)


def additivity_check(f, g, D, perturbations):
    """Residual of T_{(f+g)^[p]} = T_{f^[p]} + T_{g^[p]}, with f + g built by
    the function algebra (``f.add(g)``, memoized on f per g), not by adding
    the two tensors."""
    both = evaluate_moi(_memoized(f, ("add", g), lambda: f.add(g)), D,
                        perturbations)
    t1 = evaluate_moi(f, D, perturbations)
    t2 = evaluate_moi(g, D, perturbations)
    return schatten_norm(both - t1 - t2, 2)


def product_split_check(f, g, D, perturbations, k):
    """Residual of the glued-symbol factorization
    T_{phi1 . phi2}(V_1..V_p) = T_{phi1}(V_1..V_k) T_{phi2}(V_{k+1}..V_p)
    for phi1 = f^[k] and phi2 = g^[p-k]."""
    p = len(perturbations)
    if not 0 <= k <= p:
        raise ValueError("split index out of range")
    lam = D.index_values()
    F1 = divided_difference_tensor(D.derivative_table(f, k), lam)
    F2 = divided_difference_tensor(D.derivative_table(g, p - k), lam)
    whole = evaluate_symbol_moi(_glue(F1, F2), D, perturbations)
    left = evaluate_symbol_moi(F1, D, perturbations[:k])
    right = evaluate_symbol_moi(F2, D, perturbations[k:])
    return schatten_norm(whole - left @ right, 2)


def edge_multiplier_check(psi1, f, psi2, D, perturbations):
    """Residual of absorbing the edge multipliers into the outer
    perturbations: T_{psi1 f^[p] psi2}(V_1,..,V_p) equals
    T_{f^[p]}(psi1(H)V_1,..,V_p psi2(H)), with psi1(lambda_0) and
    psi2(lambda_p) broadcast onto the symbol tensor.  Every function is read
    from D's tables."""
    p = len(perturbations)
    if not p:
        raise ValueError("needs at least one perturbation")
    F = divided_difference_tensor(D.derivative_table(f, p), D.index_values())
    v1, v2 = (D.derivative_table(psi, 0)[0] for psi in (psi1, psi2))
    lhs = evaluate_symbol_moi(_glue(_glue(v1, F), v2), D, perturbations)
    mod = list(perturbations)
    mod[0] = _function_of(D, v1) @ mod[0]
    mod[-1] = mod[-1] @ _function_of(D, v2)
    rhs = evaluate_symbol_moi(F, D, mod)
    return schatten_norm(lhs - rhs, 2)
