"""Multiple operator integrals as exact finite-dimensional spectral sums.

T over p perturbations inserts V_1..V_p between eigenprojections of H and
weights each tuple of spectral points by the divided difference of the symbol
function.  At finite dimension the defining double-limit construction reduces
to this exact sum, which is what everything here evaluates.
"""

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .divided_diff import DividedDifferenceCache
from .operator_core import apply_function, as_matrix, schatten_norm
from .scalar_functions import gp_seminorm


@dataclass
class MoiResult:
    matrix: np.ndarray
    order: int
    _norm_cache: dict = field(default_factory=dict, repr=False)

    def schatten(self, alpha):
        key = float(alpha)
        if key not in self._norm_cache:
            self._norm_cache[key] = schatten_norm(self.matrix, alpha)
        return self._norm_cache[key]


def _symbol_tensor(phi, lam, p, symmetric):
    """Tensor phi(lam_{i0},..,lam_{ip}) over all index tuples.

    Values are cached per distinct value tuple (sorted when the symbol is
    symmetric, as divided differences are), so degenerate spectra cost little.
    """
    n = lam.size
    F = np.empty((n,) * (p + 1))
    cache = {}
    for idx in product(range(n), repeat=p + 1):
        vals = tuple(lam[i] for i in idx)
        key = tuple(sorted(vals)) if symmetric else vals
        v = cache.get(key)
        if v is None:
            v = float(phi(*vals))
            cache[key] = v
        F[idx] = v
    return F


_EINSUM_LETTERS = "abcdefghij"


def evaluate_symbol_moi(phi, D, perturbations, symmetric=False):
    """Spectral-sum operator integral for an arbitrary (p+1)-variable symbol."""
    p = len(perturbations)
    U = D.eigenvectors
    lam = D.index_values()
    n = lam.size
    for V in perturbations:
        if as_matrix(V).shape != (n, n):
            raise ValueError("perturbation dimension mismatch")
    if p == 0:
        fv = np.array([float(phi(t)) for t in lam])
        return MoiResult(matrix=(U * fv) @ U.conj().T, order=0)
    Vt = [U.conj().T @ as_matrix(V) @ U for V in perturbations]
    F = _symbol_tensor(phi, lam, p, symmetric)
    idx = _EINSUM_LETTERS[: p + 1]
    spec = idx + "," + ",".join(idx[i: i + 2] for i in range(p)) + "->" + idx[0] + idx[-1]
    M = np.einsum(spec, F, *Vt)
    return MoiResult(matrix=U @ M @ U.conj().T, order=p)


def evaluate_moi(f, D, perturbations):
    """T over the divided difference f^[p] of a scalar function f."""
    p = len(perturbations)
    if p == 0:
        return MoiResult(matrix=apply_function(f, D).mat, order=0)
    dd = DividedDifferenceCache(f)
    return evaluate_symbol_moi(dd, D, perturbations, symmetric=True)


def gateaux_derivative(f, D, V, p):
    """p-th Gateaux derivative of s -> f(H + sV) at 0, i.e. p! times the
    operator integral with symbol f^[p]."""
    return math.factorial(p) * evaluate_moi(f, D, [V] * p).matrix


def trace_derivative_first(f, D, V):
    """Trace of the first derivative via the spectral measure: sum of
    f'(lambda_c) Tr(P_c V)."""
    fp = f.derivative()
    Vm = as_matrix(V)
    total = 0.0
    for lam_c, P in zip(D.cluster_values, D.projections):
        total += fp.value(lam_c) * np.trace(P @ Vm).real
    return float(total)


def _cyclic_trace_sum(phi, D, V, p, symmetric=True):
    U = D.eigenvectors
    lam = D.index_values()
    Vt = U.conj().T @ as_matrix(V) @ U
    if p == 1:
        F = np.array([float(phi(t)) for t in lam])
        return complex(np.sum(F * np.diag(Vt)))
    F = _symbol_tensor(phi, lam, p - 1, symmetric)
    idx = _EINSUM_LETTERS[:p]
    pairs = [idx[i] + idx[(i + 1) % p] for i in range(p)]
    spec = idx + "," + ",".join(pairs) + "->"
    return complex(np.einsum(spec, F, *([Vt] * p)))


def trace_derivative_higher(f, D, V, p):
    """(p-1)! sum over spectral tuples of (f')^[p-1] times the cyclic trace
    Tr(E V ... E V); equals the trace of the p-th Gateaux derivative."""
    if p < 2:
        raise ValueError("p must be >= 2; use trace_derivative_first")
    dd = DividedDifferenceCache(f.derivative())
    return math.factorial(p - 1) * _cyclic_trace_sum(dd, D, V, p).real


def moi_trace_identity_check(f, D, V, k):
    """|Tr T_{f^[k]}(V,..,V) - (1/k) sum (f')^[k-1] Tr(E V .. E V)|, both
    sides computed independently."""
    lhs = np.trace(evaluate_moi(f, D, [V] * k).matrix).real
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
    return schatten_norm(both.matrix - t1.matrix - t2.matrix, 2)


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
    return schatten_norm(whole.matrix - left.matrix @ right.matrix, 2)


def edge_multiplier_check(psi1, phi, psi2, D, perturbations):
    """Residual of absorbing the edge multipliers into the outer
    perturbations: T_{psi1 phi psi2}(V_1,..,V_p) = T_phi(psi1(H)V_1,..,V_p psi2(H))."""
    if not perturbations:
        raise ValueError("needs at least one perturbation")

    def weighted(*lams):
        return psi1(lams[0]) * phi(*lams) * psi2(lams[-1])

    lhs = evaluate_symbol_moi(weighted, D, perturbations)
    U = D.eigenvectors
    lam = D.index_values()
    psi1H = (U * np.array([float(psi1(t)) for t in lam])) @ U.conj().T
    psi2H = (U * np.array([float(psi2(t)) for t in lam])) @ U.conj().T
    mod = [as_matrix(V) for V in perturbations]
    mod[0] = psi1H @ mod[0]
    mod[-1] = mod[-1] @ psi2H
    rhs = evaluate_symbol_moi(phi, D, mod)
    return schatten_norm(lhs.matrix - rhs.matrix, 2)


def schatten_bound_check(f, D, perturbations, alphas, alpha):
    """Holder-type norm bound: ||T||_alpha <= ||f||_{G_p} prod ||V_j||_{alpha_j},
    with the seminorm's quadrature error added to the right side."""
    p = len(perturbations)
    inv = sum(0.0 if a == np.inf else 1.0 / a for a in alphas)
    target = 0.0 if alpha == np.inf else 1.0 / alpha
    if abs(inv - target) > 1e-12:
        raise ValueError("Schatten exponents must satisfy 1/alpha = sum 1/alpha_j")
    T = evaluate_moi(f, D, perturbations)
    lhs = T.schatten(alpha)
    rep = gp_seminorm(f, p)
    rhs = rep.value_gp + rep.quadrature_error
    for V, a in zip(perturbations, alphas):
        rhs *= schatten_norm(V, a)
    return lhs <= rhs + 1e-9 * (1.0 + rhs)


def hilbert_schmidt_bound_check(phi, D, V):
    """||T_phi(V)||_2 <= ||phi||_inf ||V||_2 with the sup taken over spectrum
    pairs (phi a two-variable bounded symbol)."""
    T = evaluate_symbol_moi(phi, D, [V])
    lam = D.index_values()
    sup = max(abs(float(phi(a, b))) for a in lam for b in lam)
    rhs = sup * schatten_norm(V, 2)
    return T.schatten(2) <= rhs + 1e-9 * (1.0 + rhs)


def first_order_symbol(f):
    """The two-variable divided-difference symbol of f, for the HS bound."""
    return DividedDifferenceCache(f)
