"""Reference implementations that the tests compare the library against.

Each one takes an independent route to a quantity the library computes or
bounds: exact polynomial derivatives, the per-order evaluation of a
function's derivatives, the scalar divided-difference loop,
explicit loops over eigenvector index tuples, finite differences of the
functional calculus, and a sampled supremum of eigenvalue counts.

The checks after those test claims of the paper that no command runs:
permutation symmetry and the mean-value bound of divided differences, the
PSD resolvent and projection inequalities, trace-class and Schatten bounds,
and the integral representation of the operator remainder.
"""

import json
import math
from itertools import product

import numpy as np

from tracetaylor.divided_diff import (DividedDifferenceCache, _merged_nodes,
                                      divided_difference)
from tracetaylor.moi import evaluate_moi, evaluate_symbol_moi, gateaux_derivative
from tracetaylor.operator_core import (HermitianOperator, Interval,
                                       apply_function, as_matrix,
                                       counting_trace, decompose,
                                       operator_norm, schatten_norm)
from tracetaylor.scalar_functions import (FractionalPower, _gauss_legendre,
                                          gp_seminorm, sup_norm)
from tracetaylor.taylor import operator_remainder


class PolynomialProbe:
    """x^k (or an arbitrary polynomial) with exact derivatives."""

    def __init__(self, coeffs):
        self.poly = np.polynomial.Polynomial(coeffs)
        self.max_order = 10**6
        self.support = None
        self.unbounded = True

    @classmethod
    def monomial(cls, k):
        return cls([0.0] * k + [1.0])

    def value(self, x):
        return self.poly(x)

    def __call__(self, x):
        return self.poly(x)

    def deriv(self, j, x):
        return self.poly.deriv(j)(x) if j else self.poly(x)

    def derivs(self, orders, x):
        x = np.asarray(x, dtype=float)
        return np.array([self.deriv(j, x) for j in orders])


def _eval_terms(terms, x):
    out = np.zeros_like(x)
    for k, P in terms.items():
        if k == 0:
            out += P(x)
        else:
            out += P(x) * (1.0 + x * x) ** (0.5 * k)
    return out


def derivs_per_order(f, orders, x):
    """[f^(j) at the points x for j in orders] by the per-order route: each
    piece of f's j-th derivative object evaluated term by term, one series
    at a time, and for a FractionalPower the log-derivative recursion over
    its base's orders 0..max(orders), each found by this route."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(f, FractionalPower):
        h = []
        f._extend(derivs_per_order(f.base, range(max(orders) + 1), x), h)
        return [h[j] for j in orders]
    return [_deriv_per_order(f._derivative_obj(j), x) for j in orders]


def _deriv_per_order(g, x):
    if g.unbounded:
        return _eval_terms(g.piece_terms[0], x)
    out = np.zeros_like(x)
    idx = np.searchsorted(g.breaks, x, side="right") - 1
    # close the right endpoint of the support
    idx[x == g.breaks[-1]] = len(g.piece_terms) - 1
    inside = (idx >= 0) & (idx <= len(g.piece_terms) - 1) & (x <= g.breaks[-1])
    for i, terms in enumerate(g.piece_terms):
        mask = inside & (idx == i)
        if np.any(mask):
            out[mask] = _eval_terms(terms, x[mask])
    return out


def divided_difference_loop(f, nodes):
    """f^[p] by the scalar triangular recursion over the sorted nodes, one
    entry at a time; equal nodes take f^(r)/r!, all others the quotient (no
    merging of near-equal nodes)."""
    x = sorted(float(t) for t in nodes)
    d = [float(f.deriv(0, t)) for t in x]
    for w in range(1, len(x)):
        for i in range(len(x) - w):
            if x[i + w] == x[i]:
                d[i] = float(f.deriv(w, x[i])) / math.factorial(w)
            else:
                d[i] = (d[i + 1] - d[i]) / (x[i + w] - x[i])
    return d[0]


def expansion_terms_eigensum(f, D0, V, n):
    """Direct eigenvector-sum oracle for the expansion terms (dim <= 6):
    explicit loops over index tuples with matrix elements of V in the
    eigenbasis.  Independent of the cluster/trace path."""
    if D0.dim > 6:
        raise ValueError("eigensum oracle capped at dim 6")
    lam = D0.index_values()
    U = D0.eigenvectors
    Vt = U.conj().T @ as_matrix(V) @ U  # Vt[b, a] = <V psi_a, psi_b>
    dd = DividedDifferenceCache(f.derivative())
    out = []
    for p in range(1, n):
        total = 0.0 + 0.0j
        for idx in product(range(D0.dim), repeat=p):
            w = dd(*(lam[i] for i in idx))
            prod_elem = 1.0 + 0.0j
            for a, b in zip(idx, idx[1:] + idx[:1]):
                prod_elem *= Vt[b, a]
            total += w * prod_elem
        out.append(float(total.real) / p)
    return out


def finite_difference_derivative(f, H, V, p, h=None):
    """Richardson-extrapolated 5-point central-difference derivative oracle."""
    Hm, Vm = as_matrix(H), as_matrix(V)
    if h is None:
        # balance the O(h^6) truncation against eps/h^p roundoff
        h = (1e-16) ** (1.0 / (p + 6)) / (1.0 + operator_norm(Vm))

    def fmat(s):
        return apply_function(f, decompose(Hm + s * Vm)).mat

    half = (p + 3) // 2
    offs = [o for o in range(-half, half + 1) if o != 0 or p % 2 == 0]
    # weights solve sum_i w_i o_i^k / k! = [k == p], k < len(offs)
    A = np.array([[o**k / math.factorial(k) for o in offs] for k in range(len(offs))])
    rhs_vec = np.zeros(len(offs))
    rhs_vec[p] = 1.0
    coefs = np.linalg.solve(A, rhs_vec)

    def estimate(step):
        acc = np.zeros_like(Hm)
        for o, c in zip(offs, coefs):
            acc = acc + c * fmat(o * step)
        return acc / step**p

    d1 = estimate(h)
    d2 = estimate(h / 2.0)
    # both stencils are 4th order accurate
    return (16.0 * d2 - d1) / 15.0


def counting_trace_sup(H, V, interval, points=33):
    """Grid supremum over t in [0, 1] of the number of eigenvalues of H + tV
    in the interval; a lower bound for the certified counting factor."""
    Hm, Vm = as_matrix(H), as_matrix(V)
    return max(counting_trace(decompose(Hm + t * Vm), interval)
               for t in np.linspace(0.0, 1.0, points))


def permutation_symmetry_residual(f, nodes):
    """Max deviation of f^[p] under 10 seeded random node permutations."""
    nodes = tuple(float(t) for t in nodes)
    ref = divided_difference(f, nodes)
    rng = np.random.default_rng(0)
    devs = []
    for _ in range(10):
        perm = tuple(np.asarray(nodes)[rng.permutation(len(nodes))])
        devs.append(abs(divided_difference(f, perm) - ref))
    # np.max keeps a NaN deviation, where max() from 0.0 drops it
    return float(np.max(devs))


def mean_value_bound_check(f, nodes):
    """Classical |f^[p]| <= sup |f^(p)| / p! over the node hull (sanity oracle)."""
    vals, _ = _merged_nodes(nodes)
    p = vals.size - 1
    lo, hi = float(vals[0]), float(vals[-1])
    x = np.linspace(lo, hi, 2001) if hi > lo else np.array([lo])
    bound = float(np.max(np.abs(f.deriv(p, x)))) / math.factorial(p)
    return abs(divided_difference(f, nodes)) <= bound + 1e-9


def load_json(path):
    """A HermitianOperator from a JSON file of ``to_json_dict`` form."""
    with open(path) as fh:
        return HermitianOperator.from_json_dict(json.load(fh))


def trace(A):
    return complex(np.trace(as_matrix(A)))


def abs_max(interval):
    return max(abs(interval.lo), abs(interval.hi))


def psd_leq(A, B, tol=1e-10):
    """A <= B in the positive-semidefinite order, up to -tol on the minimum
    eigenvalue of B - A."""
    Am, Bm = as_matrix(A), as_matrix(B)
    if Am.shape != Bm.shape:
        raise ValueError("dimension mismatch")
    w = np.linalg.eigvalsh(Bm - Am)
    return bool(w[0] >= -tol)


def resolvent_inequality_check(H0, W, tol=1e-10):
    """(1 + (H0+W)^2)^-1 <= (1 + ||W|| + ||W||^2) (1 + H0^2)^-1."""
    H0m, Wm = as_matrix(H0), as_matrix(W)
    n = H0m.shape[0]
    I = np.eye(n)
    lhs = np.linalg.inv(I + (H0m + Wm) @ (H0m + Wm))
    wn = operator_norm(Wm)
    rhs = (1.0 + wn + wn * wn) * np.linalg.inv(I + H0m @ H0m)
    return psd_leq(lhs, rhs, tol)


def spectral_projection(D, interval):
    mask = interval.contains(D.eigenvalues).astype(float)
    U = D.eigenvectors
    return (U * mask) @ U.conj().T


def projection_inequality_check(H0, W, interval, tol=1e-10):
    """E_{H0+W}(I) <= (1 + max_I |s|^2)(1 + ||W|| + ||W||^2)(1 + H0^2)^-1."""
    H0m, Wm = as_matrix(H0), as_matrix(W)
    n = H0m.shape[0]
    D = decompose(H0m + Wm)
    E = spectral_projection(D, interval)
    wn = operator_norm(Wm)
    smax = abs_max(interval)
    rhs = ((1.0 + smax * smax) * (1.0 + wn + wn * wn)
           * np.linalg.inv(np.eye(n) + H0m @ H0m))
    return psd_leq(E, rhs, tol)


def trace_class_bound_check(f, D, tol=1e-10):
    """Both trace-norm bounds for f(H): against the eigenvalue count of the
    support and, u-weighted, against the Hilbert-Schmidt resolvent norm."""
    lam = D.index_values()
    fv = f.value(lam)
    lo, hi = f.support
    supp = Interval(lo, hi)
    lhs1 = float(np.sum(np.abs(fv)))
    # sup|f| over the support and the spectrum (f vanishes off its support)
    rhs1 = max(sup_norm(f), float(np.max(np.abs(fv)))) * counting_trace(D, supp)
    ok1 = lhs1 <= rhs1 + tol * (1.0 + rhs1)
    u = np.sqrt(1.0 + lam * lam)
    lhs2 = float(np.sqrt(np.sum((fv * u) ** 2)))
    # ||f u^2||_inf over the support, including the spectrum points
    x = np.unique(np.concatenate([np.linspace(lo, hi, 8001),
                                  lam[(lam >= lo) & (lam <= hi)]]))
    fu2_sup = float(np.max(np.abs(f.value(x)) * (1.0 + x * x))) if x.size else 0.0
    rhs2 = fu2_sup * float(np.sqrt(np.sum(1.0 / (1.0 + lam * lam))))
    ok2 = lhs2 <= rhs2 + tol * (1.0 + rhs2)
    return ok1 and ok2


def schatten_bound_check(f, D, perturbations, alphas, alpha):
    """Holder-type norm bound: ||T||_alpha <= ||f||_{G_p} prod ||V_j||_{alpha_j},
    with the seminorm's quadrature error added to the right side."""
    p = len(perturbations)
    inv = sum(0.0 if a == np.inf else 1.0 / a for a in alphas)
    target = 0.0 if alpha == np.inf else 1.0 / alpha
    if abs(inv - target) > 1e-12:
        raise ValueError("Schatten exponents must satisfy 1/alpha = sum 1/alpha_j")
    lhs = schatten_norm(evaluate_moi(f, D, perturbations), alpha)
    rep = gp_seminorm(f, p)
    rhs = rep.value_gp + rep.quadrature_error
    for V, a in zip(perturbations, alphas):
        rhs *= schatten_norm(V, a)
    return lhs <= rhs + 1e-9 * (1.0 + rhs)


def hilbert_schmidt_bound_check(F, D, V):
    """||T_phi(V)||_2 <= ||phi||_inf ||V||_2 with the sup taken over spectrum
    pairs, for the (n, n) tensor ``F`` of a two-variable bounded symbol phi
    over the index pairs of ``D.index_values()``."""
    rhs = float(np.max(np.abs(F))) * schatten_norm(V, 2)
    return schatten_norm(evaluate_symbol_moi(F, D, [V]), 2) <= rhs + 1e-9 * (1.0 + rhs)


def integral_remainder_check(f, H0, V, p, quad_nodes=32):
    """Residual of the Taylor integral representation: Gauss-Legendre
    quadrature of (1-t)^(p-1)/(p-1)! times the p-th derivative at H0 + tV,
    compared against the directly assembled operator remainder."""
    if p < 1:
        raise ValueError("p must be >= 1")
    Hm, Vm = as_matrix(H0), as_matrix(V)
    x0, w0 = _gauss_legendre(quad_nodes)
    t = 0.5 * (x0 + 1.0)
    w = 0.5 * w0
    acc = np.zeros_like(Hm)
    for ti, wi in zip(t, w):
        Dt = decompose(Hm + ti * Vm)
        deriv = gateaux_derivative(f, Dt, Vm, p)
        acc = acc + wi * (1.0 - ti) ** (p - 1) * deriv
    acc /= math.factorial(p - 1)
    return schatten_norm(acc - operator_remainder(f, H0, V, p), 2)
