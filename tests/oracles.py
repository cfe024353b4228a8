"""Reference implementations that the tests compare the library against.

Each one takes an independent route to a quantity the library computes or
bounds: exact polynomial derivatives, the per-order evaluation of a
function's derivatives, the scalar divided-difference loop,
explicit loops over eigenvector index tuples, the trace of f(H) formed as a
matrix, the value of a trace-formula kernel summed term by term at each
point, Horner's rule and a per-piece loop for a kernel's piece ends and
L1 norm, finite differences of the functional calculus, a sampled
supremum of eigenvalue counts, and the resolvent expansion of the traces of
a Lorentzian.

The checks after those test claims of the paper that no command runs:
permutation symmetry and the mean-value bound of divided differences, the
PSD resolvent and projection inequalities, trace-class and Schatten bounds,
and the integral representation of the operator remainder.
"""

import math
from itertools import product

import numpy as np
from numpy.polynomial import chebyshev, polyutils

from tracetaylor.divided_diff import (DividedDifferenceCache, _node_triangle,
                                      divided_difference)
from tracetaylor.moi import evaluate_moi, evaluate_symbol_moi
from tracetaylor.operator_core import (Interval, apply_function, as_matrix,
                                       counting_trace, decompose,
                                       operator_norm, schatten_norm)
from tracetaylor.scalar_functions import (FractionalPower, _gauss_legendre,
                                          gp_seminorm, quadrature_error,
                                          sup_norm)
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


def _eval_terms(term, x, lo, hi):
    """c(t) u(x)^k for the term (k, c) of one piece [lo, hi], or 0 for None:
    c a Chebyshev series in the variable t that maps the piece onto [-1, 1],
    or t = x itself (the identity map of [-1, 1]) on an infinite piece."""
    out = np.zeros_like(x)
    if term is not None:
        k, c = term
        span = (lo, hi) if np.isfinite(lo) and np.isfinite(hi) else (-1.0, 1.0)
        v = chebyshev.chebval(polyutils.mapdomain(x, span, (-1.0, 1.0)), c)
        out += v if k == 0 else v * (1.0 + x * x) ** (0.5 * k)
    return out


def derivs_per_order(f, orders, x):
    """[f^(j) at the points x for j in orders] by the per-order route: each
    piece of f's j-th derivative object evaluated term by term, one series
    at a time, and for a FractionalPower the log-derivative recursion over
    its base's orders 0..max(orders), each found by this route."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(f, FractionalPower):
        h = f._orders(derivs_per_order(f.base, range(max(orders) + 1), x))
        return [h[j] for j in orders]
    return [_deriv_per_order(f._derivative_obj(j), x) for j in orders]


def _deriv_per_order(g, x):
    out = np.zeros_like(x)
    idx = np.searchsorted(g.breaks, x, side="right") - 1
    # close the right endpoint of the support
    idx[x == g.breaks[-1]] = len(g.piece_terms) - 1
    inside = (idx >= 0) & (idx <= len(g.piece_terms) - 1) & (x <= g.breaks[-1])
    for i, terms in enumerate(g.piece_terms):
        mask = inside & (idx == i)
        if np.any(mask):
            out[mask] = _eval_terms(terms, x[mask], *g.breaks[i:i + 2])
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


class Lorentzian:
    """f_z(x) = Im 1/(x - z) for z = a + ib with b > 0, a whole-line function
    with the closed-form derivatives f_z^(j)(x) = Im (-1)^j j! / (x - z)^(j+1)
    of every order."""

    def __init__(self, z):
        self.z = complex(z)
        self.max_order = 10**6

    def value(self, x):
        return self.deriv(0, x)

    def deriv(self, j, x):
        out = ((-1) ** j * math.factorial(j)
               / (np.asarray(x, dtype=float) - self.z) ** (j + 1)).imag
        return float(out) if out.ndim == 0 else out

    def derivs(self, orders, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([self.deriv(j, x) for j in orders])


def resolvent_expansion(z, H0, V, n):
    """tau_1..tau_{n-1} and Tr R_n of the trace of the Lorentzian f_z at
    H0 + V, from the second resolvent identity iterated n times: with
    R0 = (z - H0)^-1 and R = (z - H0 - V)^-1, R = sum_{k<n} R0 (V R0)^k +
    (R0 V)^n R, and Tr f_z(H) = -Im Tr (z - H)^-1, so tau_k = -Im Tr[R0 (V
    R0)^k] and Tr R_n = -Im Tr[(R0 V)^n R].  n + 2 products of matrices: no
    divided differences, no clustering and no difference of large traces."""
    eye = np.eye(H0.shape[0])
    R0 = np.linalg.inv(z * eye - H0)
    R = np.linalg.inv(z * eye - H0 - V)
    taus, P = [], R0
    for _ in range(1, n):
        P = P @ V @ R0
        taus.append(-np.trace(P).imag)
    return taus, -np.trace(np.linalg.matrix_power(R0 @ V, n) @ R).imag


def trace_by_matrix(f, D):
    """Tr f(H) by the matrix route: the real part of the trace of the
    symmetrized U diag(f) U* at the index values of D, U its eigenvectors."""
    U = D.eigenvectors
    F = (U * f.value(D.index_values())) @ U.conj().T
    return float(np.trace(0.5 * (F + F.conj().T)).real)


def kernel_at(kernel, x):
    """A ``shift.Kernel`` at the points x (a float at a scalar x): on the
    piece [breaks[k], breaks[k + 1]) that holds a point t, the sum over j of
    coef[k, j] (t - breaks[k])^j, term by term; zero outside the breaks."""
    ts = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(ts.shape)
    for i, t in enumerate(ts):
        k = int(np.searchsorted(kernel.breaks, t, side="right")) - 1
        if 0 <= k < len(kernel.coef):
            out[i] = sum(c * (t - kernel.breaks[k]) ** j
                         for j, c in enumerate(kernel.coef[k]))
    return float(out[0]) if np.isscalar(x) else out


def kernel_piece_ends(coef, width):
    """Row by row, sum_j coef[:, j] width^j by Horner's rule from the top
    coefficient: each piece of a kernel at its right end."""
    acc = coef[:, -1]
    for j in range(coef.shape[1] - 2, -1, -1):
        acc = acc * width + coef[:, j]
    return acc


def kernel_l1_loop(kernel):
    """Integral of |kernel| for degree <= 1, one piece at a time in Python
    floats: half the sum of the end values times the width, or, where the
    ends differ in sign, the two triangles on either side of the root."""
    width = np.diff(kernel.breaks)
    total = 0.0
    for h, v0, v1, slope in zip(width.tolist(), kernel.coef[:, 0].tolist(),
                                kernel_piece_ends(kernel.coef, width).tolist(),
                                kernel.coef[:, -1].tolist()):
        if v0 * v1 >= 0:
            total += 0.5 * abs(v0 + v1) * h
        else:
            x0 = -v0 / slope
            total += 0.5 * abs(v0) * x0 + 0.5 * abs(v1) * (h - x0)
    return total


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
    vals, dd = _node_triangle(f, nodes)
    p = vals.size - 1
    lo, hi = float(vals[0]), float(vals[-1])
    x = np.linspace(lo, hi, 2001) if hi > lo else np.array([lo])
    bound = float(np.max(np.abs(f.deriv(p, x)))) / math.factorial(p)
    return abs(dd(0, p)) <= bound + 1e-9


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
    rhs = gp_seminorm(f, p) + quadrature_error(f, p)
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
        deriv = math.factorial(p) * evaluate_moi(f, Dt, [Vm] * p)
        acc = acc + wi * (1.0 - ti) ** (p - 1) * deriv
    acc /= math.factorial(p - 1)
    return schatten_norm(acc - operator_remainder(f, H0, V, p), 2)
