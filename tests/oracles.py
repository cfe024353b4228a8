"""Reference implementations that the tests compare the library against.

Each one takes an independent route to a quantity the library computes or
bounds: exact polynomial derivatives, the scalar divided-difference loop,
explicit loops over eigenvector index tuples, finite differences of the
functional calculus, and a sampled supremum of eigenvalue counts.
"""

import math
from itertools import product

import numpy as np

from tracetaylor.divided_diff import DividedDifferenceCache
from tracetaylor.operator_core import (apply_function, as_matrix,
                                       counting_trace, decompose,
                                       operator_norm)


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
