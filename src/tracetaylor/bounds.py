"""Explicit constants and certified inequalities for the trace remainder:
the doubling-recursion constant sequence, dyadic-root depth, compact-resolvent
trace-norm bounds, and the Hilbert-Schmidt-resolvent constant."""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .moi import evaluate_moi
from .operator_core import (Interval, as_matrix, counting_trace, decompose,
                            operator_norm)
from .scalar_functions import (decompose_signed, fractional_root, gp_seminorm,
                               product_with_u, product_with_u2, sup_norm,
                               weight_u)
from .taylor import remainder_trace


@dataclass
class BoundCertificate:
    kind: str
    lhs: float
    rhs: float
    ingredients: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.lhs <= self.rhs + 1e-9 * (1.0 + self.rhs)

    def to_json_dict(self):
        return {"kind": self.kind, "lhs": self.lhs, "rhs": self.rhs,
                "passed": bool(self.passed), "ingredients": self.ingredients}


@functools.cache
def a_sequence(n):
    """a_1 = 2; a_k = a_{k-1} + a_{floor(k/2)}."""
    if n < 1:
        raise ValueError("index must be >= 1")
    if n == 1:
        return 2
    return a_sequence(n - 1) + a_sequence(n // 2)


def j_of(n):
    """Dyadic-root depth 1 + floor(log2 n)."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return 1 + int(math.floor(math.log2(n)))


def _per_function(constant):
    """Memoize ``constant(f, n)`` in f's own table of (f, n) constants, so
    each is computed once per function and dies with it."""
    @functools.wraps(constant)
    def memo(f, n):
        key = (constant.__name__, n)
        if key not in f._constants:
            f._constants[key] = constant(f, n)
        return f._constants[key]
    return memo


@_per_function
def _root_constants(f, n):
    """max_k sup|f^(2^-k)| and max over roots/orders of max(1, G_d seminorm),
    for k = 1..j_n and d = 1..n."""
    jn = j_of(n)
    roots = [fractional_root(f, k, max_order=n + 1) for k in range(1, jn + 1)]
    sup_max = max(sup_norm(r) for r in roots)
    g_max = 1.0
    for r in roots:
        for d in range(1, n + 1):
            g_max = max(g_max, gp_seminorm(r, d).value_gp)
    return sup_max, g_max


def compact_trace_norm_bound(f, D, V, n):
    """Trace-norm bound on the order-n operator integral with equal Hermitian
    perturbations, against the eigenvalue count of supp f and dyadic-root
    seminorms of f."""
    Vm = as_matrix(V)
    lhs = evaluate_moi(f, D, [Vm] * n).schatten(1)
    an = a_sequence(n)
    lo, hi = f.support
    tr_e = counting_trace(D, Interval(lo, hi))
    vn = operator_norm(Vm)
    sup_max, g_max = _root_constants(f, n)
    rhs = an * vn**n * tr_e * sup_max * g_max**n
    return BoundCertificate(
        kind="compact", lhs=lhs, rhs=rhs,
        ingredients={"a_n": an, "j_n": j_of(n), "counting_trace": tr_e,
                     "V_norm": vn, "root_sup": sup_max, "root_gmax": g_max})


@_per_function
def _signed_root_constants(f, n):
    """Root constants of both halves of the signed split f = f1 - f2 (None
    for a zero half), and the support of f1."""
    f1, f2 = decompose_signed(f, n)
    halves = [None if sup_norm(fi) == 0.0 else _root_constants(fi, n)
              for fi in (f1, f2)]
    return halves, f1.support


def remainder_bound_compact(f, H0, V, n):
    """Remainder bound via the signed decomposition f = f1 - f2: the constant
    is C(f1) + C(f2), and the sup over t of the eigenvalue count of the
    padded support is replaced by its certified resolvent bound (a grid
    supremum is reported alongside for diagnostics)."""
    Hm, Vm = as_matrix(H0), as_matrix(V)
    halves, (lo, hi) = _signed_root_constants(f, n)
    an = a_sequence(n)
    c1, c2 = (0.0 if h is None else an * h[0] * h[1]**n for h in halves)
    vn = operator_norm(Vm)
    smax = max(abs(lo), abs(hi))
    inv_res_trace = float(np.trace(
        np.linalg.inv(np.eye(Hm.shape[0]) + Hm @ Hm)).real)
    cert_count = (1.0 + smax * smax) * (1.0 + vn + vn * vn) * inv_res_trace
    supp = Interval(lo, hi)
    grid_count = max(counting_trace(decompose(Hm + t * Vm), supp)
                     for t in np.linspace(0.0, 1.0, 33))
    lhs = abs(remainder_trace(f, H0, V, n))
    rhs = (c1 + c2) * cert_count * vn**n
    return BoundCertificate(
        kind="compact", lhs=lhs, rhs=rhs,
        ingredients={"a_n": an, "j_n": j_of(n),
                     "C_f1": c1, "C_f2": c2, "V_norm": vn,
                     "counting_trace_certified": cert_count,
                     "counting_trace_grid": grid_count,
                     "inv_resolvent_trace": inv_res_trace})


@_per_function
def hs_constant(f, n):
    """The Hilbert-Schmidt-resolvent constant assembled from seminorms of f,
    fu, fu^2 and the weight u."""
    fu2 = product_with_u2(f)
    if n == 1:
        return gp_seminorm(fu2, 1).value_gp + 2.0 * sup_norm(fu2)
    fu = product_with_u(f)
    u = weight_u()
    m1 = max([sup_norm(f), sup_norm(fu)]
             + [gp_seminorm(f, k).value_gp for k in range(1, n + 1)]
             + [gp_seminorm(fu, k).value_gp for k in range(1, n + 1)])
    m2 = max(gp_seminorm(u, l).value_gp for l in range(2, n + 1))
    return (gp_seminorm(fu2, n).value_gp
            + 0.5 * n * (n + 3) * m1 * m2 * m2)


def remainder_bound_hs(f, H0, V, n):
    """Hilbert-Schmidt-resolvent remainder bound: the eigenvalue-count factor
    is traded for Tr (1 + H0^2)^-1."""
    Hm, Vm = as_matrix(H0), as_matrix(V)
    c = hs_constant(f, n)
    vn = operator_norm(Vm)
    inv_res_trace = float(np.trace(
        np.linalg.inv(np.eye(Hm.shape[0]) + Hm @ Hm)).real)
    lhs = abs(remainder_trace(f, H0, V, n))
    rhs = c * inv_res_trace * (1.0 + vn + vn * vn) * vn**n
    return BoundCertificate(
        kind="hilbert_schmidt", lhs=lhs, rhs=rhs,
        ingredients={"c_fn": c, "inv_resolvent_trace": inv_res_trace,
                     "V_norm": vn})
