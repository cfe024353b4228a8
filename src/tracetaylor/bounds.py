"""Explicit constants and certified inequalities for the trace remainder:
the doubling-recursion constant sequence, dyadic-root depth, compact-resolvent
trace-norm bounds, and the Hilbert-Schmidt-resolvent constant."""

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .moi import evaluate_moi
from .operator_core import Interval, counting_trace, schatten_norm
# unused here, kept because bench/tests/test_tracer.py checks its rebinding
from .operator_core import decompose  # noqa: F401
from .scalar_functions import (_memoized, decompose_signed, fractional_root,
                               gp_seminorm, product_with_u, product_with_u2,
                               sup_norm, weight_u)


# each Check op: its comparison, and the sign that the FAIL text shows
_OPS = {"<=": (operator.le, ">"), ">=": (operator.ge, "<")}


@dataclass(frozen=True)
class Check:
    """One gate, ``value op threshold`` with ``op`` '<=' or '>='.  It passes
    only for a finite value on the right side, so NaN and inf fail; its
    string is the FAIL text, the value on the wrong side of the threshold."""
    name: str
    value: float
    op: str
    threshold: float

    @property
    def passed(self):
        return (math.isfinite(self.value)
                and bool(_OPS[self.op][0](self.value, self.threshold)))

    def __str__(self):
        return f"{self.name} {self.value:.6g} {_OPS[self.op][1]} {self.threshold:.6g}"


@dataclass
class BoundCertificate:
    kind: str
    lhs: float
    rhs: float
    ingredients: dict = field(default_factory=dict)

    def check(self, name):
        """``lhs <= rhs`` up to a relative 1e-9, as a Check named ``name``."""
        return Check(name, self.lhs, "<=", self.rhs + 1e-9 * (1.0 + self.rhs))

    @property
    def passed(self):
        return self.check(self.kind).passed

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
    """Memoize ``constant(f, n)`` in f's own ``_constants`` table, so each is
    computed once per function and dies with it."""
    @functools.wraps(constant)
    def memo(f, n):
        return _memoized(f, (constant.__name__, n), lambda: constant(f, n))
    return memo


@_per_function
def _root_constants(f, n):
    """max_k sup|f^(2^-k)| and max over roots/orders of max(1, G_d seminorm),
    for k = 1..j_n and d = 1..n."""
    sup_max, g_max = 0.0, 1.0
    # one root at a time, so a root's tables are freed before the next one's
    for k in range(1, j_of(n) + 1):
        r = fractional_root(f, k, max_order=n + 1)
        sup_max = max(sup_max, sup_norm(r))
        # highest order first: a FractionalPower then finds every order on a
        # grid from one pass of its base's table
        for d in range(n, 0, -1):
            g_max = max(g_max, gp_seminorm(r, d).value_gp)
    return sup_max, g_max


def compact_trace_norm_bound(f, D, V, v_norm, n):
    """Trace-norm bound on the order-n operator integral of f at the
    decomposition D with n copies of the Hermitian perturbation V, v_norm =
    ||V||, against the eigenvalue count of supp f and dyadic-root seminorms
    of f."""
    lhs = schatten_norm(evaluate_moi(f, D, [V] * n), 1)
    an = a_sequence(n)
    lo, hi = f.support
    tr_e = counting_trace(D, Interval(lo, hi))
    sup_max, g_max = _root_constants(f, n)
    rhs = an * v_norm**n * tr_e * sup_max * g_max**n
    return BoundCertificate(
        kind="compact", lhs=lhs, rhs=rhs,
        ingredients={"a_n": an, "j_n": j_of(n), "counting_trace": tr_e,
                     "V_norm": v_norm, "root_sup": sup_max, "root_gmax": g_max})


@_per_function
def _signed_root_constants(f, n):
    """Root constants of both halves of the signed split f = f1 - f2 (None
    for a zero half), and the support of f1."""
    f1, f2 = decompose_signed(f, n)
    # the halves are zero exactly when f is (f2 = 2 sup|f| b, f1 = f2 + f)
    halves = [None if sup_norm(f) == 0.0 else _root_constants(fi, n)
              for fi in (f1, f2)]
    return halves, f1.support


def inv_resolvent_trace(D0):
    """Tr (1 + H0^2)^-1, as the sum of 1 / (1 + lambda^2) over the eigenvalues
    of the decomposition D0 of H0: the instance factor of both remainder
    bounds and of the density L1 bound."""
    lam = D0.eigenvalues
    return float(np.sum(1.0 / (1.0 + lam * lam)))


def remainder_bound_compact(f, D0, v_norm, n, remainder):
    """Certificate for |remainder|, the order-n remainder trace of f at (H0, V)
    with D0 the decomposition of H0 and v_norm = ||V||, via the signed
    decomposition f = f1 - f2: the constant is C(f1) + C(f2), and the sup
    over t of the eigenvalue count of the padded support is replaced by its
    certified resolvent bound."""
    halves, (lo, hi) = _signed_root_constants(f, n)
    an = a_sequence(n)
    c1, c2 = (0.0 if h is None else an * h[0] * h[1]**n for h in halves)
    smax = max(abs(lo), abs(hi))
    inv_res_trace = inv_resolvent_trace(D0)
    cert_count = ((1.0 + smax * smax) * (1.0 + v_norm + v_norm * v_norm)
                  * inv_res_trace)
    rhs = (c1 + c2) * cert_count * v_norm**n
    return BoundCertificate(
        kind="compact", lhs=abs(remainder), rhs=rhs,
        ingredients={"a_n": an, "j_n": j_of(n),
                     "C_f1": c1, "C_f2": c2, "V_norm": v_norm,
                     "counting_trace_certified": cert_count,
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


def remainder_bound_hs(f, D0, v_norm, n, remainder):
    """Hilbert-Schmidt-resolvent certificate for |remainder|, the order-n
    remainder trace of f at (H0, V) with D0 the decomposition of H0 and
    v_norm = ||V||: the eigenvalue-count factor is traded for
    Tr (1 + H0^2)^-1."""
    c = hs_constant(f, n)
    inv_res_trace = inv_resolvent_trace(D0)
    rhs = c * inv_res_trace * (1.0 + v_norm + v_norm * v_norm) * v_norm**n
    return BoundCertificate(
        kind="hilbert_schmidt", lhs=abs(remainder), rhs=rhs,
        ingredients={"c_fn": c, "inv_resolvent_trace": inv_res_trace,
                     "V_norm": v_norm})
