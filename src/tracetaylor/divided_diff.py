"""Divided differences of arbitrary order with confluent (repeated-node)
semantics, plus the scalar decomposition identities used by the norm bounds."""

import math

import numpy as np

from .operator_core import _cluster
from .scalar_functions import (DerivativeOrderError, dyadic_root, product_with_u,
                               product_with_u2, weight_u)


def _merged_nodes(nodes):
    """Sorted nodes with every gap-chained cluster (``operator_core._cluster``)
    collapsed onto its mean, so eigenvalues arriving with solver noise hit
    the exact derivative branch of the recursion instead of a catastrophic
    quotient; also returns the largest cluster size."""
    vals = np.sort(np.asarray(nodes, dtype=float))
    if vals.size == 0:
        raise ValueError("need at least one node")
    runs, means = _cluster(vals)
    sizes = [len(r) for r in runs]
    return np.repeat(means, sizes), max(sizes)


def divided_difference(f, nodes):
    """The recursively defined divided difference f^[p] over p+1 nodes.

    Distinct nodes use the difference quotient; confluent groups use the
    exact-derivative branch f^(r)/r!.  Nodes are sorted first, so the result
    is deterministic; symmetry of f^[p] covers reorderings.
    """
    vals, conf = _merged_nodes(nodes)
    p = vals.size - 1
    if f.max_order < conf - 1:
        raise DerivativeOrderError(
            f"confluent group of size {conf} needs derivatives "
            f"up to order {conf - 1}")
    # d[i][j] = f^[j-i](vals[i..j]) built over sorted canonical values
    d = [[None] * (p + 1) for _ in range(p + 1)]
    for i in range(p + 1):
        d[i][i] = float(f.deriv(0, vals[i]))
    for w in range(1, p + 1):
        for i in range(p + 1 - w):
            j = i + w
            if vals[j] == vals[i]:
                d[i][j] = float(f.deriv(w, vals[i])) / math.factorial(w)
            else:
                d[i][j] = (d[i + 1][j] - d[i][j - 1]) / (vals[j] - vals[i])
    return d[0][p]


class DividedDifferenceCache:
    """Memoized divided differences of one function, keyed by sorted nodes."""

    def __init__(self, f):
        self.f = f
        self._cache = {}

    def __call__(self, *nodes):
        key = tuple(sorted(nodes))
        v = self._cache.get(key)
        if v is None:
            v = divided_difference(self.f, key)
            self._cache[key] = v
        return v


def permutation_symmetry_residual(f, nodes, n_perms=10, seed=0):
    """Max deviation of f^[p] under random node permutations."""
    nodes = tuple(float(t) for t in nodes)
    ref = divided_difference(f, nodes)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_perms):
        perm = tuple(np.asarray(nodes)[rng.permutation(len(nodes))])
        worst = max(worst, abs(divided_difference(f, perm) - ref))
    return worst


def sqrt_split_residual(f, nodes):
    """Residual of the square-root splitting of f^[n] into products of
    divided differences of sqrt(f) over contiguous node slices."""
    g = dyadic_root(f, 1)
    lam, _ = _merged_nodes(nodes)
    n = lam.size - 1
    dg = DividedDifferenceCache(g)
    rhs = 0.0
    for k in range((n - 1) // 2 + 1):
        rhs += dg(*lam[: k + 1]) * dg(*lam[k:])
        rhs += dg(*lam[: n - k + 1]) * dg(*lam[n - k:])
    if n % 2 == 0:
        h = n // 2
        rhs += dg(*lam[: h + 1]) * dg(*lam[h:])
    lhs = divided_difference(f, nodes)
    return abs(lhs - rhs)


def u_conjugation_residual(f, nodes):
    """Residual of the two-sided u-weighting identity
    u(l0) f^[n](l) u(ln) = (f u^2)^[n] - psi1 - psi2 + psi3."""
    u = weight_u()
    fu = product_with_u(f)
    fu2 = product_with_u2(f)
    lam, _ = _merged_nodes(nodes)
    n = lam.size - 1
    df, du, dfu, dfu2 = (DividedDifferenceCache(h) for h in (f, u, fu, fu2))
    psi1 = sum(dfu(*lam[: n - k + 1]) * du(*lam[n - k:]) for k in range(1, n + 1))
    psi2 = sum(du(*lam[: k + 1]) * dfu(*lam[k:]) for k in range(1, n + 1))
    psi3 = 0.0
    for k in range(1, n):
        inner = sum(df(*lam[k: n - j + 1]) * du(*lam[n - j:])
                    for j in range(1, n - k + 1))
        psi3 += du(*lam[: k + 1]) * inner
    u0 = u.value(lam[0])
    un = u.value(lam[-1])
    lhs = u0 * df(*lam) * un
    rhs = dfu2(*lam) - psi1 - psi2 + psi3
    return abs(lhs - rhs)


def mean_value_bound_check(f, nodes, slack=1e-9):
    """Classical |f^[p]| <= sup |f^(p)| / p! over the node hull (sanity oracle)."""
    vals, _ = _merged_nodes(nodes)
    p = vals.size - 1
    lo, hi = float(vals[0]), float(vals[-1])
    x = np.linspace(lo, hi, 2001) if hi > lo else np.array([lo])
    bound = float(np.max(np.abs(f.deriv(p, x)))) / math.factorial(p)
    return abs(divided_difference(f, nodes)) <= bound + slack
