"""Divided differences of arbitrary order with confluent (repeated-node)
semantics, plus the scalar decomposition identities used by the norm bounds."""

import math
from itertools import chain, combinations_with_replacement, permutations

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


def _divided_difference_rows(f, rows):
    """The triangular recursion d[i][j] = f^[j-i](x_i..x_j) run over every
    row of ``rows`` (shape (m, p+1), each row ascending) at once; returns
    f^[p] of each row.

    Unequal nodes use the difference quotient; equal nodes, which are
    adjacent in an ascending row, use the exact-derivative branch f^(r)/r!.
    """
    p = rows.shape[1] - 1
    # d[i] holds d[i][i+w-1] before width w is processed, d[i][i+w] after
    d = [np.asarray(f.deriv(0, rows[:, i]), dtype=float) for i in range(p + 1)]
    for w in range(1, p + 1):
        for i in range(p + 1 - w):
            lo, hi = rows[:, i], rows[:, i + w]
            same = hi == lo
            q = np.divide(d[i + 1] - d[i], hi - lo, where=~same,
                          out=np.empty_like(lo))
            if same.any():
                q[same] = f.deriv(w, lo[same]) / math.factorial(w)
            d[i] = q
    return d[0]


def divided_difference(f, nodes):
    """The recursively defined divided difference f^[p] over p+1 nodes.

    Nodes are sorted and gap-chained clusters merged first, so the result is
    deterministic; symmetry of f^[p] covers reorderings.  One row of
    ``_divided_difference_rows``.
    """
    vals, conf = _merged_nodes(nodes)
    if f.max_order < conf - 1:
        raise DerivativeOrderError(
            f"confluent group of size {conf} needs derivatives "
            f"up to order {conf - 1}")
    return float(_divided_difference_rows(f, vals[None, :])[0])


def divided_difference_tensor(f, lam, p):
    """Tensor f^[p](lam_{i0},..,lam_{ip}) over all index tuples of the
    ascending values ``lam`` (a decomposition's ``index_values()``).

    Each sorted index tuple is evaluated once, all in one call of the
    recursion and at the given values (no re-merging); every other ordering
    of the indices is filled by the symmetry of f^[p].
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(np.diff(lam) < 0):
        raise ValueError("lam must be ascending")
    n = lam.size
    idx = np.fromiter(chain.from_iterable(
        combinations_with_replacement(range(n), p + 1)), dtype=np.intp)
    idx = idx.reshape(-1, p + 1)
    vals = _divided_difference_rows(f, lam[idx])
    F = np.empty((n,) * (p + 1))
    for perm in permutations(range(p + 1)):
        F[tuple(idx[:, k] for k in perm)] = vals
    return F


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
