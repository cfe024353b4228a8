"""Divided differences of arbitrary order with confluent (repeated-node)
semantics, plus the scalar decomposition identities used by the norm bounds."""

import math
from itertools import chain, combinations_with_replacement, permutations

import numpy as np

from .operator_core import _cluster
from .scalar_functions import (dyadic_root, product_with_u, product_with_u2,
                               weight_u)


def _divided_difference_rows(table, lam, idx):
    """The triangular recursion d[i][j] = f^[j-i](x_i..x_j) run over every
    row x = lam[idx[r]] of the index array ``idx`` (shape (m, p+1), each
    row's values ascending) at once.  Yields the triangle one width at a
    time: at width w = 0..p, the list over i of the arrays of
    f^[w](x_i..x_{i+w}) over the rows; a caller that keeps only the last
    width frees each one as the next is built.

    ``table`` holds f^(0), f^(1), .. at the values ``lam``, from one
    evaluation pass, and each order is gathered from it by index.  Unequal
    nodes use the difference quotient; equal nodes, which are adjacent in an
    ascending row, use the exact-derivative branch f^(r)/r!, so ``table``
    needs every order r for which some row has r+1 equal nodes.
    """
    p = idx.shape[1] - 1
    d = [table[0][idx[:, i]] for i in range(p + 1)]
    yield d
    for w in range(1, p + 1):
        prev, d = d, []
        for i in range(p + 1 - w):
            lo, hi = lam[idx[:, i]], lam[idx[:, i + w]]
            same = hi == lo
            q = np.divide(prev[i + 1] - prev[i], hi - lo, where=~same,
                          out=np.empty_like(lo))
            if same.any():
                q[same] = table[w][idx[same, i]] / math.factorial(w)
            d.append(q)
        yield d


def _node_triangle(f, nodes):
    """The nodes sorted, each gap-chained cluster (``operator_core._cluster``)
    collapsed onto its mean so that solver noise takes the exact derivative
    branch, and the lookup dd(a, b) = f^[b-a](x_a..x_b) into their triangle,
    from one ``f.derivs`` pass of the orders the largest cluster needs.  A
    slice of the merged nodes merges to itself, so each entry is the slice's
    own divided difference."""
    vals = np.sort(np.asarray(nodes, dtype=float))
    if vals.size == 0:
        raise ValueError("need at least one node")
    runs, means = _cluster(vals)
    sizes = [len(r) for r in runs]
    vals, conf = np.repeat(means, sizes), max(sizes)
    tri = list(_divided_difference_rows(f.derivs(range(conf), vals), vals,
                                        np.arange(vals.size)[None, :]))
    return vals, lambda a, b: float(tri[b - a][a][0])


def divided_difference(f, nodes):
    """The recursively defined divided difference f^[p] over p+1 nodes.

    Nodes are sorted and gap-chained clusters merged first, so the result is
    deterministic; symmetry of f^[p] covers reorderings.  The whole-row
    entry of ``_node_triangle``.
    """
    vals, dd = _node_triangle(f, nodes)
    return dd(0, vals.size - 1)


def divided_difference_tensor(table, lam):
    """Tensor f^[p](lam_{i0},..,lam_{ip}) over all index tuples of the
    ascending values ``lam`` (a decomposition's ``index_values()``), from
    ``table`` = [f, f', .., f^(p)] at those values (a decomposition's
    ``derivative_table``).

    Each sorted index tuple is evaluated once, all in one call of the
    recursion and at the given values (no re-merging); every other ordering
    of the indices is filled by the symmetry of f^[p].
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(np.diff(lam) < 0):
        raise ValueError("lam must be ascending")
    n = lam.size
    p = len(table) - 1
    idx = np.fromiter(chain.from_iterable(
        combinations_with_replacement(range(n), p + 1)), dtype=np.intp)
    idx = idx.reshape(-1, p + 1)
    for d in _divided_difference_rows(table, lam, idx):
        pass  # only the last width, f^[p] of each row, is kept
    vals = d[0]
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
    divided differences of sqrt(f) over contiguous node slices, all read
    from one triangle of sqrt(f)."""
    lam, dg = _node_triangle(dyadic_root(f, 1), nodes)
    n = lam.size - 1
    rhs = sum(dg(0, k) * dg(k, n) for k in range(n + 1))
    lhs = divided_difference(f, nodes)
    return abs(lhs - rhs)


def u_conjugation_residual(f, nodes):
    """Residual of the two-sided u-weighting identity
    u(l0) f^[n](l) u(ln) = (f u^2)^[n] - psi1 - psi2 + psi3, from one
    triangle each of f, u, fu and fu^2."""
    (lam, df), (_, du), (_, dfu), (_, dfu2) = (
        _node_triangle(h, nodes)
        for h in (f, weight_u(), product_with_u(f), product_with_u2(f)))
    n = lam.size - 1
    psi1 = sum(dfu(0, n - k) * du(n - k, n) for k in range(1, n + 1))
    psi2 = sum(du(0, k) * dfu(k, n) for k in range(1, n + 1))
    psi3 = 0.0
    for k in range(1, n):
        inner = sum(df(k, n - j) * du(n - j, n) for j in range(1, n - k + 1))
        psi3 += du(0, k) * inner
    lhs = du(0, 0) * df(0, n) * du(n, n)
    rhs = dfu2(0, n) - psi1 - psi2 + psi3
    return abs(lhs - rhs)
