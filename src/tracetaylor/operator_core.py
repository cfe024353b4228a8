"""Hermitian matrix algebra: spectral decompositions, functional calculus,
traces, Schatten norms and eigenvalue counts."""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class HermitianValidationError(ValueError):
    pass


class EigensolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Interval:
    """The closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval needs lo <= hi")

    def contains(self, x):
        return (x >= self.lo) & (x <= self.hi)


def _symmetrized(m):
    """0.5 (m + m*): exactly Hermitian, and bitwise m when m is already."""
    s = m + m.conj().T
    s *= 0.5
    return s


@dataclass(frozen=True)
class HermitianOperator:
    """Dense n x n complex Hermitian matrix, symmetrized at construction."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise HermitianValidationError("matrix must be square")
        if not np.all(np.isfinite(m)):
            raise HermitianValidationError("matrix entries must be finite")
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if dev > 1e-12 * max(scale, 1.0):
            raise HermitianValidationError(
                f"Hermitian deviation {dev:.3e} exceeds 1e-12 of max entry")
        m = _symmetrized(m)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __add__(self, other):
        o = other.mat if isinstance(other, HermitianOperator) else other
        return HermitianOperator(self.mat + o)


def as_matrix(A):
    """``A.mat`` of a ``HermitianOperator`` A, else A as a complex ndarray."""
    return A.mat if isinstance(A, HermitianOperator) else np.asarray(A, dtype=complex)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvectors (the columns) and
    multiplicity clusters: every spectral sum reads these in the eigenbasis,
    with no projector matrices.

    A decomposition also keeps, per scalar function f, the table
    [f, f', ..] at its index values, so that every spectral sum over f at
    this spectrum reads one evaluation; the tables die with the
    decomposition."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple            # tuple of index tuples
    cluster_values: np.ndarray  # representative (mean) eigenvalue per cluster
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @property
    def dim(self):
        return self.eigenvalues.size

    @cached_property
    def _index_values(self):
        # the clusters are consecutive ascending index runs
        vals = np.repeat(self.cluster_values, [len(idx) for idx in self.clusters])
        vals.setflags(write=False)
        return vals

    def index_values(self):
        """Cluster representative value for every eigenvector index (one
        read-only array, computed once)."""
        return self._index_values

    def derivative_table(self, f, p):
        """[f, f', .., f^(p)] at ``index_values()``.  The missing orders are
        added in one ``f.derivs`` pass and kept, keyed by f itself."""
        table = self._tables.setdefault(f, [])
        if len(table) <= p:
            table.extend(f.derivs(range(len(table), p + 1), self.index_values()))
        return table[:p + 1]


def _traces(f, Ds):
    """Tr f(H) for the matrix H of each decomposition in Ds (all of one
    dimension): the sum of f over ``D.index_values()``, each cluster value
    once per eigenvector.  One ``f.value`` pass covers every spectrum and
    forms no matrix; a D with no table of f starts one with its row."""
    fvals = np.asarray(f.value(np.concatenate([D.index_values() for D in Ds])),
                       dtype=float).reshape(len(Ds), -1)
    for D, row in zip(Ds, fvals):
        D._tables.setdefault(f, [row])
    return fvals.sum(axis=1).tolist()


CLUSTER_TOL = 1e-8


def _cluster(vals):
    """Gap-chained clusters of ascending values: a run of consecutive gaps
    below CLUSTER_TOL * (1 + span) is one cluster.  Returns the index ranges
    and the value of each run: its mean, or its common value when all its
    values are equal (a mean of equal values can be one ulp off them).

    Eigendecompositions and divided differences share this rule, so nodes
    taken from a decomposition's cluster values never merge again.
    """
    tol = CLUSTER_TOL * (1.0 + float(vals[-1] - vals[0])) if vals.size else 0.0
    runs = []
    i = 0
    while i < vals.size:
        j = i + 1
        while j < vals.size and vals[j] - vals[j - 1] < tol:
            j += 1
        runs.append(range(i, j))
        i = j
    values = [vals[r.start] if vals[r.start] == vals[r.stop - 1]
              else np.mean(vals[r.start:r.stop]) for r in runs]
    return runs, np.array(values, dtype=float)


def decompose(H):
    """Eigendecomposition of the Hermitian matrix H with gap-chained
    multiplicity clustering (see ``_cluster``)."""
    try:
        w, U = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigh failed for dim {H.shape[0]}: {exc}") from exc
    runs, cvals = _cluster(w)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=U,
                                 clusters=tuple(tuple(r) for r in runs),
                                 cluster_values=cvals)


def apply_function(f, D):
    """Functional calculus sum f(lambda_c) P_c, assembled in the eigenbasis."""
    return HermitianOperator(_function_of(D, f.value(D.index_values())))


def _function_of(D, fv):
    """U diag(fv) U* for the eigenvectors U of D, symmetrized: f(H) for any f
    with f(D.index_values()) = fv.  Every such product on a D is formed here."""
    U = D.eigenvectors
    return _symmetrized((U * fv) @ U.conj().T)


def schatten_norm(A, alpha):
    """(sum s_i^alpha)^(1/alpha) over singular values; alpha=inf gives the
    operator norm."""
    if alpha != np.inf and alpha < 1:
        raise ValueError("Schatten order must be >= 1 or inf")
    s = np.linalg.svd(A, compute_uv=False)
    if alpha == np.inf:
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s ** alpha) ** (1.0 / alpha))


def operator_norm(A):
    return schatten_norm(A, np.inf)


def counting_trace(D, interval):
    """Number of eigenvalues (with multiplicity) in the interval; equals the
    trace of the corresponding spectral projection."""
    return int(np.count_nonzero(interval.contains(D.eigenvalues)))


def random_hermitian(rng, n, norm=None):
    """GUE-style Hermitian matrix, exactly symmetrized; optionally rescaled to
    a given operator norm."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = _symmetrized(G)
    if norm is not None:
        cur = operator_norm(A)
        if cur > 0:
            A = (norm / cur) * A
    return _symmetrized(A)


def random_hermitian_in_window(rng, n, lo, hi):
    """GUE-style matrix with spectrum affinely rescaled into [lo, hi], exactly
    symmetrized."""
    w, U = np.linalg.eigh(random_hermitian(rng, n))
    if w[-1] - w[0] < 1e-12:
        w2 = np.full_like(w, 0.5 * (lo + hi))
    else:
        w2 = lo + (w - w[0]) * (hi - lo) / (w[-1] - w[0])
    return _symmetrized((U * w2) @ U.conj().T)
