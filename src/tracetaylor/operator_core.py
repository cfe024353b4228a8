"""Hermitian matrix algebra: spectral decompositions, functional calculus,
traces, Schatten norms and eigenvalue counts."""

from dataclasses import dataclass

import numpy as np


class HermitianValidationError(ValueError):
    pass


class EigensolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval needs lo <= hi")

    def contains(self, x):
        left = x >= self.lo if self.closed_lo else x > self.lo
        right = x <= self.hi if self.closed_hi else x < self.hi
        return left & right

    def abs_max(self):
        return max(abs(self.lo), abs(self.hi))


@dataclass(frozen=True)
class HermitianOperator:
    """Dense n x n complex Hermitian matrix, symmetrized at construction."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise HermitianValidationError("matrix must be square")
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if dev > 1e-12 * max(scale, 1.0):
            raise HermitianValidationError(
                f"Hermitian deviation {dev:.3e} exceeds 1e-12 of max entry")
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self):
        return self.mat.shape[0]

    def __add__(self, other):
        o = other.mat if isinstance(other, HermitianOperator) else other
        return HermitianOperator(self.mat + o)

    def to_json_dict(self):
        return {"dim": self.dim,
                "re": self.mat.real.tolist(),
                "im": self.mat.imag.tolist()}

    @classmethod
    def from_json_dict(cls, d):
        n = int(d["dim"])
        m = np.asarray(d["re"], float) + 1j * np.asarray(d["im"], float)
        if m.shape != (n, n):
            raise HermitianValidationError("dim does not match matrix shape")
        return cls(m)


def as_matrix(A):
    return A.mat if isinstance(A, HermitianOperator) else np.asarray(A, dtype=complex)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvectors (the columns) and
    multiplicity clusters: every spectral sum reads these in the eigenbasis,
    with no projector matrices."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple            # tuple of index tuples
    cluster_values: np.ndarray  # representative (mean) eigenvalue per cluster

    @property
    def dim(self):
        return self.eigenvalues.size

    def index_values(self):
        """Cluster representative value for every eigenvector index."""
        vals = np.empty(self.dim)
        for c, idx in enumerate(self.clusters):
            vals[list(idx)] = self.cluster_values[c]
        return vals


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
    """Eigendecomposition with gap-chained multiplicity clustering (see
    ``_cluster``)."""
    M = as_matrix(H)
    try:
        w, U = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigh failed for dim {M.shape[0]}: {exc}") from exc
    runs, cvals = _cluster(w)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=U,
                                 clusters=tuple(tuple(r) for r in runs),
                                 cluster_values=cvals)


def apply_function(f, D):
    """Functional calculus sum f(lambda_c) P_c, assembled in the eigenbasis."""
    fv = np.asarray(f.value(D.index_values()), dtype=float)
    U = D.eigenvectors
    return HermitianOperator((U * fv) @ U.conj().T)


def trace(A):
    return complex(np.trace(as_matrix(A)))


def schatten_norm(A, alpha):
    """(sum s_i^alpha)^(1/alpha) over singular values; alpha=inf gives the
    operator norm."""
    if alpha != np.inf and alpha < 1:
        raise ValueError("Schatten order must be >= 1 or inf")
    s = np.linalg.svd(as_matrix(A), compute_uv=False)
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
    """GUE-style Hermitian matrix; optionally rescaled to a given operator norm."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = 0.5 * (G + G.conj().T)
    if norm is not None:
        cur = operator_norm(A)
        if cur > 0:
            A = (norm / cur) * A
    return HermitianOperator(A)


def random_hermitian_in_window(rng, n, lo, hi):
    """GUE-style matrix with spectrum affinely rescaled into [lo, hi]."""
    A = random_hermitian(rng, n).mat
    w, U = np.linalg.eigh(A)
    if w[-1] - w[0] < 1e-12:
        w2 = np.full_like(w, 0.5 * (lo + hi))
    else:
        w2 = lo + (w - w[0]) * (hi - lo) / (w[-1] - w[0])
    return HermitianOperator((U * w2) @ U.conj().T)
