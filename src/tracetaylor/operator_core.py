"""Hermitian matrix algebra: spectral decompositions, functional calculus,
traces, Schatten norms, and the PSD resolvent/projection inequalities."""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .scalar_functions import sup_norm


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

    def scaled(self, c):
        return HermitianOperator(c * self.mat)

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

    @classmethod
    def load_json(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def as_matrix(A):
    return A.mat if isinstance(A, HermitianOperator) else np.asarray(A, dtype=complex)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvectors, multiplicity clusters
    and one Hermitian eigenprojection per cluster."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple            # tuple of index tuples
    cluster_values: np.ndarray  # representative (mean) eigenvalue per cluster
    source: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.eigenvalues.size

    @property
    def projections(self):
        out = []
        for idx in self.clusters:
            Psi = self.eigenvectors[:, list(idx)]
            out.append(Psi @ Psi.conj().T)
        return out

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
    and the mean of each run.

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
    return runs, np.array([float(np.mean(vals[r.start:r.stop])) for r in runs])


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
                                 cluster_values=cvals, source=M)


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
    smax = interval.abs_max()
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
    rhs1 = sup_norm(f, extra_points=lam) * counting_trace(D, supp)
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
