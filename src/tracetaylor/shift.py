"""Trace-formula kernels of one pair H0, H0 + V.  At finite dimension,
Tr R_n(f) = int f^(n) eta_n, with eta_n a polynomial of degree n - 1 between
consecutive points of spec(H0) and spec(H0 + V): eta_1 is the counting
difference xi and eta_2 Koplienko's density.  Both are a ``Kernel``, and
``trace_formula_check`` tests either.  Everything here reads the
decompositions D0 of H0 and D1 of H0 + V, and numbers; only the first-order
atoms read V as a matrix.  ``shift_data`` builds the three objects once."""

from dataclasses import dataclass

import numpy as np

from .bounds import BoundCertificate, inv_resolvent_trace
from .operator_core import Interval
# unused here, kept because bench/tests/test_tracer.py checks its rebinding
from .operator_core import decompose  # noqa: F401
from .scalar_functions import DerivativeOrderError, _sorted_unique


class WindowError(ValueError):
    pass


def _horner(coef, h):
    """Row by row, sum_j coef[:, j] h^j."""
    acc = coef[:, -1]
    for j in range(coef.shape[1] - 2, -1, -1):
        acc = acc * h + coef[:, j]
    return acc


@dataclass
class Kernel:
    """Piecewise polynomial: sum_j coef[k, j] (x - breaks[k])^j on the piece
    [breaks[k], breaks[k + 1]), zero outside the breaks, which ascend; the
    order n = degree + 1 is the number of columns of coef."""

    breaks: np.ndarray
    coef: np.ndarray

    def __call__(self, x):
        scalar = np.isscalar(x)
        x = np.atleast_1d(np.asarray(x, float))
        k = np.searchsorted(self.breaks, x, side="right") - 1
        inside = (k >= 0) & (k < len(self.coef))
        out = np.zeros_like(x)
        k = k[inside]
        out[inside] = _horner(self.coef[k], x[inside] - self.breaks[k])
        return float(out[0]) if scalar else out

    def l1_norm(self):
        """Exact integral of |kernel| for degree <= 1, summed piece by piece:
        a piece whose ends differ in sign splits at its root."""
        if self.coef.shape[1] > 2:
            raise NotImplementedError("exact L1 norm only for degree <= 1")
        width = np.diff(self.breaks)
        total = 0.0
        for h, v0, v1, slope in zip(width.tolist(), self.coef[:, 0].tolist(),
                                    _horner(self.coef, width).tolist(),
                                    self.coef[:, -1].tolist()):
            if v0 * v1 >= 0:
                total += 0.5 * abs(v0 + v1) * h
            else:
                x0 = -v0 / slope  # sign change: the piece is affine
                total += 0.5 * abs(v0) * x0 + 0.5 * abs(v1) * (h - x0)
        return total


def default_window(D0, D1, v_norm):
    """Window (a, b) capturing both spectra: a = min eigenvalue - 1 - v_norm,
    b symmetric on the other side, with v_norm = ||V||."""
    w0, w1 = D0.eigenvalues, D1.eigenvalues
    lo = float(min(w0[0], w1[0])) - 1.0 - v_norm
    hi = float(max(w0[-1], w1[-1])) + 1.0 + v_norm
    return Interval(lo, hi)


def xi(D0, D1, window):
    """Counting difference, the order-1 kernel: eigenvalues of H0 in (a, x]
    minus eigenvalues of H0 + V in (a, x], constant from each point of the
    merged spectra to the next; the last piece ends at b."""
    w0, w1 = D0.eigenvalues, D1.eigenvalues
    for label, eigs in (("unperturbed", w0), ("perturbed", w1)):
        for t in eigs:
            if not (window.lo < t < window.hi):
                raise WindowError(f"{label} eigenvalue {t:.6g} outside window "
                                  f"({window.lo:.6g}, {window.hi:.6g})")
    breaks = _sorted_unique([w0, w1])
    vals = (np.searchsorted(w0, breaks, side="right")
            - np.searchsorted(w1, breaks, side="right"))
    return Kernel(np.append(breaks, window.hi), vals.astype(float)[:, None])


def mu_measure(D0, V, window):
    """First-order measure as (location, weight) atoms: one per cluster
    inside the window, weighted by Tr(E_c V), the sum of the diagonal of
    U*VU over the cluster."""
    U = D0.eigenvectors
    diag = np.einsum("ij,ij->j", U.conj(), V @ U).real
    return [(float(lam_c), float(np.sum(diag[list(idx)])))
            for lam_c, idx in zip(D0.cluster_values, D0.clusters)
            if window.lo < lam_c < window.hi]


def eta(step, atoms, window):
    """Second-order density, the order-2 kernel: mu((a, x)) for mu the
    ``atoms``, minus the running integral of the counting difference
    ``step``.  On each piece (lo, hi) between consecutive breakpoints, xi is
    its value at lo, mu((a, x)) the mass of the atoms at or left of lo, and
    the running integral a cumulative sum over earlier pieces."""
    locs = np.array([t for t, _ in atoms], dtype=float)
    mass = np.cumsum([0.0] + [w for _, w in atoms])
    breaks = np.concatenate([[window.lo], _sorted_unique([step.breaks, locs])])
    xival = step(breaks[:-1])
    running = np.concatenate([[0.0], np.cumsum(xival * np.diff(breaks))[:-1]])
    intercept = mass[np.searchsorted(locs, breaks[:-1], side="right")] - running
    return Kernel(breaks, np.column_stack([intercept, -xival]))


@dataclass
class ShiftData:
    """The counting difference, the first-order atoms and the second-order
    density of one pair H0, H0 + V over a window."""

    window: Interval
    xi: Kernel
    mu: list
    eta: Kernel


def shift_data(D0, D1, V, window):
    """xi, mu and eta from the decompositions D0 of H0 and D1 of H0 + V,
    each built once."""
    step = xi(D0, D1, window)
    mu = mu_measure(D0, V, window)
    return ShiftData(window=window, xi=step, mu=mu, eta=eta(step, mu, window))


def trace_formula_check(f, kernel, window, remainder):
    """Residual of ``remainder``, the order-n remainder trace of f at (H0, V),
    against int f^(n) kernel, n the kernel's order, in closed form: on a
    piece (lo, hi), n integrations by parts give the sum over j of
    (-1)^j [f^(n-1-j) kernel^(j)] from lo to hi, from one pass of f over the
    breaks.  Order n >= 2 needs a C^(n+1) function; order 1 reads only f."""
    n = kernel.coef.shape[1]
    if n > 1 and f.max_order < n + 1:
        raise DerivativeOrderError(f"the order-{n} check needs a C^{n + 1} "
                                   f"function; f is C^{f.max_order}")
    a, b = f.support
    if not (window.lo < a and b < window.hi):
        raise WindowError(f"supp f [{a:.6g}, {b:.6g}] must lie inside the "
                          f"window ({window.lo:.6g}, {window.hi:.6g})")
    p, d = kernel.coef, f.derivs(range(n), kernel.breaks)
    d_lo, d_hi, width = d[:, :-1], d[:, 1:], np.diff(kernel.breaks)
    terms = np.zeros(len(p))
    for j in range(n - 1):  # p holds the coefficients of kernel^(j)
        terms += (-1) ** j * (d_hi[n - 1 - j] * _horner(p, width)
                              - d_lo[n - 1 - j] * p[:, 0])
        p = p[:, 1:] * np.arange(1, p.shape[1])
    # kernel^(n-1) is constant on each piece; for xi the sum telescopes
    terms += (-1) ** (n - 1) * (p[:, 0] * (d_hi[0] - d_lo[0]))
    return abs(remainder - float(np.sum(terms)))


def eta_l1_bound_check(D0, v_norm, data):
    """Certificate for the L1 bound on the density over the window, with D0
    the decomposition of H0 and v_norm = ||V||."""
    lhs = data.eta.l1_norm()
    a, b = data.window.lo, data.window.hi
    babs = max(abs(a), abs(b))
    u_sup = float(np.sqrt(1.0 + babs * babs))
    u2_sup = 1.0 + babs * babs
    du2_sup = 2.0 * babs
    c_ab = 9.0 * max(1.0, (b - a) ** 2) * max(2.0, u_sup, u2_sup, du2_sup)
    inv_res_trace = inv_resolvent_trace(D0)
    rhs = (c_ab * inv_res_trace * (1.0 + v_norm + v_norm * v_norm)
           * v_norm * v_norm)
    return BoundCertificate(
        kind="hilbert_schmidt", lhs=lhs, rhs=rhs,
        ingredients={"C_ab": c_ab, "window": [a, b], "V_norm": v_norm,
                     "inv_resolvent_trace": inv_res_trace})


def shift_data_json(data):
    """Serializable bundle: counting-difference breakpoints/values, density
    pieces, and the first-order atoms."""
    breaks = data.eta.breaks.tolist()
    return {
        "breakpoints": data.xi.breaks[:-1].tolist(),
        "xi_values": data.xi.coef[:, 0].tolist(),
        "eta_pieces": [{"lo": lo, "hi": hi, "slope": s, "intercept": c}
                       for lo, hi, (c, s) in zip(breaks[:-1], breaks[1:],
                                                 data.eta.coef.tolist())],
        "atoms": [{"location": t, "weight": w} for t, w in data.mu],
    }
