"""First- and second-order trace-formula data: the eigenvalue-counting
difference, the first-order atomic measure, and the piecewise-linear density
representing the second-order remainder."""

from dataclasses import dataclass

import numpy as np

from .bounds import BoundCertificate, inv_resolvent_trace
from .operator_core import (Interval, apply_function, as_matrix, decompose,
                            operator_norm)
from .scalar_functions import _gauss_legendre
from .taylor import remainder_trace


class WindowError(ValueError):
    pass


@dataclass
class StepFunction:
    """Piecewise-constant function: values[k] on [breakpoints[k],
    breakpoints[k+1]), zero outside."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __call__(self, x):
        x = np.asarray(x, float)
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        out = np.zeros_like(x, dtype=float)
        inside = (idx >= 0) & (idx < self.values.size)
        out[inside] = self.values[idx[inside]]
        return out


@dataclass
class AtomicMeasure:
    """Point masses (location, weight)."""

    atoms: list


@dataclass
class PiecewiseLinearFunction:
    """Affine pieces (lo, hi, slope, intercept); value slope*(x-lo)+intercept
    on (lo, hi), zero outside all pieces.  Jumps at breakpoints are allowed."""

    pieces: list

    def __call__(self, x):
        scalar = np.isscalar(x)
        x = np.atleast_1d(np.asarray(x, float))
        out = np.zeros_like(x)
        for lo, hi, slope, intercept in self.pieces:
            mask = (x >= lo) & (x < hi)
            out[mask] = slope * (x[mask] - lo) + intercept
        return float(out[0]) if scalar else out

    def l1_norm(self):
        """Exact integral of |eta| over the pieces."""
        total = 0.0
        for lo, hi, slope, intercept in self.pieces:
            v0 = intercept
            v1 = intercept + slope * (hi - lo)
            if v0 * v1 >= 0:
                total += 0.5 * abs(v0 + v1) * (hi - lo)
            else:
                x0 = -v0 / slope  # sign change inside the piece
                total += 0.5 * abs(v0) * x0 + 0.5 * abs(v1) * (hi - lo - x0)
        return total


def _check_window(eigs, window, label):
    lo, hi = window.lo, window.hi
    for t in eigs:
        if not (lo < t < hi):
            raise WindowError(
                f"{label} eigenvalue {t:.6g} outside window ({lo:.6g}, {hi:.6g})")


def _spectra(H0, V):
    """The decompositions of H0 and H0 + V, and V as a matrix: every public
    function here solves each of the two matrices once."""
    Hm, Vm = as_matrix(H0), as_matrix(V)
    return decompose(Hm), decompose(Hm + Vm), Vm


def default_window(H0, V):
    """Window (a, b) capturing both spectra: a = min eigenvalue - 1 - ||V||,
    b symmetric on the other side."""
    D0, D1, Vm = _spectra(H0, V)
    w0, w1 = D0.eigenvalues, D1.eigenvalues
    vn = operator_norm(Vm)
    lo = float(min(w0[0], w1[0])) - 1.0 - vn
    hi = float(max(w0[-1], w1[-1])) + 1.0 + vn
    return Interval(lo, hi, closed_lo=False, closed_hi=False)


def _xi(D0, D1, window):
    w0, w1 = D0.eigenvalues, D1.eigenvalues
    _check_window(w0, window, "unperturbed")
    _check_window(w1, window, "perturbed")
    breaks = np.unique(np.concatenate([w0, w1]))
    # eigenvalues of H0 in (a, t] minus those of H0 + V (both ascending)
    vals = (np.searchsorted(w0, breaks, side="right")
            - np.searchsorted(w1, breaks, side="right"))
    return StepFunction(breakpoints=breaks, values=vals.astype(float))


def xi(H0, V, window):
    """Counting difference: eigenvalues of H0 in (a, x] minus eigenvalues of
    H0 + V in (a, x], as a step function on the merged spectra."""
    D0, D1, _ = _spectra(H0, V)
    return _xi(D0, D1, window)


def first_order_check(f, H0, V, window):
    """Residual of Tr f(H0+V) = Tr f(H0) + integral of f' against the
    counting difference; the step integral telescopes exactly, so no
    quadrature error enters."""
    lo, hi = f.support
    if not (window.lo < lo and hi < window.hi):
        raise WindowError("supp f must lie inside the window")
    D0, D1, _ = _spectra(H0, V)
    step = _xi(D0, D1, window)
    # int f' xi = sum_k xi_k (f(t_{k+1}) - f(t_k)), last interval reaches b
    knots = np.append(step.breakpoints, window.hi)
    fvals = f.value(knots)
    integral = float(np.sum(step.values * (fvals[1:] - fvals[:-1])))
    tr0 = float(np.trace(apply_function(f, D0).mat).real)
    tr1 = float(np.trace(apply_function(f, D1).mat).real)
    return abs(tr1 - tr0 - integral)


def mu_measure(D0, V, window):
    """First-order measure: one atom per cluster inside the window, weighted
    by Tr(E_c V), the sum of the diagonal of U*VU over the cluster."""
    U = D0.eigenvectors
    diag = np.einsum("ij,ij->j", U.conj(), as_matrix(V) @ U).real
    atoms = []
    for lam_c, idx in zip(D0.cluster_values, D0.clusters):
        if window.lo < lam_c < window.hi:
            atoms.append((float(lam_c), float(np.sum(diag[list(idx)]))))
    return AtomicMeasure(atoms=atoms)


def _eta(step, mu, window):
    """Density pieces from the counting difference and the first-order
    measure: on each piece (lo, hi) between consecutive breakpoints, xi is
    its value at lo, mu((a, x)) is the mass of the atoms at or left of lo,
    and the running integral of xi is a cumulative sum over earlier pieces."""
    locs = np.array([t for t, _ in mu.atoms], dtype=float)
    mass = np.cumsum([0.0] + [w for _, w in mu.atoms])
    hi = np.unique(np.concatenate([step.breakpoints, locs, [window.hi]]))
    lo = np.concatenate([[window.lo], hi[:-1]])
    xival = step(lo)
    running = np.concatenate([[0.0], np.cumsum(xival * (hi - lo))[:-1]])
    intercept = mass[np.searchsorted(locs, lo, side="right")] - running
    return PiecewiseLinearFunction(pieces=[
        (float(a), float(b), float(-x), float(c))
        for a, b, x, c in zip(lo, hi, xival, intercept)])


def eta(H0, V, window):
    """Second-order density: mu((a, x)) minus the running integral of the
    counting difference, stored exactly as affine pieces."""
    D0, D1, Vm = _spectra(H0, V)
    return _eta(_xi(D0, D1, window), mu_measure(D0, Vm, window), window)


def second_order_check(f, H0, V, window):
    """Residual of the second-order remainder against the integral of f''
    times the density, by per-piece Gauss-Legendre (the density is affine on
    each piece, so the quadrature is exact for polynomial f'')."""
    if f.max_order < 3:
        raise ValueError("needs a C^3 function")
    lo, hi = f.support
    if not (window.lo < lo and hi < window.hi):
        raise WindowError("supp f must lie inside the window")
    density = eta(H0, V, window)
    fpp = f.derivative().derivative()
    x0, w0 = _gauss_legendre(32)
    total = 0.0
    fbreaks = np.asarray(f.breaks, float)
    for plo, phi, slope, intercept in density.pieces:
        cuts = np.unique(np.concatenate(
            [[plo, phi], fbreaks[(fbreaks > plo) & (fbreaks < phi)]]))
        for a, b in zip(cuts[:-1], cuts[1:]):
            xm = 0.5 * (b - a) * x0 + 0.5 * (a + b)
            wm = 0.5 * (b - a) * w0
            vals = fpp.deriv(0, xm) * (slope * (xm - plo) + intercept)
            total += float(np.sum(wm * vals))
    rem = remainder_trace(f, H0, V, 2)
    return abs(rem - total)


def eta_l1_bound_check(H0, V, window):
    """Certificate for the L1 bound on the density over the window."""
    D0, D1, Vm = _spectra(H0, V)
    density = _eta(_xi(D0, D1, window), mu_measure(D0, Vm, window), window)
    lhs = density.l1_norm()
    a, b = window.lo, window.hi
    babs = max(abs(a), abs(b))
    u_sup = float(np.sqrt(1.0 + babs * babs))
    u2_sup = 1.0 + babs * babs
    du2_sup = 2.0 * babs
    c_ab = 9.0 * max(1.0, (b - a) ** 2) * max(2.0, u_sup, u2_sup, du2_sup)
    vn = operator_norm(Vm)
    inv_res_trace = inv_resolvent_trace(D0)
    rhs = c_ab * inv_res_trace * (1.0 + vn + vn * vn) * vn * vn
    return BoundCertificate(
        kind="hilbert_schmidt", lhs=lhs, rhs=rhs,
        ingredients={"C_ab": c_ab, "window": [a, b], "V_norm": vn,
                     "inv_resolvent_trace": inv_res_trace})


def shift_data_json(H0, V, window):
    """Serializable bundle: counting-difference breakpoints/values, density
    pieces, and the first-order atoms."""
    D0, D1, Vm = _spectra(H0, V)
    step = _xi(D0, D1, window)
    mu = mu_measure(D0, Vm, window)
    density = _eta(step, mu, window)
    return {
        "breakpoints": [float(t) for t in step.breakpoints],
        "xi_values": [float(v) for v in step.values],
        "eta_pieces": [{"lo": lo, "hi": hi, "slope": s, "intercept": c}
                       for lo, hi, s, c in density.pieces],
        "atoms": [{"location": t, "weight": w} for t, w in mu.atoms],
    }
