"""First- and second-order trace-formula data: the eigenvalue-counting
difference, the first-order atomic measure, and the piecewise-linear density
representing the second-order remainder."""

from dataclasses import dataclass

import numpy as np

from .bounds import BoundCertificate, inv_resolvent_trace
from .operator_core import (Interval, as_matrix, apply_function, decompose)
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

    def total_mass(self):
        return sum(w for _, w in self.atoms)

    def cumulative_open(self, x):
        """Measure of (a, x): atoms strictly left of x."""
        return sum(w for t, w in self.atoms if t < x)


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


def default_window(H0, V, margin=1.0):
    """Window (a, b) capturing both spectra: a = min eigenvalue - margin -
    ||V||, b symmetric on the other side."""
    Hm, Vm = as_matrix(H0), as_matrix(V)
    w0 = np.linalg.eigvalsh(Hm)
    w1 = np.linalg.eigvalsh(Hm + Vm)
    vn = float(np.linalg.norm(Vm, 2))
    lo = float(min(w0[0], w1[0])) - margin - vn
    hi = float(max(w0[-1], w1[-1])) + margin + vn
    return Interval(lo, hi, closed_lo=False, closed_hi=False)


def xi(H0, V, window):
    """Counting difference: eigenvalues of H0 in (a, x] minus eigenvalues of
    H0 + V in (a, x], as a step function on the merged spectra."""
    Hm, Vm = as_matrix(H0), as_matrix(V)
    w0 = np.linalg.eigvalsh(Hm)
    w1 = np.linalg.eigvalsh(Hm + Vm)
    _check_window(w0, window, "unperturbed")
    _check_window(w1, window, "perturbed")
    jumps = {}
    for t in w0:
        jumps[float(t)] = jumps.get(float(t), 0) + 1
    for t in w1:
        jumps[float(t)] = jumps.get(float(t), 0) - 1
    breaks = np.array(sorted(jumps))
    vals = np.cumsum([jumps[t] for t in breaks])
    return StepFunction(breakpoints=breaks, values=vals.astype(float))


def first_order_check(f, H0, V, window):
    """Residual of Tr f(H0+V) = Tr f(H0) + integral of f' against the
    counting difference; the step integral telescopes exactly, so no
    quadrature error enters."""
    lo, hi = f.support
    if not (window.lo < lo and hi < window.hi):
        raise WindowError("supp f must lie inside the window")
    step = xi(H0, V, window)
    # int f' xi = sum_k xi_k (f(t_{k+1}) - f(t_k)), last interval reaches b
    knots = np.append(step.breakpoints, window.hi)
    fvals = f.value(knots)
    integral = float(np.sum(step.values * (fvals[1:] - fvals[:-1])))
    Hm, Vm = as_matrix(H0), as_matrix(V)
    tr0 = float(np.trace(apply_function(f, decompose(Hm)).mat).real)
    tr1 = float(np.trace(apply_function(f, decompose(Hm + Vm)).mat).real)
    return abs(tr1 - tr0 - integral)


def mu_measure(D0, V, window):
    """First-order measure: one atom per cluster inside the window, weighted
    by Tr(P_c V)."""
    Vm = as_matrix(V)
    atoms = []
    for lam_c, P in zip(D0.cluster_values, D0.projections):
        if window.lo < lam_c < window.hi:
            atoms.append((float(lam_c), float(np.trace(P @ Vm).real)))
    return AtomicMeasure(atoms=atoms)


def eta(H0, V, window):
    """Second-order density: mu((a, x)) minus the running integral of the
    counting difference, stored exactly as affine pieces."""
    Hm, Vm = as_matrix(H0), as_matrix(V)
    step = xi(H0, V, window)
    D0 = decompose(Hm)
    mu = mu_measure(D0, V, window)
    breaks = np.unique(np.concatenate(
        [step.breakpoints, [t for t, _ in mu.atoms], [window.hi]]))
    pieces = []
    running = 0.0  # integral of xi from a to the current breakpoint
    prev = window.lo
    for k, t in enumerate(breaks):
        if k > 0:
            prev = breaks[k - 1]
        hi = t
        if hi <= prev:
            continue
        xival = float(step(np.array([0.5 * (prev + hi)]))[0])
        mass = mu.cumulative_open(0.5 * (prev + hi))
        intercept = mass - running
        pieces.append((float(prev), float(hi), -xival, float(intercept)))
        running += xival * (hi - prev)
    return PiecewiseLinearFunction(pieces=pieces)


def second_order_check(f, H0, V, window, nodes_per_interval=32):
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
    x0, w0 = _gauss_legendre(nodes_per_interval)
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
    density = eta(H0, V, window)
    lhs = density.l1_norm()
    a, b = window.lo, window.hi
    babs = max(abs(a), abs(b))
    u_sup = float(np.sqrt(1.0 + babs * babs))
    u2_sup = 1.0 + babs * babs
    du2_sup = 2.0 * babs
    c_ab = 9.0 * max(1.0, (b - a) ** 2) * max(2.0, u_sup, u2_sup, du2_sup)
    vn = float(np.linalg.norm(as_matrix(V), 2))
    inv_res_trace = inv_resolvent_trace(H0)
    rhs = c_ab * inv_res_trace * (1.0 + vn + vn * vn) * vn * vn
    return BoundCertificate(
        kind="hilbert_schmidt", lhs=lhs, rhs=rhs,
        ingredients={"C_ab": c_ab, "window": [a, b], "V_norm": vn,
                     "inv_resolvent_trace": inv_res_trace})


def shift_data_json(H0, V, window):
    """Serializable bundle: counting-difference breakpoints/values, density
    pieces, and the first-order atoms."""
    step = xi(H0, V, window)
    D0 = decompose(as_matrix(H0))
    mu = mu_measure(D0, V, window)
    density = eta(H0, V, window)
    return {
        "breakpoints": [float(t) for t in step.breakpoints],
        "xi_values": [float(v) for v in step.values],
        "eta_pieces": [{"lo": lo, "hi": hi, "slope": s, "intercept": c}
                       for lo, hi, s, c in density.pieces],
        "atoms": [{"location": t, "weight": w} for t, w in mu.atoms],
    }
