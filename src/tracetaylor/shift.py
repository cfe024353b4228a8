"""First- and second-order trace-formula data: the eigenvalue-counting
difference, the first-order atomic measure, and the piecewise-linear density
representing the second-order remainder.

Everything here reads one pair of spectra, the decompositions D0 of H0 and D1
of H0 + V, and numbers: ||V|| and the remainder trace that each check tests.
Only the first-order measure reads V as a matrix.  ``shift_data`` builds the
three objects once and the checks read them."""

from dataclasses import dataclass

import numpy as np

from .bounds import BoundCertificate, inv_resolvent_trace
from .operator_core import Interval
# unused here, kept because bench/tests/test_tracer.py checks its rebinding
from .operator_core import decompose  # noqa: F401
from .scalar_functions import DerivativeOrderError, _sorted_unique


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


def _check_support(f, window):
    lo, hi = f.support
    if not (window.lo < lo and hi < window.hi):
        raise WindowError(f"supp f [{lo:.6g}, {hi:.6g}] must lie inside the "
                          f"window ({window.lo:.6g}, {window.hi:.6g})")


def default_window(D0, D1, v_norm):
    """Window (a, b) capturing both spectra: a = min eigenvalue - 1 - v_norm,
    b symmetric on the other side, with v_norm = ||V||."""
    w0, w1 = D0.eigenvalues, D1.eigenvalues
    lo = float(min(w0[0], w1[0])) - 1.0 - v_norm
    hi = float(max(w0[-1], w1[-1])) + 1.0 + v_norm
    return Interval(lo, hi)


def xi(D0, D1, window):
    """Counting difference: eigenvalues of H0 in (a, x] minus eigenvalues of
    H0 + V in (a, x], as a step function on the merged spectra."""
    w0, w1 = D0.eigenvalues, D1.eigenvalues
    _check_window(w0, window, "unperturbed")
    _check_window(w1, window, "perturbed")
    breaks = _sorted_unique([w0, w1])
    # eigenvalues of H0 in (a, t] minus those of H0 + V (both ascending)
    vals = (np.searchsorted(w0, breaks, side="right")
            - np.searchsorted(w1, breaks, side="right"))
    return StepFunction(breakpoints=breaks, values=vals.astype(float))


def mu_measure(D0, V, window):
    """First-order measure: one atom per cluster inside the window, weighted
    by Tr(E_c V), the sum of the diagonal of U*VU over the cluster."""
    U = D0.eigenvectors
    diag = np.einsum("ij,ij->j", U.conj(), V @ U).real
    atoms = []
    for lam_c, idx in zip(D0.cluster_values, D0.clusters):
        if window.lo < lam_c < window.hi:
            atoms.append((float(lam_c), float(np.sum(diag[list(idx)]))))
    return AtomicMeasure(atoms=atoms)


def eta(step, mu, window):
    """Second-order density: mu((a, x)) minus the running integral of the
    counting difference, stored exactly as affine pieces.  On each piece
    (lo, hi) between consecutive breakpoints, xi is its value at lo,
    mu((a, x)) is the mass of the atoms at or left of lo, and the running
    integral of xi is a cumulative sum over earlier pieces."""
    locs = np.array([t for t, _ in mu.atoms], dtype=float)
    mass = np.cumsum([0.0] + [w for _, w in mu.atoms])
    hi = _sorted_unique([step.breakpoints, locs, [window.hi]])
    lo = np.concatenate([[window.lo], hi[:-1]])
    xival = step(lo)
    running = np.concatenate([[0.0], np.cumsum(xival * (hi - lo))[:-1]])
    intercept = mass[np.searchsorted(locs, lo, side="right")] - running
    return PiecewiseLinearFunction(pieces=[
        (float(a), float(b), float(-x), float(c))
        for a, b, x, c in zip(lo, hi, xival, intercept)])


@dataclass
class ShiftData:
    """The counting difference, the first-order measure and the second-order
    density of one pair H0, H0 + V over a window."""

    window: Interval
    xi: StepFunction
    mu: AtomicMeasure
    eta: PiecewiseLinearFunction


def shift_data(D0, D1, V, window):
    """xi, mu and eta from the decompositions D0 of H0 and D1 of H0 + V,
    each built once."""
    step = xi(D0, D1, window)
    mu = mu_measure(D0, V, window)
    return ShiftData(window=window, xi=step, mu=mu, eta=eta(step, mu, window))


def first_order_check(f, data, remainder):
    """Residual of ``remainder``, the order-1 remainder trace
    Tr f(H0+V) - Tr f(H0) of f, against the integral of f' times the counting
    difference; the step integral telescopes exactly, so no quadrature error
    enters."""
    _check_support(f, data.window)
    step = data.xi
    # int f' xi = sum_k xi_k (f(t_{k+1}) - f(t_k)), last interval reaches b
    knots = np.append(step.breakpoints, data.window.hi)
    fvals = f.value(knots)
    integral = float(np.sum(step.values * (fvals[1:] - fvals[:-1])))
    return abs(remainder - integral)


def second_order_check(f, data, remainder):
    """Residual of ``remainder``, the order-2 remainder trace of f at (H0, V),
    against the integral of f'' times the density, in closed form: on a piece
    (lo, hi) where the density is c + s (x - lo), integration by parts gives
    f'(hi) (c + s (hi - lo)) - f'(lo) c - s (f(hi) - f(lo))."""
    if f.max_order < 3:
        raise DerivativeOrderError(
            f"the second-order check needs a C^3 function; f is C^{f.max_order}")
    _check_support(f, data.window)
    lo, hi, s, c = np.array(data.eta.pieces, dtype=float).reshape(-1, 4).T
    ends = np.concatenate([lo, hi])
    f_lo, f_hi = np.split(f.value(ends), 2)
    d_lo, d_hi = np.split(f.deriv(1, ends), 2)
    total = float(np.sum(d_hi * (c + s * (hi - lo)) - d_lo * c
                         - s * (f_hi - f_lo)))
    return abs(remainder - total)


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
    return {
        "breakpoints": [float(t) for t in data.xi.breakpoints],
        "xi_values": [float(v) for v in data.xi.values],
        "eta_pieces": [{"lo": lo, "hi": hi, "slope": s, "intercept": c}
                       for lo, hi, s, c in data.eta.pieces],
        "atoms": [{"location": t, "weight": w} for t, w in data.mu.atoms],
    }
