"""Taylor expansion of the trace functional V -> Tr f(H0 + V): expansion
terms, remainder traces, the operator remainder, and remainder-scaling slope
fits."""

import math
from dataclasses import dataclass

import numpy as np

from .moi import evaluate_moi, trace_derivative_first, trace_derivative_higher
from .operator_core import apply_function, as_matrix, decompose, schatten_norm
from .scalar_functions import DerivativeOrderError


class InsufficientDataError(RuntimeError):
    pass


@dataclass
class ExpansionReport:
    base_trace: float
    perturbed_trace: float
    terms: list
    remainder_trace: float
    operator_remainder_trace: float
    operator_remainder_trace_norm: float

    def identity_residual(self):
        """Defect of Tr R_n = remainder_trace: the trace of the assembled
        operator remainder against the remainder from the expansion terms
        (equal by the trace identity, up to floating-point error)."""
        return abs(self.operator_remainder_trace - self.remainder_trace)


def expansion_terms(f, D0, V, n):
    """Expansion terms tau_1..tau_{n-1}: tau_p is 1/p times the spectral sum
    of (f')^[p-1] against the cyclic traces Tr(E V .. E V).

    D0's table of f is filled to order n in one pass: the terms read
    f'..f^(n-1), and the operator remainder and the order-n operator
    integral of the same trial read f..f^(n) from it."""
    if f.max_order < n:
        raise DerivativeOrderError(
            f"need derivatives up to order {n}; have {f.max_order}")
    D0.derivative_table(f, n)
    out = []
    for p in range(1, n):
        if p == 1:
            out.append(trace_derivative_first(f, D0, V))
        else:
            out.append(trace_derivative_higher(f, D0, V, p) / math.factorial(p))
    return out


def remainder_trace(f, H0, V, n):
    """Tr f(H0+V) - Tr f(H0) - sum_{p<n} tau_p, traces from exact functional
    calculus."""
    Hm, Vm = as_matrix(H0), as_matrix(V)
    return _remainder_trace(f, decompose(Hm), decompose(Hm + Vm), Vm, n)


def _remainder_trace(f, D0, D1, V, n):
    """``remainder_trace`` from the decompositions D0 of H0 and D1 of
    H0+V: the one-point sweep at eps = 1."""
    return remainder_sweep(f, D0, [D1], V, n, [1.0])[0]


def _traces(f, Ds):
    """Tr f(H) for the matrix H of each decomposition in Ds (all of one
    dimension), from one evaluation of f over all their spectra; each trace
    is the real part of the trace of U diag(f) U*, formed in H's own
    eigenbasis (the diagonal that ``_function_of`` would symmetrize has
    that real part already)."""
    fvals = np.asarray(f.value(np.concatenate([D.index_values() for D in Ds])),
                       dtype=float).reshape(len(Ds), -1)
    return [float(np.trace((D.eigenvectors * fv) @ D.eigenvectors.conj().T).real)
            for D, fv in zip(Ds, fvals)]


def operator_remainder(f, H0, V, p):
    """f(H0+V) minus the Gateaux-derivative Taylor polynomial of order p-1."""
    Hm, Vm = as_matrix(H0), as_matrix(V)
    return _operator_remainder(f, decompose(Hm), decompose(Hm + Vm), Vm, p)


def _operator_remainder(f, D0, D1, V, p):
    """``operator_remainder`` from the decompositions D0 of H0 and D1 of
    H0+V; D0's table of f is filled to order p - 1 in one pass first."""
    D0.derivative_table(f, p - 1)
    R = apply_function(f, D1).mat.copy()
    for k in range(p):
        R -= evaluate_moi(f, D0, [V] * k)
    return R


def remainder_sweep(f, D0, Ds, V, n, eps_grid):
    """Remainder traces over an epsilon grid, from the decomposition D0 of H0
    and the decompositions Ds of H0 + eps V, one per eps.  The terms are
    computed once and rescaled as eps^p, and f is evaluated once, over all
    the spectra together."""
    base, *perts = _traces(f, [D0, *Ds])
    taus = expansion_terms(f, D0, V, n)
    out = []
    for eps, pert in zip(eps_grid, perts):
        poly = sum(tau * eps**p for p, tau in enumerate(taus, start=1))
        out.append(pert - base - poly)
    return out


def scaling_exponent(eps_grid, remainders, noise_floor=1e-13):
    """Least-squares slope of log|remainder| against log eps (the output of
    ``remainder_sweep`` over ``eps_grid``), skipping points below the noise
    floor."""
    eps = np.asarray(eps_grid, float)
    rem = np.abs(np.asarray(remainders))
    keep = rem > noise_floor
    if np.count_nonzero(keep) < 3:
        raise InsufficientDataError(
            f"only {np.count_nonzero(keep)} usable grid points above the noise floor")
    slope = np.polyfit(np.log(eps[keep]), np.log(rem[keep]), 1)[0]
    return float(slope)


def expansion_report(f, D0, D1, V, n):
    """Terms, both traces, the remainder trace and the operator remainder of
    order n, from the decompositions D0 of H0 and D1 of H0+V."""
    base, pert = _traces(f, [D0, D1])
    taus = expansion_terms(f, D0, V, n)
    rem = pert - base - sum(taus)
    R = _operator_remainder(f, D0, D1, V, n)
    return ExpansionReport(base_trace=base, perturbed_trace=pert,
                           terms=taus, remainder_trace=rem,
                           operator_remainder_trace=float(np.trace(R).real),
                           operator_remainder_trace_norm=schatten_norm(R, 1))
