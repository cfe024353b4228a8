"""Taylor expansion of the trace functional V -> Tr f(H0 + V): expansion
terms, remainder traces, the operator remainder, and remainder-scaling slope
fits."""

import math
from dataclasses import dataclass

import numpy as np

from .moi import evaluate_moi, trace_derivative_first, trace_derivative_higher
from .operator_core import (_function_of, _traces, as_matrix, decompose,
                            schatten_norm)


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


def _expansion(f, D0, Ds, V, n):
    """The terms tau_1..tau_{n-1}, Tr f(H0), and Tr f(H) for the matrix H
    of each decomposition in Ds: the terms fill D0's table of f in one pass,
    and ``_traces`` reads Tr f(H0) from its row 0."""
    taus = expansion_terms(f, D0, V, n)
    base, *perts = _traces(f, [D0, *Ds])
    return taus, base, perts


def operator_remainder(f, H0, V, p):
    """f(H0+V) minus the Gateaux-derivative Taylor polynomial of order p-1."""
    Hm, Vm = as_matrix(H0), as_matrix(V)
    return _operator_remainder(f, decompose(Hm), decompose(Hm + Vm), Vm, p)


def _operator_remainder(f, D0, D1, V, p):
    """``operator_remainder`` from the decompositions D0 of H0 and D1 of
    H0+V; D0's table of f is filled to order p - 1 in one pass, D1's to 0."""
    D0.derivative_table(f, p - 1)
    R = _function_of(D1, D1.derivative_table(f, 0)[0])
    for k in range(p):
        R -= evaluate_moi(f, D0, [V] * k)
    return R


def remainder_sweep(f, D0, Ds, V, n, eps_grid):
    """Remainder traces over an epsilon grid, from the decomposition D0 of H0
    and the decompositions Ds of H0 + eps V, one per eps.  The terms are
    computed once and rescaled as eps^p (see ``_expansion``)."""
    taus, base, perts = _expansion(f, D0, Ds, V, n)
    out = []
    for eps, pert in zip(eps_grid, perts):
        poly = sum(tau * eps**p for p, tau in enumerate(taus, start=1))
        out.append(pert - base - poly)
    return out


NOISE_FLOOR = 1e-13  # remainders at or below it are rounding noise


def scaling_exponent(eps_grid, remainders):
    """Least-squares slope of log|remainder| against log eps (the output of
    ``remainder_sweep`` over ``eps_grid``), skipping points at or below
    ``NOISE_FLOOR``; at least 3 distinct eps must remain."""
    eps = np.asarray(eps_grid, float)
    rem = np.abs(np.asarray(remainders))
    keep = rem > NOISE_FLOOR
    distinct = len(set(eps[keep].tolist()))
    if distinct < 3:
        raise InsufficientDataError(
            f"only {distinct} distinct grid points above the noise floor")
    slope = np.polyfit(np.log(eps[keep]), np.log(rem[keep]), 1)[0]
    return float(slope)


def expansion_report(f, D0, D1, V, n):
    """Terms, both traces, the remainder trace and the operator remainder of
    order n, from the decompositions D0 of H0 and D1 of H0+V."""
    taus, base, [pert] = _expansion(f, D0, [D1], V, n)
    rem = pert - base - sum(taus)
    R = _operator_remainder(f, D0, D1, V, n)
    return ExpansionReport(base_trace=base, perturbed_trace=pert,
                           terms=taus, remainder_trace=rem,
                           operator_remainder_trace=float(np.trace(R).real),
                           operator_remainder_trace_norm=schatten_norm(R, 1))
