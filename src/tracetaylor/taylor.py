"""Taylor expansion of the trace functional V -> Tr f(H0 + V): expansion
terms, remainder traces, the operator remainder, and remainder-scaling slope
fits."""

import math
from dataclasses import dataclass

import numpy as np

from .moi import evaluate_moi, trace_derivative_first, trace_derivative_higher
from .operator_core import apply_function, as_matrix, decompose, schatten_norm


class InsufficientDataError(RuntimeError):
    pass


@dataclass
class ExpansionReport:
    n: int
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

    def to_json_dict(self):
        return {"n": self.n, "base_trace": self.base_trace,
                "perturbed_trace": self.perturbed_trace,
                "terms": list(self.terms),
                "remainder_trace": self.remainder_trace,
                "operator_remainder_trace": self.operator_remainder_trace,
                "operator_remainder_trace_norm": self.operator_remainder_trace_norm}


def expansion_terms(f, D0, V, n):
    """Expansion terms tau_1..tau_{n-1}: tau_p is 1/p times the spectral sum
    of (f')^[p-1] against the cyclic traces Tr(E V .. E V)."""
    if f.max_order < n:
        raise ValueError(f"need derivatives up to order {n}; have {f.max_order}")
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


def _remainder_trace(f, D0, D1, Vm, n):
    """``remainder_trace`` from the decompositions D0 of H0 and D1 of
    H0+V."""
    base = float(np.trace(apply_function(f, D0).mat).real)
    pert = float(np.trace(apply_function(f, D1).mat).real)
    return pert - base - sum(expansion_terms(f, D0, Vm, n))


def operator_remainder(f, H0, V, p):
    """f(H0+V) minus the Gateaux-derivative Taylor polynomial of order p-1."""
    Hm, Vm = as_matrix(H0), as_matrix(V)
    return _operator_remainder(f, decompose(Hm), decompose(Hm + Vm), Vm, p)


def _operator_remainder(f, D0, D1, Vm, p):
    """``operator_remainder`` from the decompositions D0 of H0 and D1 of
    H0+V."""
    R = apply_function(f, D1).mat.copy()
    for k in range(p):
        R -= evaluate_moi(f, D0, [Vm] * k)
    return R


def remainder_sweep(f, H0, V, n, eps_grid):
    """Remainder traces over an epsilon grid; terms are computed once and
    rescaled as eps^p, only the perturbed trace is re-evaluated."""
    Hm, Vm = as_matrix(H0), as_matrix(V)
    D0 = decompose(Hm)
    base = float(np.trace(apply_function(f, D0).mat).real)
    taus = expansion_terms(f, D0, Vm, n)
    out = []
    for eps in eps_grid:
        pert = float(np.trace(apply_function(f, decompose(Hm + eps * Vm)).mat).real)
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


def expansion_report(f, H0, V, n):
    Hm, Vm = as_matrix(H0), as_matrix(V)
    D0 = decompose(Hm)
    D1 = decompose(Hm + Vm)
    base = float(np.trace(apply_function(f, D0).mat).real)
    pert = float(np.trace(apply_function(f, D1).mat).real)
    taus = expansion_terms(f, D0, Vm, n)
    rem = pert - base - sum(taus)
    R = _operator_remainder(f, D0, D1, Vm, n)
    return ExpansionReport(n=n, base_trace=base, perturbed_trace=pert,
                           terms=taus, remainder_trace=rem,
                           operator_remainder_trace=float(np.trace(R).real),
                           operator_remainder_trace_norm=schatten_norm(R, 1))
