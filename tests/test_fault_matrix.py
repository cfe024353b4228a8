"""Fault matrix: every shipped gate must be able to fail.

Each fault is a ``monkeypatch`` of one library function (the library gains
no hook), rebound in every namespace that holds a copy: the u-weighting
rules, the divided-difference recursion, the expansion terms and the
constants of the certificates, the trace-formula kernels and the cyclic
contraction. Under each fault, all five commands run in process at a small
config (dims 4, one trial per order), and ``expand`` also at
``configs/high_orders.cfg``; at least one of these runs must exit 1. The
matrix of exit codes is printed, one row per fault.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polyutils as pu

from tracetaylor import bounds, cli, divided_diff, moi, shift, taylor
from tracetaylor import scalar_functions as sf

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# each column is a command, run at the small config or, when a second word
# names one, at that file of configs/
COMMANDS = ("selftest", "expand", "certify", "shift", "sweep",
            "expand high_orders")

# every namespace in which a fault's name is rebound, if it holds it
NAMESPACES = (sf, sf.SmoothCompactFunction, bounds, cli, divided_diff, moi,
              shift, taylor)

_product_with_u2 = sf.product_with_u2
_rows = divided_diff._divided_difference_rows
_expansion_terms = taylor.expansion_terms
_gp_seminorm = sf.gp_seminorm


def _mapped(rule):
    """A u-weighting that maps every piece's term by ``rule(term, domain)``."""
    return lambda f: f._map(rule, f.max_order)


def _diff_terms_without_kxp(term, domain):
    """d/dx (P u^k) with the k x P term dropped: P' (1 + x^2) u^(k-2)."""
    k, c = term
    dc = cheb.chebder(c, 1, pu.mapparms(domain, sf._WINDOW)[1])
    if k != 0:
        dc, k = cheb.chebmul(dc, sf._u2_series(domain)), k - 2
    return (k, dc) if np.any(dc) else None


def _rows_scaled(width, factor):
    """The divided-difference recursion with every quotient of width at
    least ``width`` scaled by ``factor`` in place, so that the wider widths
    read the scaled ones."""
    def rows(table, lam, idx):
        for w, d in enumerate(_rows(table, lam, idx)):
            if w >= width:
                for q in d:
                    q *= factor
            yield d
    return rows


def _rows_without_factorials(table, lam, idx):
    """The recursion with f^(w) in place of f^(w)/w! on w + 1 equal nodes."""
    return _rows([row * math.factorial(w) for w, row in enumerate(table)],
                 lam, idx)


def _tau_scaled(k, factor):
    """The expansion terms with the one at index ``k`` scaled by ``factor``."""
    def terms(f, D0, V, n):
        taus = _expansion_terms(f, D0, V, n)
        if taus:
            taus[k] *= factor
        return taus
    return terms


def _kernel_scaled(build, factors):
    """The kernel builder ``build`` with column j of its kernel's
    coefficients scaled by ``factors[j]``."""
    def scaled(*args):
        kernel = build(*args)
        return shift.Kernel(kernel.breaks, kernel.coef * factors)
    return scaled


def _cyclic_last_to_itself(f, D, V, p):
    """``moi._trace_derivative`` with the cyclic contraction's last factor
    joining i_(p-1) to itself, not to i_0 (the same sum at p = 1)."""
    U = D.eigenvectors
    Vt = U.conj().T @ V @ U
    F = divided_diff.divided_difference_tensor(D.derivative_table(f, p)[1:],
                                               D.index_values())
    operands = [F, list(range(p))]
    for k in range(p):
        operands += [Vt, [k, min(k + 1, p - 1)]]
    return math.factorial(p - 1) * complex(np.einsum(*operands, [])).real


def _a_sequence_tenth(n):
    """a_n / 10: the recursion of ``bounds.a_sequence`` from a_1 = 0.2."""
    if n == 1:
        return 0.2
    return _a_sequence_tenth(n - 1) + _a_sequence_tenth(n // 2)


# fault name -> (attribute, replacement), rebound in every namespace of
# NAMESPACES that holds the attribute
FAULTS = {
    "product_with_u gives u^(k+2)": (
        "product_with_u", _mapped(lambda t, _: (t[0] + 2, t[1]))),
    "product_with_u2 multiplies by 1 + 2x^2": (
        "product_with_u2", _mapped(lambda t, domain: (t[0], cheb.chebmul(
            t[1], cheb.chebsub(cheb.chebmul(2.0, sf._u2_series(domain)), 1.0))))),
    "product_with_u2 scaled by 1 + 1e-6": (
        "product_with_u2", lambda f: _product_with_u2(f).scale(1.0 + 1e-6)),
    "_diff_terms drops its k x P term": (
        "_diff_terms", staticmethod(_diff_terms_without_kxp)),
    "quotients of width >= 3 scaled by 1 + 1e-6": (
        "_divided_difference_rows", _rows_scaled(3, 1.0 + 1e-6)),
    "quotients of width >= 2 scaled by 1 + 1e-3": (
        "_divided_difference_rows", _rows_scaled(2, 1.0 + 1e-3)),
    "equal-node branch without its 1/w!": (
        "_divided_difference_rows", _rows_without_factorials),
    "last tau scaled by 1.01": ("expansion_terms", _tau_scaled(-1, 1.01)),
    "tau_1 scaled by 1 + 1e-8": ("expansion_terms", _tau_scaled(0, 1.0 + 1e-8)),
    "a_sequence / 10": ("a_sequence", _a_sequence_tenth),
    "gp_seminorm scaled by 0.01": (
        "gp_seminorm", lambda f, p: 0.01 * _gp_seminorm(f, p)),
    "xi's sign flipped": ("xi", _kernel_scaled(shift.xi, [-1.0])),
    "eta's slope sign flipped": ("eta", _kernel_scaled(shift.eta, [1.0, -1.0])),
    "cyclic contraction closes on i_(p-1)": (
        "_trace_derivative", _cyclic_last_to_itself),
}


def _clear_shared():
    """Drop the functions whose constants are memoized across runs."""
    cli._shared_bump.cache_clear()
    sf.weight_u.cache_clear()


def _run(column, tmp_path, capsys):
    """The exit code of the run of ``column`` in process."""
    command, *shipped = column.split()
    cfg = tmp_path / "small.cfg"
    cfg.write_text("dims = 4\ntrials = 1\n")
    if shipped:
        cfg = CONFIGS / f"{shipped[0]}.cfg"
    argv = [command] + ([] if command == "selftest" else [
        "--config", str(cfg), "--out", str(tmp_path / column.replace(" ", "_"))])
    code = cli.main(argv)
    capsys.readouterr()
    return code


@pytest.fixture
def fresh():
    _clear_shared()
    yield
    _clear_shared()


def test_commands_pass_without_a_fault(fresh, tmp_path, capsys):
    assert {c: _run(c, tmp_path, capsys) for c in COMMANDS} == dict.fromkeys(
        COMMANDS, 0)


@pytest.mark.parametrize("fault", FAULTS)
def test_every_fault_fails_a_shipped_command(fault, fresh, monkeypatch, tmp_path,
                                             capsys):
    name, replacement = FAULTS[fault]
    for space in NAMESPACES:
        if hasattr(space, name):
            monkeypatch.setattr(space, name, replacement)
    codes = {c: _run(c, tmp_path, capsys) for c in COMMANDS}
    with capsys.disabled():
        print(f"\n{fault:42s}", "  ".join(f"{c} {codes[c]}" for c in COMMANDS))
    assert 1 in codes.values(), codes
