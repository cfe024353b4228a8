"""Fault matrix of the u-weighting layer: every shipped gate must be able to
fail.

Each fault is a ``monkeypatch`` of one rule of ``scalar_functions`` (the
library gains no hook), rebound in every namespace that holds a copy. Under
each fault, ``selftest``, ``certify`` and ``sweep`` run in process at a small
config (dims 4, one trial per order), and at least one of them must exit 1.
The matrix of exit codes is printed, one row per fault.
"""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polyutils as pu

from tracetaylor import bounds, cli, divided_diff
from tracetaylor import scalar_functions as sf

COMMANDS = ("selftest", "certify", "sweep")

_product_with_u2 = sf.product_with_u2


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


# fault name -> (attribute, replacement): a module function is rebound in
# scalar_functions and in every module that imports it, a method on its class
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
}


def _clear_shared():
    """Drop the functions whose constants are memoized across runs."""
    cli._shared_bump.cache_clear()
    sf.weight_u.cache_clear()


def _run(command, tmp_path, capsys):
    """The exit code of ``command`` in process at the small config."""
    cfg = tmp_path / "small.cfg"
    cfg.write_text("dims = 4\ntrials = 1\n")
    argv = [command] + ([] if command == "selftest" else [
        "--config", str(cfg), "--out", str(tmp_path / command)])
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
    if name == "_diff_terms":
        monkeypatch.setattr(sf.SmoothCompactFunction, name, replacement)
    else:
        for module in (sf, bounds, divided_diff):
            monkeypatch.setattr(module, name, replacement)
    codes = {c: _run(c, tmp_path, capsys) for c in COMMANDS}
    with capsys.disabled():
        print(f"\n{fault:42s}", "  ".join(f"{c} {codes[c]}" for c in COMMANDS))
    assert 1 in codes.values(), codes
