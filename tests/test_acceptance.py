"""Acceptance suite: one check per certified claim, one printed verdict each.

Every test draws its own seeded random instances, runs both computation
routes where the claim equates two quantities, and asserts the stated
tolerance. The printed line is the per-criterion verdict.
"""

import math
import time

import numpy as np
import pytest

from oracles import (finite_difference_derivative,
                     hilbert_schmidt_bound_check, integral_remainder_check,
                     projection_inequality_check, resolvent_inequality_check,
                     schatten_bound_check, trace_class_bound_check)
from tracetaylor import bounds, cli, divided_diff, moi, shift, taylor
from tracetaylor.operator_core import (HermitianOperator, decompose,
                                       operator_norm, random_hermitian,
                                       random_hermitian_in_window, Interval)
from tracetaylor.scalar_functions import (fourier_l1_norm, gp_seminorm,
                                          make_poly_bump)

EPS_GRID = tuple(2.0 ** -k for k in range(3, 11))
F20 = make_poly_bump(0.0, 1.0, 20)
F12 = make_poly_bump(0.0, 1.0, 12)


def shift_instance(H, V):
    """D0 = decompose(H), D1 = decompose(H + V) and the shift data of the
    pair over the default window."""
    D0, D1 = decompose(H), decompose(H + V)
    window = shift.default_window(D0, D1, operator_norm(V))
    return D0, D1, shift.shift_data(D0, D1, V, window)


def verdict(num, name, ok):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {num} failed: {name}"


def instance(seed, dim, vnorm=0.2, window=(-0.8, 0.8)):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    H = random_hermitian_in_window(rng, dim, *window)
    V = random_hermitian(rng, dim, norm=vnorm)
    return H, V


def test_criterion_01_constant_tables():
    t0 = time.perf_counter()
    a_ok = [bounds.a_sequence(k) for k in range(1, 15)] == [
        2, 4, 6, 10, 14, 20, 26, 36, 46, 60, 74, 94, 114, 140]
    j_ok = [bounds.j_of(n) for n in range(1, 9)] == [
        1 + int(math.floor(math.log2(n))) for n in range(1, 9)]
    elapsed = time.perf_counter() - t0
    verdict(1, "constant tables exact, runtime < 1 ms",
            a_ok and j_ok and elapsed < 1e-3)


def test_criterion_02_remainder_scaling():
    t0 = time.perf_counter()
    ok = True
    worst = {}
    for n in (1, 2, 3, 4):
        for dim in (4, 8, 16):
            for trial in range(20):
                # moderate perturbation scale keeps the whole epsilon grid in
                # the asymptotic regime while the remainders stay above the
                # fit's noise floor
                H, V = instance(1000 * n + 10 * dim + trial, dim, vnorm=0.05)
                rems = taylor.remainder_sweep(
                    F20, decompose(H), [decompose(H + e * V) for e in EPS_GRID],
                    V, n, EPS_GRID)
                slope = taylor.scaling_exponent(EPS_GRID, rems)
                worst[n] = min(worst.get(n, np.inf), slope)
                if not slope >= n - 0.15:
                    ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    verdict(2, f"remainder scaling slopes >= n - 0.15 "
               f"(worst per n: { {k: round(v, 3) for k, v in worst.items()} }, "
               f"{elapsed:.1f}s)", ok)


def test_criterion_03_compact_resolvent_bounds():
    ok = True
    for n in (1, 2, 3):
        for trial in range(50):
            H, V = instance(3000 + 100 * n + trial, 4 + trial % 3, vnorm=0.15)
            D = decompose(H)
            if not bounds.compact_trace_norm_bound(F20, D, V, operator_norm(V),
                                                   n).passed:
                ok = False
            rem = taylor.remainder_trace(F20, H, V, n)
            if not bounds.remainder_bound_compact(F20, D, operator_norm(V), n,
                                                  rem).passed:
                ok = False
    verdict(3, "compact-resolvent trace-norm and remainder bounds, "
               "50 trials per n in {1,2,3}", ok)


def test_criterion_04_hilbert_schmidt_bounds():
    ok = True
    for n in (1, 2, 3):
        for trial in range(50):
            H, V = instance(4000 + 100 * n + trial, 4 + trial % 3, vnorm=0.15)
            rem = taylor.remainder_trace(F20, H, V, n)
            if not bounds.remainder_bound_hs(F20, decompose(H), operator_norm(V),
                                             n, rem).passed:
                ok = False
    verdict(4, "Hilbert-Schmidt-resolvent remainder bound, "
               "50 trials per n in {1,2,3}", ok)


def test_criterion_05_derivative_formula():
    ok = True
    worst = 0.0
    for trial in range(25):
        dim = 3 + trial % 6
        vnorm = 0.1 + 0.02 * (trial % 5)
        H, V = instance(5000 + trial, dim, vnorm=vnorm)
        D = decompose(H)
        for p in (1, 2, 3):
            g = moi.gateaux_derivative(F12, D, V, p)
            fd = finite_difference_derivative(F12, H, V, p)
            err = np.linalg.norm(g - fd, 2)
            tol = 1e-5 * (1 + vnorm) ** p
            worst = max(worst, err / tol)
            if not err <= tol:
                ok = False
    verdict(5, f"p-th derivative equals p! times the operator integral "
               f"(worst error ratio {worst:.2e})", ok)


def test_criterion_06_trace_identities():
    ok = True
    for trial in range(50):
        dim = 3 + trial % 6
        H, V = instance(6000 + trial, dim, vnorm=0.3)
        D = decompose(H)
        for k in (1, 2, 3):
            rel = 1.0 + abs(np.trace(moi.evaluate_moi(F12, D, [V] * k)).real)
            if not moi.moi_trace_identity_check(F12, D, V, k) <= 1e-9 * rel:
                ok = False
    verdict(6, "trace identity for operator integrals via the spectral "
               "measure, k in {1,2,3}, 50 trials", ok)


def test_criterion_07_first_order_trace_formula():
    ok = True
    for trial in range(50):
        dim = 2 + trial % 7
        H, V = instance(7000 + trial, dim, vnorm=0.25)
        data = shift_instance(H, V)[2]
        rem = taylor.remainder_trace(F12, H, V, 1)
        if not shift.first_order_check(F12, data, rem) <= 1e-10:
            ok = False
    verdict(7, "first-order trace formula against the counting-difference "
               "step function, 50 trials", ok)


def test_criterion_08_second_order_density():
    ok = True
    for trial in range(50):
        dim = 2 + trial % 7
        H, V = instance(8000 + trial, dim, vnorm=0.2)
        D0, _, data = shift_instance(H, V)
        rem = taylor.remainder_trace(F12, H, V, 2)
        if not shift.second_order_check(F12, data, rem) <= 1e-8:
            ok = False
        if not shift.eta_l1_bound_check(D0, operator_norm(V), data).passed:
            ok = False
    H1 = HermitianOperator(np.array([[0.0]], dtype=complex))
    V1 = np.array([[0.3]], dtype=complex)
    density = shift_instance(H1.mat, V1)[2].eta
    ts = np.linspace(0.01, 0.29, 29)
    closed_form = np.max(np.abs(density(ts) - (0.3 - ts))) <= 1e-12
    verdict(8, "second-order remainder equals the integral of f'' against "
               "the shift density; L1 certificate; 1x1 closed form", ok and closed_form)


def test_criterion_09_moi_algebra():
    ok = True
    g = make_poly_bump(0.2, 0.9, 12)
    for trial in range(20):
        dim = 3 + trial % 5
        H, V = instance(9000 + trial, dim, vnorm=0.5)
        rng = np.random.default_rng(9500 + trial)
        W = random_hermitian(rng, dim, norm=0.5)
        D = decompose(H)
        perts2 = [V, W]
        perts3 = [V, W, V]
        if not moi.additivity_check(F12, g, D, perts2) <= 1e-9:
            ok = False
        if not moi.additivity_check(F12, g, D, perts3) <= 1e-9:
            ok = False
        for k in (1, 2):
            if not moi.product_split_check(F12, g, D, perts2, k) <= 1e-9:
                ok = False
        if not moi.product_split_check(F12, g, D, perts3, 2) <= 1e-9:
            ok = False
        if not moi.edge_multiplier_check(g, F12, F12, D, perts2) <= 1e-9:
            ok = False
        if not moi.edge_multiplier_check(g, F12, F12, D, perts3) <= 1e-9:
            ok = False
    verdict(9, "operator-integral algebra: additivity, product splitting, "
               "edge-multiplier absorption (p <= 3)", ok)


def test_criterion_10_norm_bounds():
    ok = True
    for trial in range(100):
        dim = 3 + trial % 6
        H, V = instance(10000 + trial, dim, vnorm=0.6)
        D = decompose(H)
        if trial % 2 == 0:
            a0 = (1, 2, np.inf)[trial % 3]
            if not schatten_bound_check(F12, D, [V], [a0], a0):
                ok = False
        else:
            rng = np.random.default_rng(10500 + trial)
            W = random_hermitian(rng, dim, norm=0.4)
            if not schatten_bound_check(F12, D, [V, W], [2, 2], 1):
                ok = False
    for trial in range(100):
        dim = 3 + trial % 6
        H, V = instance(11000 + trial, dim, vnorm=0.6)
        D = decompose(H)
        F = divided_diff.divided_difference_tensor(D.derivative_table(F12, 1),
                                                   D.index_values())
        if not hilbert_schmidt_bound_check(F, D, V):
            ok = False
    verdict(10, "Schatten-Holder and Hilbert-Schmidt symbol bounds, "
                "100 trials each", ok)


def test_criterion_11_scalar_identities():
    ok = True
    worst = 0.0
    rng = np.random.default_rng(11000)
    for trial in range(100):
        p = int(rng.integers(1, 5))
        nodes = rng.uniform(-0.9, 0.9, p + 1)
        r = rng.random()
        if r < 0.2:
            nodes[:] = nodes[0]       # fully confluent
        elif r < 0.4:
            nodes[-1] = nodes[0]      # one confluent pair
        for res in (divided_diff.sqrt_split_residual(F12, nodes),
                    divided_diff.u_conjugation_residual(F12, nodes)):
            worst = max(worst, res)
            if not res <= 1e-9:
                ok = False
    verdict(11, f"sqrt-split and two-sided u-weighting identities, 100 node "
                f"sets with confluent clusters (worst {worst:.2e})", ok)


def test_criterion_12_psd_and_trace_class():
    ok = True
    rng = np.random.default_rng(12000)
    for trial in range(100):
        dim = 3 + trial % 6
        H0 = random_hermitian(rng, dim)
        W = random_hermitian(rng, dim, norm=float(rng.uniform(0.1, 2.0)))
        if not resolvent_inequality_check(H0, W, tol=1e-10):
            ok = False
        if not projection_inequality_check(H0, W, Interval(-1.0, 1.0), tol=1e-10):
            ok = False
        D = decompose(random_hermitian_in_window(rng, dim, -1.4, 1.4))
        if not trace_class_bound_check(F12, D, tol=1e-10):
            ok = False
    verdict(12, "resolvent/projection PSD inequalities and trace-class "
                "bounds, 100 trials at tol 1e-10", ok)


def test_criterion_13_fourier_domination():
    ok = True
    for m in (6, 8, 12, 20):
        f = make_poly_bump(0.1, 0.9, m)
        for p in (1, 2, 3):
            rep = gp_seminorm(f, p)
            lhs = fourier_l1_norm(f, p) / math.factorial(p)
            margin = rep.quadrature_error + 1e-3 * lhs + 1e-12
            if not lhs <= rep.value_gp + margin:
                ok = False
    verdict(13, "L1 Fourier norm of the p-th derivative over p! is dominated "
                "by the G_p seminorm, bump family, p <= 3", ok)


def test_criterion_14_integral_remainder():
    ok = True
    for trial in range(10):
        dim = 3 + trial % 4
        H, V = instance(14000 + trial, dim, vnorm=0.2)
        for p in (1, 2, 3):
            r32 = integral_remainder_check(F12, H, V, p, quad_nodes=32)
            r64 = integral_remainder_check(F12, H, V, p, quad_nodes=64)
            if not (r32 <= 1e-8 and r64 <= 1e-8):
                ok = False
    verdict(14, "integral representation of the operator remainder, stable "
                "under quadrature node doubling", ok)


def test_criterion_15_determinism(tmp_path):
    cfg_text = ("seed = 21\ndims = 4\norders = 1,2\ntrials = 2\n"
                "epsilons = 0.125, 0.0625, 0.03125, 0.015625\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(cfg_text)
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert cli.main(["expand", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    same = ((outs[0] / "expand.csv").read_bytes() == (outs[1] / "expand.csv").read_bytes()
            and (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes())
    verdict(15, "expand and sweep reports byte-identical across reruns", same)
