import json

import numpy as np
import pytest

from tracetaylor.moi import trace_derivative_first
from tracetaylor.operator_core import (HermitianOperator, Interval, as_matrix,
                                       decompose, operator_norm,
                                       random_hermitian,
                                       random_hermitian_in_window)
from tracetaylor.scalar_functions import make_poly_bump
from tracetaylor.shift import (Kernel, WindowError, default_window, eta,
                               eta_l1_bound_check, mu_measure, shift_data,
                               shift_data_json, trace_formula_check, xi)
from tracetaylor.taylor import remainder_trace


def rand_instance(seed, dim, vnorm=0.2):
    rng = np.random.default_rng(seed)
    H = random_hermitian_in_window(rng, dim, -0.7, 0.7)
    V = random_hermitian(rng, dim, norm=vnorm)
    return H, V


def scalar_pair(lam=0.0, v=0.3):
    H = HermitianOperator(np.array([[lam]], dtype=complex))
    return H, np.array([[v]], dtype=complex)


def spectra(H, V):
    """D0 = decompose(H), D1 = decompose(H + V) and V as a matrix."""
    Hm, Vm = as_matrix(H), as_matrix(V)
    return decompose(Hm), decompose(Hm + Vm), Vm


def window_of(H, V):
    D0, D1, Vm = spectra(H, V)
    return default_window(D0, D1, operator_norm(Vm))


def data_of(H, V, window=None):
    """D0, D1, V and the shift data of (H, V), over the default window of
    (H, V) unless another is given."""
    D0, D1, Vm = spectra(H, V)
    window = window or default_window(D0, D1, operator_norm(Vm))
    return D0, D1, Vm, shift_data(D0, D1, Vm, window)


def first_order(f, H, V, window):
    return trace_formula_check(f, data_of(H, V, window)[3].xi, window,
                               remainder_trace(f, H, V, 1))


def second_order(f, H, V, window):
    return trace_formula_check(f, data_of(H, V, window)[3].eta, window,
                               remainder_trace(f, H, V, 2))


def test_xi_zero_perturbation():
    H, _ = rand_instance(0, 4)
    D0, D1, _ = spectra(H, np.zeros((4, 4)))
    w = default_window(D0, D1, 0.0)
    step = xi(D0, D1, w)
    xs = np.linspace(w.lo + 1e-6, w.hi - 1e-6, 50)
    assert np.max(np.abs(step(xs))) == 0.0


def test_xi_scalar_counting():
    H, V = scalar_pair(0.0, 1.0)
    D0, D1, _ = spectra(H, V)
    step = xi(D0, D1, default_window(D0, D1, 1.0))
    assert step(0.5) == pytest.approx(1.0)
    assert step(-0.5) == pytest.approx(0.0)
    assert step(1.5) == pytest.approx(0.0)
    assert step.l1_norm() == 1.0


def test_xi_jumps_balance():
    H, V = rand_instance(1, 3)
    D0, D1, Vm = spectra(H, V)
    w = default_window(D0, D1, operator_norm(Vm))
    step = xi(D0, D1, w)
    # same total eigenvalue count: xi vanishes beyond the perturbed spectra
    assert step(w.hi - 1e-9) == pytest.approx(0.0)


def test_xi_window_guard():
    H, V = rand_instance(2, 3)
    D0, D1, _ = spectra(H, V)
    with pytest.raises(WindowError):
        xi(D0, D1, Interval(-0.1, 0.1))


def test_first_order_formula():
    f = make_poly_bump(0.0, 1.0, 8)
    H, V = rand_instance(3, 8)
    w = window_of(H, V)
    assert first_order(f, H, np.zeros((8, 8)), w) == pytest.approx(0.0, abs=1e-14)
    assert first_order(f, H, V, w) < 1e-10
    g = make_poly_bump(0.5, 1.0, 8)
    H1, V1 = scalar_pair(0.0, 1.0)
    w1 = window_of(H1, V1)
    assert first_order(g, H1, V1, w1) < 1e-12


def test_mu_measure():
    f = make_poly_bump(0.0, 1.0, 8)
    H, V = rand_instance(4, 5)
    D0 = decompose(H)
    w = window_of(H, V)
    mu = mu_measure(D0, V, w)
    zero_mu = mu_measure(D0, np.zeros((5, 5)), w)
    assert all(abs(m) < 1e-15 for _, m in zero_mu)
    total = sum(m * f.deriv(1, t) for t, m in mu)
    assert total == pytest.approx(trace_derivative_first(f, D0, V), abs=1e-10)


def test_eta_scalar_closed_form():
    v = 0.3
    H, V = scalar_pair(0.0, v)
    D0, D1, Vm = spectra(H, V)
    w = default_window(D0, D1, v)
    density = eta(xi(D0, D1, w), mu_measure(D0, Vm, w), w)
    ts = np.linspace(0.01, v - 0.01, 9)
    assert np.max(np.abs(density(ts) - (v - ts))) < 1e-12
    assert density(-0.2) == pytest.approx(0.0, abs=1e-12)
    assert density(v + 0.1) == pytest.approx(0.0, abs=1e-12)
    assert density.l1_norm() == pytest.approx(v * v / 2, abs=1e-12)


def test_eta_zero_perturbation():
    H, _ = rand_instance(5, 4)
    data = data_of(H, np.zeros((4, 4)))[3]
    density, w = data.eta, data.window
    xs = np.linspace(w.lo + 1e-6, w.hi - 1e-6, 60)
    assert np.max(np.abs(density(xs))) < 1e-13


def test_eta_jumps_by_the_atoms_and_vanishes_at_the_window_ends():
    # eta = mu((a, x)) - int_a^x xi: the running integral is continuous, so
    # eta jumps by the atom weight at an atom and nowhere else
    for seed in range(40):
        data = data_of(*rand_instance(600 + seed, 2 + seed % 7))[3]
        density = data.eta
        c, s = density.coef.T
        left = c + s * np.diff(density.breaks)  # left limit at each piece's end
        weight = [sum(w for t, w in data.mu if t == x)
                  for x in density.breaks[1:-1]]
        assert np.max(np.abs(c[1:] - left[:-1] - weight)) < 1e-12
        assert np.all(density.coef[0] == 0.0)
        assert density.breaks[-1] == data.window.hi and abs(left[-1]) < 1e-12


def test_second_order_density():
    f = make_poly_bump(0.0, 1.0, 12)
    H1, V1 = scalar_pair(0.0, 0.25)
    w1 = window_of(H1, V1)
    assert second_order(f, H1, V1, w1) < 1e-10
    for seed in (7, 8):
        H, V = rand_instance(seed, 8)
        w = window_of(H, V)
        assert second_order(f, H, V, w) < 1e-8
        assert second_order(f, H, np.zeros((8, 8)), w) < 1e-13


@pytest.mark.parametrize("order", [1, 2])
def test_trace_formula_check_fails_on_a_negated_kernel(order):
    # the closed form reads the top coefficient of every piece, xi's value
    # at order 1 and eta's slope at order 2: flipping them must show
    f = make_poly_bump(0.0, 1.0, 12)
    for seed in (7, 8):
        H, V = rand_instance(seed, 8)
        data = data_of(H, V)[3]
        kernel = data.xi if order == 1 else data.eta
        rem = remainder_trace(f, H, V, order)
        assert trace_formula_check(f, kernel, data.window, rem) < 1e-8
        kernel.coef[:, -1] *= -1.0
        assert trace_formula_check(f, kernel, data.window, rem) > 1e-6


@pytest.mark.parametrize("order", [1, 2, 3])
def test_trace_formula_check_integrates_by_parts(order):
    # a random kernel of every order against Gauss-Legendre quadrature of
    # f^(n) kernel, exact here: each piece lies on one side of the support
    # edges +-1 of f, where f^(n) is one polynomial of degree < 24
    f = make_poly_bump(0.0, 1.0, 12)
    rng = np.random.default_rng(order)
    breaks = np.sort(np.concatenate([rng.uniform(-1.5, 1.5, 7), [-1.0, 1.0]]))
    kernel = Kernel(breaks, rng.standard_normal((breaks.size - 1, order)))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    integral = 0.0
    for lo, hi in zip(kernel.breaks[:-1], kernel.breaks[1:]):
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        integral += 0.5 * (hi - lo) * np.sum(
            weights * f.deriv(order, x) * kernel(x))
    assert trace_formula_check(f, kernel, Interval(-2.0, 2.0), integral) < 1e-12


@pytest.mark.parametrize("dim", [4, 8])
def test_trace_formula_check_evaluates_f_once_per_break(monkeypatch, dim):
    # one derivs pass per check, over the kernel's distinct breaks: each
    # interior break ends one piece and starts the next, and is read once
    f = make_poly_bump(0.0, 1.0, 12)
    H, V = rand_instance(13 + dim, dim)
    data = data_of(H, V)[3]
    rems = [remainder_trace(f, H, V, order) for order in (1, 2)]
    derivs, passes = type(f).derivs, []

    def counted(self, orders, x):
        passes.append((self, tuple(orders), np.size(x)))
        return derivs(self, orders, x)

    monkeypatch.setattr(type(f), "derivs", counted)
    for kernel, rem in zip((data.xi, data.eta), rems):
        passes.clear()
        assert trace_formula_check(f, kernel, data.window, rem) < 1e-8
        n = kernel.coef.shape[1]
        assert np.all(np.diff(kernel.breaks) > 0.0)
        assert passes == [(f, tuple(range(n)), kernel.breaks.size)]


def test_eta_l1_bound():
    D0, _, _, data = data_of(*scalar_pair(0.0, 0.3))
    cert = eta_l1_bound_check(D0, 0.3, data)
    assert cert.passed
    assert cert.lhs == pytest.approx(0.045, abs=1e-12)
    for seed in (9, 10, 11):
        D0, _, V, data = data_of(*rand_instance(seed, 5))
        assert eta_l1_bound_check(D0, operator_norm(V), data).passed


def test_shift_data_schema(tmp_path):
    data = shift_data_json(data_of(*rand_instance(12, 4))[3])
    assert set(data) == {"breakpoints", "xi_values", "eta_pieces", "atoms"}
    assert len(data["breakpoints"]) == len(data["xi_values"])
    for piece in data["eta_pieces"]:
        assert set(piece) == {"lo", "hi", "slope", "intercept"}
    # round-trips through JSON
    p = tmp_path / "shift.json"
    p.write_text(json.dumps(data))
    assert json.loads(p.read_text()) == data
