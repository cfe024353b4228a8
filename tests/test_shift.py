import json

import numpy as np
import pytest

from numpy.polynomial.polynomial import polyder, polyval
from oracles import kernel_at, kernel_l1_loop, kernel_piece_ends
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
    D0, D1, _, data = data_of(H, V, window)
    return trace_formula_check(f, D0, D1, data.xi, window,
                               remainder_trace(f, H, V, 1))


def second_order(f, H, V, window):
    D0, D1, _, data = data_of(H, V, window)
    return trace_formula_check(f, D0, D1, data.eta, window,
                               remainder_trace(f, H, V, 2))


def test_xi_zero_perturbation():
    H, _ = rand_instance(0, 4)
    D0, D1, _ = spectra(H, np.zeros((4, 4)))
    w = default_window(D0, D1, 0.0)
    step = xi(D0, D1, w)
    xs = np.linspace(w.lo + 1e-6, w.hi - 1e-6, 50)
    assert np.max(np.abs(kernel_at(step, xs))) == 0.0


def test_xi_scalar_counting():
    H, V = scalar_pair(0.0, 1.0)
    D0, D1, _ = spectra(H, V)
    step = xi(D0, D1, default_window(D0, D1, 1.0))
    assert kernel_at(step, 0.5) == pytest.approx(1.0)
    assert kernel_at(step, -0.5) == pytest.approx(0.0)
    assert kernel_at(step, 1.5) == pytest.approx(0.0)
    assert step.l1_norm() == 1.0


def test_xi_jumps_balance():
    H, V = rand_instance(1, 3)
    D0, D1, Vm = spectra(H, V)
    w = default_window(D0, D1, operator_norm(Vm))
    step = xi(D0, D1, w)
    # same total eigenvalue count: xi vanishes beyond the perturbed spectra
    assert kernel_at(step, w.hi - 1e-9) == pytest.approx(0.0)


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
    assert np.max(np.abs(kernel_at(density, ts) - (v - ts))) < 1e-12
    assert kernel_at(density, -0.2) == pytest.approx(0.0, abs=1e-12)
    assert kernel_at(density, v + 0.1) == pytest.approx(0.0, abs=1e-12)
    assert density.l1_norm() == pytest.approx(v * v / 2, abs=1e-12)


def test_eta_zero_perturbation():
    H, _ = rand_instance(5, 4)
    data = data_of(H, np.zeros((4, 4)))[3]
    density, w = data.eta, data.window
    xs = np.linspace(w.lo + 1e-6, w.hi - 1e-6, 60)
    assert np.max(np.abs(kernel_at(density, xs))) < 1e-13


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


def test_eta_refuses_an_atom_off_the_breaks():
    # eta's pieces start at step's breaks, so an atom between two breaks
    # would be booked from the next break on: at 0.75 the density would
    # read -0.75 where mu((a, x)) - int xi = 2 - 0.75 = 1.25
    step = Kernel(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [0.0]]))
    window = Interval(-1.0, 3.0)
    with pytest.raises(ValueError, match="atom lies off"):
        eta(step, [(0.5, 2.0)], window)
    density = eta(step, [(1.0, 2.0)], window)
    assert kernel_at(density, 0.75) == -0.75  # mu((a, x)) = 0 before 1
    assert kernel_at(density, 1.5) == 1.0  # mu((a, x)) = 2, int xi = 1


def random_kernel(rng, order):
    """A kernel of 1-30 pieces whose coefficients mix Gaussian values, which
    change sign inside many pieces, small integers on breaks a quarter apart,
    which make exact zeros at piece ends, and +0.0 and -0.0."""
    pieces = int(rng.integers(1, 31))
    if rng.random() < 0.5:
        breaks = np.sort(rng.uniform(-3.0, 3.0, pieces + 1))
    else:
        breaks = np.cumsum(rng.choice([0.25, 0.5, 1.0, 2.0], pieces + 1))
    shape = (pieces, order)
    pool = [rng.standard_normal(shape), rng.integers(-2, 3, shape) * 1.0,
            np.zeros(shape), np.full(shape, -0.0)]
    return Kernel(breaks, np.choose(rng.integers(0, 4, shape), pool))


@pytest.mark.parametrize("order", [1, 2])
def test_l1_norm_equals_the_piece_loop_bitwise(order):
    rng = np.random.default_rng(40 + order)
    changes = 0
    for _ in range(400):
        kernel = random_kernel(rng, order)
        assert kernel.l1_norm().hex() == kernel_l1_loop(kernel).hex()
        ends = kernel_piece_ends(kernel.coef, np.diff(kernel.breaks))
        changes += np.count_nonzero(kernel.coef[:, 0] * ends < 0)
    assert changes > 0 or order == 1  # a constant piece keeps its sign


@pytest.mark.parametrize("order", [1, 2, 3])
def test_piece_ends_equal_horner_up_to_the_sign_of_a_zero(order):
    # numpy's polyval starts from c[-1] + 0 * x where Horner's rule starts
    # from c[-1], so every value is equal and only the sign of an exact
    # zero may differ, which the kernel routines read through abs, a sum or
    # a >= 0 test.  polyder equals the slice-and-scale derivative bitwise
    rng = np.random.default_rng(50 + order)
    signed_zeros = 0
    for _ in range(400):
        kernel = random_kernel(rng, order)
        width = np.diff(kernel.breaks)
        got = polyval(width, kernel.coef.T, tensor=False)
        want = kernel_piece_ends(kernel.coef, width)
        assert np.array_equal(got, want)
        bits_differ = got.view(np.int64) != want.view(np.int64)
        assert np.all(got[bits_differ] == 0.0)
        signed_zeros += np.count_nonzero(bits_differ)
        if order > 1:
            slice_scale = kernel.coef[:, 1:] * np.arange(1, order)
            assert (polyder(kernel.coef, axis=1).tobytes()
                    == slice_scale.tobytes())
    assert signed_zeros > 0


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
        D0, D1, _, data = data_of(H, V)
        kernel = data.xi if order == 1 else data.eta
        rem = remainder_trace(f, H, V, order)
        assert trace_formula_check(f, D0, D1, kernel, data.window, rem) < 1e-8
        kernel.coef[:, -1] *= -1.0
        assert trace_formula_check(f, D0, D1, kernel, data.window, rem) > 1e-6


@pytest.mark.parametrize("order", [1, 2, 3])
def test_trace_formula_check_integrates_by_parts(order):
    # a random kernel of every order against Gauss-Legendre quadrature of
    # f^(n) kernel, exact here: each piece lies on one side of the support
    # edges +-1 of f, where f^(n) is one polynomial of degree < 24.  The
    # breaks are the index values of a diagonal matrix, so the check reads
    # f at them from its table
    f = make_poly_bump(0.0, 1.0, 12)
    rng = np.random.default_rng(order)
    breaks = np.sort(np.concatenate([rng.uniform(-1.5, 1.5, 7), [-1.0, 1.0]]))
    kernel = Kernel(breaks, rng.standard_normal((breaks.size - 1, order)))
    D = decompose(np.diag(breaks).astype(complex))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    integral = 0.0
    for lo, hi in zip(kernel.breaks[:-1], kernel.breaks[1:]):
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        integral += 0.5 * (hi - lo) * np.sum(
            weights * f.deriv(order, x) * kernel_at(kernel, x))
    assert trace_formula_check(f, D, D, kernel, Interval(-2.0, 2.0),
                               integral) < 1e-12


def test_trace_formula_check_refuses_a_break_off_the_spectra():
    # f at a break is read from the tables at the index values of D0 and
    # D1, or is zero at a window end; a break that is neither has no value
    f = make_poly_bump(0.0, 1.0, 12)
    H, V = rand_instance(14, 4)
    D0, D1, Vm, data = data_of(H, V)
    rem = remainder_trace(f, H, V, 2)
    assert trace_formula_check(f, D0, D1, data.eta, data.window, rem) < 1e-8
    breaks = data.eta.breaks.copy()
    breaks[2] = 0.5 * (breaks[2] + breaks[3])
    with pytest.raises(ValueError, match="neither a window end"):
        trace_formula_check(f, D0, D1, Kernel(breaks, data.eta.coef),
                            data.window, rem)


@pytest.mark.parametrize("dim", [4, 8])
def test_trace_formula_check_reads_full_tables_with_no_pass(monkeypatch, dim):
    # every break of xi and eta is a window end or an index value of D0 or
    # D1: with both tables of f filled to order 1, neither check evaluates f
    f = make_poly_bump(0.0, 1.0, 12)
    H, V = rand_instance(13 + dim, dim)
    D0, D1, _, data = data_of(H, V)
    rems = [remainder_trace(f, H, V, order) for order in (1, 2)]
    for D in (D0, D1):
        D.derivative_table(f, 1)
    derivs, passes = type(f).derivs, []

    def counted(self, orders, x):
        passes.append((self, tuple(orders), np.size(x)))
        return derivs(self, orders, x)

    monkeypatch.setattr(type(f), "derivs", counted)
    for kernel, rem in zip((data.xi, data.eta), rems):
        assert trace_formula_check(f, D0, D1, kernel, data.window, rem) < 1e-8
    assert passes == []


def test_shift_on_an_exactly_repeated_eigenvalue():
    # H0 holds 0.2 three times in a Haar-random basis, so eigh returns it
    # with a spread of rounding size; decompose clusters it onto one index
    # value.  xi's breaks are the distinct index values of D0 and D1 and the
    # window's upper end, eta's the lower end and xi's, and both trace
    # formulas hold to their command gates
    rng = np.random.default_rng(2718)
    Z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    Q, R = np.linalg.qr(Z)
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    H = U @ np.diag([-0.5, 0.2, 0.2, 0.2, 0.4, 0.6]) @ U.conj().T
    H = 0.5 * (H + H.conj().T)
    V = random_hermitian(rng, 6, norm=0.2)
    D0, D1, Vm, data = data_of(H, V)
    assert 0.0 < np.ptp(D0.eigenvalues[1:4]) < 1e-14
    assert len(D0.clusters) == 4
    spectra = np.unique(np.concatenate([D0.index_values(), D1.index_values()]))
    assert data.xi.breaks.tolist() == spectra.tolist() + [data.window.hi]
    assert (data.eta.breaks.tolist()
            == [data.window.lo] + data.xi.breaks.tolist())
    f = make_poly_bump(0.0, 1.0, 20)
    r1, r2 = (trace_formula_check(f, D0, D1, kernel, data.window,
                                  remainder_trace(f, H, V, order))
              for order, kernel in ((1, data.xi), (2, data.eta)))
    assert r1 <= 1e-10 and r2 <= 1e-8


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
