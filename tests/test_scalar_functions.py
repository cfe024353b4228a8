import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import derivs_per_order
from tracetaylor import bounds
from tracetaylor.scalar_functions import (_SUP_GRID, DerivativeOrderError,
                                          FractionalPower,
                                          UnsupportedFamilyError,
                                          _grid_points, _weight_u2,
                                          decompose_signed, dyadic_root,
                                          fourier_l1_norm, fractional_root,
                                          gp_seminorm, make_plateau_bump,
                                          make_poly_bump, product_with_u,
                                          product_with_u2,
                                          sup_norm, weight_u, zero_function)


def fd_deriv(f, j, x, h=1e-5):
    if j == 0:
        return f.value(x)
    return (fd_deriv(f, j - 1, x + h, h) - fd_deriv(f, j - 1, x - h, h)) / (2 * h)


def test_poly_bump_values():
    f = make_poly_bump(0.0, 1.0, 4)
    assert f.value(0.0) == pytest.approx(1.0)
    assert f.value(1.0) == 0.0
    assert f.value(-1.0) == 0.0
    assert f.deriv(1, 1.0) == 0.0
    assert f.deriv(1, -1.0) == 0.0
    assert f.value(0.5) == pytest.approx(0.31640625, abs=1e-15)
    assert f.value(2.0) == 0.0
    with pytest.raises(ValueError):
        make_poly_bump(0.0, 1.0, 1)


def test_poly_bump_derivatives_match_finite_differences():
    f = make_poly_bump(0.3, 1.2, 8)
    xs = np.linspace(-0.8, 1.3, 9)
    for j in (1, 2, 3):
        fd = np.array([fd_deriv(f, j, float(x), 1e-4) for x in xs])
        assert np.max(np.abs(f.deriv(j, xs) - fd)) < 1e-3 * (1 + np.max(np.abs(fd)))


def test_plateau_bump_shape():
    g = make_plateau_bump(-0.5, 0.5, 0.25, 3)
    assert g.value(0.0) == pytest.approx(1.0)
    assert g.value(0.49) == pytest.approx(1.0)
    assert g.value(-0.8) == 0.0
    assert g.value(0.8) == 0.0
    # edges are monotone between 0 and 1
    xs = np.linspace(0.5, 0.75, 50)
    v = g.value(xs)
    assert np.all(np.diff(v) <= 1e-12)
    assert np.all((v >= -1e-15) & (v <= 1 + 1e-15))


def test_piecewise_algebra():
    f = make_poly_bump(0.0, 1.0, 4)
    g = make_poly_bump(0.5, 1.0, 6)
    xs = np.linspace(-1.2, 1.7, 101)
    assert np.allclose(f.add(g).value(xs), f.value(xs) + g.value(xs))
    assert np.allclose(f.scale(-2.5).value(xs), -2.5 * f.value(xs))
    assert np.allclose(f.mul(g).value(xs), f.value(xs) * g.value(xs))


def test_dyadic_root_exact():
    g = make_poly_bump(0.0, 1.0, 4)
    f = g.mul(g)
    with pytest.raises(UnsupportedFamilyError):
        dyadic_root(f, 1)  # products leave the closed power family
    f8 = make_poly_bump(0.0, 1.0, 8)
    r = dyadic_root(f8, 1)
    xs = np.linspace(-0.99, 0.99, 50)
    assert np.max(np.abs(r.value(xs) ** 2 - f8.value(xs))) < 1e-14
    assert dyadic_root(f8, 0) is f8
    f_big = make_poly_bump(0.2, 0.7, 16)
    r3 = dyadic_root(f_big, 3)
    assert np.max(np.abs(r3.value(xs) ** 8 - f_big.value(xs))) < 1e-12


def test_fractional_power_fallback():
    f = make_poly_bump(0.0, 1.0, 12)
    r = fractional_root(f, 2, max_order=3)
    xs = np.linspace(-0.95, 0.95, 41)
    assert np.max(np.abs(r.value(xs) ** 4 - f.value(xs))) < 1e-12
    exact = dyadic_root(f, 2)
    assert np.max(np.abs(r.value(xs) - exact.value(xs))) < 1e-12
    # derivative agreement with the exact root where defined
    assert np.max(np.abs(r.deriv(2, xs) - exact.deriv(2, xs))) < 1e-8
    # flush to zero outside / at the boundary
    assert r.value(1.0) == 0.0
    assert r.deriv(1, 1.5) == 0.0


def test_fractional_power_rejects_u_weighted():
    with pytest.raises(UnsupportedFamilyError):
        FractionalPower(weight_u(), 0.5, 2)


def test_weight_u():
    u = weight_u()
    assert u.value(0.0) == pytest.approx(1.0)
    xs = np.linspace(-1000.0, 1000.0, 2001)
    assert np.max(np.abs(u.deriv(1, xs))) <= 1.0 + 1e-12
    f = make_poly_bump(0.0, 1.0, 4)
    u2f = product_with_u2(make_plateau_bump(-3, 3, 1, 3))
    # (u^2)'' == 2 wherever the plateau is flat
    probes = np.linspace(-2.9, 2.9, 25)
    assert np.max(np.abs(u2f.deriv(2, probes) - 2.0)) < 1e-12
    del f


def test_u_and_u2_are_one_piece_on_the_real_line():
    for g in (weight_u(), _weight_u2()):
        assert tuple(g.breaks) == (-np.inf, np.inf) and len(g.piece_terms) == 1
        assert g.unbounded and g.support == (-np.inf, np.inf)
    xs = np.array([-1e6, 1e6])
    assert np.max(np.abs(weight_u().value(xs) / np.sqrt(1.0 + xs * xs) - 1.0)) <= 1e-15
    assert np.max(np.abs(_weight_u2().value(xs) / (1.0 + xs * xs) - 1.0)) <= 1e-15
    for a in (weight_u(), _weight_u2()):
        for b in (weight_u(), _weight_u2()):
            with pytest.raises(ValueError):
                a.add(b)
            with pytest.raises(ValueError):
                a.mul(b)


def test_sampling_grids_of_u_are_finite():
    u = weight_u()
    for grid in (64, 128, _SUP_GRID):
        points = _grid_points(u, grid)
        assert points.size and np.all(np.isfinite(points))
    # the sup sample is the 4001 points of [-1e3, 1e3], no break added
    assert _grid_points(u, _SUP_GRID).size == 4001


def test_gp_seminorm_basics():
    z = zero_function()
    assert gp_seminorm(z, 1).value_gp == 0.0
    f = make_poly_bump(0.0, 1.0, 6)
    r1 = gp_seminorm(f, 1)
    r2 = gp_seminorm(f.scale(-3.0), 1)
    assert r2.value_gp == pytest.approx(3.0 * r1.value_gp, abs=1e-12)
    fine = gp_seminorm(f, 1, panels=256)
    assert r1.value_gp == pytest.approx(fine.value_gp, rel=1e-8)


def test_gp_seminorm_order_guard():
    f = make_poly_bump(0.0, 1.0, 4)  # C^3, so G_3 would need a 4th derivative
    with pytest.raises(DerivativeOrderError):
        gp_seminorm(f, 3)
    with pytest.raises(DerivativeOrderError):
        gp_seminorm(weight_u(), 1)
    assert gp_seminorm(weight_u(), 2).value_gp > 0.0


def test_fourier_l1_basics():
    z = zero_function()
    assert fourier_l1_norm(z, 1) == 0.0
    f = make_poly_bump(0.0, 1.0, 6)
    a = fourier_l1_norm(f, 1)
    b = fourier_l1_norm(f.scale(2.0), 1)
    assert b == pytest.approx(2.0 * a, rel=1e-10)
    c = fourier_l1_norm(f, 1, grid=2 ** 15)
    assert a == pytest.approx(c, rel=1e-4)


def test_fourier_domination():
    # || (f^(p))hat ||_1 / p! <= G_p seminorm under the chosen transform
    # normalization, for the whole bump family
    for m in (6, 8, 12):
        f = make_poly_bump(0.1, 0.9, m)
        for p in (1, 2, 3):
            rep = gp_seminorm(f, p)
            lhs = fourier_l1_norm(f, p) / math.factorial(p)
            assert lhs <= rep.value_gp + rep.quadrature_error + 1e-3 * lhs + 1e-12


def test_sup_norm():
    f = make_poly_bump(0.0, 1.0, 4)
    assert sup_norm(f) == pytest.approx(1.0, abs=1e-6)
    assert sup_norm(f.scale(-2.0)) == pytest.approx(2.0, abs=1e-6)


def test_decompose_signed():
    f = make_poly_bump(0.0, 1.0, 8).scale(-1.0).add(make_poly_bump(0.1, 0.5, 8))
    f1, f2 = decompose_signed(f, 2)
    xs = np.linspace(-1.5, 1.6, 200)
    assert np.max(np.abs(f1.value(xs) - f2.value(xs) - f.value(xs))) < 1e-12
    assert np.min(f1.value(xs)) >= -1e-12
    assert np.min(f2.value(xs)) >= -1e-12
    z1, z2 = decompose_signed(zero_function(), 1)
    assert np.max(np.abs(z1.value(xs) - z2.value(xs))) < 1e-15


def test_fractional_power_grid_pass_equals_deriv():
    # the positive half of a signed split has breaks at the plateau joints
    # and at the support edges of f, and no exact dyadic root; its roots read
    # one table of base derivatives per grid, in whatever order the orders
    # are asked for, and must agree bitwise with deriv at the same points
    f = make_poly_bump(0.1, 0.8, 10)
    base = decompose_signed(f, 3)[0]
    roots = [FractionalPower(base, 2.0 ** -k, 4) for k in (1, 2)]
    for grid in (64, 128, _SUP_GRID):
        x = _grid_points(base, grid)
        assert np.array_equal(x, _grid_points(roots[0], grid))
        assert np.any(x < base.breaks[1]) and np.any(x > base.breaks[-2])
        for r in roots:
            for j in (2, 0, 4, 1, 3):
                assert np.array_equal(r._grid_derivs((j,), grid)[0],
                                      r.deriv(j, x))


def test_roots_share_one_base_evaluation(monkeypatch):
    # the roots of a base without exact roots read one table of base
    # derivatives per sampling grid, filled in one pass: orders 0..4 on each
    # quadrature grid of the seminorms, the values on the sup grid
    f = make_poly_bump(0.1, 0.8, 10)
    base = decompose_signed(f, 3)[0]
    calls = []
    derivs = type(base).derivs
    monkeypatch.setattr(type(base), "derivs", lambda self, orders, x: (
        calls.append((self, tuple(orders), x)) or derivs(self, orders, x)))
    bounds._root_constants(base, 3)
    assert all(obj is base for obj, _, _ in calls)
    grids = [_grid_points(base, grid) for grid in (64, 128, _SUP_GRID)]
    assert sorted((orders, [x is g for g in grids].index(True))
                  for _, orders, x in calls) == [
        ((0,), 2), ((0, 1, 2, 3, 4), 0), ((0, 1, 2, 3, 4), 1)]


@functools.cache
def _families():
    """One member of every kind that the library evaluates: polynomial bumps
    and their sums, the u-weighted products and the weight, a negated
    plateau (the derivatives of its flat piece are series of negative
    zeros), and for every order n = 1..4 both halves of the signed split
    (the plateau of edge order n + 1 and exponent 2^j_n, and its sum with
    f), the exact roots of the plateau and the FractionalPower roots of the
    other half."""
    f = make_poly_bump(0.1, 0.8, 10)
    fams = [f, make_poly_bump(-0.3, 1.7, 7), f.add(make_poly_bump(0.5, 0.6, 6)),
            product_with_u(f), product_with_u2(f), weight_u(),
            make_plateau_bump(-0.5, 0.5, 0.25, 3).scale(-1.0)]
    for n in (1, 2, 3, 4):
        f1, f2 = decompose_signed(f, n)
        jn = 1 + int(math.floor(math.log2(n)))
        fams += [f1, f2]
        fams += [dyadic_root(f2, k) for k in range(1, jn + 1)]
        fams += [fractional_root(f1, k, max_order=n + 1) for k in range(1, jn + 1)]
    return fams


def _span(f):
    return (-3.0, 3.0) if f.unbounded else f.support


def _marks(f):
    """f's finite breaks and support edges, a step to either side of each,
    both signed zeros and a point outside the support on either side."""
    lo, hi = _span(f)
    marks = [float(b) for b in f.breaks if np.isfinite(b)] + [lo, hi, 0.0, -0.0]
    steps = [float(np.nextafter(b, s)) for b in marks for s in (-np.inf, np.inf)]
    return np.array(marks + steps + [lo - 0.5, hi + 0.5])


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_derivs_equal_the_per_order_evaluation_bitwise(data):
    # the stacked one-pass evaluation returns, for every requested order and
    # in the requested order, the bits of the per-order evaluation, sign
    # bit included
    for f in _families():
        orders = data.draw(st.lists(st.integers(0, min(f.max_order, 5)),
                                    min_size=1, max_size=4))
        lo, hi = _span(f)
        x = np.append(_marks(f), data.draw(st.lists(st.floats(lo - 1.0, hi + 1.0),
                                                    max_size=12)))
        got = f.derivs(orders, x)
        assert got.shape == (len(orders), x.size)
        for row, expect in zip(got, derivs_per_order(f, orders, x)):
            assert row.tobytes() == expect.tobytes()


def test_values_memoized_on_the_function_match_a_fresh_one():
    f = make_poly_bump(0.0, 1.0, 20)
    xs = np.linspace(-1.1, 1.1, 57)
    made = {k: dyadic_root(f, k) for k in (2, 1)}
    made["u"], made["u2"] = product_with_u(f), product_with_u2(f)
    again = {k: dyadic_root(f, k) for k in (1, 2)}
    again["u"], again["u2"] = product_with_u(f), product_with_u2(f)
    assert all(made[key] is again[key] for key in made)
    fresh = make_poly_bump(0.0, 1.0, 20)
    expect = {1: dyadic_root(fresh, 1), 2: make_poly_bump(0.0, 1.0, 5),
              "u": product_with_u(make_poly_bump(0.0, 1.0, 20)),
              "u2": product_with_u2(make_poly_bump(0.0, 1.0, 20))}
    for key, g in made.items():
        for j in range(3):
            assert np.array_equal(g.deriv(j, xs), expect[key].deriv(j, xs))
    assert sup_norm(f) == sup_norm(fresh) == sup_norm(f)
    # the L2 norms are kept per order and grid (so few panels that the
    # quadrature depends on the grid)
    for panels in (2, 4, 1):
        assert gp_seminorm(f, 2, panels) == gp_seminorm(
            make_poly_bump(0.0, 1.0, 20), 2, panels)
