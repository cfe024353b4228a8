import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.polynomial import Chebyshev
from numpy.polynomial import chebyshev as cheb
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _eval_terms, derivs_per_order
from tracetaylor import bounds
from tracetaylor import scalar_functions as sf
from tracetaylor.scalar_functions import (_SUP_GRID, DerivativeOrderError,
                                          FractionalPower,
                                          SmoothCompactFunction,
                                          UnsupportedFamilyError, _grid,
                                          decompose_signed, dyadic_root,
                                          fourier_l1_norm, fractional_root,
                                          gp_seminorm, make_plateau_bump,
                                          make_poly_bump, product_with_u,
                                          product_with_u2, quadrature_error,
                                          sup_norm, weight_u)


def _empty():
    """The function with an empty support, which the constructor can build."""
    return SmoothCompactFunction([0.0, 0.0], [None], sf._UNLIMITED)


def _u2_on_the_line():
    """u^2 = 1 + x^2 on the whole line, as the product of the constant 1
    there with u^2: one polynomial piece on (-inf, inf)."""
    one = SmoothCompactFunction([-np.inf, np.inf], [(0, np.array([1.0]))],
                                sf._UNLIMITED)
    return product_with_u2(one)


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
    with pytest.raises(DerivativeOrderError):
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


def test_plateau_exponents_below_one_are_refused():
    # S^0 is the indicator of [lo, hi]: 1.0 at a support end and 0 just
    # outside, so it has no derivative there, whatever its edge order
    for exponent in (0, -1):
        with pytest.raises(ValueError):
            make_plateau_bump(-0.5, 0.5, 0.25, 2, exponent=exponent)


def test_piecewise_algebra():
    f = make_poly_bump(0.0, 1.0, 4)
    g = make_poly_bump(0.5, 1.0, 6)
    xs = np.linspace(-1.2, 1.7, 101)
    assert np.allclose(f.add(g).value(xs), f.value(xs) + g.value(xs))
    assert np.allclose(f.scale(-2.5).value(xs), -2.5 * f.value(xs))
    u = np.sqrt(1.0 + xs * xs)
    assert np.allclose(product_with_u(g).value(xs), g.value(xs) * u)
    assert np.allclose(product_with_u2(g).value(xs), g.value(xs) * u * u)


_SCALES = st.one_of(st.just(0.0), st.floats(0.1, 3.0), st.floats(-3.0, -0.1))


@st.composite
def _atoms(draw, lo=None, exponent=None):
    """A poly bump or a plateau (three pieces, edges raised to a power)
    whose support starts at ``lo``; lo and the exponent drawn when not given."""
    lo = draw(st.floats(-2.0, 1.0)) if lo is None else lo
    if draw(st.booleans()):
        r = draw(st.floats(0.1, 1.5))
        return make_poly_bump(lo + r, r, exponent or draw(st.integers(2, 8)))
    pad = draw(st.floats(0.1, 1.0))
    inner_lo = lo + pad
    return make_plateau_bump(inner_lo, inner_lo + draw(st.floats(0.0, 1.0)), pad,
                             draw(st.integers(1, 3)),
                             exponent=exponent or draw(st.integers(1, 4)))


@st.composite
def _members(draw):
    """A scaled atom, or the sum of two (up to seven pieces)."""
    f = draw(_atoms()).scale(draw(_SCALES))
    return f.add(draw(_atoms()).scale(draw(_SCALES))) if draw(st.booleans()) else f


def _probes(draw, *fs):
    """The breaks of every fs, and equispaced and random points around
    their supports."""
    breaks = np.concatenate([f.breaks for f in fs])
    lo, hi = np.min(breaks) - 0.5, np.max(breaks) + 0.5
    return np.concatenate([breaks, np.linspace(lo, hi, 201),
                           draw(st.lists(st.floats(lo, hi), max_size=20))])


def _leibniz(fd, gd, j):
    """(fg)^(j) from the derivative rows fd, gd of f and g."""
    return sum(math.comb(j, i) * fd[i] * gd[j - i] for i in range(j + 1))


def _sups(rows):
    return np.max(np.abs(rows), axis=1)


def _assert_close(got, expect, scale):
    """got equals expect to 1e-12 of the scale of the operands."""
    assert np.all(np.abs(got - expect) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sums_and_products_agree_pointwise(data):
    # the sum on the merged breaks, and the u^2-weighted product of that
    # sum, whose pieces are the sum's, by Leibniz with (u^2)' = 2x
    f, g = data.draw(_members()), data.draw(_members())
    top = min(2, f.max_order, g.max_order)
    fg_sum = f.add(g)
    fg_prod = product_with_u2(fg_sum)
    x = _probes(data.draw, f, g, fg_sum)
    fd, gd = f.derivs(range(top + 1), x), g.derivs(range(top + 1), x)
    wd = [1.0 + x * x, 2.0 * x, np.full_like(x, 2.0)]
    for j in range(top + 1):
        _assert_close(fg_sum.deriv(j, x), fd[j] + gd[j], _sups(fd)[j] + _sups(gd)[j])
        _assert_close(fg_prod.deriv(j, x), _leibniz(fd + gd, wd, j),
                      _leibniz(_sups(fd) + _sups(gd), np.abs(wd), j))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_u_products_follow_leibniz(data):
    f = data.draw(_members())
    top = min(2, f.max_order)
    x = _probes(data.draw, f)
    u = np.sqrt(1.0 + x * x)
    fd = f.derivs(range(top + 1), x)
    # u' = x/u and u'' = 1/u^3; (u^2)' = 2x and (u^2)'' = 2
    weights = {product_with_u: [u, x / u, 1.0 / u**3],
               product_with_u2: [1.0 + x * x, 2.0 * x, np.full_like(x, 2.0)]}
    for product, wd in weights.items():
        fw = product(f)
        for j in range(top + 1):
            # pointwise scale: u grows, so a sup over x would hide errors
            _assert_close(fw.deriv(j, x), _leibniz(fd, wd, j),
                          _leibniz(_sups(fd), np.abs(wd), j))


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 2), m=st.integers(2, 4), c=_SCALES, data=st.data())
def test_root_of_a_scaled_power_exists_exactly_for_positive_scales(k, m, c, data):
    f = data.draw(_atoms(exponent=m << k))
    if not c > 0:
        with pytest.raises(UnsupportedFamilyError):
            dyadic_root(f.scale(c), k)
        return
    # a root is its atom rebuilt by its own constructor: same breaks, bitwise
    for g in (f, f.scale(c)):
        assert np.array_equal(dyadic_root(g, k).breaks, f.breaks)
    x = _probes(data.draw, f)
    expect = c ** (2.0 ** -k) * dyadic_root(f, k).value(x)
    _assert_close(dyadic_root(f.scale(c), k).value(x), expect, np.max(np.abs(expect)))


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.1, 3.0), data=st.data())
def test_every_piece_series_is_a_float64_coefficient_array(c, data):
    f, g = data.draw(_members()), data.draw(_members())
    root = data.draw(_atoms(exponent=8)).scale(c)
    fs = [f, f.add(g), product_with_u(f), product_with_u2(f),
          product_with_u2(product_with_u(f.add(g))),
          dyadic_root(root, 1), dyadic_root(root, 2), weight_u(), _u2_on_the_line()]
    for h in fs:
        for j in range(min(h.max_order, 2) + 1):
            for term in h._derivative_obj(j).piece_terms:
                if term is not None:
                    k, series = term
                    assert type(k) is int and type(series) is np.ndarray
                    assert series.dtype == np.float64 and series.ndim == 1


def test_bump_exponents_have_no_cap():
    # numpy's series classes refuse powers above 100; the bumps take any
    x = np.linspace(-1.2, 1.2, 97)
    s = np.clip(np.abs(x), 0.0, 1.0)
    for m in (101, 1000):
        assert np.allclose(make_poly_bump(0.0, 1.0, m).value(x), (1.0 - s * s) ** m,
                           rtol=0.0, atol=1e-12)
    edge = make_plateau_bump(-1.0, 1.0, 0.5, 2, exponent=1)
    assert np.allclose(make_plateau_bump(-1.0, 1.0, 0.5, 2, exponent=128).value(x),
                       edge.value(x) ** 128, rtol=0.0, atol=1e-12)


def test_plateau_roots_keep_the_plateau_geometry_bitwise():
    # here inner_lo - lo, with lo = inner_lo - pad rounded, is not the pad
    # bit for bit: a root rebuilt from the support would end one ulp off
    f = make_plateau_bump(-1.0, -0.5, 0.1, 2, exponent=2)
    assert np.array_equal(dyadic_root(f, 1).breaks, f.breaks)
    # the same for the plateau half of the signed split of bumps of the
    # shipped exponent 20, at every root the constants of orders 1-3 read
    rng = np.random.default_rng(0)
    shapes = [(0.0, 1.0), (0.1, 0.8), (-0.3, 1.7), (1.5, 0.1)] + list(zip(
        rng.uniform(-2.0, 2.0, 200), rng.uniform(0.1, 3.0, 200)))
    for c, r in shapes:
        for n in (1, 2, 3):
            f2 = decompose_signed(make_poly_bump(c, r, 20), n)[1]
            for k in range(1, bounds.j_of(n) + 1):
                assert np.array_equal(dyadic_root(f2, k).breaks, f2.breaks)


def test_dyadic_root_exact():
    g = make_poly_bump(0.0, 1.0, 4)
    for f in (product_with_u(g), product_with_u2(g), g.add(g)):
        with pytest.raises(UnsupportedFamilyError):
            dyadic_root(f, 1)  # products and sums leave the closed power family
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
    # u, and u^2 both as u times u and as 1 times u^2; the u-weighting of a
    # whole-line function maps its one piece like any other
    u = weight_u()
    u2s = [product_with_u(u), _u2_on_the_line()]
    assert [g.piece_terms[0][0] for g in u2s] == [2, 0]
    for g in (u, *u2s):
        assert tuple(g.breaks) == (-np.inf, np.inf) and len(g.piece_terms) == 1
        assert g.unbounded and g.support == (-np.inf, np.inf)
    xs = np.array([-1e6, 1e6])
    assert np.max(np.abs(u.value(xs) / np.sqrt(1.0 + xs * xs) - 1.0)) <= 1e-15
    for g in u2s:
        assert np.max(np.abs(g.value(xs) / (1.0 + xs * xs) - 1.0)) <= 1e-15
    for a in (u, *u2s):
        for b in (u, *u2s):
            with pytest.raises(ValueError):
                a.add(b)


def test_derivative_objects_hold_only_live_series():
    # d/dx of a constant series is a zero series; a piece where a derivative
    # vanishes holds None instead, so no evaluation stacks a row that adds
    # nothing
    plateau = make_plateau_bump(-0.5, 0.5, 0.25, 5)
    fams = [weight_u()] + [product(f) for f in (make_poly_bump(0.1, 0.8, 10), plateau)
                           for product in (product_with_u, product_with_u2)]
    for g in fams:
        for j in range(1, 5):
            for term in g._derivative_obj(j).piece_terms:
                assert term is None or np.any(term[1]), (g, j, term)
    # on the plateau's flat piece f u^2 is 1 + x^2, whose third derivative
    # is None there; so is u^2's on the line, and a None row reads +0.0
    # everywhere, +-inf included
    assert product_with_u2(plateau)._derivative_obj(3).piece_terms[1] is None
    u2 = _u2_on_the_line()
    assert u2._derivative_obj(3).piece_terms == [None]
    got = u2.derivs((3, 4), [-np.inf, -1.0, 0.0, 1.0, np.inf])
    assert np.all(got == 0.0) and not np.any(np.signbit(got))


def test_derivatives_of_u_are_one_closed_form_term():
    # d/dx (P u^k) = (P' (1 + x^2) + k x P) u^(k-2): the first four
    # derivatives of u are x u^-1, u^-3, -3x u^-5 and (12x^2 - 3) u^-7,
    # whose Chebyshev series in x are [0, 1], [1], [0, -3] and [3, 0, 6]
    expect = [(-1, [0, 1]), (-3, [1]), (-5, [0, -3]), (-7, [3, 0, 6])]
    for j, (k, c) in enumerate(expect, start=1):
        [(got_k, got_c)] = weight_u()._derivative_obj(j).piece_terms
        assert got_k == k and np.array_equal(got_c, c)


def test_u_weighting_maps_each_piece():
    # f u adds one power of u to each piece's term and keeps its series bit
    # for bit; f u^2 multiplies each series by 1 + x^2 in that piece's own
    # variable; a piece where f is zero, as in the gap between two disjoint
    # bumps, stays None. Both keep f's breaks and derivative order, and
    # neither is an exact power
    bump = make_poly_bump(0.0, 1.0, 20)
    gap = make_poly_bump(-1.0, 0.5, 4).add(make_poly_bump(1.0, 0.5, 4))
    subjects = [bump, make_poly_bump(0.3, 0.7, 20),
                make_plateau_bump(-0.5, 0.5, 0.25, 3), decompose_signed(bump, 3)[0], gap]
    assert [len(f.piece_terms) for f in subjects] == [1, 1, 3, 3, 3]
    assert gap.piece_terms[1] is None
    for f in subjects:
        fu, fu2 = product_with_u(f), product_with_u2(f)
        for g in (fu, fu2):
            assert np.array_equal(g.breaks, f.breaks) and len(g.piece_terms) == len(
                f.piece_terms)
            assert g.max_order == f.max_order and g.power is None
        for i, term in enumerate(f.piece_terms):
            if term is None:
                assert fu.piece_terms[i] is None and fu2.piece_terms[i] is None
                continue
            k, c = term
            lo, hi = f.breaks[i:i + 2]
            x = Chebyshev.identity(domain=[lo, hi])
            u2 = (1.0 + x * x).coef
            t = np.linspace(lo, hi, 7)
            assert np.allclose(cheb.chebval(np.linspace(-1.0, 1.0, 7), u2), 1.0 + t * t,
                               rtol=1e-15, atol=0.0)
            (ku, cu), (k2, c2) = fu.piece_terms[i], fu2.piece_terms[i]
            assert ku == k + 1 and cu.dtype == c.dtype and cu.tobytes() == c.tobytes()
            expect = cheb.chebmul(c, u2)
            assert k2 == k and c2.dtype == expect.dtype
            assert c2.tobytes() == expect.tobytes()
    # on the default bump's piece [-1, 1] the variable is x itself
    [(_, c)] = bump.piece_terms
    u2 = np.array([1.5, 0.0, 0.5])
    assert product_with_u2(bump).piece_terms[0][1].tobytes() == cheb.chebmul(
        c, u2).tobytes()


def test_sums_need_one_power_of_u():
    f = make_poly_bump(0.1, 0.8, 10)
    with pytest.raises(ValueError):
        product_with_u(f).add(f)
    with pytest.raises(ValueError):
        f.add(product_with_u(f))
    # equal powers add, and a support that meets no piece of the other
    # operand adds nothing there
    fu = product_with_u(f)
    x = np.linspace(-1.0, 1.0, 41)
    assert np.allclose(fu.add(fu).value(x), 2.0 * fu.value(x), rtol=0.0, atol=1e-15)
    assert np.array_equal(fu.add(make_poly_bump(5.0, 0.5, 4)).value(x), fu.value(x))


def test_derivatives_of_u_match_their_closed_forms():
    # u' = x/u, u'' = u^-3, u''' = -3x u^-5 and u'''' = (12x^2 - 3) u^-7 on
    # the 128-panel grid of u, to 4 ulps relative; the closed forms are
    # evaluated in 40-digit decimal arithmetic, since their float64
    # evaluation is itself up to 5 ulps off at u^-7
    x = _grid(weight_u(), 128)[0]
    with localcontext() as ctx:
        ctx.prec = 40
        exact = []
        for t in map(Decimal, x.tolist()):
            w = (1 + t * t).sqrt()
            exact.append([t / w, w**-3, -3 * t / w**5, (12 * t * t - 3) / w**7])
    exact = np.array(exact, dtype=float).T
    ulp = np.finfo(float).eps
    got = weight_u().derivs((1, 2, 3, 4), x)
    assert np.max(np.abs(got - exact) / np.abs(exact)) <= 4 * ulp
    u = np.sqrt(1.0 + x * x)
    closed = [x / u, u**-3, -3.0 * x * u**-5]
    assert np.max(np.abs(got[:3] - closed)) <= 4 * ulp
    # on the flat piece of a plateau, f u and f u^2 are u and 1 + x^2
    plateau = make_plateau_bump(-0.5, 0.5, 0.25, 5)
    flat = np.abs(x) < 0.5
    got = product_with_u(plateau).derivs((1, 2, 3), x[flat])
    assert np.max(np.abs(got - [c[flat] for c in closed])) <= 4 * ulp
    x = x[flat]
    got = product_with_u2(plateau).derivs((1, 2, 3, 4), x)
    assert np.array_equal(got, [2.0 * x, np.full_like(x, 2.0), 0.0 * x, 0.0 * x])


def test_every_point_meets_one_piece_or_none():
    # an interior break takes the piece on its right, each support end its
    # own piece, and a point outside the support, +-inf and NaN included,
    # the value 0; the whole-line u takes its one piece at +-inf, where the
    # recursion of its one-coefficient series forms 0 * inf = NaN
    plateau = make_plateau_bump(-0.5, 0.5, 0.25, 3)
    # the signed split's f1: its plateau's joints are the support ends of
    # the bump, and the second bump adds two breaks inside
    bump = make_poly_bump(0.0, 1.0, 20)
    f1 = decompose_signed(bump, 3)[0]
    f1_sum = decompose_signed(bump.add(make_poly_bump(0.5, 0.25, 8)), 3)[0]
    assert [len(f.piece_terms) for f in (plateau, f1, f1_sum)] == [3, 3, 5]
    for f in (plateau, f1, f1_sum, weight_u()):
        b = f.breaks
        outside = [] if f.unbounded else [
            np.nextafter(b[0], -np.inf), np.nextafter(b[-1], np.inf), -np.inf, np.inf]
        x = np.array([*b, *outside, np.nan])
        orders = range(min(f.max_order, 3) + 1)
        last = len(f.piece_terms) - 1
        with np.errstate(invalid="ignore"):
            got = f.derivs(orders, x)
            # the per-order oracle locates pieces by its own rule
            for row, expect in zip(got, derivs_per_order(f, orders, x)):
                assert row.tobytes() == expect.tobytes()
            for i, t in enumerate(b):
                piece = min(i, last)
                lo, hi = b[piece:piece + 2]
                expect = _eval_terms(f.piece_terms[piece], np.array([t]), lo, hi)
                assert np.array_equal(got[0, i:i + 1], expect, equal_nan=True)
        assert np.all(got[:, -1] == 0.0)
        if f.unbounded:
            assert np.all(np.isnan(got[:, :-1]))
        else:
            assert np.all(got[:, b.size:] == 0.0)
            # the algebra's piece walk finds the same pieces
            for i, term in enumerate(f.piece_terms):
                assert f._pieces_on(*b[i:i + 2]) is term
            assert f._pieces_on(b[-1], b[-1] + 1.0) is None


def test_sampling_grids_of_u_are_finite():
    u = weight_u()
    for grid in (64, 128):
        points, half = _grid(u, grid)
        assert points.size and np.all(np.isfinite(points))
        # the panels tile the truncation interval [-100, 100]
        assert np.all(half > 0) and 2.0 * half.sum() == pytest.approx(200.0)


def test_gp_seminorm_basics():
    z = _empty()
    assert gp_seminorm(z, 1) == 0.0
    f = make_poly_bump(0.0, 1.0, 6)
    r1 = gp_seminorm(f, 1)
    r2 = gp_seminorm(f.scale(-3.0), 1)
    assert r2 == pytest.approx(3.0 * r1, abs=1e-12)
    # the norm sum on four times the panels of the shipped grid
    fine = math.sqrt(2.0) * sf._norm_sum(f, 1, 4 * sf._PANELS)
    assert r1 == pytest.approx(fine, rel=1e-8)


def test_gp_seminorm_order_guard():
    f = make_poly_bump(0.0, 1.0, 4)  # C^3, so G_3 would need a 4th derivative
    with pytest.raises(DerivativeOrderError):
        gp_seminorm(f, 3)
    with pytest.raises(DerivativeOrderError):
        gp_seminorm(weight_u(), 1)
    for seminorm_or_error in (gp_seminorm, quadrature_error):
        with pytest.raises(DerivativeOrderError):
            seminorm_or_error(f, 3)
    assert gp_seminorm(weight_u(), 2) > 0.0


def test_constants_read_one_quadrature_grid(monkeypatch):
    # every (f, n) constant reads the seminorms on the 128-panel grid alone
    # (the sup samples aside): the 64-panel pass feeds only the error
    # estimate, which keeps its bits
    f = make_poly_bump(0.1, 0.8, 10)
    panels = []
    grid = sf._grid

    def spy(g, m):
        if m != _SUP_GRID:
            panels.append(m)
        return grid(g, m)

    monkeypatch.setattr(sf, "_grid", spy)
    for n in (1, 2, 3):
        bounds._root_constants(f, n)
        bounds._signed_root_constants(f, n)
        bounds.hs_constant(f, n)
    assert panels and set(panels) == {128}
    root = fractional_root(decompose_signed(f, 3)[0], 1, max_order=4)
    # the bits both had when one call computed the seminorm and its error
    expect = {
        (root, 1): ("0x1.8944d3f902859p+6", "0x1.21189fc80a155p-32"),
        (root, 2): ("0x1.12129933bd0bep+10", "0x1.c3b4b25ebc90fp-15"),
        (root, 3): ("0x1.47756b1b323fap+13", "0x1.ad2e7a96ef30ep+2"),
        (weight_u(), 2): ("0x1.82b7eb90fd305p+0", "0x1.8c7d4ce70d58fp-28"),
        (weight_u(), 3): ("0x1.881a63244da88p-1", "0x1.2a1d2fa50b6b8p-23")}
    for (g, p), bits in expect.items():
        assert (gp_seminorm(g, p).hex(), quadrature_error(g, p).hex()) == bits


def test_constants_build_each_grid_once(monkeypatch):
    # the constants of orders 1-3 sample every function on each of its grids
    # from one build; a FractionalPower root reads its base's, so no grid is
    # keyed on a root
    builds = []
    memoized = sf._memoized

    def spy(g, key, compute):
        def counted():
            if key[0] == "grid":
                builds.append((g, key[1]))  # keeps ids unique while counting
            return compute()
        return memoized(g, key, counted)

    monkeypatch.setattr(sf, "_memoized", spy)
    # a weight u of its own: the shared one keeps the grids earlier tests built
    u = weight_u.__wrapped__()
    monkeypatch.setattr(bounds, "weight_u", lambda: u)
    f = make_poly_bump(0.0, 1.0, 20)
    for n in (1, 2, 3):
        bounds._root_constants(f, n)
        bounds._signed_root_constants(f, n)
        bounds.hs_constant(f, n)
    keys = [(id(g), grid) for g, grid in builds]
    assert len(set(keys)) == len(keys)
    assert not any(isinstance(g, FractionalPower) for g, _ in builds)
    grids = [grid for _, grid in builds]
    assert (grids.count(sf._PANELS), grids.count(_SUP_GRID)) == (14, 13)
    assert len(grids) == 27


def test_fourier_l1_basics(monkeypatch):
    z = _empty()
    assert fourier_l1_norm(z, 1) == 0.0
    f = make_poly_bump(0.0, 1.0, 6)
    a = fourier_l1_norm(f, 1)
    b = fourier_l1_norm(f.scale(2.0), 1)
    assert b == pytest.approx(2.0 * a, rel=1e-10)
    monkeypatch.setattr(sf, "_FOURIER_GRID", 2 * sf._FOURIER_GRID)
    c = fourier_l1_norm(f, 1)
    assert a == pytest.approx(c, rel=1e-4)


def test_fourier_domination():
    # || (f^(p))hat ||_1 / p! <= G_p seminorm under the chosen transform
    # normalization, for the whole bump family
    for m in (6, 8, 12):
        f = make_poly_bump(0.1, 0.9, m)
        for p in (1, 2, 3):
            lhs = fourier_l1_norm(f, p) / math.factorial(p)
            assert lhs <= (gp_seminorm(f, p) + quadrature_error(f, p)
                           + 1e-3 * lhs + 1e-12)


def test_sup_norm():
    f = make_poly_bump(0.0, 1.0, 4)
    assert sup_norm(f) == pytest.approx(1.0, abs=1e-6)
    assert sup_norm(f.scale(-2.0)) == pytest.approx(2.0, abs=1e-6)


def test_sup_norm_of_a_whole_line_function_raises():
    # no finite sample bounds u or u^2, so no sampled sup may stand for one
    for g in (weight_u(), _u2_on_the_line()):
        with pytest.raises(ValueError):
            sup_norm(g)
        assert "sup_norm" not in g._constants


def test_decompose_signed():
    f = make_poly_bump(0.0, 1.0, 8).scale(-1.0).add(make_poly_bump(0.1, 0.5, 8))
    f1, f2 = decompose_signed(f, 2)
    xs = np.linspace(-1.5, 1.6, 200)
    assert np.max(np.abs(f1.value(xs) - f2.value(xs) - f.value(xs))) < 1e-12
    assert np.min(f1.value(xs)) >= -1e-12
    assert np.min(f2.value(xs)) >= -1e-12
    z1, z2 = decompose_signed(_empty(), 1)
    assert np.max(np.abs(z1.value(xs) - z2.value(xs))) < 1e-15


def test_fractional_power_grid_pass_equals_deriv():
    # the positive half of a signed split has breaks at the plateau joints
    # and at the support edges of f, and no exact dyadic root; its roots
    # sample on its grids, which reach the pieces beyond those breaks
    f = make_poly_bump(0.1, 0.8, 10)
    base = decompose_signed(f, 3)[0]
    roots = [FractionalPower(base, 2.0 ** -k, 4) for k in (1, 2)]
    for grid in (64, 128, _SUP_GRID):
        x = _grid(base, grid)[0]
        # a root samples on its base's grid: the very same array
        assert all(_grid(r, grid)[0] is x for r in roots)
        assert np.any(x < base.breaks[1]) and np.any(x > base.breaks[-2])


def test_roots_share_one_base_evaluation(monkeypatch):
    # each root of a base without exact roots makes one pass of the base per
    # sampling grid: orders 0..4 on the quadrature grid of the seminorms,
    # the values on the sup grid
    f = make_poly_bump(0.1, 0.8, 10)
    base = decompose_signed(f, 3)[0]
    calls = []
    derivs = type(base).derivs
    monkeypatch.setattr(type(base), "derivs", lambda self, orders, x: (
        calls.append((self, tuple(orders), x)) or derivs(self, orders, x)))
    bounds._root_constants(base, 3)
    assert all(obj is base for obj, _, _ in calls)
    grids = [_grid(base, grid)[0] for grid in (128, _SUP_GRID)]
    per_root = [((0,), 1), ((0, 1, 2, 3, 4), 0)]
    assert sorted((orders, [x is g for g in grids].index(True))
                  for _, orders, x in calls) == sorted(per_root * bounds.j_of(3))


def test_the_first_seminorm_evaluates_the_lower_orders(monkeypatch):
    # a miss evaluates every order 1..p+1 in one pass, so the lower
    # seminorms of the function read no pass of their own
    f = make_poly_bump(0.0, 1.0, 20)
    calls = []
    derivs = type(f).derivs
    monkeypatch.setattr(type(f), "derivs", lambda self, orders, x: (
        calls.append(tuple(orders)) or derivs(self, orders, x)))
    sf._norm_sum(f, 3, sf._PANELS)
    assert calls == [(1, 2, 3, 4)]
    gp_seminorm(f, 2)
    gp_seminorm(f, 1)
    assert calls == [(1, 2, 3, 4)]
    assert gp_seminorm(f, 0) > 0.0
    # the whole-line weight has no G_1, so its pass starts at order 2
    sf._norm_sum(weight_u.__wrapped__(), 3, sf._PANELS)
    assert calls == [(1, 2, 3, 4), (0,), (2, 3, 4)]


def test_a_root_has_no_more_derivatives_than_its_base():
    base = make_poly_bump(0.0, 1.0, 4).add(make_poly_bump(0.2, 0.5, 8))  # C^3
    root = fractional_root(base, 1, max_order=4)
    assert root.max_order == 3
    with pytest.raises(DerivativeOrderError, match="G_3 needs derivatives up "
                       "to order 4; have 3"):
        gp_seminorm(root, 3)


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
        jn = bounds.j_of(n)
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
        assert sf._norm_sum(f, 2, panels) == sf._norm_sum(
            make_poly_bump(0.0, 1.0, 20), 2, panels)
