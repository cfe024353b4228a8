import gc
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from oracles import counting_trace_sup
from tracetaylor import bounds
from tracetaylor.bounds import (BoundCertificate, Check, a_sequence,
                                compact_trace_norm_bound, hs_constant, j_of, remainder_bound_compact,
                                remainder_bound_hs)
from tracetaylor.operator_core import (HermitianOperator, Interval, decompose,
                                       operator_norm, random_hermitian,
                                       random_hermitian_in_window)
from tracetaylor.scalar_functions import (SmoothCompactFunction,
                                          decompose_signed, make_poly_bump)
from tracetaylor.taylor import remainder_trace

A_TABLE = [2, 4, 6, 10, 14, 20, 26, 36, 46, 60, 74, 94, 114, 140]


def rand_instance(seed, dim, vnorm=0.2):
    rng = np.random.default_rng(seed)
    H = random_hermitian_in_window(rng, dim, -0.7, 0.7)
    V = random_hermitian(rng, dim, norm=vnorm)
    return H, V


def test_check_passes_only_finite_values_on_the_right_side():
    for op, inside, outside in (("<=", 0.5, 2.0), (">=", 2.0, 0.5)):
        assert Check("r", inside, op, 1.0).passed
        assert Check("r", 1.0, op, 1.0).passed
        assert not Check("r", outside, op, 1.0).passed
        for v in (float("nan"), float("inf"), -float("inf")):
            assert not Check("r", v, op, 1.0).passed
    with pytest.raises(KeyError):
        Check("r", 0.5, "<", 1.0).passed
    # the FAIL text puts the value on the wrong side of the threshold
    assert str(Check("slope", 1.840372, ">=", 1.85)) == "slope 1.84037 < 1.85"
    assert (str(Check("second_order_residual", float("nan"), "<=", 1e-8))
            == "second_order_residual nan > 1e-08")
    assert str(Check("a_k mismatches", 3, "<=", 0)) == "a_k mismatches 3 > 0"


def test_certificate_passes_through_its_check():
    # lhs <= rhs up to a relative 1e-9, and a NaN side fails
    assert BoundCertificate("k", 1.0 + 1.5e-9, 1.0).passed
    assert not BoundCertificate("k", 1.0 + 2.5e-9, 1.0).passed
    assert not BoundCertificate("k", float("nan"), 1.0).passed
    assert not BoundCertificate("k", 0.0, float("nan")).passed
    assert str(BoundCertificate("k", 2.0, 1.0).check("remainder_hs")) == \
        "remainder_hs 2 > 1"


def test_constant_table():
    assert [a_sequence(k) for k in range(1, 15)] == A_TABLE
    assert a_sequence(1) == 2
    assert a_sequence(4) == 10
    assert a_sequence(7) == 26
    assert a_sequence(14) == 140
    with pytest.raises(ValueError):
        a_sequence(0)


def test_dyadic_depth():
    assert j_of(1) == 1
    assert j_of(2) == 1 + j_of(1)
    assert j_of(8) == 4
    assert [j_of(n) for n in range(1, 9)] == [1, 2, 2, 3, 3, 3, 3, 4]
    with pytest.raises(ValueError):
        j_of(0)


def test_compact_trace_norm_bound():
    f = make_poly_bump(0.0, 1.0, 20)
    H, V = rand_instance(0, 5)
    D = decompose(H)
    cert = compact_trace_norm_bound(f, D, np.zeros((5, 5)), 0.0, 1)
    assert cert.passed and cert.lhs == 0.0
    for seed in range(5):
        H, V = rand_instance(seed, 5)
        D = decompose(H)
        for n in (1, 2, 3):
            assert compact_trace_norm_bound(f, D, V, operator_norm(V), n).passed


def test_compact_bound_disjoint_spectrum():
    # all eigenvalues outside supp f: counting trace 0 forces lhs 0
    f = make_poly_bump(0.0, 1.0, 20)
    rng = np.random.default_rng(42)
    H = random_hermitian_in_window(rng, 4, 2.0, 3.0)
    V = random_hermitian(rng, 4, norm=0.1)
    D = decompose(H)
    cert = compact_trace_norm_bound(f, D, V, operator_norm(V), 1)
    assert cert.ingredients["counting_trace"] == 0
    assert cert.lhs < 1e-12 and cert.passed


def test_remainder_bound_compact():
    f = make_poly_bump(0.0, 1.0, 20)
    H, V = rand_instance(1, 4)
    Z = np.zeros((4, 4))
    assert remainder_bound_compact(f, decompose(H), 0.0, 1,
                                   remainder_trace(f, H, Z, 1)).passed
    lam, v = 0.2, 0.1
    H1 = HermitianOperator(np.array([[lam]], dtype=complex))
    V1 = np.array([[v]])
    assert remainder_bound_compact(f, decompose(H1.mat), v, 2,
                                   remainder_trace(f, H1, V1, 2)).passed
    for seed in range(5):
        H, V = rand_instance(seed + 10, 5)
        for n in (1, 2, 3):
            cert = remainder_bound_compact(f, decompose(H), operator_norm(V), n,
                                           remainder_trace(f, H, V, n))
            assert cert.passed
            # the certified counting factor dominates the grid supremum over
            # t in [0, 1] of the eigenvalue count of the padded support
            supp = Interval(*decompose_signed(f, n)[0].support)
            assert (cert.ingredients["counting_trace_certified"]
                    >= counting_trace_sup(H, V, supp) - 1e-9)


def test_hs_constant_structure():
    f = make_poly_bump(0.0, 1.0, 20)
    c1 = hs_constant(f, 1)
    c2 = hs_constant(f, 2)
    assert c1 > 0 and c2 > 0 and c1 != c2
    # first-term homogeneity: scaling f scales the n=1 constant at most
    # linearly once the sup/seminorm pieces are accounted for
    c1s = hs_constant(f.scale(2.0), 1)
    assert c1s == pytest.approx(2.0 * c1, rel=1e-9)
    # regression anchor for the standard bump (first-run pin)
    assert c1 == pytest.approx(30.94104028809457, rel=1e-6)


def test_remainder_bound_hs():
    f = make_poly_bump(0.0, 1.0, 20)
    H, V = rand_instance(2, 4)
    Z = np.zeros((4, 4))
    assert remainder_bound_hs(f, decompose(H), 0.0, 1, remainder_trace(f, H, Z, 1)).passed
    H1 = HermitianOperator(np.array([[0.3]], dtype=complex))
    V1 = np.array([[0.05]])
    assert remainder_bound_hs(f, decompose(H1.mat), 0.05, 1,
                              remainder_trace(f, H1, V1, 1)).passed
    for seed in range(5):
        H, V = rand_instance(seed + 20, 5)
        for n in (1, 2, 3):
            assert remainder_bound_hs(f, decompose(H), operator_norm(V), n,
                                      remainder_trace(f, H, V, n)).passed


def test_certificate_serialization():
    f = make_poly_bump(0.0, 1.0, 20)
    H, V = rand_instance(3, 4)
    cert = remainder_bound_hs(f, decompose(H), operator_norm(V), 1,
                              remainder_trace(f, H, V, 1))
    d = cert.to_json_dict()
    assert set(d) == {"kind", "lhs", "rhs", "passed", "ingredients"}
    assert d["passed"] is True


def test_constants_are_computed_once_per_function(monkeypatch):
    f = make_poly_bump(0.0, 1.0, 20)
    H, V = rand_instance(4, 4)
    D = decompose(H)
    calls = []
    seminorm = bounds.gp_seminorm
    monkeypatch.setattr(bounds, "gp_seminorm",
                        lambda *a, **k: calls.append(a) or seminorm(*a, **k))

    rem = remainder_trace(f, H, V, 2)

    def certify():
        return [remainder_bound_hs(f, D, operator_norm(V), 2, rem).rhs,
                remainder_bound_compact(f, D, operator_norm(V), 2, rem).rhs,
                compact_trace_norm_bound(f, D, V, operator_norm(V), 2).rhs]

    first = certify()
    n_first = len(calls)
    assert n_first > 0
    assert certify() == first
    assert len(calls) == n_first


def test_constants_do_not_keep_the_function_alive():
    f = make_poly_bump(0.0, 1.0, 20)
    H, V = rand_instance(5, 4)
    assert remainder_bound_compact(f, decompose(H), operator_norm(V), 2,
                                   remainder_trace(f, H, V, 2)).passed
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def _all_constants(f, orders):
    return [(n, bounds._root_constants(f, n), bounds._signed_root_constants(f, n),
             hs_constant(f, n)) for n in orders]


def test_constants_evaluate_each_function_order_and_grid_once(monkeypatch):
    # the dyadic roots and u-weighted products are memoized on f, and every
    # function keeps its L2 norms per (order, grid) and its sup, so building
    # the constants of orders 1-3 evaluates no derivative twice at the same
    # points, in any pass
    calls = Counter()
    seen = []
    derivs = SmoothCompactFunction.derivs

    def counted(self, orders, x):
        seen.append(self)  # keeps ids unique while counting
        for j in orders:
            calls[id(self), j, np.asarray(x, float).tobytes()] += 1
        return derivs(self, orders, x)

    monkeypatch.setattr(SmoothCompactFunction, "derivs", counted)
    _all_constants(make_poly_bump(0.0, 1.0, 20), (1, 2, 3))
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("m", [20, 10])
def test_memoized_constants_equal_those_of_a_fresh_function(m):
    shared = make_poly_bump(0.0, 1.0, m)
    orders = (3, 1, 2)
    memoized = _all_constants(shared, orders)
    assert _all_constants(shared, orders) == memoized
    for got in memoized:
        assert _all_constants(make_poly_bump(0.0, 1.0, m), got[:1]) == [got]
