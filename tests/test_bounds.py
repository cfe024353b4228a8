import gc
import time
import weakref

import numpy as np
import pytest

from tracetaylor import bounds
from tracetaylor.bounds import (a_sequence, compact_trace_norm_bound,
                                hs_constant, j_of, remainder_bound_compact,
                                remainder_bound_hs)
from tracetaylor.operator_core import (HermitianOperator, decompose,
                                       random_hermitian,
                                       random_hermitian_in_window)
from tracetaylor.scalar_functions import make_poly_bump

A_TABLE = [2, 4, 6, 10, 14, 20, 26, 36, 46, 60, 74, 94, 114, 140]


def rand_instance(seed, dim, vnorm=0.2):
    rng = np.random.default_rng(seed)
    H = random_hermitian_in_window(rng, dim, -0.7, 0.7)
    V = random_hermitian(rng, dim, norm=vnorm)
    return H, V.mat


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
    D = decompose(H.mat)
    cert = compact_trace_norm_bound(f, D, np.zeros((5, 5)), 1)
    assert cert.passed and cert.lhs == 0.0
    for seed in range(5):
        H, V = rand_instance(seed, 5)
        D = decompose(H.mat)
        for n in (1, 2, 3):
            assert compact_trace_norm_bound(f, D, V, n).passed


def test_compact_bound_disjoint_spectrum():
    # all eigenvalues outside supp f: counting trace 0 forces lhs 0
    f = make_poly_bump(0.0, 1.0, 20)
    rng = np.random.default_rng(42)
    H = random_hermitian_in_window(rng, 4, 2.0, 3.0)
    V = random_hermitian(rng, 4, norm=0.1).mat
    D = decompose(H.mat)
    cert = compact_trace_norm_bound(f, D, V, 1)
    assert cert.ingredients["counting_trace"] == 0
    assert cert.lhs < 1e-12 and cert.passed


def test_remainder_bound_compact():
    f = make_poly_bump(0.0, 1.0, 20)
    H, V = rand_instance(1, 4)
    assert remainder_bound_compact(f, H, np.zeros((4, 4)), 1).passed
    lam, v = 0.2, 0.1
    H1 = HermitianOperator(np.array([[lam]], dtype=complex))
    assert remainder_bound_compact(f, H1, np.array([[v]]), 2).passed
    for seed in range(5):
        H, V = rand_instance(seed + 10, 5)
        for n in (1, 2, 3):
            cert = remainder_bound_compact(f, H, V, n)
            assert cert.passed
            # the certified counting factor dominates the grid supremum
            assert (cert.ingredients["counting_trace_certified"]
                    >= cert.ingredients["counting_trace_grid"] - 1e-9)


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
    assert remainder_bound_hs(f, H, np.zeros((4, 4)), 1).passed
    H1 = HermitianOperator(np.array([[0.3]], dtype=complex))
    assert remainder_bound_hs(f, H1, np.array([[0.05]]), 1).passed
    for seed in range(5):
        H, V = rand_instance(seed + 20, 5)
        for n in (1, 2, 3):
            assert remainder_bound_hs(f, H, V, n).passed


def test_certificate_serialization():
    f = make_poly_bump(0.0, 1.0, 20)
    H, V = rand_instance(3, 4)
    cert = remainder_bound_hs(f, H, V, 1)
    d = cert.to_json_dict()
    assert set(d) == {"kind", "lhs", "rhs", "passed", "ingredients"}
    assert d["passed"] is True


def test_constants_are_computed_once_per_function(monkeypatch):
    f = make_poly_bump(0.0, 1.0, 20)
    H, V = rand_instance(4, 4)
    D = decompose(H.mat)
    calls = []
    seminorm = bounds.gp_seminorm
    monkeypatch.setattr(bounds, "gp_seminorm",
                        lambda *a, **k: calls.append(a) or seminorm(*a, **k))

    def certify():
        return [remainder_bound_hs(f, H, V, 2).rhs,
                remainder_bound_compact(f, H, V, 2).rhs,
                compact_trace_norm_bound(f, D, V, 2).rhs]

    first = certify()
    n_first = len(calls)
    assert n_first > 0
    assert certify() == first
    assert len(calls) == n_first


def test_constants_do_not_keep_the_function_alive():
    f = make_poly_bump(0.0, 1.0, 20)
    H, V = rand_instance(5, 4)
    assert remainder_bound_compact(f, H, V, 2).passed
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
