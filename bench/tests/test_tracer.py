import sys
import types

import numpy as np
import pytest

import tracer
from tracetaylor import bounds, cli, operator_core, shift, taylor


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_and_inclusive_arithmetic_on_nested_calls():
    clk = FakeClock()
    tr = tracer.Tracer(clock=clk)

    def inner():
        clk.now += 2.0

    def middle():
        clk.now += 1.0
        inner_t()
        clk.now += 1.0

    def outer():
        clk.now += 3.0
        middle_t()
        inner_t()
        clk.now += 0.5

    inner_t = tr.wrap(inner, "moi.inner", "moi")
    middle_t = tr.wrap(middle, "divided_diff.middle", "divided_diff")
    outer_t = tr.wrap(outer, "moi.outer", "moi")
    start_trial = tr.mark_trial(lambda: None)
    start_trial()
    outer_t()

    sp = tr.span_array()
    assert [tr.names[i] for i in sp["name"]] == [
        "moi.outer", "divided_diff.middle", "moi.inner", "moi.inner"]
    assert list(sp["parent"]) == [-1, 0, 1, 0]
    assert list(sp["trial"]) == [1, 1, 1, 1]
    s = tr.summary(wall_s=19.0)
    # outer: 3 + middle (1 + inner 2 + 1) + inner 2 + 0.5
    assert s["moi.outer.incl_s"] == 9.5
    assert s["moi.outer.self_s"] == 3.5
    assert s["divided_diff.middle.self_s"] == 2.0
    assert s["moi.inner.self_s"] == 4.0
    # both inner calls sit inside outer, so only outer counts for the layer
    assert s["moi.incl_s"] == 9.5
    assert s["moi.self_s"] == 7.5
    assert s["moi.calls"] == 3
    assert s["divided_diff.incl_s"] == 4.0
    assert s["divided_diff.self_s"] == 2.0
    assert s["moi.incl_share"] == 50.0
    assert s["trials"] == 1


def test_recursion_counts_only_the_outermost_entry():
    clk = FakeClock()
    tr = tracer.Tracer(clock=clk)

    def rec(k):
        clk.now += 1.0
        if k:
            rec_t(k - 1)

    rec_t = tr.wrap(rec, "bounds.rec", "bounds")
    rec_t(2)
    s = tr.summary(wall_s=3.0)
    assert s["bounds.rec.calls"] == 3
    assert s["bounds.rec.incl_s"] == 3.0
    assert s["bounds.incl_s"] == 3.0
    assert s["bounds.self_s"] == 3.0


def test_exceptions_are_counted_and_propagate():
    tr = tracer.Tracer()

    def boom():
        raise ValueError("x")

    boom_t = tr.wrap(boom, "shift.boom", "shift")
    with pytest.raises(ValueError):
        boom_t()
    s = tr.summary(wall_s=1.0)
    assert s["shift.errors"] == 1
    assert s["shift.boom.errors"] == 1
    assert s["shift.calls"] == 1


def test_patch_rebinds_every_copy_and_restores():
    orig = operator_core.decompose
    tr = tracer.Tracer()
    tr.patch()
    try:
        tr.check_patched()
        wrapped = operator_core.decompose
        assert wrapped is not orig and wrapped.__wrapped__ is orig
        for mod in (taylor, bounds, shift, cli):
            assert mod.decompose is wrapped
        # a copy that escaped the rebinding is caught
        stray = types.ModuleType("stray_copy")
        stray.decompose = orig
        sys.modules["stray_copy"] = stray
        try:
            with pytest.raises(tracer.PatchError, match="stray_copy.decompose"):
                tr.check_patched()
        finally:
            del sys.modules["stray_copy"]
    finally:
        tr.restore()
    assert operator_core.decompose is orig and taylor.decompose is orig


def test_traced_call_matches_untraced_and_nests_spans():
    cfg = cli.ExperimentConfig()
    f = cfg.function()
    H0, V = cli.make_instance(cfg, 4, 3, 0)
    expected = taylor.remainder_trace(f, H0, V, 3)
    tr = tracer.Tracer()
    tr.patch()
    try:
        got = taylor.remainder_trace(f, H0, V, 3)
    finally:
        tr.restore()
    assert got == expected
    s = tr.summary(wall_s=1.0)
    assert s["taylor.remainder_trace.calls"] == 1
    assert s["operator_core.decompose.calls"] == 2
    assert s["moi.trace_derivative_higher.calls"] == 1
    # the order-2 cyclic trace sum evaluates a 4^2 tensor
    assert s["moi.symbol_entries"] == 16
    assert s["scalar_functions.deriv.calls"] > 0
    sp = tr.span_array()
    root = np.flatnonzero(sp["parent"] == -1)
    assert [tr.names[sp["name"][i]] for i in root] == ["taylor.remainder_trace"]
