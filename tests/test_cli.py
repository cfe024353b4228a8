import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tracetaylor import bounds, cli, divided_diff, moi, operator_core, shift, taylor
from tracetaylor.scalar_functions import SmoothCompactFunction

SMALL_CFG = """
seed = 11
dims = 4
orders = 1,2
trials = 2
epsilons = 0.125, 0.0625, 0.03125, 0.015625, 0.0078125
"""


def write_cfg(tmp_path, text=SMALL_CFG, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_config_parsing(tmp_path):
    cfg = cli.parse_config_file(write_cfg(tmp_path))
    assert cfg.seed == 11
    assert cfg.dims == (4,)
    assert cfg.orders == (1, 2)
    assert cfg.trials == 2
    assert len(cfg.epsilons) == 5


def test_config_errors(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.parse_config_file(write_cfg(tmp_path, "epsilons =\n", "bad1.txt"))
    with pytest.raises(cli.ConfigError):
        cli.parse_config_file(write_cfg(tmp_path, "nonsense = 3\n", "bad2.txt"))
    with pytest.raises(cli.ConfigError):
        cli.parse_config_file(write_cfg(tmp_path, "trials = 0\n", "bad3.txt"))


def test_every_config_key_parses_by_its_default_type(tmp_path):
    cfg = cli.parse_config_file(write_cfg(tmp_path, """
seed = 7
dims = 4, 8
orders = 1,2,3
trials = 3
epsilons = 0.5, 0.25
bump_center = 1
bump_radius = 0.9
bump_m = 12
perturbation_scale = 5e-2
out_dir = some/dir  # comment
jobs = 2
"""))
    expected = dict(seed=7, dims=(4, 8), orders=(1, 2, 3), trials=3,
                    epsilons=(0.5, 0.25), bump_center=1.0, bump_radius=0.9,
                    bump_m=12, perturbation_scale=0.05, out_dir="some/dir",
                    jobs=2)
    for key, value in expected.items():
        got = getattr(cfg, key)
        assert got == value and type(got) is type(value)
        if isinstance(value, tuple):
            assert all(type(g) is type(v) for g, v in zip(got, value))
    # the gate thresholds are constants, not keys
    for bad in ("trials = 2.5", "dims = 4, x", "bump_center = one",
                "function = 3", "validate = 1", "noise_floor = 1e-12",
                "slope_margin = 0.2"):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file(write_cfg(tmp_path, bad + "\n", "bad.txt"))


def test_exit_code_on_config_error(tmp_path):
    bad = write_cfg(tmp_path, "epsilons =\n", "bad.txt")
    assert cli.main(["sweep", "--config", bad]) == 2
    assert cli.main(["sweep", "--config", str(tmp_path / "missing.txt")]) == 2
    assert cli.main(["sweep", "--config", write_cfg(tmp_path), "--jobs", "0"]) == 2


@pytest.mark.parametrize("command", ["expand", "certify", "shift", "sweep", "selftest"])
@pytest.mark.parametrize("bad", [
    "orders = 0",
    "bump_radius = 0",
    "bump_radius = -1",
    "bump_m = 4\norders = 1,2,3,4",
    "bump_m = 1",
    "bump_m = 0",
    "jobs = 0",
    "perturbation_scale = nan",
    "perturbation_scale = inf",
    "bump_center = nan",
    "bump_radius = inf",
    "seed = -5",
    # a repeat adds no abscissa: sweep fitted its slopes through one epsilon
    "epsilons = 0.5, 0.5, 0.5",
    # float64 cannot resolve the spectrum window c +- 0.8 r
    "bump_center = 1e16",
    "bump_center = 1e20",
    "bump_center = 1e40",
    "bump_center = 1e60",
    "bump_center = 1e100",
    "bump_center = 1e150",
    "bump_center = 1e300",
    # the powers of ||V|| or of 1 / r that the bounds form overflow
    "perturbation_scale = 1e160",
    "perturbation_scale = 1e300",
    "bump_radius = 1e-300",
])
def test_configs_the_commands_cannot_run_exit_2(tmp_path, capsys, command, bad):
    cfg = write_cfg(tmp_path, SMALL_CFG + bad + "\n", "bad.txt")
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize("command", ["expand", "certify", "shift", "sweep"])
@pytest.mark.parametrize("edge", [
    "perturbation_scale = 4.9e29",
    "bump_radius = 1.01e-30",
    "bump_center = 1e8",
    "perturbation_scale = 2.7e18\norders = 1,2,3",
    "bump_radius = 1.8e-19\norders = 1,2,3",
])
def test_configs_just_inside_the_range_run(tmp_path, command, edge):
    # the range rule is not looser than what the commands can compute: each
    # of these runs to a verdict, with no traceback and no config error
    cfg = write_cfg(tmp_path, SMALL_CFG + edge + "\n", "edge.txt")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 1)


def test_shipped_configs_validate():
    cli.ExperimentConfig().validate()
    root = Path(__file__).resolve().parents[1]
    assert max(cli.parse_config_file(root / "bench" / "expand_wide.cfg").orders) == 4
    shipped = sorted((root / "configs").glob("*.cfg"))
    assert shipped
    for path in shipped:
        cli.parse_config_file(path)


@pytest.mark.parametrize("command", ["expand", "certify", "shift", "sweep", "selftest"])
def test_negative_seed_option_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_cfg(tmp_path), "--seed", "-1",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == ["config error: seed must be >= 0"]


@pytest.mark.parametrize("command", ["expand", "certify", "shift", "sweep"])
@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
def test_out_dir_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch,
                                                    command, under):
    # found before any trial runs, not as a traceback after all of them
    monkeypatch.setattr(cli, "_map", lambda *args: pytest.fail("a trial ran"))
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / under if under else blocker
    assert cli.main([command, "--config", write_cfg(tmp_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and blocker.read_text() == "kept\n"
    assert captured.err.splitlines() == [
        f"config error: out_dir {out}: {blocker} is not a directory"]


def test_highest_order_the_bump_allows_is_valid(tmp_path):
    cfg = cli.parse_config_file(write_cfg(tmp_path, "bump_m = 4\norders = 1,2,3\n"))
    assert max(cfg.orders) == cfg.function().max_order == 3


def test_shift_outside_its_window_exits_2(tmp_path, capsys):
    # supp f = [-10, 10] is wider than the window around spectra in [-8, 8]
    cfg = write_cfg(tmp_path, SMALL_CFG + "bump_radius = 10\n", "wide.txt")
    assert cli.main(["shift", "--config", cfg, "--out", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: supp f [-10, 10] must lie inside the window")


def test_expand_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["expand", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["expand", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "expand.csv").read_bytes() == (b / "expand.csv").read_bytes()


def test_sweep_determinism_and_columns(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "sa", tmp_path / "sb"
    assert cli.main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    lines = (a / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("seed,dim,n,trial,epsilon,remainder_abs,"
                       "bound_compact,bound_hs,slope")
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


@pytest.mark.parametrize("command", ["expand", "certify", "shift", "sweep"])
def test_parallel_matches_serial(tmp_path, command):
    # every report file is the same under one worker and under two
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "pa", tmp_path / "pb"
    assert cli.main([command, "--config", cfg, "--out", str(a)]) == 0
    assert cli.main([command, "--config", cfg, "--out", str(b), "--jobs", "2"]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names and names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "oa", tmp_path / "ob"
    assert cli.main(["expand", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["expand", "--config", cfg, "--out", str(b), "--seed", "99"]) == 0
    assert (a / "expand.csv").read_bytes() != (b / "expand.csv").read_bytes()


def test_certify_writes_passing_certificates(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "cert"
    assert cli.main(["certify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "certificates.json").read_text())
    assert payload and all(c["passed"] for c in payload)


def test_certify_flags_corrupted_constant(tmp_path, monkeypatch, capsys):
    # mutation check: zeroing the constant sequence must flag failures
    cfg = write_cfg(tmp_path)
    monkeypatch.setattr(bounds, "a_sequence", lambda n: 0)
    out = tmp_path / "mut"
    code = cli.main(["certify", "--config", cfg, "--out", str(out)])
    assert code == 1
    # each failing certificate is named on stderr with its instance, check,
    # lhs and the rhs it was compared against; stdout keeps the one summary line
    captured = capsys.readouterr()
    failed = [c for c in json.loads((out / "certificates.json").read_text())
              if not c["passed"]]
    lines = captured.err.splitlines()
    assert failed and len(lines) == len(failed)
    for c, line in zip(failed, lines):
        threshold = c["rhs"] + 1e-9 * (1.0 + c["rhs"])
        assert line == (f"certify: FAIL dim {c['dim']}, n {c['n']}, "
                        f"trial {c['trial']}: {c['check']} {c['lhs']:.6g} > "
                        f"{threshold:.6g}")
    assert captured.out.splitlines()[-1].endswith("certificates PASS (FAILURES)")


def test_sweep_names_failing_fits(tmp_path, monkeypatch, capsys):
    # a negative margin puts every threshold above n, so every fit fails
    out_ok, out_bad = tmp_path / "ok", tmp_path / "bad"
    cfg = write_cfg(tmp_path)
    assert cli.main(["sweep", "--config", cfg, "--out", str(out_ok)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "SLOPE_MARGIN", -10)
    assert cli.main(["sweep", "--config", cfg, "--out", str(out_bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "sweep: 4 fits, slopes FAIL\n"
    fits = {}
    for row in (out_bad / "sweep.csv").read_text().splitlines()[1:]:
        _, dim, n, trial, *_, slope = row.split(",")
        fits[(int(dim), int(n), int(trial))] = float(slope)
    assert captured.err.splitlines() == [
        f"sweep: FAIL dim {d}, n {n}, trial {t}: slope {s:.6g} < {n + 10:.6g}"
        for (d, n, t), s in fits.items()]
    # the report does not depend on the margin
    assert (out_ok / "sweep.csv").read_bytes() == (out_bad / "sweep.csv").read_bytes()


def test_expand_names_failing_rows(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path)
    out_ok, out_bad = tmp_path / "ok", tmp_path / "bad"
    assert cli.main(["expand", "--config", cfg, "--out", str(out_ok)]) == 0
    assert capsys.readouterr().err == ""
    # a wrong tau_1 breaks the two-route identity of every order-2 row
    expansion_terms = taylor.expansion_terms

    def wrong_tau_1(f, D0, V, n):
        taus = expansion_terms(f, D0, V, n)
        return [t + 1e-6 * (p == 0) for p, t in enumerate(taus)]

    monkeypatch.setattr(taylor, "expansion_terms", wrong_tau_1)
    assert cli.main(["expand", "--config", cfg, "--out", str(out_bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "expand: 4 trials, identities FAIL\n"
    expected = []
    for row in (out_bad / "expand.csv").read_text().splitlines()[1:]:
        _, dim, n, trial, _, pert, *_, ident, slack = row.split(",")
        ident, slack = float(ident), float(slack)
        where = f"expand: FAIL dim {dim}, n {n}, trial {trial}"
        tol = 1e-10 * (1.0 + abs(float(pert)))
        if ident > tol:
            expected.append(f"{where}: identity_residual {ident:.6g} > {tol:.6g}")
        if not slack >= -1e-10:
            expected.append(f"{where}: trace_norm_slack {slack:.6g} < -1e-10")
    assert len(expected) >= 2 and captured.err.splitlines() == expected
    assert all(", n 2, " in line for line in expected)


def test_shift_names_failing_trials(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path)
    assert cli.main(["shift", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    assert capsys.readouterr().err == ""
    # an off Tr f(H0 + V) makes both remainders off, which breaks both trace
    # formulas of every trial
    traces = taylor._traces

    def off_perturbed_trace(f, Ds):
        *base, pert = traces(f, Ds)
        return [*base, pert + 1e-6]

    monkeypatch.setattr(taylor, "_traces", off_perturbed_trace)
    out = tmp_path / "bad"
    assert cli.main(["shift", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "shift: 2 trials FAIL\n"
    rows = [row.split(",") for row in
            (out / "shift.csv").read_text().splitlines()[1:]]
    assert captured.err.splitlines() == [
        line for _, dim, trial, r1, r2, *_ in rows for line in (
            f"shift: FAIL dim {dim}, trial {trial}: "
            f"first_order_residual {float(r1):.6g} > 1e-10",
            f"shift: FAIL dim {dim}, trial {trial}: "
            f"second_order_residual {float(r2):.6g} > 1e-08")]


def _nan(*args):
    return float("nan")


def _nan_traces(f, Ds):
    return [float("nan")] * len(Ds)


# command: (owner and name of the value made NaN, its NaN-making stand-in,
# the FAIL text it causes)
NAN_GATES = {
    "shift": (taylor, "_traces", _nan_traces,
              "(first|second)_order_residual nan > "),
    "expand": (taylor.ExpansionReport, "identity_residual", _nan,
               "identity_residual nan > "),
    "certify": (taylor, "_remainder_trace", _nan, "remainder_(compact|hs) nan > "),
    "sweep": (taylor, "scaling_exponent", _nan, "slope nan < "),
}


@pytest.mark.parametrize("command", list(NAN_GATES))
def test_nan_residual_fails_its_gate(tmp_path, monkeypatch, capsys, command):
    # a NaN compares false both ways: each gate must name it as a failure
    owner, name, stand_in, text = NAN_GATES[command]
    monkeypatch.setattr(owner, name, stand_in)
    cfg = write_cfg(tmp_path)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "nan")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err and all(re.fullmatch(rf"{command}: FAIL dim [^:]*: {text}\S+", line)
                       for line in err)


def test_bounds_take_the_remainder_they_certify(monkeypatch):
    # the trials compute each remainder once and hand it to the bounds
    calls = []
    remainder_trace = taylor._remainder_trace

    def counted(*args):
        calls.append(args)
        return remainder_trace(*args)

    monkeypatch.setattr(taylor, "_remainder_trace", counted)
    cfg = cli.ExperimentConfig()
    cli._sweep_trial((cfg, 4, 2, 0))
    assert len(calls) == 0
    cli._certify_trial((cfg, 4, 2, 0))
    assert len(calls) == 1


def test_trials_solve_each_matrix_once(monkeypatch):
    # H0 and H0 + V are decomposed once each, by the trial, at every order
    calls = []
    decompose = operator_core.decompose

    def counted(H):
        calls.append(H)
        return decompose(H)

    for mod in (operator_core, bounds, cli, shift, taylor):
        monkeypatch.setattr(mod, "decompose", counted)
    cfg = cli.ExperimentConfig()
    cli._shift_trial((cfg, 8, 0))
    assert len(calls) == 2
    for order in (1, 2, 3):
        calls.clear()
        cli._certify_trial((cfg, 4, order, 0))
        assert len(calls) == 2
        # sweep: H0 once for the remainders and the bounds, and H0 + eps V
        # once per epsilon
        calls.clear()
        cli._sweep_trial((cfg, 4, order, 0))
        assert len(calls) == 1 + len(cfg.epsilons)
    for order in (3, 4):
        calls.clear()
        cli._expand_trial((cfg, 4, order, 0))
        assert len(calls) == 2


def test_trials_take_the_norm_of_v_once(monkeypatch):
    # one SVD normalizes V in make_instance and one gives ||V|| to the
    # bounds and the window
    calls = []
    operator_norm = operator_core.operator_norm

    def counted(A):
        calls.append(A)
        return operator_norm(A)

    for mod in (operator_core, bounds, cli, moi, shift, taylor):
        if hasattr(mod, "operator_norm"):
            monkeypatch.setattr(mod, "operator_norm", counted)
    cfg = cli.ExperimentConfig()
    cli._shift_trial((cfg, 8, 0))
    assert len(calls) == 2
    for order in (1, 2, 3):
        calls.clear()
        cli._certify_trial((cfg, 4, order, 0))
        assert len(calls) == 2
        calls.clear()
        cli._sweep_trial((cfg, 4, order, 0))
        assert len(calls) == 2


def test_commands_build_no_hermitian_operator(monkeypatch, capsys):
    # inside the library a matrix is an ndarray: a trial of every command,
    # and selftest, must run with the operator class unusable
    def refuse(self):
        raise AssertionError("HermitianOperator constructed")

    monkeypatch.setattr(operator_core.HermitianOperator, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        operator_core.HermitianOperator(np.eye(2))
    cfg = cli.ExperimentConfig()
    cli._expand_trial((cfg, 4, 3, 0))
    cli._sweep_trial((cfg, 4, 2, 0))
    cli._certify_trial((cfg, 4, 2, 0))
    cli._shift_trial((cfg, 4, 0))
    assert cli.cmd_selftest(cfg) == 0


def test_instances_are_exactly_hermitian_ndarrays():
    cfg = cli.ExperimentConfig()
    for dim, order, trial in ((4, 1, 0), (8, 3, 9)):
        for A in cli.make_instance(cfg, dim, order, trial):
            assert type(A) is np.ndarray and A.shape == (dim, dim)
            assert np.array_equal(A, A.conj().T)


def _passes_at(trial, args, perturbed=False):
    """Every ``derivs`` pass, by any function object, that ``trial`` makes at
    a point of one spectrum (its index values), as (object, orders), and for
    each point the number of passes that evaluate it: the spectrum of H0, or
    of H0 + V when ``perturbed``.  ``value`` and ``deriv`` are views of
    ``derivs``, so every evaluation is one pass."""
    cfg, dim, order = args[0], args[1], 2 if trial is cli._shift_trial else args[2]
    H0, V = cli.make_instance(cfg, dim, order, args[-1])
    lam = operator_core.decompose(H0 + V if perturbed else H0).index_values()
    hits, passes = np.zeros(lam.size, dtype=int), []
    derivs = type(cfg.function()).derivs

    def counted(self, orders, x):
        at = np.isin(lam, x)
        if at.any():
            hits[at] += 1
            passes.append((self, tuple(orders)))
        return derivs(self, orders, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(cfg.function()), "derivs", counted)
        trial(args)
    return passes, hits.tolist()


def test_sweep_trial_evaluates_f_once(monkeypatch):
    # the terms fill the table of f..f^(n-1) at H0 in one pass, and Tr f(H0)
    # is read from it; one value pass covers the spectra of every H0 + eps V
    cfg = cli.ExperimentConfig()
    f = cfg.function()
    sizes = []
    value = type(f).value
    monkeypatch.setattr(type(f), "value", lambda self, x: (
        self is f and sizes.append(np.size(x))) or value(self, x))
    for order in (1, 2, 3):
        sizes.clear()
        passes, hits = _passes_at(cli._sweep_trial, (cfg, 4, order, 0))
        assert passes == [(f, tuple(range(order)))] and hits == [1] * 4
        assert sizes == [4 * len(cfg.epsilons)]


def test_certify_trial_evaluates_f_once_at_the_spectrum_of_h0():
    # the expansion terms, Tr f(H0), the operator integral of the trace-norm
    # bound and its order-n symbol all read one table of f and its first n
    # derivatives at the index values of H0, filled in one pass
    cfg = cli.ExperimentConfig()
    for order in (1, 2, 3):
        passes, hits = _passes_at(cli._certify_trial, (cfg, 4, order, 0))
        assert passes == [(cfg.function(), tuple(range(order + 1)))]
        assert hits == [1] * 4


EXPAND_AND_SHIFT_TRIALS = pytest.mark.parametrize("trial, args, order", [
    (cli._expand_trial, (4, 3, 0), 3), (cli._expand_trial, (8, 1, 2), 1),
    (cli._shift_trial, (4, 0), 2), (cli._shift_trial, (8, 1), 2)],
    ids=["expand-dim4-n3", "expand-dim8-n1", "shift-dim4", "shift-dim8"])


@EXPAND_AND_SHIFT_TRIALS
def test_expand_and_shift_trials_evaluate_f_once_at_the_spectrum_of_h0(
        trial, args, order):
    # the terms fill the table of f..f^(n-1) at H0 in one pass; in shift,
    # both trace-formula checks read H0's values from this table
    cfg = cli.ExperimentConfig()
    passes, hits = _passes_at(trial, (cfg, *args))
    assert passes == [(cfg.function(), tuple(range(order)))]
    assert hits == [1] * args[0]


@EXPAND_AND_SHIFT_TRIALS
def test_expand_and_shift_trials_evaluate_f_once_at_the_spectrum_of_h0_plus_v(
        trial, args, order):
    # Tr f(H0 + V) and, in expand, the operator remainder's f(H0 + V) read
    # one value pass; in shift, one pass of orders 0 and 1 serves the trace
    # and both trace-formula checks
    cfg = cli.ExperimentConfig()
    passes, hits = _passes_at(trial, (cfg, *args), perturbed=True)
    orders = (0, 1) if trial is cli._shift_trial else (0,)
    assert passes == [(cfg.function(), orders)]
    assert hits == [1] * args[0]


def test_runs_import_neither_multiprocessing_nor_numpy_ma(tmp_path):
    # a --jobs 1 run needs no process pool, and the sorted unions that
    # stand in for np.unique keep numpy.ma unloaded
    cfg = write_cfg(tmp_path, "dims = 3\norders = 1,2\ntrials = 1\n")
    code = (
        "import json, sys\n"
        "from tracetaylor import cli\n"
        f"codes = [cli.main([c, '--config', {cfg!r}, '--out', {str(tmp_path)!r}])\n"
        "         for c in ('certify', 'sweep', 'shift', 'selftest')]\n"
        "print(json.dumps([codes, [m for m in ('multiprocessing', 'numpy.ma')\n"
        "                          if m in sys.modules]]))\n")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert all(c in (0, 1) for c in codes) and loaded == []


@pytest.mark.parametrize("jobs, n_work, cores, size", [
    (5000, 60, 2, 2), (5000, 3, 8, 3), (4, 60, 8, 4), (5000, 60, None, None)])
def test_map_starts_no_more_workers_than_work_or_cores(monkeypatch, jobs,
                                                       n_work, cores, size):
    # the stand-in records its size and maps in this process, so no worker
    # starts; size None means that _map ran without a pool
    import multiprocessing
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return [fn(a) for a in work]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    work = list(range(-n_work, 0))
    assert cli._map(cli.ExperimentConfig(jobs=jobs), abs, work) == [
        abs(a) for a in work]
    assert sizes == ([] if size is None else [size])


@pytest.mark.parametrize("command, m, config, reason", [
    ("certify", 4, "orders = 1,2,3\ndims = 4\ntrials = 2\n",
     "G_1 needs derivatives up to order 2; have 1"),
    ("sweep", 4, "orders = 1,2,3\ndims = 4\ntrials = 2\n",
     "G_3 needs derivatives up to order 4; have 3"),
    ("shift", 3, "orders = 1,2\ndims = 4\ntrials = 2\n",
     "the order-2 check needs a C^3 function; f is C^2"),
    ("certify", 2, "orders = 1\ndims = 4\ntrials = 1\n",
     "a bump of exponent 1 has no derivative"),
    ("shift", 2, "orders = 1\ndims = 4\ntrials = 1\n",
     "the order-2 check needs a C^3 function; f is C^1"),
], ids=["certify", "sweep", "shift", "certify-bump_m_2", "shift-bump_m_2"])
def test_too_few_derivatives_for_the_command_exits_2(tmp_path, capsys, command,
                                                     m, config, reason):
    # validate accepts these (every order is at most bump_m - 1), but the
    # dyadic roots (certify, sweep) or the second-order check (shift) need
    # more derivatives than the bump has: at bump_m = 4 certify's square
    # root of the bump is C^1, and sweep's roots of order 3 have no more
    # derivatives than the positive half of the signed split, which is C^3;
    # at bump_m = 2 the bump is C^1, short of the C^3 that shift's order-2
    # check needs, and certify's square root of the bump has exponent 1 and
    # no derivative
    cfg = write_cfg(tmp_path, f"bump_m = {m}\n" + config, "smooth.txt")
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"config error: {command} needs more derivatives "
                            f"than bump_m = {m} gives ({reason})\n")


@pytest.mark.parametrize("command", ["expand", "certify", "shift"])
def test_bump_exponents_above_a_hundred_run(tmp_path, capsys, command):
    # numpy's series classes cap powers at 100; the bump's power has no cap
    cfg = write_cfg(tmp_path, SMALL_CFG + "bump_m = 101\n", "m101.txt")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_shift_command(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "shift"
    assert cli.main(["shift", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "shift_d4_t0.json").read_text())
    assert set(data) == {"breakpoints", "xi_values", "eta_pieces", "atoms"}


def test_selftest_passes(tmp_path):
    # selftest writes nothing, so it makes no output directory
    out = tmp_path / "new" / "out"
    assert cli.main(["selftest", "--out", str(out)]) == 0
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("module, name, check", [
    (divided_diff, "sqrt_split_residual", "sqrt_split_residual"),
    (moi, "moi_trace_identity_check", "trace_identity_residual"),
    (moi, "additivity_check", "algebra_residual"),
], ids=["sqrt_split", "trace_identity", "moi_algebra"])
def test_selftest_fails_on_nan_residual(monkeypatch, capsys, module, name, check):
    # max() over residuals may drop a NaN: the item must still fail
    monkeypatch.setattr(module, name, lambda *args: float("nan"))
    assert cli.main(["selftest"]) == 1
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[-1] == "selftest: FAIL"
    [item] = [line[len("  FAIL  "):] for line in out if line.startswith("  FAIL  ")]
    assert captured.err.splitlines() == [
        f"selftest: FAIL {item}: {check} nan > 1e-09"]


def test_selftest_fails_when_the_function_sum_drops_a_summand(monkeypatch, capsys):
    # the additivity item compares T over (f + g)^[p], built by
    # SmoothCompactFunction.add, against T over f^[p] plus T over g^[p]
    monkeypatch.setattr(SmoothCompactFunction, "add", lambda self, other: self)
    assert cli.main(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("  FAIL  ")] == [
        "  FAIL  operator-integral algebra residuals <= 1e-9"]


def test_zero_scale_trials(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG + "perturbation_scale = 0.0\n", "z.txt")
    out = tmp_path / "zero"
    assert cli.main(["expand", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "expand.csv").read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        # tau columns and remainder are exactly zero for V = 0
        assert all(float(c) == 0.0 for c in cells[6:10])
