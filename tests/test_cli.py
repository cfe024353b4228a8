import json

import numpy as np
import pytest

from tracetaylor import bounds, cli

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


def test_exit_code_on_config_error(tmp_path):
    bad = write_cfg(tmp_path, "epsilons =\n", "bad.txt")
    assert cli.main(["sweep", "--config", bad]) == 2
    assert cli.main(["sweep", "--config", str(tmp_path / "missing.txt")]) == 2
    assert cli.main(["sweep", "--config", write_cfg(tmp_path), "--jobs", "0"]) == 2


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


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "pa", tmp_path / "pb"
    assert cli.main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(b), "--jobs", "2"]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


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
    code = cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "mut")])
    assert code == 1


def test_shift_command(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "shift"
    assert cli.main(["shift", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "shift_d4_t0.json").read_text())
    assert set(data) == {"breakpoints", "xi_values", "eta_pieces", "atoms"}


def test_selftest_passes():
    assert cli.main(["selftest"]) == 0


def test_zero_scale_trials(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG + "perturbation_scale = 0.0\n", "z.txt")
    out = tmp_path / "zero"
    assert cli.main(["expand", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "expand.csv").read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        # tau columns and remainder are exactly zero for V = 0
        assert all(float(c) == 0.0 for c in cells[6:10])
