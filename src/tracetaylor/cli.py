"""Batch certification harness.

Subcommands:
  expand   - expansion terms, remainder, and the two-route remainder identity
  sweep    - remainder scaling over an epsilon grid with slope fits and bounds
  certify  - trace-norm / remainder / Hilbert-Schmidt bound certificates
  shift    - first/second-order trace-formula residuals and shift data
  selftest - scalar identities, operator-integral algebra, constant tables

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import bounds, divided_diff, moi, shift, taylor
from .operator_core import (decompose, random_hermitian,
                            random_hermitian_in_window)
from .scalar_functions import fourier_l1_norm, gp_seminorm, make_poly_bump


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    seed: int = 12345
    dims: tuple = (4, 8)
    orders: tuple = (1, 2, 3)
    trials: int = 10
    epsilons: tuple = tuple(2.0 ** -k for k in range(3, 11))
    bump_center: float = 0.0
    bump_radius: float = 1.0
    bump_m: int = 20
    perturbation_scale: float = 0.1
    noise_floor: float = 1e-13
    slope_margin: float = 0.15
    out_dir: str = "reports"
    jobs: int = 1

    def validate(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ConfigError("dims must be positive")
        if not self.orders or any(n < 1 for n in self.orders):
            raise ConfigError("orders must be positive")
        if not self.epsilons:
            raise ConfigError("epsilon grid must be nonempty")
        if any(not (0.0 < e <= 1.0) for e in self.epsilons):
            raise ConfigError("epsilons must lie in (0, 1]")
        if not self.bump_radius > 0.0:
            raise ConfigError("bump radius must be > 0")
        if self.bump_m < 2:
            raise ConfigError("bump exponent m must be >= 2")
        if max(self.orders) > self.bump_m - 1:
            raise ConfigError(f"orders must be <= bump_m - 1 = {self.bump_m - 1}, "
                              "the number of derivatives of the bump")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def function(self):
        return _shared_bump(self.bump_center, self.bump_radius, self.bump_m)


@functools.cache
def _shared_bump(center, radius, m):
    # one instance per parameter triple and process, so the constants
    # memoized on the function persist across trials
    return make_poly_bump(center, radius, m)


def _parser(default):
    """Parser of a config value, chosen by the type of the key's default: a
    tuple is a comma-separated list of its first item's type."""
    if isinstance(default, tuple):
        item = type(default[0])
        return lambda val: tuple(item(s) for s in val.split(",") if s.strip())
    return type(default)


_PARSERS = {f.name: _parser(f.default) for f in fields(ExperimentConfig)}


def parse_config_file(path):
    """Flat ``key = value`` file; lists are comma separated, '#' comments."""
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            setattr(cfg, key, _PARSERS[key](val))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    cfg.validate()
    return cfg


def trial_rng(seed, dim, order, trial):
    return np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(dim, order, trial)))


def make_instance(cfg, dim, order, trial):
    """Seeded (H0, V): spectrum placed inside the bump support, V normalized
    to unit operator norm then scaled."""
    rng = trial_rng(cfg.seed, dim, order, trial)
    lo = cfg.bump_center - 0.8 * cfg.bump_radius
    hi = cfg.bump_center + 0.8 * cfg.bump_radius
    H0 = random_hermitian_in_window(rng, dim, lo, hi)
    V = random_hermitian(rng, dim, norm=cfg.perturbation_scale)
    return H0, V


def _trial_spectra(cfg, dim, order, trial):
    """The seeded instance as the decompositions D0 of H0 and D1 of H0 + V,
    and V as a matrix: a trial solves each of its two matrices once."""
    H0, V = make_instance(cfg, dim, order, trial)
    return decompose(H0.mat), decompose(H0.mat + V.mat), V.mat


def _fmt(x):
    return format(float(x), ".17e")


def _write_rows(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _map(cfg, fn, args_list):
    if cfg.jobs > 1:
        with Pool(cfg.jobs) as pool:
            return pool.map(fn, args_list)
    return [fn(a) for a in args_list]


# -- expand ---------------------------------------------------------------

def _expand_trial(args):
    cfg, dim, order, trial = args
    f = cfg.function()
    H0, V = make_instance(cfg, dim, order, trial)
    rep = taylor.expansion_report(f, H0, V, order)
    return (dim, order, trial, rep)


def cmd_expand(cfg, out_dir):
    work = [(cfg, d, n, t) for d in cfg.dims for n in cfg.orders
            for t in range(cfg.trials)]
    results = _map(cfg, _expand_trial, work)
    max_tau = max((len(r.terms) for *_, r in results), default=0)
    header = (["seed", "dim", "n", "trial", "base_trace", "perturbed_trace"]
              + [f"tau_{p}" for p in range(1, max_tau + 1)]
              + ["remainder_trace", "operator_remainder_trace_norm",
                 "identity_residual", "trace_norm_slack"])
    rows = []
    failures = []
    for dim, order, trial, rep in results:
        where = f"dim {dim}, n {order}, trial {trial}"
        ident = rep.identity_residual()
        ident_tol = 1e-10 * (1.0 + abs(rep.perturbed_trace))
        if not ident <= ident_tol:
            failures.append(f"{where}: identity_residual {ident:.6g} > {ident_tol:.6g}")
        # the trace norm of the operator remainder dominates |remainder trace|
        slack = rep.operator_remainder_trace_norm - abs(rep.remainder_trace)
        if not slack >= -1e-10:
            failures.append(f"{where}: trace_norm_slack {slack:.6g} < -1e-10")
        taus = list(rep.terms) + [0.0] * (max_tau - len(rep.terms))
        rows.append([str(cfg.seed), str(dim), str(order), str(trial),
                     _fmt(rep.base_trace), _fmt(rep.perturbed_trace)]
                    + [_fmt(t) for t in taus]
                    + [_fmt(rep.remainder_trace),
                       _fmt(rep.operator_remainder_trace_norm),
                       _fmt(ident), _fmt(slack)])
    _write_rows(out_dir / "expand.csv", header, rows)
    print(f"expand: {len(rows)} trials, identities {'FAIL' if failures else 'PASS'}")
    for line in failures:
        print(f"expand: FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


# -- sweep ----------------------------------------------------------------

def _sweep_trial(args):
    cfg, dim, order, trial = args
    f = cfg.function()
    H0, V = make_instance(cfg, dim, order, trial)
    rems = taylor.remainder_sweep(f, H0, V, order, cfg.epsilons)
    try:
        slope = taylor.scaling_exponent(cfg.epsilons, rems, cfg.noise_floor)
    except taylor.InsufficientDataError:
        slope = float("nan")
    D0 = decompose(H0.mat)
    bc, bh = [], []
    for eps, rem in zip(cfg.epsilons, rems):
        Veps = eps * V.mat
        bc.append(bounds.remainder_bound_compact(f, D0, Veps, order, rem).rhs)
        bh.append(bounds.remainder_bound_hs(f, D0, Veps, order, rem).rhs)
    return (dim, order, trial, rems, bc, bh, slope)


def cmd_sweep(cfg, out_dir):
    work = [(cfg, d, n, t) for d in cfg.dims for n in cfg.orders
            for t in range(cfg.trials)]
    results = _map(cfg, _sweep_trial, work)
    header = ["seed", "dim", "n", "trial", "epsilon", "remainder_abs",
              "bound_compact", "bound_hs", "slope"]
    rows = []
    failures = []
    for dim, order, trial, rems, bc, bh, slope in results:
        threshold = order - cfg.slope_margin
        if not (slope >= threshold):
            failures.append(f"dim {dim}, n {order}, trial {trial}: "
                            f"slope {slope:.6g} < threshold {threshold:.6g}")
        for eps, r, c, h in zip(cfg.epsilons, rems, bc, bh):
            rows.append([str(cfg.seed), str(dim), str(order), str(trial),
                         _fmt(eps), _fmt(abs(r)), _fmt(c), _fmt(h), _fmt(slope)])
    _write_rows(out_dir / "sweep.csv", header, rows)
    print(f"sweep: {len(results)} fits, slopes {'FAIL' if failures else 'PASS'}")
    for line in failures:
        print(f"sweep: FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


# -- certify --------------------------------------------------------------

def _certify_trial(args):
    cfg, dim, order, trial = args
    f = cfg.function()
    D0, D1, V = _trial_spectra(cfg, dim, order, trial)
    rem = taylor._remainder_trace(f, D0, D1, V, order)
    certs = {
        "moi_trace_norm": bounds.compact_trace_norm_bound(f, D0, V, order),
        "remainder_compact": bounds.remainder_bound_compact(f, D0, V, order, rem),
        "remainder_hs": bounds.remainder_bound_hs(f, D0, V, order, rem),
    }
    if order == 2:
        data = shift.shift_data(D0, D1, V, shift.default_window(D0, D1, V))
        certs["eta_l1"] = shift.eta_l1_bound_check(D0, V, data)
    return (dim, order, trial, certs)


def cmd_certify(cfg, out_dir):
    work = [(cfg, d, n, t) for d in cfg.dims for n in cfg.orders
            for t in range(cfg.trials)]
    results = _map(cfg, _certify_trial, work)
    payload = []
    failures = []
    for dim, order, trial, certs in results:
        for name, cert in certs.items():
            d = cert.to_json_dict()
            d.update({"check": name, "seed": cfg.seed, "dim": dim,
                      "n": order, "trial": trial})
            if not cert.passed:
                failures.append(f"{name}, dim {dim}, n {order}, trial {trial}: "
                                f"lhs {cert.lhs:.6g} > rhs {cert.rhs:.6g}")
            payload.append(d)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "certificates.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n_pass = sum(1 for d in payload if d["passed"])
    print(f"certify: {n_pass}/{len(payload)} certificates PASS"
          + (" (FAILURES)" if failures else ""))
    for line in failures:
        print(f"certify: FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


# -- shift ----------------------------------------------------------------

def _shift_trial(args):
    cfg, dim, trial = args
    f = cfg.function()
    D0, D1, V = _trial_spectra(cfg, dim, 2, trial)
    data = shift.shift_data(D0, D1, V, shift.default_window(D0, D1, V))
    r1 = shift.first_order_check(f, D0, D1, data)
    r2 = shift.second_order_check(f, data, taylor._remainder_trace(f, D0, D1, V, 2))
    cert = shift.eta_l1_bound_check(D0, V, data)
    return (dim, trial, r1, r2, cert, shift.shift_data_json(data))


def cmd_shift(cfg, out_dir):
    work = [(cfg, d, t) for d in cfg.dims for t in range(cfg.trials)]
    results = _map(cfg, _shift_trial, work)
    rows = []
    failures = []
    out_dir.mkdir(parents=True, exist_ok=True)
    for dim, trial, r1, r2, cert, data in results:
        where = f"dim {dim}, trial {trial}"
        if not r1 <= 1e-10:
            failures.append(f"{where}: first_order_residual {r1:.6g} > 1e-10")
        if not r2 <= 1e-8:
            failures.append(f"{where}: second_order_residual {r2:.6g} > 1e-08")
        if not cert.passed:
            failures.append(f"{where}: eta_l1 {cert.lhs:.6g} > {cert.rhs:.6g}")
        rows.append([str(cfg.seed), str(dim), str(trial), _fmt(r1), _fmt(r2),
                     _fmt(cert.lhs), _fmt(cert.rhs)])
        with open(out_dir / f"shift_d{dim}_t{trial}.json", "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    _write_rows(out_dir / "shift.csv",
                ["seed", "dim", "trial", "first_order_residual",
                 "second_order_residual", "eta_l1", "eta_l1_bound"], rows)
    print(f"shift: {len(rows)} trials {'FAIL' if failures else 'PASS'}")
    for line in failures:
        print(f"shift: FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


# -- selftest -------------------------------------------------------------

def cmd_selftest(cfg):
    failures = []

    def check(name, cond):
        print(f"  {'PASS' if cond else 'FAIL'}  {name}")
        if not cond:
            failures.append(name)

    check("constant table a_1..a_14",
          [bounds.a_sequence(k) for k in range(1, 15)]
          == [2, 4, 6, 10, 14, 20, 26, 36, 46, 60, 74, 94, 114, 140])
    check("dyadic depth j_1..j_8",
          [bounds.j_of(k) for k in range(1, 9)]
          == [1 + int(math.floor(math.log2(k))) for k in range(1, 9)])

    f = make_poly_bump(0.0, 1.0, 10)
    rng = np.random.default_rng(cfg.seed)
    worst_sqrt = 0.0
    worst_u = 0.0
    for _ in range(50):
        p = int(rng.integers(1, 4))
        nodes = rng.uniform(-0.9, 0.9, size=p + 1)
        if rng.random() < 0.3:
            nodes[0] = nodes[-1]  # force a confluent cluster
        worst_sqrt = max(worst_sqrt, divided_diff.sqrt_split_residual(f, nodes))
        worst_u = max(worst_u, divided_diff.u_conjugation_residual(f, nodes))
    check("sqrt-split scalar identity residual <= 1e-9", worst_sqrt <= 1e-9)
    check("u-conjugation scalar identity residual <= 1e-9", worst_u <= 1e-9)

    ok_dom = True
    for p in (1, 2, 3):
        rep = gp_seminorm(f, p)
        four = fourier_l1_norm(f, p)
        margin = rep.quadrature_error + 1e-3 * four + 1e-12
        if four / math.factorial(p) > rep.value_gp + margin:
            ok_dom = False
    check("Fourier / G_p domination (p <= 3)", ok_dom)

    ok_alg = True
    for trial in range(5):
        rng2 = trial_rng(cfg.seed, 6, 2, trial)
        H = random_hermitian_in_window(rng2, 6, -0.8, 0.8)
        D = decompose(H.mat)
        Vs = [random_hermitian(rng2, 6, norm=1.0).mat for _ in range(2)]
        g = make_poly_bump(0.1, 0.9, 8)
        phi1 = divided_diff.DividedDifferenceCache(f)
        phi2 = divided_diff.DividedDifferenceCache(g)
        r = moi.additivity_check(phi1, phi2, D, Vs)
        r = max(r, moi.product_split_check(phi1, phi2, D, Vs, 1))
        r = max(r, moi.edge_multiplier_check(
            lambda x: g.value(x), phi1, lambda x: f.value(x), D, Vs))
        if r > 1e-9:
            ok_alg = False
    check("operator-integral algebra residuals <= 1e-9", ok_alg)

    ok_tr = True
    for trial in range(5):
        rng2 = trial_rng(cfg.seed, 5, 3, trial)
        H = random_hermitian_in_window(rng2, 5, -0.8, 0.8)
        D = decompose(H.mat)
        V = random_hermitian(rng2, 5, norm=0.5)
        for k in (1, 2, 3):
            if moi.moi_trace_identity_check(f, D, V.mat, k) > 1e-9:
                ok_tr = False
    check("trace identity residuals <= 1e-9", ok_tr)

    print(f"selftest: {'PASS' if not failures else 'FAIL'}")
    return 0 if not failures else 1


# -- entry point ----------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="tracetaylor", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command",
                    choices=["expand", "sweep", "certify", "shift", "selftest"])
    ap.add_argument("--config", type=str, default=None,
                    help="path to a key = value config file")
    ap.add_argument("--seed", type=int, default=None, help="override the seed")
    ap.add_argument("--out", type=str, default=None, help="output directory")
    ap.add_argument("--jobs", type=int, default=None, help="worker processes")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config_file(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        if args.jobs is not None:
            cfg.jobs = args.jobs
        cfg.validate()
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.out_dir)
    if args.command == "expand":
        return cmd_expand(cfg, out_dir)
    if args.command == "sweep":
        return cmd_sweep(cfg, out_dir)
    if args.command == "certify":
        return cmd_certify(cfg, out_dir)
    if args.command == "shift":
        try:
            return cmd_shift(cfg, out_dir)
        except shift.WindowError as exc:
            # the bump's support is wider than the window around the spectra
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    return cmd_selftest(cfg)


if __name__ == "__main__":
    sys.exit(main())
