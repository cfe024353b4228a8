"""Batch certification harness.

Subcommands:
  expand   - expansion terms, remainder, and definitional identity per trial
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
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import bounds, divided_diff, moi, shift, taylor
from .operator_core import (Interval, decompose, operator_norm,
                            random_hermitian, random_hermitian_in_window)
from .scalar_functions import (fourier_l1_norm, gp_seminorm, make_poly_bump,
                               product_with_u, product_with_u2, sup_norm)


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
        if not self.epsilons:
            raise ConfigError("epsilon grid must be nonempty")
        if any(not (0.0 < e <= 1.0) for e in self.epsilons):
            raise ConfigError("epsilons must lie in (0, 1]")
        if self.bump_m < 2:
            raise ConfigError("bump exponent m must be >= 2")

    def function(self):
        return _shared_bump(self.bump_center, self.bump_radius, self.bump_m)


@functools.cache
def _shared_bump(center, radius, m):
    # one instance per parameter triple and process, so the constants
    # memoized on the function persist across trials
    return make_poly_bump(center, radius, m)


_INT_KEYS = {"seed", "trials", "bump_m", "jobs"}
_FLOAT_KEYS = {"bump_center", "bump_radius", "perturbation_scale",
               "noise_floor", "slope_margin"}
_LIST_INT_KEYS = {"dims", "orders"}
_LIST_FLOAT_KEYS = {"epsilons"}


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
        try:
            if key in _INT_KEYS:
                setattr(cfg, key, int(val))
            elif key in _FLOAT_KEYS:
                setattr(cfg, key, float(val))
            elif key in _LIST_INT_KEYS:
                setattr(cfg, key, tuple(int(s) for s in val.split(",") if s.strip()))
            elif key in _LIST_FLOAT_KEYS:
                setattr(cfg, key, tuple(float(s) for s in val.split(",") if s.strip()))
            elif key == "out_dir":
                cfg.out_dir = val
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
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
                 "identity_residual", "trace_match_residual"])
    rows = []
    ok = True
    for dim, order, trial, rep in results:
        ident = rep.identity_residual()
        # remainder trace vs trace of the operator remainder
        tr_match = abs(rep.remainder_trace) - rep.operator_remainder_trace_norm
        tr_ok = rep.operator_remainder_trace_norm + 1e-10 >= abs(rep.remainder_trace)
        if ident > 1e-10 * (1.0 + abs(rep.perturbed_trace)) or not tr_ok:
            ok = False
        taus = list(rep.terms) + [0.0] * (max_tau - len(rep.terms))
        rows.append([str(cfg.seed), str(dim), str(order), str(trial),
                     _fmt(rep.base_trace), _fmt(rep.perturbed_trace)]
                    + [_fmt(t) for t in taus]
                    + [_fmt(rep.remainder_trace),
                       _fmt(rep.operator_remainder_trace_norm),
                       _fmt(ident), _fmt(tr_match)])
    _write_rows(out_dir / "expand.csv", header, rows)
    print(f"expand: {len(rows)} trials, identities {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


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
    bc = []
    bh = []
    for eps in cfg.epsilons:
        Veps = eps * V.mat
        bc.append(bounds.remainder_bound_compact(f, H0, Veps, order).rhs)
        bh.append(bounds.remainder_bound_hs(f, H0, Veps, order).rhs)
    return (dim, order, trial, rems, bc, bh, slope)


def cmd_sweep(cfg, out_dir):
    work = [(cfg, d, n, t) for d in cfg.dims for n in cfg.orders
            for t in range(cfg.trials)]
    results = _map(cfg, _sweep_trial, work)
    header = ["seed", "dim", "n", "trial", "epsilon", "remainder_abs",
              "bound_compact", "bound_hs", "slope"]
    rows = []
    ok = True
    for dim, order, trial, rems, bc, bh, slope in results:
        if not (slope >= order - cfg.slope_margin):
            ok = False
        for eps, r, c, h in zip(cfg.epsilons, rems, bc, bh):
            rows.append([str(cfg.seed), str(dim), str(order), str(trial),
                         _fmt(eps), _fmt(abs(r)), _fmt(c), _fmt(h), _fmt(slope)])
    _write_rows(out_dir / "sweep.csv", header, rows)
    print(f"sweep: {len(results)} fits, slopes {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- certify --------------------------------------------------------------

def _certify_trial(args):
    cfg, dim, order, trial = args
    f = cfg.function()
    H0, V = make_instance(cfg, dim, order, trial)
    D0 = decompose(H0.mat)
    certs = {
        "moi_trace_norm": bounds.compact_trace_norm_bound(f, D0, V, order),
        "remainder_compact": bounds.remainder_bound_compact(f, H0, V, order),
        "remainder_hs": bounds.remainder_bound_hs(f, H0, V, order),
    }
    if order == 2:
        window = shift.default_window(H0, V)
        certs["eta_l1"] = shift.eta_l1_bound_check(H0, V, window)
    return (dim, order, trial, certs)


def cmd_certify(cfg, out_dir):
    work = [(cfg, d, n, t) for d in cfg.dims for n in cfg.orders
            for t in range(cfg.trials)]
    results = _map(cfg, _certify_trial, work)
    payload = []
    ok = True
    for dim, order, trial, certs in results:
        for name, cert in certs.items():
            d = cert.to_json_dict()
            d.update({"check": name, "seed": cfg.seed, "dim": dim,
                      "n": order, "trial": trial})
            if not cert.passed:
                ok = False
            payload.append(d)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "certificates.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n_pass = sum(1 for d in payload if d["passed"])
    print(f"certify: {n_pass}/{len(payload)} certificates PASS"
          + ("" if ok else " (FAILURES)"))
    return 0 if ok else 1


# -- shift ----------------------------------------------------------------

def _shift_trial(args):
    cfg, dim, trial = args
    f = cfg.function()
    H0, V = make_instance(cfg, dim, 2, trial)
    window = shift.default_window(H0, V)
    r1 = shift.first_order_check(f, H0, V, window)
    r2 = shift.second_order_check(f, H0, V, window)
    cert = shift.eta_l1_bound_check(H0, V, window)
    data = shift.shift_data_json(H0, V, window)
    return (dim, trial, r1, r2, cert, data)


def cmd_shift(cfg, out_dir):
    work = [(cfg, d, t) for d in cfg.dims for t in range(cfg.trials)]
    results = _map(cfg, _shift_trial, work)
    rows = []
    ok = True
    out_dir.mkdir(parents=True, exist_ok=True)
    for dim, trial, r1, r2, cert, data in results:
        if r1 > 1e-10 or r2 > 1e-8 or not cert.passed:
            ok = False
        rows.append([str(cfg.seed), str(dim), str(trial), _fmt(r1), _fmt(r2),
                     _fmt(cert.lhs), _fmt(cert.rhs)])
        with open(out_dir / f"shift_d{dim}_t{trial}.json", "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    _write_rows(out_dir / "shift.csv",
                ["seed", "dim", "trial", "first_order_residual",
                 "second_order_residual", "eta_l1", "eta_l1_bound"], rows)
    print(f"shift: {len(rows)} trials {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


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
            if args.jobs < 1:
                raise ConfigError("jobs must be >= 1")
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
        return cmd_shift(cfg, out_dir)
    return cmd_selftest(cfg)


if __name__ == "__main__":
    sys.exit(main())
