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
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import bounds, divided_diff, moi, shift, taylor
from .bounds import Check
from .operator_core import (CLUSTER_TOL, decompose, operator_norm,
                            random_hermitian, random_hermitian_in_window)
from .scalar_functions import (DerivativeOrderError, fourier_l1_norm,
                               gp_seminorm, make_poly_bump, quadrature_error)


class ConfigError(ValueError):
    pass


SLOPE_MARGIN = 0.15  # a sweep fit of order n passes at a slope >= n - SLOPE_MARGIN


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
    out_dir: str = "reports"
    jobs: int = 1

    def validate(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
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
        if len(set(self.epsilons)) < len(self.epsilons):
            # a repeat adds no abscissa to sweep's slope fits
            raise ConfigError("epsilons must be distinct")
        if not self.bump_radius > 0.0:
            raise ConfigError("bump radius must be > 0")
        if max(self.orders) > self.bump_m - 1:
            raise ConfigError(f"orders must be <= bump_m - 1 = {self.bump_m - 1}, "
                              "the number of derivatives of the bump")
        # A trial's numbers are powers of scale, at most scale^(n^2 + n + 4)
        # at order n (2 under shift): the compact bound multiplies ||V||^n (1 +
        # ||V|| + ||V||^2), 1 + x^2 at the support ends and the n-th power of
        # seminorms growing like (1 / r)^n; 1e300 leaves 8 decades to spare
        c, r, n = self.bump_center, self.bump_radius, max(*self.orders, 2)
        scale = max(abs(c) + r + 2.0 * abs(self.perturbation_scale) + 1.0, 1.0 / r)
        if (n * n + n + 4) * math.log10(scale) > 300:
            raise ConfigError(f"max(|bump_center| + bump_radius + 2 |perturbation_scale|"
                              f" + 1, 1 / bump_radius)^{n * n + n + 4} must be < 1e300")
        # decompose resolves eigenvalues to CLUSTER_TOL (1 + span): a coarser
        # float64 grid in H0's window c +- 0.8 r makes its clusters rounding
        if np.spacing(abs(c) + 0.8 * r) > CLUSTER_TOL * (1.0 + 1.6 * r):
            raise ConfigError(f"float64 cannot resolve bump_center +- 0.8 bump_radius"
                              f" at {c:g} to CLUSTER_TOL (1 + 1.6 bump_radius)")
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
    """Seeded Hermitian matrices (H0, V): spectrum placed inside the bump
    support, V normalized to unit operator norm then scaled."""
    rng = trial_rng(cfg.seed, dim, order, trial)
    lo = cfg.bump_center - 0.8 * cfg.bump_radius
    hi = cfg.bump_center + 0.8 * cfg.bump_radius
    H0 = random_hermitian_in_window(rng, dim, lo, hi)
    V = random_hermitian(rng, dim, norm=cfg.perturbation_scale)
    return H0, V


def _trial_spectra(cfg, dim, order, trial):
    """The seeded instance as the decompositions D0 of H0 and D1 of H0 + V,
    and V: a trial solves each of its two matrices once."""
    H0, V = make_instance(cfg, dim, order, trial)
    return decompose(H0), decompose(H0 + V), V


def _fmt(x):
    return format(float(x), ".17e")


def _write_rows(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _map(cfg, fn, work=None):
    """``fn`` over ``work`` (default: every (cfg, dim, order, trial)), in order."""
    if work is None:
        work = [(cfg, d, n, t) for d in cfg.dims for n in cfg.orders
                for t in range(cfg.trials)]
    # a worker beyond the trials or the cores would only cost a start-up
    workers = min(cfg.jobs, len(work), os.cpu_count() or 1)
    if workers > 1:
        # imported here: a one-worker run never loads multiprocessing
        from multiprocessing import Pool
        with Pool(workers) as pool:
            return pool.map(fn, work)
    return [fn(a) for a in work]


def _conclude(command, summary, checks):
    """Print ``summary(verdict)``, then name each failing check of the
    ``(where, Check)`` pairs on stderr; the exit code."""
    failed = [(where, c) for where, c in checks if not c.passed]
    print(summary("FAIL" if failed else "PASS"))
    for where, c in failed:
        print(f"{command}: FAIL {where}: {c}", file=sys.stderr)
    return 1 if failed else 0


# -- expand ---------------------------------------------------------------

def _expand_trial(args):
    cfg, dim, order, trial = args
    f = cfg.function()
    D0, D1, V = _trial_spectra(cfg, dim, order, trial)
    rep = taylor.expansion_report(f, D0, D1, V, order)
    return (dim, order, trial, rep)


def cmd_expand(cfg, out_dir):
    results = _map(cfg, _expand_trial)
    max_tau = max((len(r.terms) for *_, r in results), default=0)
    header = (["seed", "dim", "n", "trial", "base_trace", "perturbed_trace"]
              + [f"tau_{p}" for p in range(1, max_tau + 1)]
              + ["remainder_trace", "operator_remainder_trace_norm",
                 "identity_residual", "trace_norm_slack"])
    rows, checks = [], []
    for dim, order, trial, rep in results:
        where = f"dim {dim}, n {order}, trial {trial}"
        ident = rep.identity_residual()
        # the trace norm of the operator remainder dominates |remainder trace|
        slack = rep.operator_remainder_trace_norm - abs(rep.remainder_trace)
        checks += [(where, Check("identity_residual", ident, "<=",
                                 1e-10 * (1.0 + abs(rep.perturbed_trace)))),
                   (where, Check("trace_norm_slack", slack, ">=", -1e-10))]
        taus = list(rep.terms) + [0.0] * (max_tau - len(rep.terms))
        rows.append([str(cfg.seed), str(dim), str(order), str(trial),
                     _fmt(rep.base_trace), _fmt(rep.perturbed_trace)]
                    + [_fmt(t) for t in taus]
                    + [_fmt(rep.remainder_trace),
                       _fmt(rep.operator_remainder_trace_norm),
                       _fmt(ident), _fmt(slack)])
    _write_rows(out_dir / "expand.csv", header, rows)
    return _conclude("expand", lambda verdict: (
        f"expand: {len(rows)} trials, identities {verdict}"), checks)


# -- sweep ----------------------------------------------------------------

def _sweep_trial(args):
    cfg, dim, order, trial = args
    f = cfg.function()
    H0, V = make_instance(cfg, dim, order, trial)
    D0 = decompose(H0)
    Ds = [decompose(H0 + eps * V) for eps in cfg.epsilons]
    rems = taylor.remainder_sweep(f, D0, Ds, V, order, cfg.epsilons)
    try:
        slope = taylor.scaling_exponent(cfg.epsilons, rems)
    except taylor.InsufficientDataError:
        slope = float("nan")
    v_norm = operator_norm(V)
    bc, bh = [], []
    for eps, rem in zip(cfg.epsilons, rems):
        # ||eps V|| = eps ||V||, and bit for bit the SVD's value when eps is
        # a power of two
        vn = eps * v_norm
        bc.append(bounds.remainder_bound_compact(f, D0, vn, order, rem).rhs)
        bh.append(bounds.remainder_bound_hs(f, D0, vn, order, rem).rhs)
    return (dim, order, trial, rems, bc, bh, slope)


def cmd_sweep(cfg, out_dir):
    results = _map(cfg, _sweep_trial)
    header = ["seed", "dim", "n", "trial", "epsilon", "remainder_abs",
              "bound_compact", "bound_hs", "slope"]
    rows, checks = [], []
    for dim, order, trial, rems, bc, bh, slope in results:
        checks.append((f"dim {dim}, n {order}, trial {trial}",
                       Check("slope", slope, ">=", order - SLOPE_MARGIN)))
        for eps, r, c, h in zip(cfg.epsilons, rems, bc, bh):
            rows.append([str(cfg.seed), str(dim), str(order), str(trial),
                         _fmt(eps), _fmt(abs(r)), _fmt(c), _fmt(h), _fmt(slope)])
    _write_rows(out_dir / "sweep.csv", header, rows)
    return _conclude("sweep", lambda verdict: (
        f"sweep: {len(results)} fits, slopes {verdict}"), checks)


# -- certify --------------------------------------------------------------

def _certify_trial(args):
    cfg, dim, order, trial = args
    f = cfg.function()
    D0, D1, V = _trial_spectra(cfg, dim, order, trial)
    rem = taylor._remainder_trace(f, D0, D1, V, order)
    v_norm = operator_norm(V)
    certs = {
        "moi_trace_norm": bounds.compact_trace_norm_bound(f, D0, V, v_norm, order),
        "remainder_compact": bounds.remainder_bound_compact(f, D0, v_norm, order, rem),
        "remainder_hs": bounds.remainder_bound_hs(f, D0, v_norm, order, rem),
    }
    if order == 2:
        data = shift.shift_data(D0, D1, V, shift.default_window(D0, D1, v_norm))
        certs["eta_l1"] = shift.eta_l1_bound_check(D0, v_norm, data)
    return (dim, order, trial, certs)


def cmd_certify(cfg, out_dir):
    results = _map(cfg, _certify_trial)
    payload, checks = [], []
    for dim, order, trial, certs in results:
        for name, cert in certs.items():
            d = cert.to_json_dict()
            d.update({"check": name, "seed": cfg.seed, "dim": dim,
                      "n": order, "trial": trial})
            checks.append((f"dim {dim}, n {order}, trial {trial}", cert.check(name)))
            payload.append(d)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "certificates.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n_pass = sum(1 for d in payload if d["passed"])
    return _conclude("certify", lambda verdict: (
        f"certify: {n_pass}/{len(payload)} certificates PASS"
        + ("" if verdict == "PASS" else " (FAILURES)")), checks)


# -- shift ----------------------------------------------------------------

def _shift_trial(args):
    cfg, dim, trial = args
    f = cfg.function()
    D0, D1, V = _trial_spectra(cfg, dim, 2, trial)
    v_norm = operator_norm(V)
    data = shift.shift_data(D0, D1, V, shift.default_window(D0, D1, v_norm))
    D1.derivative_table(f, 1)  # read by Tr f(H0 + V) and both checks
    [tau_1], base, [pert] = taylor._expansion(f, D0, [D1], V, 2)
    rem = pert - base  # Tr R_1, and Tr R_2 = Tr R_1 - tau_1
    r1 = shift.trace_formula_check(f, D0, D1, data.xi, data.window, rem)
    r2 = shift.trace_formula_check(f, D0, D1, data.eta, data.window, rem - tau_1)
    cert = shift.eta_l1_bound_check(D0, v_norm, data)
    return (dim, trial, r1, r2, cert, shift.shift_data_json(data))


def cmd_shift(cfg, out_dir):
    work = [(cfg, d, t) for d in cfg.dims for t in range(cfg.trials)]
    results = _map(cfg, _shift_trial, work)
    rows, checks = [], []
    out_dir.mkdir(parents=True, exist_ok=True)
    for dim, trial, r1, r2, cert, data in results:
        where = f"dim {dim}, trial {trial}"
        checks += [(where, Check("first_order_residual", r1, "<=", 1e-10)),
                   (where, Check("second_order_residual", r2, "<=", 1e-8)),
                   (where, cert.check("eta_l1"))]
        rows.append([str(cfg.seed), str(dim), str(trial), _fmt(r1), _fmt(r2),
                     _fmt(cert.lhs), _fmt(cert.rhs)])
        with open(out_dir / f"shift_d{dim}_t{trial}.json", "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    _write_rows(out_dir / "shift.csv",
                ["seed", "dim", "trial", "first_order_residual",
                 "second_order_residual", "eta_l1", "eta_l1_bound"], rows)
    return _conclude("shift", lambda verdict: (
        f"shift: {len(rows)} trials {verdict}"), checks)


# -- selftest -------------------------------------------------------------

def cmd_selftest(cfg):
    a_table = [2, 4, 6, 10, 14, 20, 26, 36, 46, 60, 74, 94, 114, 140]
    checks = [  # (label, Check) per item
        ("constant table a_1..a_14", Check(
            "a_k mismatches", sum(bounds.a_sequence(k) != a
                                  for k, a in enumerate(a_table, 1)), "<=", 0)),
        ("dyadic depth j_1..j_8", Check(
            "j_k mismatches", sum(bounds.j_of(k) != j for k, j in
                                  enumerate([1, 2, 2, 3, 3, 3, 3, 4], 1)), "<=", 0))]

    f = make_poly_bump(0.0, 1.0, 10)
    rng = np.random.default_rng(cfg.seed)
    sqrt_res, u_res = [], []
    for _ in range(50):
        p = int(rng.integers(1, 4))
        nodes = rng.uniform(-0.9, 0.9, size=p + 1)
        if rng.random() < 0.3:
            nodes[0] = nodes[-1]  # force a confluent cluster
        sqrt_res.append(divided_diff.sqrt_split_residual(f, nodes))
        u_res.append(divided_diff.u_conjugation_residual(f, nodes))
    # np.max keeps a NaN residual, where max() may drop it
    checks += [("sqrt-split scalar identity residual <= 1e-9",
                Check("sqrt_split_residual", np.max(sqrt_res), "<=", 1e-9)),
               ("u-conjugation scalar identity residual <= 1e-9",
                Check("u_conjugation_residual", np.max(u_res), "<=", 1e-9))]

    excess = []
    for p in (1, 2, 3):
        four = fourier_l1_norm(f, p)
        margin = quadrature_error(f, p) + 1e-3 * four + 1e-12
        excess.append(four / math.factorial(p) - (gp_seminorm(f, p) + margin))
    checks.append(("Fourier / G_p domination (p <= 3)",
                   Check("fourier_excess", np.max(excess), "<=", 0.0)))

    alg_res = []
    g = make_poly_bump(0.1, 0.9, 8)
    for trial in range(5):
        rng2 = trial_rng(cfg.seed, 6, 2, trial)
        H = random_hermitian_in_window(rng2, 6, -0.8, 0.8)
        D = decompose(H)
        Vs = [random_hermitian(rng2, 6, norm=1.0) for _ in range(2)]
        alg_res += [moi.additivity_check(f, g, D, Vs),
                    moi.product_split_check(f, g, D, Vs, 1),
                    moi.edge_multiplier_check(g, f, f, D, Vs)]
    checks.append(("operator-integral algebra residuals <= 1e-9",
                   Check("algebra_residual", np.max(alg_res), "<=", 1e-9)))

    tr_res = []
    for trial in range(5):
        rng2 = trial_rng(cfg.seed, 5, 3, trial)
        H = random_hermitian_in_window(rng2, 5, -0.8, 0.8)
        D = decompose(H)
        V = random_hermitian(rng2, 5, norm=0.5)
        tr_res += [moi.moi_trace_identity_check(f, D, V, k) for k in (1, 2, 3)]
    checks.append(("trace identity residuals <= 1e-9",
                   Check("trace_identity_residual", np.max(tr_res), "<=", 1e-9)))

    for label, check in checks:
        print(f"  {'PASS' if check.passed else 'FAIL'}  {label}")
    return _conclude("selftest", lambda verdict: f"selftest: {verdict}", checks)


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
        # reports go to out_dir, which must be or lie under a directory
        out_dir = Path(cfg.out_dir)
        held = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if args.command != "selftest" and not held.is_dir():
            raise ConfigError(f"out_dir {out_dir}: {held} is not a directory")
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    commands = {"expand": cmd_expand, "sweep": cmd_sweep,
                "certify": cmd_certify, "shift": cmd_shift}
    if args.command not in commands:
        return cmd_selftest(cfg)
    try:
        return commands[args.command](cfg, out_dir)
    except DerivativeOrderError as exc:
        # the bump, or a dyadic root of it, is not smooth enough for the
        # command's constants at these orders
        print(f"config error: {args.command} needs more derivatives than "
              f"bump_m = {cfg.bump_m} gives ({exc})", file=sys.stderr)
        return 2
    except shift.WindowError as exc:
        # the bump's support is wider than the window around the spectra
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
