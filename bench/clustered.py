"""The ``clustered`` workload: hostile spectra fed to the public taylor API.

Each instance is a seeded (H0, V) with H0 = U diag(w) U* for a Haar unitary U
and a spectrum w made of clusters of four eigenvalues inside the window the
CLI uses (the middle 80% of the bump support).  Trial 0 of every (dim, order)
repeats each cluster value exactly, so the per-tuple divided-difference
caches share almost all work.  Trial 1 chains each cluster at gaps of
2-5 x cluster_tol * (1 + diameter): just wide enough that ``decompose`` keeps
them apart, so the difference-quotient branch runs on near-confluent nodes.

The check is the two-route equality of ``cmd_expand``'s gate:
|Tr operator_remainder - remainder_trace| <= 1e-10 (1 + |Tr f(H0+V)|).

    python3 bench/clustered.py --seed N --out DIR

writes DIR/clustered.csv and exits 1 iff an instance fails its check.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from tracetaylor import cli, operator_core, taylor

DIMS = (8, 12, 16)
ORDERS = (3, 4)
KINDS = ("exact", "near")       # indexed by trial
CLUSTER_SIZE = 4
CLUSTER_TOL = 1e-8              # decompose's default cluster_tol
NEAR_GAP = (2.25, 4.75)         # gap multiples, kept inside 2-5 with margin
TRACE_TOL = 1e-10               # cmd_expand's identity tolerance

HEADER = ["seed", "dim", "n", "trial", "kind", "clusters", "min_gap_ratio",
          "operator_remainder_trace", "remainder_trace", "perturbed_trace",
          "two_route_residual", "passed"]


def clustered_spectrum(rng, dim, kind, lo, hi):
    """dim/4 clusters of four eigenvalues, one cluster per equal slice of
    [lo, hi], either exactly repeated or chained at near-tolerance gaps."""
    if dim % CLUSTER_SIZE:
        raise ValueError(f"dim must be a multiple of {CLUSTER_SIZE}")
    k = dim // CLUSTER_SIZE
    edges = np.linspace(lo, hi, k + 1)
    centers = edges[:-1] + (0.25 + 0.5 * rng.random(k)) * np.diff(edges)
    if kind == "exact":
        mult = np.zeros((k, CLUSTER_SIZE - 1))
    else:
        mult = rng.uniform(*NEAR_GAP, size=(k, CLUSTER_SIZE - 1))
    # the top chain widens the diameter that its own gaps are scaled by
    s = mult[-1].sum() * CLUSTER_TOL
    diam = (centers[-1] - centers[0] + s) / (1.0 - s)
    offsets = np.cumsum(mult * CLUSTER_TOL * (1.0 + diam), axis=1)
    return np.concatenate([centers[:, None], centers[:, None] + offsets],
                          axis=1).ravel()


def haar_unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def make_instance(cfg, dim, order, trial):
    """Seeded (H0, V, kind), seeded like ``cli.make_instance``."""
    rng = cli.trial_rng(cfg.seed, dim, order, trial)
    kind = KINDS[trial]
    lo = cfg.bump_center - 0.8 * cfg.bump_radius
    hi = cfg.bump_center + 0.8 * cfg.bump_radius
    w = clustered_spectrum(rng, dim, kind, lo, hi)
    U = haar_unitary(rng, dim)
    H0 = operator_core.HermitianOperator((U * w) @ U.conj().T)
    V = operator_core.random_hermitian(rng, dim, norm=cfg.perturbation_scale)
    return H0, V, kind


def _fmt(x):
    return format(float(x), ".17e")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=cli.ExperimentConfig.seed)
    ap.add_argument("--out", type=str, required=True)
    args = ap.parse_args(argv)
    cfg = cli.ExperimentConfig(seed=args.seed)
    f = cfg.function()
    rows = []
    failed = 0
    for dim in DIMS:
        for order in ORDERS:
            for trial in range(len(KINDS)):
                H0, V, kind = make_instance(cfg, dim, order, trial)
                D0 = operator_core.decompose(H0.mat)
                lam = D0.eigenvalues
                tol = CLUSTER_TOL * (1.0 + lam[-1] - lam[0])
                op = float(np.trace(taylor.operator_remainder(f, H0, V, order)).real)
                rem = taylor.remainder_trace(f, H0, V, order)
                D1 = operator_core.decompose((H0 + V).mat)
                pert = float(np.trace(operator_core.apply_function(f, D1).mat).real)
                ok = abs(op - rem) <= TRACE_TOL * (1.0 + abs(pert))
                failed += not ok
                rows.append([str(cfg.seed), str(dim), str(order), str(trial), kind,
                             str(len(D0.clusters)), _fmt(np.min(np.diff(lam)) / tol),
                             _fmt(op), _fmt(rem), _fmt(pert), _fmt(abs(op - rem)),
                             str(int(ok))])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "clustered.csv", "w", newline="\n") as fh:
        fh.write(",".join(HEADER) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    print(f"clustered: {len(rows)} instances, {failed} FAIL")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
