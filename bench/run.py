"""tracetaylor benchmark: end-to-end run metrics and per-layer traced spans.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as fresh single-process children (``--jobs 1``, BLAS
pinned to one thread), with ``src/`` of this checkout on PYTHONPATH.  Why
each workload was chosen is recorded in BENCHMARK.json and in WORKLOADS.

--trace 0  runs the workload back to back for --seconds (at least MIN_RUNS
           runs) and reports medians of ``run_s`` (spawn to exit) and
           ``peak_rss_mb`` (the child's own rusage).  Between the runs it
           times fresh interpreters that import the CLI and build the bump f,
           everything before the first trial, and reports their median as
           ``setup_s``.
--trace 1  alternates untraced and traced runs (bench/tracer.py) for
           --seconds and reports the per-layer metrics of PER_LAYER plus
           ``trace_overhead_frac``.

Every run's reports are hashed.  The result is correct only if all runs of
one invocation, traced or not, produce identical reports, every run exits 0
or 1 with exit 1 iff a report row failed, and the reports hold every check.
The digests are printed, so a change that alters reports on purpose shows.
Checks failed by the program (rows whose gate fails) are counted in
``failed``; the checks a crashed run did not report count as failed.  Each
invocation appends its run record (machine, versions, BLAS threads, seed,
load averages, every child's time and RSS) to bench/_work/runs.jsonl.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count the checks of one pass over the workload's inputs, which every run
repeats.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_SAMPLES = 3      # per slot: before each workload run and after the last
MIN_RUNS = 2
DEADLINE_S = 170.0      # no child may run past this many seconds of the invocation

# the program's own gates, as cmd_sweep and cmd_expand apply them at the
# shipped default config
SLOPE_MARGIN = 0.15
IDENTITY_TOL = 1e-10

SETUP_CODE = "import tracetaylor.cli as c; c.ExperimentConfig().function()"
INFO_CODE = """import json, platform, numpy, tracetaylor
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"package": tracetaylor.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))"""

BLAS_THREADS = "1"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS,
                 OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
                 TMPDIR=str(WORK))


# -- failure accounting: (checks reported, checks failed) from the reports ---

def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def count_certify(out):
    certs = json.loads((out / "certificates.json").read_text())
    return len(certs), sum(not c["passed"] for c in certs)


def count_sweep(out):
    fits = {(r["dim"], r["n"], r["trial"]): (int(r["n"]), float(r["slope"]))
            for r in _csv_rows(out / "sweep.csv")}
    # a NaN slope fails, as in cmd_sweep
    return len(fits), sum(not (s >= n - SLOPE_MARGIN) for n, s in fits.values())


def count_expand(out):
    rows = _csv_rows(out / "expand.csv")
    failed = 0
    for r in rows:
        pert = abs(float(r["perturbed_trace"]))
        ident_ok = float(r["identity_residual"]) <= IDENTITY_TOL * (1.0 + pert)
        norm_ok = (float(r["operator_remainder_trace_norm"]) + IDENTITY_TOL
                   >= abs(float(r["remainder_trace"])))
        failed += not (ident_ok and norm_ok)
    return len(rows), failed


def count_clustered(out):
    rows = _csv_rows(out / "clustered.csv")
    return len(rows), sum(r["passed"] != "1" for r in rows)


@dataclass(frozen=True)
class Workload:
    module: str          # "tracetaylor.cli", or "clustered" (bench/clustered.py)
    args: tuple          # arguments before --seed and --out
    reports: tuple       # report files hashed by the determinism guard
    checks: int          # checks in one pass over the inputs
    count: object        # out_dir -> (checks reported, checks failed)


WORKLOADS = {
    # the headline command at the default config, and the only workload that
    # runs compact_trace_norm_bound, the dyadic-root constants and shift
    "certify": Workload(
        "tracetaylor.cli", ("certify", "--jobs", "1"), ("certificates.json",),
        200, count_certify),
    # the default sweep: bounds recompute the (f, n) constants for every
    # epsilon; keeps the shipped seed's failing fit (dim 8, n 2, trial 1)
    "sweep": Workload(
        "tracetaylor.cli", ("sweep", "--jobs", "1"), ("sweep.csv",),
        60, count_sweep),
    # the moi symbol tensor and divided differences are nearly all of it;
    # bounds do no work (dim 24 at order 4 would cost 16 s per trial)
    "expand-wide": Workload(
        "tracetaylor.cli",
        ("expand", "--jobs", "1", "--config", str(BENCH / "expand_wide.cfg")),
        ("expand.csv",), 4, count_expand),
    # exact clusters share work through the per-tuple caches; near chains
    # take the cancellation-prone quotient branch (bench/clustered.py)
    "clustered": Workload(
        "clustered", (), ("clustered.csv",), 12, count_clustered),
}

# (name, unit) of the --trace 1 metrics; the layer times in seconds are
# listed only for layers that every workload enters, so no time reads 0
LAYERS = ("cli", "operator_core", "scalar_functions", "divided_diff", "moi",
          "taylor", "bounds", "shift")
TIMED_LAYERS = LAYERS[:6]
PER_LAYER = (
    [(f"{layer}.{m}", u) for layer in LAYERS
     for m, u in (("calls", "count"), ("errors", "count"),
                  ("self_share", "%"), ("incl_share", "%"))]
    + [(f"{layer}.{m}", "s") for layer in TIMED_LAYERS for m in ("self_s", "incl_s")]
    + [("divided_diff.divided_difference.calls", "count"),
       ("scalar_functions.deriv.calls", "count"),
       ("scalar_functions.deriv.points", "count"),
       ("scalar_functions.deriv.points_per_call", "1"),
       ("moi.symbol_entries", "count"),
       ("moi.dd_calls_per_entry", "1"),
       ("moi.evaluate_symbol_moi.self_share", "%"),
       ("bounds.hs_constant.calls_per_trial", "1/trial"),
       ("scalar_functions.gp_seminorm.calls_per_trial", "1/trial"),
       ("taylor.remainder_trace.calls_per_trial", "1/trial"),
       ("operator_core.decompose.calls_per_trial", "1/trial"),
       ("operator_core.decompose.self_s", "s"),
       ("bounds.compact_trace_norm_bound.incl_share", "%"),
       ("trace_overhead_frac", "1"),
       ("fail_frac", "1")])
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


# -- child processes ---------------------------------------------------------

@dataclass
class Run:
    kind: str            # "setup", "untraced" or "traced"
    wall_s: float
    rss_mb: float
    code: int
    load: tuple          # 1-minute load average before and after
    out: Path


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(kind, argv, out, timeout):
    """Run one child to completion; wall time from spawn to exit, peak RSS
    from the child's own rusage.  The child is killed after ``timeout``."""
    out.mkdir(parents=True, exist_ok=True)
    load0 = os.getloadavg()[0]
    with open(out / "log.txt", "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), _kill, (proc.pid,))
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(kind, wall, usage.ru_maxrss / 1024.0, proc.returncode,
               (load0, os.getloadavg()[0]), out)


def workload_argv(w, seed, out, traced):
    tail = [*w.args, "--seed", str(seed), "--out", str(out)]
    if traced:
        return [sys.executable, str(BENCH / "tracer.py"), str(out / "summary.json"),
                str(out / "spans.npy"), w.module, *tail]
    if w.module == "tracetaylor.cli":
        return [sys.executable, "-m", "tracetaylor.cli", *tail]
    return [sys.executable, str(BENCH / f"{w.module}.py"), *tail]


def digest(out, reports):
    h = hashlib.sha256()
    for name in reports:
        path = out / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def account(w, run):
    """(attempted, failed, consistent) for one run, crash-aware."""
    try:
        reported, failed = w.count(run.out)
    except (OSError, ValueError, KeyError):
        reported, failed = 0, 0
    complete = reported == w.checks
    consistent = complete and run.code == (1 if failed else 0)
    # every check a run did not report counts as failed
    return w.checks, failed + max(w.checks - reported, 0), consistent


def machine_record():
    proc = subprocess.run([sys.executable, "-c", INFO_CODE], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import the program from {SRC}:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(info["package"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported tracetaylor from {info['package']}, not {SRC}")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    info.update(nproc=os.cpu_count(), cpu=cpu, blas_threads=BLAS_THREADS,
                jobs=1, executable=sys.executable)
    return info


def median_metrics(summaries):
    # median_low keeps a measured value (and integer counts) per metric
    return {name: statistics.median_low(s[name] for s in summaries) for name in summaries[0]}


def print_layer_table(m):
    print(f"{'layer':<18}{'calls':>10}{'errors':>8}{'self_s':>11}{'incl_s':>11}"
          f"{'self%':>8}{'incl%':>8}")
    for layer in LAYERS:
        print(f"{layer:<18}{m[layer + '.calls']:>10.0f}{m[layer + '.errors']:>8.0f}"
              f"{m[layer + '.self_s']:>11.4f}{m[layer + '.incl_s']:>11.4f}"
              f"{m[layer + '.self_share']:>8.1f}{m[layer + '.incl_share']:>8.1f}")


def measure(w, args, run_dir, remaining):
    """Workload runs until --seconds have passed, in whole untraced/traced
    pairs when tracing.  Untraced, SETUP_SAMPLES set-up samples are taken
    before each run and after the last, so they spread over the invocation."""
    setups = []
    runs = []

    def sample_setup():
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(spawn("setup", [sys.executable, "-c", SETUP_CODE],
                                    run_dir / f"setup{len(setups)}", remaining()))

    t0 = time.perf_counter()
    while True:
        sample_setup()
        traced = bool(args.trace) and len(runs) % 2 == 1
        out = run_dir / f"run{len(runs)}"
        runs.append(spawn("traced" if traced else "untraced",
                          workload_argv(w, args.seed, out, traced), out, remaining()))
        if len(runs) < MIN_RUNS or (args.trace and len(runs) % 2):
            continue
        next_cost = (2 if args.trace else 1) * max(r.wall_s for r in runs)
        if time.perf_counter() - t0 >= args.seconds or remaining() < next_cost + 5.0:
            sample_setup()
            return setups, runs


def verify(w, args, setups, runs):
    """Print one line per run; return (problems, attempted, failed, digest)."""
    problems = [f"setup child exited {r.code}" for r in setups if r.code != 0]
    accounts = []
    digests = []
    for i, r in enumerate(runs):
        attempted, failed, consistent = account(w, r)
        d = digest(r.out, w.reports)
        accounts.append((attempted, failed))
        digests.append(d)
        log = (r.out / "log.txt").read_text().strip().splitlines()
        print(f"run {i} {r.kind:<8} run_s {r.wall_s:.4f}  rss {r.rss_mb:.1f} MB  "
              f"exit {r.code}  failed {failed}/{attempted}  sha256 {d[:16]}  "
              f"load {r.load[0]:.2f}->{r.load[1]:.2f}  | {log[-1] if log else ''}")
        if not consistent:
            problems.append(f"run {i}: exit {r.code} with {failed} failed of "
                            f"{attempted} checks, or incomplete reports")
    if len(set(digests)) != 1:
        problems.append("reports differ between runs of the same code"
                        + (" (traced vs untraced)" if args.trace else ""))
    print(f"report digest {args.workload} seed {args.seed}: {digests[0]}")
    attempted, failed = max(accounts, key=lambda a: a[1])
    return problems, attempted, failed, digests


def layer_metrics(args, runs, fail_frac, problems):
    traced = [r for r in runs if r.kind == "traced"]
    untraced = [r for r in runs if r.kind == "untraced"]
    summaries = []
    for r in traced:
        path = r.out / "summary.json"
        if path.is_file():
            summaries.append(json.loads(path.read_text())["metrics"])
        else:
            problems.append(f"traced run wrote no summary (exit {r.code})")
    if not summaries:
        return {}, 0
    m = median_metrics(summaries)
    m["trace_overhead_frac"] = (statistics.median(r.wall_s for r in traced)
                                / statistics.median(r.wall_s for r in untraced) - 1.0)
    m["fail_frac"] = fail_frac
    print_layer_table(m)
    spans = traced[0].out / "spans.npy"
    if spans.is_file():
        shutil.copyfile(spans, WORK / f"spans-{args.workload}.npy")
    return {n: (m[n], u) for n, u in PER_LAYER}, len(summaries)


def end_to_end_metrics(setups, runs):
    untraced = [r for r in runs if r.kind == "untraced"]
    values = {"run_s": statistics.median(r.wall_s for r in untraced),
              "setup_s": statistics.median(r.wall_s for r in setups),
              "peak_rss_mb": statistics.median(r.rss_mb for r in untraced)}
    return {n: (values[n], u) for n, u in END_TO_END}, len(untraced)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=12345,
                    help="workload seed (default: the shipped 12345)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_invocation = time.perf_counter()
    # a terminated benchmark still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "tracetaylor" / "__init__.py").is_file():
        print(f"error: no tracetaylor package under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    try:
        record = machine_record()
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, load_start=os.getloadavg())
    print(f"run record: {json.dumps(record, sort_keys=True)}")
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setups, runs = measure(
            w, args, run_dir, lambda: DEADLINE_S - (time.perf_counter() - t_invocation))
        record["load_end"] = os.getloadavg()
        print(f"load average at end: {record['load_end']}")
        problems, attempted, failed, digests = verify(w, args, setups, runs)
        fail_frac = failed / attempted
        print(f"fail_frac = {failed}/{attempted} = {fail_frac:.6g} "
              f"(checks failed / checks attempted in one pass)")
        if args.trace:
            metrics, samples = layer_metrics(args, runs, fail_frac, problems)
        else:
            metrics, samples = end_to_end_metrics(setups, runs)
        print(f"{'metric':<46}{'value':>16}  {'unit':<8}samples")
        for name, (value, unit) in metrics.items():
            n = len(setups) if name == "setup_s" else samples
            print(f"{name:<46}{value:>16.6g}  {unit:<8}{n}")
        for p in problems:
            print(f"CHECK FAILED: {p}")
        result = {
            "correct": not problems and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        }
        with open(WORK / "runs.jsonl", "a") as fh:
            fh.write(json.dumps({"record": record, "digests": digests, "result": result,
                                 "runs": [(r.kind, r.wall_s, r.rss_mb, r.code, r.load)
                                          for r in setups + runs]}) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
