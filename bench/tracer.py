"""Outside-in tracer for the tracetaylor layers.

Every public function of every layer module, plus ``SmoothCompactFunction.deriv``
and ``DividedDifferenceCache.__call__``, is replaced by a wrapper that records
one span per call: its id, its parent span, the trial it belongs to, its name,
start and end (``perf_counter``), whether an exception left it, and a work
count taken from its arguments.  Every module namespace that holds a copy of
an original (``from .operator_core import decompose`` and the like) is
rebound to the wrapper, and ``check_patched`` fails if any copy escaped.

Spans stay in memory; ``summary`` derives the per-layer figures at the end.
A span's self time is its duration minus the durations of its direct
children.  A layer's inclusive time counts only spans with no ancestor in the
same layer, so nested calls are not counted twice.

Run as a script, it traces one workload process in-process::

    python3 bench/tracer.py SUMMARY.json SPANS.npy MODULE [ARGS...]

MODULE is ``tracetaylor.cli`` or ``clustered``; its ``main(ARGS)`` runs
under the tracer, and each call of its ``make_instance`` starts a new trial.
"""

import functools
import importlib
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "operator_core", "scalar_functions", "divided_diff", "moi",
          "taylor", "bounds", "shift")

# (layer, class, method) -> span name
METHODS = {
    ("scalar_functions", "SmoothCompactFunction", "deriv"): "scalar_functions.deriv",
    ("divided_diff", "DividedDifferenceCache", "__call__"):
        "divided_diff.DividedDifferenceCache.__call__",
}


def _deriv_points(self, j, x):
    return int(getattr(x, "size", 1))


def _moi_entries(phi, D, perturbations, *args, **kwargs):
    # the symbol tensor over n^(p+1) index tuples (n values when p == 0)
    return D.dim ** (len(perturbations) + 1)


def _cyclic_entries(f, D, V, p, *args, **kwargs):
    # the cyclic trace sum evaluates a tensor over n^p index tuples
    return D.dim ** p


# span name -> work count derived from the call's arguments
WORK = {
    "scalar_functions.deriv": _deriv_points,
    "moi.evaluate_symbol_moi": _moi_entries,
    "moi.trace_derivative_higher": _cyclic_entries,
}

SYMBOL_SPANS = ("moi.evaluate_symbol_moi", "moi.trace_derivative_higher")

SPAN_DTYPE = [("id", "i8"), ("parent", "i8"), ("trial", "i8"), ("name", "i4"),
              ("t0", "f8"), ("t1", "f8"), ("outer_layer", "?"),
              ("outer_fn", "?"), ("error", "?"), ("work", "i8")]


class PatchError(RuntimeError):
    """A module namespace still holds an unwrapped original after patching."""


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []        # span name per name id
        self.layer_of = []     # layer index per name id
        self.spans = []        # one tuple per finished call, fields as SPAN_DTYPE
        self.trial = 0
        self._stack = []
        self._layer_depth = [0] * len(LAYERS)
        self._fn_depth = []
        self._next_id = 0
        self._originals = {}   # id(original) -> (original, wrapper)
        self._restore = []     # (namespace dict, key, original)

    def wrap(self, fn, name, layer, work=None, marks_trial=False):
        """Return a wrapper of ``fn`` that records a span named ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        li = LAYERS.index(layer)
        self.layer_of.append(li)
        self._fn_depth.append(0)
        stack, layer_depth, fn_depth = self._stack, self._layer_depth, self._fn_depth
        spans, clock = self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if marks_trial:
                self.trial += 1
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            trial = self.trial
            outer_layer = layer_depth[li] == 0
            outer_fn = fn_depth[name_id] == 0
            w = work(*args, **kwargs) if work is not None else 0
            layer_depth[li] += 1
            fn_depth[name_id] += 1
            stack.append(sid)
            error = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                error = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                layer_depth[li] -= 1
                fn_depth[name_id] -= 1
                spans.append((sid, parent, trial, name_id, t0, t1,
                              outer_layer, outer_fn, error, w))

        return traced

    def mark_trial(self, fn):
        """Wrap a non-layer instance generator so each call starts a trial."""
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            self.trial += 1
            return fn(*args, **kwargs)
        return marked

    # -- patching ---------------------------------------------------------

    def patch(self):
        """Wrap every layer's public functions and rebind all their copies."""
        for layer in LAYERS:
            mod = importlib.import_module(f"tracetaylor.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(obj, name, layer, WORK.get(name),
                                    marks_trial=name == "cli.make_instance")
                self._originals[id(obj)] = (obj, wrapper)
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module(f"tracetaylor.{layer}"), cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(orig, name, layer, WORK.get(name)))
        for _, ns, key, obj in self._original_refs():
            ns[key] = self._originals[id(obj)][1]
            self._restore.append((ns, key, obj))

    def _original_refs(self):
        """(module name, namespace, key, original) for every module-level
        reference to a wrapped original."""
        for mod_name, mod in list(sys.modules.items()):
            ns = getattr(mod, "__dict__", None)
            if not isinstance(ns, dict):
                continue
            for key, obj in list(ns.items()):
                hit = self._originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    yield mod_name, ns, key, obj

    def check_patched(self):
        """Raise PatchError if any loaded module still exposes an original."""
        escaped = [f"{mod_name}.{key}" for mod_name, _, key, _ in self._original_refs()]
        escaped += [f"{cls.__qualname__}.{meth}" for cls, meth, orig in self._restore
                    if isinstance(cls, type) and cls.__dict__[meth] is orig]
        if not self._originals or escaped:
            raise PatchError("unwrapped originals after patching: "
                             + (", ".join(sorted(escaped)) or "nothing wrapped"))

    def restore(self):
        """Undo ``patch``: put every original back where it was found."""
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def span_array(self):
        import numpy as np
        arr = np.array(self.spans, dtype=SPAN_DTYPE)
        return arr[np.argsort(arr["id"], kind="stable")]

    def summary(self, wall_s):
        """Per-span-name and per-layer figures; shares are percentages of
        ``wall_s``, the traced process's wall time from start to the end of
        the workload."""
        import numpy as np
        sp = self.span_array()
        n_names = len(self.names)
        dur = sp["t1"] - sp["t0"]
        # span ids are dense from 0 and sorted, so an id is its row index
        child = np.zeros(sp.size)
        has_parent = sp["parent"] >= 0
        np.add.at(child, sp["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        names = sp["name"]

        def per_name(weights=None):
            return np.bincount(names, weights=weights, minlength=n_names)

        fn = {
            "calls": per_name(),
            "self_s": per_name(self_t),
            "incl_s": per_name(dur * sp["outer_fn"]),
            "errors": per_name(sp["error"].astype(float)),
            "work": per_name(sp["work"].astype(float)),
        }
        layer_of = np.asarray(self.layer_of, dtype=np.int64)
        span_layer = layer_of[names]

        def per_layer(weights=None):
            return np.bincount(span_layer, weights=weights, minlength=len(LAYERS))

        lay = {
            "calls": per_layer(),
            "self_s": per_layer(self_t),
            "incl_s": per_layer(dur * sp["outer_layer"]),
            "errors": per_layer(sp["error"].astype(float)),
        }
        trials = max(int(self.trial), 1)
        out = {"trials": int(self.trial)}
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = int(lay["calls"][li])
            out[f"{layer}.errors"] = int(lay["errors"][li])
            out[f"{layer}.self_s"] = float(lay["self_s"][li])
            out[f"{layer}.incl_s"] = float(lay["incl_s"][li])
            out[f"{layer}.self_share"] = 100.0 * float(lay["self_s"][li]) / wall_s
            out[f"{layer}.incl_share"] = 100.0 * float(lay["incl_s"][li]) / wall_s
        for ni, name in enumerate(self.names):
            calls = int(fn["calls"][ni])
            out[f"{name}.calls"] = calls
            out[f"{name}.calls_per_trial"] = calls / trials
            out[f"{name}.self_s"] = float(fn["self_s"][ni])
            out[f"{name}.incl_s"] = float(fn["incl_s"][ni])
            out[f"{name}.self_share"] = 100.0 * float(fn["self_s"][ni]) / wall_s
            out[f"{name}.incl_share"] = 100.0 * float(fn["incl_s"][ni]) / wall_s
            out[f"{name}.errors"] = int(fn["errors"][ni])
        index = {name: ni for ni, name in enumerate(self.names)}

        def work(name):
            return int(fn["work"][index[name]]) if name in index else 0

        points = work("scalar_functions.deriv")
        out["scalar_functions.deriv.points"] = points
        out["scalar_functions.deriv.points_per_call"] = (
            points / max(out.get("scalar_functions.deriv.calls", 0), 1))
        entries = sum(work(name) for name in SYMBOL_SPANS)
        out["moi.symbol_entries"] = entries
        out["moi.dd_calls_per_entry"] = (
            out.get("divided_diff.divided_difference.calls", 0) / max(entries, 1))
        return out


def main(argv):
    summary_path, spans_path, module_name, *args = argv
    t_start = time.perf_counter()
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import numpy as np
    target = importlib.import_module(module_name)
    tracer = Tracer()
    tracer.patch()
    if module_name != "tracetaylor.cli":
        target.make_instance = tracer.mark_trial(target.make_instance)
    tracer.check_patched()
    code = target.main(args)
    wall = time.perf_counter() - t_start
    summary = tracer.summary(wall)
    np.save(spans_path, tracer.span_array())
    Path(summary_path).write_text(json.dumps({"in_process_s": wall, "metrics": summary}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
