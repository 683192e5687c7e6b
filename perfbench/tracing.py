"""In-process span recorder for the benchmark's child processes.

Spans are recorded by replacing public callables of ``sievereg`` with
wrappers, from the benchmark's own files; the package itself is not
changed.  A function is patched where it is defined and at every binding
of the same object in the package's modules (the ``from ... import``
names in ``simulate``, ``cli``, ``inference``, ``concentration`` and the
rest), so calls through any of those names are seen.  Methods that carry
the hot paths are patched on their classes.

Each span records name, start, end, parent span and thread; spans are kept
in memory and written once, at exit.  The self time of a span is its
duration minus the durations of its direct children.
"""

import functools
import importlib
import inspect
import json
import threading
import time

MODULES = ("basis", "bsplines", "daubechies", "quadrature", "gram",
           "estimator", "inference", "concentration", "simulate",
           "reporting", "cli")

# (module, class, method) -> span name; these stand for their layer.
METHODS = {
    ("basis", "BasisSystem", "evaluate"): "basis.evaluate",
    ("basis", "BasisSystem", "evaluate_gradient"): "basis.evaluate_gradient",
    ("estimator", "FitResult", "predict"): "estimator.predict",
    ("concentration", "GramDeviationGenerator", "sum_norms"):
        "concentration.sum_norms",
    ("inference", "FunctionalSpec", "value"): "inference.FunctionalSpec.value",
    ("inference", "FunctionalSpec", "derivative"):
        "inference.FunctionalSpec.derivative",
}

# Study entry points; the first replication starts at the first call of
# `simulate.derived_rng` (studies) or `concentration.sum_norms` (tails).
STUDY_SPANS = ("simulate.coverage_study", "simulate.rate_study",
               "simulate.stability_study", "concentration.empirical_tail")
REP_MARKERS = ("simulate.derived_rng", "concentration.sum_norms")
# Set-up work that a study may do between replications (per n or per K).
SETUP_SPANS = ("basis.build_basis", "gram.theoretical_gram",
               "quadrature.sup_grid", "quadrature.basis_quadrature")
# Spans the untraced pass needs to split set-up from replication time.
MINIMAL = STUDY_SPANS + REP_MARKERS + SETUP_SPANS


class Tracer:
    """Collects spans from wrapped callables; safe to use from pool threads."""

    def __init__(self, full):
        self.full = full
        self.spans = []           # [id, name, start, end, parent, thread, extra]
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        full = self.full

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[span_id] = [span_id, name, start, end, parent,
                                       threading.get_ident(), None]
            if full:
                self.spans[span_id][6] = _extra(name, result)
            return result

        return wrapper

    def install(self):
        """Patch the package; with full=False only the MINIMAL spans."""
        mods = {m: importlib.import_module(f"sievereg.{m}") for m in MODULES}
        replace = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name in METHODS.values():
                    continue      # module-level alias of a traced method
                if self.full or name in MINIMAL:
                    replace[id(obj)] = (obj, self.wrap(name, obj))
        for mod in list(mods.values()) + [importlib.import_module("sievereg")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)][1])
        for (short, cls_name, meth), name in METHODS.items():
            if self.full or name in MINIMAL:
                cls = getattr(mods[short], cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([s for s in self.spans if s is not None], fh)


def _extra(name, result):
    """Per-call counters measured where the work happens."""
    if name == "basis.evaluate":
        import numpy as np
        arr = np.asarray(result)
        rows = arr.shape[0] if arr.ndim == 2 else 1
        return {"points": int(rows), "nnz": int(np.count_nonzero(arr)),
                "entries": int(arr.size)}
    if name == "estimator.fit":
        return {"rank_deficient": bool(result.rank_deficient)}
    return None


def self_times(spans):
    """{span id: duration minus direct children's durations}."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None and s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own
