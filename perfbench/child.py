"""One benchmark child: a fresh process that makes one `sievereg.cli.run` call.

    PYTHONPATH=src python3 perfbench/child.py JOB.json

JOB.json names the CLI argv, the parent's wall clock just before the spawn
(``t_spawn``), whether to trace every layer, and where to write results.
The child writes ``child.json`` (timings, counters, peak RSS, provenance)
and, when tracing, ``trace.json`` (every span) next to it.
"""

import json
import os
import resource
import sys
import threading
import time

from tracing import REP_MARKERS, SETUP_SPANS, STUDY_SPANS, Tracer, self_times


def _blas_threads():
    """Effective OpenBLAS thread counts of the libraries numpy/scipy load."""
    import ctypes
    import glob
    out = {}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules.get(pkg) or __import__(pkg)
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                              pkg + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    out[os.path.basename(path)] = int(fn())
                    break
    return out


def provenance():
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_effective": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def summarize(spans, full, main_thread, pool_threads):
    """Set-up/replication split and per-layer aggregates from the spans."""
    study = [s for s in spans if s[1] in STUDY_SPANS]
    if len(study) != 1:
        raise RuntimeError(f"expected one study call, saw {len(study)}")
    study = study[0]
    first_rep = min(s[2] for s in spans if s[1] in REP_MARKERS)
    # direct children of the study call made after the first replication
    in_window = [s for s in spans if s[4] == study[0] and s[2] >= first_rep]
    late_setup = [s for s in in_window if s[1] in SETUP_SPANS]
    late_setup_s = sum(s[3] - s[2] for s in late_setup)
    rep_s = (study[3] - first_rep) - late_setup_s
    out = {"first_rep": first_rep, "rep_s": rep_s,
           "late_setup_s": late_setup_s}
    if not full:
        return out
    own = self_times(spans)
    layers = {}
    for s in spans:
        agg = layers.setdefault(s[1], {"self_s": 0.0, "calls": 0, "ms": []})
        agg["self_s"] += own[s[0]]
        agg["calls"] += 1
        if s[1] == "estimator.fit":
            agg["ms"].append(1e3 * (s[3] - s[2]))
        for key, val in (s[6] or {}).items():
            agg[key] = agg.get(key, 0) + int(val)
    worker = [s for s in spans if s[5] != main_thread and s[4] is None]
    busy = sum(s[3] - s[2] for s in worker)
    out.update({
        "layers": layers,
        "covered_s": sum(s[3] - s[2] for s in in_window) - late_setup_s,
        "pool_busy_frac": busy / (rep_s * pool_threads) if worker else 0.0,
    })
    return out


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    t0 = time.perf_counter()
    offset = time.time() - t0
    import sievereg        # noqa: F401  (timed: the import users pay)
    import sievereg.cli
    t_import = time.perf_counter() - t0
    tracer = Tracer(full=job["trace"])
    tracer.install()
    stdout = sys.stdout
    with open(os.path.join(job["out"], "cli.log"), "w") as log:
        sys.stdout = log
        try:
            code = sievereg.cli.run(job["argv"])
        finally:
            sys.stdout = stdout
    t_end = time.perf_counter()
    result = {
        "exit_code": code,
        "import_s": t_import,
        "wall_s": t_end + offset - job["t_spawn"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
    }
    if code == 0:
        spans = [s for s in tracer.spans if s is not None]
        timing = summarize(spans, job["trace"], threading.get_ident(),
                           job["pool_threads"])
        timing["setup_s"] = (timing.pop("first_rep") + offset - job["t_spawn"]
                             + timing["late_setup_s"])
        result.update(timing)
        if job["trace"]:
            tracer.write(os.path.join(job["out"], "trace.json"))
    with open(os.path.join(job["out"], "child.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
