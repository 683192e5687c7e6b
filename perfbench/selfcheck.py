"""Smoke-size self-check of the benchmark itself (about three minutes).

    python3 perfbench/selfcheck.py

From the root of a checkout, it checks that:

* BENCHMARK.json, ``run.py`` and ``layers.json`` name the same metrics
  with the same units;
* every workload, untraced and traced, passes its gate and prints every
  metric with its unit, and each per-layer metric that ``layers.json``
  says runs on a workload is non-zero there;
* the correctness gate trips on perturbed copies of a real summary
  (a NaN, a value outside its paper window, a drift beyond the reference
  tolerance), and passes the unperturbed copy;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

from run import END_TO_END, WORK_DIR, load_layers
from workloads import WORKLOADS, gate, load_reference

HERE = os.path.dirname(os.path.abspath(__file__))

# per-layer stats that may legitimately read 0 (or below) where they run
MAY_BE_ZERO = {"rank_deficient", "failed_frac", "trace_overhead_frac"}


def run_bench(workload, trace, cwd="."):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def check_names(bench):
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == dict(END_TO_END), (e2e, END_TO_END)
    layers = {m["name"]: (m["unit"], m["better"]) for m in load_layers()}
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layers == listed, set(layers) ^ set(listed)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


def check_output(workload, trace, proc, bench):
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1, result
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in expected}, (workload, trace)
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
    if trace:
        for m in load_layers():
            if workload in m["on"] and m["stat"] not in MAY_BE_ZERO:
                assert got[m["name"]]["value"] > 0, (workload, m["name"])


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _dump(path, summary):
    with open(path, "w") as fh:
        json.dump(summary, fh)


def _non_finite(workload, out):
    path = os.path.join(out, "summary.json")
    key = {"coverage_haar": "coverage", "rate_spline": "slope_sup",
           "stability_lebesgue": "medians", "tail_gram": "violations"}[workload]
    summary = _load(path)
    summary["summary"][key] = float("nan")
    _dump(path, summary)          # json.dump writes the NaN token


def _outside_window(workload, out):
    path = os.path.join(out, "summary.json")
    summary = _load(path)
    s = summary["summary"]
    if workload == "coverage_haar":
        s["coverage"] = 0.5
    elif workload == "rate_spline":
        s["slope_sup"] = 0.1
    elif workload == "stability_lebesgue":
        s["medians"][0]["lebesgue_empirical"] = 10.0
    else:
        s["violations"] = 1
    _dump(path, summary)


def _drift(workload, out):
    if workload == "tail_gram":        # its reference floats are in detail.csv
        path = os.path.join(out, "detail.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        cols = lines[5].split(",")
        cols[2] = repr(float(cols[2]) * (1.0 + 1e-4))
        lines[5] = ",".join(cols)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    path = os.path.join(out, "summary.json")
    summary = _load(path)
    s = summary["summary"]
    if workload == "stability_lebesgue":
        s["medians"][0]["dev"] *= 1.0 + 1e-4
    elif workload == "rate_spline":
        s["median_sup"][0] *= 1.0 + 1e-4
    else:
        s["mean_ci_length"] *= 1.0 + 1e-4
    _dump(path, summary)


# (label, edit, text expected in a reported problem)
PERTURBATIONS = (("non-finite value", _non_finite, "summary.json"),
                 ("outside paper window", _outside_window, "outside"),
                 ("drift beyond tolerance", _drift, "differs from reference"))


def check_gate_trips(workload, ref):
    """Gate an anchor job's outputs, then perturbed copies of them."""
    wl = WORKLOADS[workload]
    variant = wl.variants[0]
    src = os.path.join(WORK_DIR, f"{workload}-0", f"job001-{variant.name}",
                       "result")
    args = (workload, variant.name)
    kwargs = dict(seed=variant.anchor_seed, reps=wl.smoke_reps, anchor=True,
                  full_size=False, ref=ref)
    assert gate(*args, src, **kwargs) == [], workload
    for label, edit, expect in PERTURBATIONS:
        dst = os.path.join(WORK_DIR, "selfcheck", workload,
                           label.replace(" ", "_"))
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)
        edit(workload, dst)
        # the window check is held exactly, as for a full-size anchor
        problems = gate(*args, dst, **dict(
            kwargs, full_size=label == "outside paper window"))
        assert any(expect in p for p in problems), (workload, label, problems)
        print(f"  gate trips on {label}: {problems[0][:90]}")


def check_bare_directory():
    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("tail_gram", 0, cwd=bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ref = load_reference()
    check_names(bench)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_output(workload, trace, run_bench(workload, trace), bench)
            print(f"{workload} trace={trace}: all metrics emitted with units")
            if trace == 0:        # job001 is the anchor of the untraced run
                check_gate_trips(workload, ref)
    check_bare_directory()
    print("bare directory: exits non-zero without a result")
    print("selfcheck: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
