"""sievereg benchmark: entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` (``PYTHONPATH=src``), as in the tier-1 test command.

Load model: a closed loop of batch jobs.  Each job is a fresh child
process that imports ``sievereg`` and makes one ``sievereg.cli.run`` study
call with an INI config written here; the next job starts when the last
one has exited.  Jobs go round-robin over the workload's variants, for
``--seconds`` seconds and at least ``min_rounds`` rounds.

--trace 0 runs *serial* jobs: one replication thread and
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1.  On a small shared host, two or
more compute threads measure how busy the neighbours are: a run that
loses one core for a while loses up to half its throughput, while a single
thread moves to the other core.  It prints the end-to-end metrics:
replications per second inside the study calls (set-up excluded), the
median over jobs of set-up seconds (process start to the first
replication, plus any basis/Gram/grid set-up the study does between
replications), the peak RSS of a job and the share of replications that
did not fail.

--trace 1 makes three passes of one job per variant: untraced pooled
(2 replication threads, BLAS threads at the library default, i.e. with
OPENBLAS_NUM_THREADS/OMP_NUM_THREADS removed from the child's
environment, as users run today), traced pooled, and traced serial.  The
per-layer metrics listed in ``layers.json`` come from the serial pass;
``pooled.reps_per_s`` and ``pool.speedup`` compare the pooled pass with it,
which is where pool x BLAS oversubscription shows.  The effective thread
counts go into the provenance block.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  Every job's outputs pass the correctness gate in
``workloads.py`` or the run exits 1.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, failed_reps, gate, load_reference

HERE = os.path.dirname(os.path.abspath(__file__))

WORK_DIR = ".perfbench-work"
RUN_LIMIT_S = 170.0
END_TO_END = (("reps_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("success_frac", "frac"))


class GateFailure(RuntimeError):
    pass


def load_layers():
    with open(os.path.join(HERE, "layers.json")) as fh:
        return json.load(fh)["metrics"]


def source_provenance(root):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "sievereg", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


class Runner:
    """Spawns jobs for one workload and checks each one's outputs."""

    def __init__(self, root, workload, seed, smoke, reference, deadline):
        self.root = root
        self.w = workload
        self.seed = seed
        self.smoke = smoke
        self.reps = workload.smoke_reps if smoke else workload.reps
        self.ref = reference
        self.deadline = deadline
        self.work = os.path.join(root, WORK_DIR, f"{workload.name}-{seed}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.provenance = None

    def job_seed(self, round_index, v_index):
        if round_index == 0:
            return self.w.variants[v_index].anchor_seed
        return 1_000_000 + 1000 * self.seed + 10 * round_index + v_index

    def job(self, round_index, v_index, trace=False, serial=False):
        """Run one child; returns its child.json record."""
        variant = self.w.variants[v_index]
        seed = self.job_seed(round_index, v_index)
        self.count += 1
        out = os.path.join(self.work, f"job{self.count:03d}-{variant.name}")
        os.makedirs(out)
        config = os.path.join(out, "study.ini")
        with open(config, "w") as fh:
            fh.write(variant.ini(seed, self.reps))
        threads = 1 if serial and self.w.pool_threads else self.w.pool_threads
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(key, None)
            if serial:
                env[key] = "1"
        job_path = os.path.join(out, "job.json")
        with open(job_path, "w") as fh:
            json.dump({"argv": self.w.argv(variant, config,
                                           os.path.join(out, "result"), threads),
                       "trace": trace, "out": out, "t_spawn": time.time(),
                       "pool_threads": max(threads, 1)}, fh)
        attempted = self.reps * self.w.units_per_rep
        self.attempted += attempted
        timeout = self.deadline - time.monotonic()
        try:
            with open(os.path.join(out, "stderr.log"), "w") as err:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), job_path],
                    cwd=self.root, env=env, stdout=err, stderr=err,
                    timeout=max(timeout, 1.0))
            with open(os.path.join(out, "child.json")) as fh:
                rec = json.load(fh)
        except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
            self.failed += attempted
            raise GateFailure(f"{variant.name} job {self.count}: {exc}")
        if proc.returncode != 0 or rec["exit_code"] != 0:
            self.failed += attempted
            raise GateFailure(
                f"{variant.name} job {self.count}: exit {proc.returncode}/"
                f"{rec.get('exit_code')}, see {out}/stderr.log")
        result = os.path.join(out, "result")
        problems = gate(self.w.name, variant.name, result, seed, self.reps,
                        round_index == 0, not self.smoke, self.ref)
        if problems:
            self.failed += attempted
            raise GateFailure(f"{variant.name} job {self.count} (seed {seed}): "
                              + "; ".join(problems))
        self.failed += failed_reps(self.w.name, result)
        rec["attempted"] = attempted
        if self.provenance is None:
            self.provenance = dict(rec["provenance"], pool_threads=threads)
        print(f"[perfbench] {self.w.name}/{variant.name} seed={seed} "
              f"trace={int(trace)} serial={int(serial)} "
              f"setup={rec['setup_s']:.3f}s reps/s="
              f"{attempted / rec['rep_s']:.2f} rss={rec['peak_rss_mb']:.0f}MB",
              file=sys.stderr)
        return rec


def _rate(records):
    return sum(r["attempted"] for r in records) / sum(r["rep_s"] for r in records)


def end_to_end(runner, seconds):
    """Jobs round-robin over the variants for about `seconds` seconds.

    Another job starts while the run would end no more than half a job past
    `seconds`; so a run measures for `seconds` on average, whatever the job
    length.  The rate is over all the run's replication time: on a shared
    host the speed of a core wanders over seconds, which an average over
    the whole run smooths better than the median of a few jobs.  Set-up
    time is the median over the jobs.
    """
    start = time.monotonic()
    records, job_s = [], []
    n_variants = len(runner.w.variants)
    while True:
        round_index, v = divmod(len(records), n_variants)
        t = time.monotonic()
        records.append(runner.job(round_index, v, serial=True))
        job_s.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if (len(records) >= runner.w.min_rounds * n_variants
                and elapsed + 0.5 * statistics.median(job_s) > seconds):
            break
    return {
        "reps_per_s": _rate(records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "success_frac": 1.0 - runner.failed / runner.attempted,
    }


def _merge_layers(records):
    merged = {}
    for rec in records:
        for name, agg in rec["layers"].items():
            into = merged.setdefault(name, {"ms": []})
            for key, val in agg.items():
                if key == "ms":
                    into["ms"].extend(val)
                else:
                    into[key] = into.get(key, 0) + val
    return merged


def _quantile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def per_layer(runner, layers):
    variants = range(len(runner.w.variants))
    pooled = [runner.job(1, v) for v in variants]
    traced = [runner.job(1, v, trace=True) for v in variants]
    serial = [runner.job(1, v, trace=True, serial=True) for v in variants]
    merged = _merge_layers(serial)
    serial_rep_s = sum(r["rep_s"] for r in serial)
    busy = sum(r["pool_busy_frac"] * r["rep_s"] for r in traced)
    whole = {
        "import_s": statistics.median(r["import_s"] for r in serial),
        "pool_busy_frac": (busy / sum(r["rep_s"] for r in traced)
                           if runner.w.pool_threads else 0.0),
        "trace_overhead_frac": (sum(r["wall_s"] for r in traced)
                                / sum(r["wall_s"] for r in pooled) - 1.0),
        "span_coverage_frac": sum(r["covered_s"] for r in serial) / serial_rep_s,
        "serial_reps_per_s": _rate(serial),
        "pooled_reps_per_s": _rate(pooled),
        "pool_speedup": _rate(pooled) / _rate(serial),
        "failed_frac": runner.failed / runner.attempted,
    }
    out = {}
    for m in layers:
        stat = m["stat"]
        if "span" not in m:
            value = whole[stat]
        else:
            agg = merged.get(m["span"], {"ms": []})
            if stat == "nnz_frac":
                value = agg["nnz"] / agg["entries"] if agg.get("entries") else 0.0
            elif stat == "call_ms_p50":
                value = statistics.median(agg["ms"]) if agg["ms"] else 0.0
            elif stat == "call_ms_p99":
                value = _quantile(agg["ms"], 0.99) if agg["ms"] else 0.0
            else:
                value = agg.get(stat, 0)
        out[m["name"]] = int(value) if m["unit"] == "count" else float(value)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-size studies, for selfcheck.py")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sievereg", "cli.py")):
        print("perfbench: src/sievereg not found; run from the root of a "
              "sievereg checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    runner = Runner(root, WORKLOADS[args.workload], args.seed, args.smoke,
                    load_reference(), deadline)
    layers = load_layers()
    try:
        if args.trace:
            values = per_layer(runner, layers)
            units = {m["name"]: m["unit"] for m in layers}
        else:
            values = end_to_end(runner, args.seconds)
            units = dict(END_TO_END)
        correct = True
    except GateFailure as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        correct, values, units = False, {}, {}
    provenance = dict(source_provenance(root), **(runner.provenance or {}))
    provenance.update(workload=args.workload, seed=args.seed, trace=args.trace)
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    with open(os.path.join(runner.work, "result.json"), "w") as fh:
        json.dump({"provenance": provenance, "result": result}, fh, indent=1)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
