"""Paired benchmark runs: a parent commit against the working tree.

    python3 bench/paired.py --out BENCH_<pr>.json [--parent REV]
                            [--pairs 3] [--seconds 10] [--seed 901]
                            [--smoke] [WORKLOAD ...]

Run from the root of a sievereg checkout.  The parent commit (default
``HEAD~1``) is exported with ``git archive`` into
``.perfbench-work/parent-<sha>/``, so an interrupted run leaves no git
state behind.  For each workload named (default: every workload in
BENCHMARK.json) it runs ``perfbench/run.py --trace 0`` in both trees, pair
after pair, alternating which arm goes first.  Both runs of a pair use the
same ``--seed``; pair i uses seed + i.  Any run that fails its gate stops
the script with exit 1.

It writes ``--out`` (``BENCH_<pr>.json`` for a change that claims a gain):
the provenance block each arm's child reported and, per workload and
end-to-end metric, each arm's median and quartiles over the pairs and the
number of pairs in which the working tree did strictly better.  It never
edits ``perfbench/``.  Compare numbers only within one run of the script:
the speed of a shared host drifts between sessions.
"""

import argparse
import datetime
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

WORK_DIR = ".perfbench-work"


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export_parent(rev):
    """Extract commit `rev` into a fresh directory; returns (sha, path)."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    path = os.path.join(WORK_DIR, f"parent-{sha[:12]}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    archive = subprocess.run(["git", "archive", "--format=tar", sha],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(path, **({"filter": "data"}
                                 if hasattr(tarfile, "data_filter") else {}))
    return sha, os.path.abspath(path)


def run_arm(root, workload, seed, seconds, smoke):
    """One ``perfbench/run.py --trace 0`` run in `root`: (provenance, metrics)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} in {root} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("provenance "))
    if not result["correct"]:
        raise RuntimeError(f"{workload} in {root} failed its gate")
    return provenance, {k: m["value"] for k, m in result["metrics"].items()}


def spread(values):
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, end_to_end):
    out = {}
    for m in end_to_end:
        name = m["name"]
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if m["better"] == "higher" else -1.0
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": spread(parent), "change": spread(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-size studies (checks the script, not speed)")
    parser.add_argument("--out", required=True, help="e.g. BENCH_<pr>.json")
    args = parser.parse_args(argv)
    if not os.path.isfile("BENCHMARK.json"):
        parser.error("run from the root of a sievereg checkout")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {names}")

    parent_sha, parent_root = export_parent(args.parent)
    roots = {"parent": parent_root, "change": os.getcwd()}
    provenance, results = {}, {}
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": args.seed + i, "first": order[0]}
            for arm in order:
                prov, pair[arm] = run_arm(roots[arm], workload, args.seed + i,
                                          args.seconds, args.smoke)
                for key in ("workload", "seed", "trace"):
                    prov.pop(key, None)
                provenance.setdefault(arm, prov)
                print(f"[paired] {workload} pair {i + 1}/{args.pairs} {arm}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in pair[arm].items()),
                      file=sys.stderr)
            pairs.append(pair)
        results[workload] = {"metrics": summarize(pairs, bench["end_to_end"]),
                             "pairs": pairs}

    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    record = {
        "parent": parent_sha,
        "change": {"head": git("rev-parse", "HEAD"), "dirty": dirty},
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
                       .isoformat(timespec="seconds"),
        "command": ["bench/paired.py"] + (argv if argv is not None else sys.argv[1:]),
        "settings": {"pairs": args.pairs, "seconds": args.seconds,
                     "seed": args.seed, "smoke": args.smoke, "trace": 0},
        "provenance": provenance,
        "workloads": results,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)
        fh.write("\n")
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{workload:20s} {name:12s} parent {m['parent']['median']:.4g} "
                  f"change {m['change']['median']:.4g} "
                  f"wins {m['change_wins']}/{m['pairs']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"paired: {exc}", file=sys.stderr)
        sys.exit(1)
