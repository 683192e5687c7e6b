"""Demo outputs of a parent commit against the working tree.

    python3 bench/demo_diff.py [--parent REV]

Run from the root of a sievereg checkout.  The parent commit (default
``HEAD``) is exported as ``bench/paired.py`` exports it.  In both trees, at
``OPENBLAS_NUM_THREADS=1``, it runs every ``demos/configs/*.ini`` through
``python -m sievereg.cli`` (as CI's "Demo configs" step does), the rate
study once more with ``--synthetic-oracle``, and every ``demos/*.py``
script, each from the root of its tree, keeping each run's stdout and
exit code next to its output tree under ``.perfbench-work/demo-diff/``.

It prints one line per difference: a ``summary.json`` leaf, a CSV cell, a
stdout line, or a file that only one tree wrote, with both values and, for
numbers, the relative change.  It exits 1 if anything differs and 0 if the
trees are identical.
"""

import argparse
import csv
import glob
import json
import math
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from paired import WORK_DIR, export_parent  # noqa: E402


def runs(root, dest):
    """(name, argv) of every demo run, from the root of the tree `root`,
    writing its output trees under `dest`."""
    cli = [sys.executable, "-m", "sievereg.cli"]
    out = []
    for cfg in sorted(glob.glob(os.path.join(root, "demos", "configs", "*.ini"))):
        stem = os.path.basename(cfg)[:-len(".ini")]
        out.append((stem, cli + [stem.replace("_", "-"), "--config",
                                 os.path.relpath(cfg, root),
                                 "--out", os.path.join(dest, stem)]))
    out.append(("rate_study_synth",
                cli + ["rate-study", "--config", "demos/configs/rate_study.ini",
                       "--out", os.path.join(dest, "rate_study_synth"),
                       "--synthetic-oracle"]))
    for script in sorted(glob.glob(os.path.join(root, "demos", "*.py"))):
        out.append((os.path.basename(script),
                    [sys.executable, os.path.relpath(script, root)]))
    return out


def run_tree(root, dest):
    """Run every demo of `root`, keeping stdout and exit codes in `dest`."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(root, "src"))
    for name, argv in runs(root, dest):
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                              text=True)
        with open(os.path.join(dest, f"{name}.stdout"), "w") as fh:
            fh.write(proc.stdout)
        with open(os.path.join(dest, f"{name}.exit"), "w") as fh:
            fh.write(f"{proc.returncode}\n")


def files(top):
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names}


def leaves(value, path=""):
    """{json path: leaf} of a parsed JSON document."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items()
                for k, v in leaves(item, f"{path}.{key}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in leaves(item, f"{path}[{i}]").items()}
    return {path or ".": value}


def json_leaves(path):
    with open(path) as fh:
        return leaves(json.load(fh))


def cells(path):
    """{(row, column): text} of a CSV file; columns named by the header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    return {(r, header[c] if c < len(header) else c): text
            for r, row in enumerate(rows[1:], 1)
            for c, text in enumerate(row)}


def lines(path):
    with open(path) as fh:
        return dict(enumerate(fh.read().splitlines(), 1))


def relative(a, b):
    """max |b - a| / |a| over the numbers that differ in the texts a and b
    (token by token), or None when a differing token is not a number."""
    ta, tb = str(a).split(), str(b).split()
    if len(ta) != len(tb):
        return None
    worst = 0.0
    for x, y in zip(ta, tb):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return None
        worst = max(worst, abs(fy - fx) / abs(fx) if fx else math.inf)
    return worst


def differences(parent, change):
    """Lines naming each difference between the two output trees."""
    out = []
    for rel in sorted(files(parent) | files(change)):
        a, b = os.path.join(parent, rel), os.path.join(change, rel)
        if not (os.path.isfile(a) and os.path.isfile(b)):
            side = "parent" if os.path.isfile(a) else "change"
            out.append(f"{rel}: only in {side}")
            continue
        read = (json_leaves if rel.endswith(".json") else
                cells if rel.endswith(".csv") else lines)
        va, vb = read(a), read(b)
        for key in list(va) + [k for k in vb if k not in va]:   # file order
            x, y = va.get(key, "<none>"), vb.get(key, "<none>")
            if json.dumps(x) == json.dumps(y):
                continue
            r = relative(x, y)
            out.append(f"{rel} {key}: parent {x!r} change {y!r}"
                       + ("" if r is None else f" rel {r:.2g}"))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args(argv)
    if not os.path.isfile("BENCHMARK.json"):
        parser.error("run from the root of a sievereg checkout")
    _, parent_root = export_parent(args.parent)
    trees = {arm: os.path.abspath(os.path.join(WORK_DIR, "demo-diff", arm))
             for arm in ("parent", "change")}
    run_tree(parent_root, trees["parent"])
    run_tree(os.getcwd(), trees["change"])
    diffs = differences(trees["parent"], trees["change"])
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s) against {args.parent}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
