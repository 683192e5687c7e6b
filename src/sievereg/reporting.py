"""The one writer of a command's output files.

`write_report` writes all that a CLI command leaves in its output
directory: ``summary.json`` and one CSV per table of the command's work.
All floats are rendered with %.17g so repeated runs with the same config
and seed produce byte-identical files; JSON keys are sorted.  JSON has no
NaN or infinity (RFC 8259), so non-finite floats are written as null.
"""

import json
import os

import numpy as np


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def fmt(value):
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def matrix_table(mat):
    """(columns, rows) of a dense row-major matrix dump, header k0,k1,value."""
    return ["k0", "k1", "value"], (
        (i, j, v) for (i, j), v in np.ndenumerate(mat))


def write_report(out_dir, summary, tables):
    """Write `summary` to out_dir/summary.json and, for each name ->
    (columns, rows) of `tables`, the CSV out_dir/name; rows may be an
    iterator, read once."""
    os.makedirs(out_dir, exist_ok=True)
    payload = json.dumps(_jsonable(summary), sort_keys=True, indent=2,
                         allow_nan=False)
    with open(os.path.join(out_dir, "summary.json"), "w", newline="\n") as fh:
        fh.write(payload + "\n")
    for name, (columns, rows) in tables.items():
        with open(os.path.join(out_dir, name), "w", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(fmt(v) for v in row) + "\n")
