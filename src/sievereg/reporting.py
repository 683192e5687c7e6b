"""Deterministic writers for study outputs.

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


def write_summary_json(path, summary):
    payload = json.dumps(_jsonable(summary), sort_keys=True, indent=2,
                         allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(payload + "\n")


def write_detail_csv(path, columns, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_matrix_csv(path, mat):
    """Dense row-major matrix dump with header k0,k1,value."""
    write_detail_csv(path, ["k0", "k1", "value"],
                     [(i, j, v) for (i, j), v in np.ndenumerate(mat)])


def write_report(report, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_summary_json(os.path.join(out_dir, "summary.json"),
                       {"kind": report.kind, "summary": report.summary,
                        "config": report.config})
    write_detail_csv(os.path.join(out_dir, "detail.csv"),
                     report.columns, report.rows)
