"""CSV and JSON artifact writers with reproducible formatting.

Floats are rendered with 17 significant digits, lines end with LF, and no
wall-clock content reaches the CSVs, so identical configurations produce
bit-identical files.  JSON is strict: a non-finite float is written as the
string "nan", "inf" or "-inf".
"""

import json
import math
import os

import numpy as np

__all__ = [
    "csv_table",
    "diagnostics_csv",
    "spectrum_csv",
    "reduced_trajectory_csv",
    "stable_trajectory_csv",
    "json_text",
    "write_text",
    "write_json",
    "write_files",
]


def csv_table(columns) -> str:
    """CSV text of ``columns``, a sequence of (header, values) pairs of equal length.

    Every cell, integers included, is rendered as a float with 17
    significant digits, one ``%`` format per row.
    """
    row = ",".join(["%.17g"] * len(columns))
    lines = [",".join(name for name, _ in columns)]
    lines += [row % cells for cells in zip(*(values for _, values in columns))]
    return "\n".join(lines) + "\n"


def diagnostics_csv(series) -> str:
    return csv_table([("t", series.t), ("l2_sq", series.l2_sq), ("momentum", series.momentum),
                      ("u0_abs", series.u0_abs), ("hs_sq_1.00", series.h1_sq)])


def spectrum_csv(spec) -> str:
    vals = spec.distinct_eigenvalues
    return csv_table([("index", range(1, len(vals) + 1)), ("eigenvalue", vals),
                      ("multiplicity", spec.multiplicities)])


def reduced_trajectory_csv(traj) -> str:
    return csv_table([("t", traj.t), ("beta", traj.beta), ("gamma", traj.gamma),
                      ("re_zeta", traj.zeta.real), ("im_zeta", traj.zeta.imag)])


def stable_trajectory_csv(result) -> str:
    return csv_table([("t", result.t), ("beta", result.beta), ("delta", result.delta),
                      ("re_zeta", result.zeta.real), ("im_zeta", result.zeta.imag)])


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "nan", "inf" or "-inf"
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": _jsonify(obj.real), "im": _jsonify(obj.imag)}
    return obj


def json_text(payload) -> str:
    """Strict JSON of ``payload``: two-space indent, sorted keys, no bare NaN or Infinity."""
    return json.dumps(_jsonify(payload), indent=2, sort_keys=True, allow_nan=False)


def write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        fh.write(json_text(payload) + "\n")


def write_files(out_dir, files) -> dict:
    """Write ``files``, a ``{name: content}`` dict, into ``out_dir``.

    ``*.json`` contents go through :func:`write_json`, the rest through
    :func:`write_text`.  Returns ``{name: path}``.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, content in files.items():
        paths[name] = os.path.join(out_dir, name)
        (write_json if name.endswith(".json") else write_text)(paths[name], content)
    return paths
