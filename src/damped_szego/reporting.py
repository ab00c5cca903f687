"""CSV and JSON artifact writers with reproducible formatting.

Floats are rendered with 17 significant digits, lines end with LF, and no
wall-clock content reaches the CSVs, so identical configurations produce
bit-identical files.
"""

import json
import os

import numpy as np

__all__ = [
    "fmt",
    "csv_table",
    "diagnostics_csv",
    "spectrum_csv",
    "w_trajectory_csv",
    "reduced_trajectory_csv",
    "stable_trajectory_csv",
    "write_text",
    "write_json",
    "write_files",
]


def fmt(x) -> str:
    return format(float(x), ".17g")


def csv_table(columns) -> str:
    """CSV text of ``columns``, a sequence of (header, values) pairs of equal length.

    Every cell, integers included, is rendered by :func:`fmt`.
    """
    lines = [",".join(name for name, _ in columns)]
    for row in zip(*(values for _, values in columns)):
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def diagnostics_csv(series) -> str:
    cols = [("t", series.t), ("l2_sq", series.l2_sq), ("momentum", series.momentum),
            ("u0_abs", series.u0_abs)]
    cols += [(f"hs_sq_{s:.2f}", series.hs_sq[s]) for s in sorted(series.hs_sq)]
    return csv_table(cols)


def spectrum_csv(spec) -> str:
    vals = spec.distinct_eigenvalues
    return csv_table([("index", range(1, len(vals) + 1)), ("eigenvalue", vals),
                      ("multiplicity", spec.multiplicities)])


def w_trajectory_csv(traj) -> str:
    return csv_table([
        ("t", traj.t),
        ("re_b", traj.b.real), ("im_b", traj.b.imag),
        ("re_c", traj.c.real), ("im_c", traj.c.imag),
        ("re_p", traj.p.real), ("im_p", traj.p.imag),
        ("beta", traj.beta), ("gamma", traj.gamma), ("momentum", traj.momentum),
    ])


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
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonify(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
