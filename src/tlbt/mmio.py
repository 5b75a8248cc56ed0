"""Matrix Market file I/O with a JSON sidecar describing the system.

Matrices are written at 17 significant digits so that write/read
round-trips are bit-exact for float64. The sidecar names the matrix
files (relative to its own directory) and carries structure metadata:

    {
      "name": "plant",
      "kind": "standard" | "generalized" | "descriptor",
      "files": {"A": "plant_A.mtx", "B": ..., "C": ..., "D"?, "M"?,
                "M1"?, "A1"?..."A4"?, "B1"?, "B2"?, "C1"?, "C2"?},
      "n_f": 606,          # descriptor only
      "alpha_shift": 0.08  # optional, applied on load (A <- A - alpha*M)
    }

The files are the system class's constructor fields (D only when
nonzero), loaded as written; the constructors make B, C and D dense.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import scipy.io as sio
import scipy.sparse as sp

from .systems import DescriptorIndex1, GeneralizedSystem, StandardSystem, alpha_shift

__all__ = ["write_matrix", "read_matrix", "save_system", "load_system"]

_PRECISION = 17

_KINDS = {"standard": StandardSystem, "generalized": GeneralizedSystem,
          "descriptor": DescriptorIndex1}


def _fields(cls):
    """The matrices a system class is built from, in constructor order."""
    return [f.name for f in dataclasses.fields(cls) if f.init]


def write_matrix(path, a):
    """Write a dense 2-D or sparse matrix in Matrix Market format (17 digits)."""
    sio.mmwrite(str(path), a, precision=_PRECISION)


def read_matrix(path):
    """Read a Matrix Market file: array data as an ndarray, coordinate data as CSC."""
    a = sio.mmread(str(path))
    return a.tocsc() if sp.issparse(a) else a


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_system(out_dir, name, sys):
    """Write a system's matrices plus sidecar; returns the sidecar path."""
    kind = next((k for k, cls in _KINDS.items() if type(sys) is cls), None)
    if kind is None:
        raise TypeError(f"unsupported system type {type(sys)!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for key in _fields(type(sys)):
        mat = getattr(sys, key)
        if key != "D" or np.any(mat):
            files[key] = f"{name}_{key}.mtx"
            write_matrix(out_dir / files[key], mat)
    meta = {"name": name, "kind": kind, "files": files}
    if kind == "descriptor":
        meta["n_f"] = sys.n_f
    sidecar = out_dir / f"{name}.json"
    _write_json(sidecar, meta)
    return sidecar


def load_system(sidecar_path):
    """Load a system from its JSON sidecar; applies any alpha shift."""
    sidecar_path = Path(sidecar_path)
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    kind = meta.get("kind", "standard")
    if kind not in _KINDS:
        raise ValueError(f"unknown system kind {kind!r}")
    files = meta["files"]
    blocks = {
        key: read_matrix(sidecar_path.parent / files[key])
        for key in _fields(_KINDS[kind]) if key in files
    }
    sys = _KINDS[kind](**blocks)
    return alpha_shift(sys, float(meta.get("alpha_shift", 0.0))), meta
