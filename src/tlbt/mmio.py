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

The files are the constructor fields of the kind's class (D only when
nonzero), loaded as written; the constructors make B, C and D dense. A
system saves as the kind of the nearest class in its MRO (a ReducedModel
as standard). A sidecar that is not an object, names an unknown kind, or
lacks a file name for a field other than D, or whose alpha_shift is not a
number, is refused with ValueError.
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
    kind = next((k for cls in type(sys).__mro__ for k, c in _KINDS.items() if c is cls), None)
    if kind is None:
        raise TypeError(f"unsupported system type {type(sys)!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for key in _fields(_KINDS[kind]):
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
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar_path} is not a JSON object")
    kind = meta.get("kind", "standard")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown system kind {kind!r}")
    files, fields = meta.get("files"), _fields(_KINDS[kind])
    if not (isinstance(files, dict) and all(isinstance(files.get(k, ""), str) for k in fields)):
        raise ValueError("sidecar 'files' must map matrix names to file names")
    missing = [key for key in fields if key not in files and key != "D"]
    if missing:
        raise ValueError(f"sidecar 'files' has no {', '.join(missing)}")
    alpha = meta.get("alpha_shift", 0.0)
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ValueError(f"sidecar 'alpha_shift' must be a number, got {alpha!r}")
    blocks = {key: read_matrix(sidecar_path.parent / files[key]) for key in fields if key in files}
    return alpha_shift(_KINDS[kind](**blocks), float(alpha)), meta
