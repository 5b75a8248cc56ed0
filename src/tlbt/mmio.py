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
"""

import json
from pathlib import Path

import numpy as np
import scipy.io as sio
import scipy.sparse as sp

from .systems import (
    DescriptorIndex1,
    GeneralizedSystem,
    StandardSystem,
    alpha_shift,
)

__all__ = ["write_matrix", "read_matrix", "save_system", "load_system"]

_PRECISION = 17

_DESCRIPTOR_BLOCKS = ("M1", "A1", "A2", "A3", "A4", "B1", "B2", "C1", "C2")


def write_matrix(path, a):
    """Write a dense or sparse matrix in Matrix Market format (17 digits)."""
    a = np.atleast_2d(a) if not sp.issparse(a) else a
    sio.mmwrite(str(path), a, precision=_PRECISION)


def read_matrix(path, dense=False):
    """Read a Matrix Market file; coordinate data comes back as CSC unless ``dense``."""
    a = sio.mmread(str(path))
    if sp.issparse(a):
        return a.toarray() if dense else a.tocsc()
    return np.asarray(a)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_system(out_dir, name, sys):
    """Write a system's matrices plus sidecar; returns the sidecar path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}

    def put(key, mat):
        fname = f"{name}_{key}.mtx"
        write_matrix(out_dir / fname, mat)
        files[key] = fname

    meta = {"name": name, "files": files}
    if isinstance(sys, DescriptorIndex1):
        meta["kind"] = "descriptor"
        meta["n_f"] = sys.n_f
        for key in _DESCRIPTOR_BLOCKS:
            put(key, getattr(sys, key))
    elif isinstance(sys, GeneralizedSystem):
        meta["kind"] = "generalized"
        for key in ("M", "A", "B", "C"):
            put(key, getattr(sys, key))
        if np.any(sys.D):
            put("D", sys.D)
    elif isinstance(sys, StandardSystem):
        meta["kind"] = "standard"
        for key in ("A", "B", "C"):
            put(key, getattr(sys, key))
        if np.any(sys.D):
            put("D", sys.D)
    else:
        raise TypeError(f"unsupported system type {type(sys)!r}")
    sidecar = out_dir / f"{name}.json"
    _write_json(sidecar, meta)
    return sidecar


def load_system(sidecar_path):
    """Load a system from its JSON sidecar; applies any alpha shift."""
    sidecar_path = Path(sidecar_path)
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    base = sidecar_path.parent
    files = meta["files"]

    def get(key, dense=False):
        return read_matrix(base / files[key], dense=dense)

    kind = meta.get("kind", "standard")
    if kind == "descriptor":
        blocks = {key: get(key) for key in _DESCRIPTOR_BLOCKS}
        for key in ("B1", "B2", "C1", "C2"):
            if sp.issparse(blocks[key]):
                blocks[key] = blocks[key].toarray()
        sys = DescriptorIndex1(**blocks)
    elif kind == "generalized":
        d = get("D", dense=True) if "D" in files else None
        sys = GeneralizedSystem(get("M"), get("A"), get("B", dense=True), get("C", dense=True), D=d)
    elif kind == "standard":
        d = get("D", dense=True) if "D" in files else None
        sys = StandardSystem(get("A"), get("B", dense=True), get("C", dense=True), D=d)
    else:
        raise ValueError(f"unknown system kind {kind!r}")
    return alpha_shift(sys, float(meta.get("alpha_shift", 0.0))), meta
