import json
import re

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_descriptor
from tlbt import mmio
from tlbt.reduction import reduce
from tlbt.synthetic import make_synthetic
from tlbt.systems import DescriptorIndex1, GeneralizedSystem, StandardSystem


def test_dense_roundtrip_bit_exact(tmp_path, rng):
    a = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-8, 8, size=(7, 4))
    path = tmp_path / "a.mtx"
    mmio.write_matrix(path, a)
    b = mmio.read_matrix(path)
    assert np.array_equal(a, b)


def test_sparse_roundtrip_bit_exact(tmp_path, rng):
    a = sp.random(20, 20, density=0.15, random_state=3, format="csc")
    path = tmp_path / "s.mtx"
    mmio.write_matrix(path, a)
    b = mmio.read_matrix(path)
    assert sp.issparse(b)
    assert np.array_equal(a.toarray(), b.toarray())


def test_standard_system_roundtrip(tmp_path):
    s = make_synthetic("random_stable", 9, 2, 3, seed=7)
    sidecar = mmio.save_system(tmp_path, "plant", s)
    loaded, meta = mmio.load_system(sidecar)
    assert isinstance(loaded, StandardSystem)
    assert np.array_equal(loaded.A, s.A)
    assert np.array_equal(loaded.B, s.B)
    assert np.array_equal(loaded.C, s.C)
    assert meta["kind"] == "standard"


def test_generalized_system_roundtrip_with_alpha(tmp_path):
    # a sidecar may carry an alpha shift, which load_system applies
    g = make_synthetic("heat_like", 12, 1, 1, seed=2)
    sidecar = mmio.save_system(tmp_path, "gen", g)
    meta = json.loads(sidecar.read_text())
    assert "alpha_shift" not in meta
    sidecar.write_text(json.dumps({**meta, "alpha_shift": 0.08}, indent=2, sort_keys=True) + "\n")
    loaded, meta = mmio.load_system(sidecar)
    assert isinstance(loaded, GeneralizedSystem)
    assert meta["alpha_shift"] == 0.08
    # alpha shift applied on load: A_loaded = A - 0.08 M
    assert np.allclose(loaded.A.toarray(), (g.A - 0.08 * g.M).toarray())


def test_generalized_sidecar_with_spd_key_loads(tmp_path):
    # older sidecars flag M as SPD; the key is no longer written and is ignored on load
    g = make_synthetic("heat_like", 12, 1, 1, seed=2)
    sidecar = mmio.save_system(tmp_path, "gen", g)
    meta = json.loads(sidecar.read_text())
    assert "spd" not in meta
    sidecar.write_text(json.dumps({**meta, "spd": True}, indent=2, sort_keys=True) + "\n")
    loaded, meta = mmio.load_system(sidecar)
    assert isinstance(loaded, GeneralizedSystem) and meta["spd"] is True
    assert np.array_equal(loaded.M.toarray(), g.M.toarray())
    assert np.array_equal(loaded.A.toarray(), g.A.toarray())
    assert np.array_equal(loaded.B, g.B)


def test_descriptor_roundtrip(tmp_path):
    d = random_descriptor(6, 4, 1, 2, seed=5)
    sidecar = mmio.save_system(tmp_path, "dae", d)
    loaded, meta = mmio.load_system(sidecar)
    assert isinstance(loaded, DescriptorIndex1)
    assert meta["n_f"] == 6
    assert np.array_equal(np.asarray(loaded.A4.toarray() if sp.issparse(loaded.A4) else loaded.A4), d.A4)


def test_descriptor_sidecar_with_alpha_roundtrip(tmp_path):
    # load_system shifts a descriptor's A1 by alpha M1 and keeps the other blocks
    d = random_descriptor(6, 4, 1, 2, seed=5)
    sidecar = mmio.save_system(tmp_path, "dae", d)
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "alpha_shift": 0.25}, indent=2, sort_keys=True) + "\n")
    loaded, meta = mmio.load_system(sidecar)
    assert isinstance(loaded, DescriptorIndex1) and meta["n_f"] == 6
    assert np.array_equal(loaded.A1, d.A1 - 0.25 * d.M1)
    for name in ("M1", "A2", "A3", "A4", "B1", "B2", "C1", "C2"):
        assert np.array_equal(getattr(loaded, name), getattr(d, name)), name
    assert np.array_equal(loaded.D, d.D)


def test_save_rejects_a_non_system(tmp_path):
    s = make_synthetic("random_stable", 4, 1, 1, seed=0)
    with pytest.raises(TypeError, match="unsupported system type"):
        mmio.save_system(tmp_path, "plant", (s.A, s.B, s.C))
    assert not list(tmp_path.iterdir())


def test_reduced_model_saves_as_a_standard_system(tmp_path):
    # the kind is that of the nearest class in the MRO: a ReducedModel is standard,
    # and its matrices load bit for bit, a descriptor model's retained D included
    for name, system in (("wd", make_synthetic("weakly_damped", 40, 2, 2, seed=1)),
                         ("dae", random_descriptor(20, 6, 2, 2, seed=7))):
        rom = reduce(system, "bt", r=4)
        sidecar = mmio.save_system(tmp_path, name, rom)
        loaded, meta = mmio.load_system(sidecar)
        assert meta["kind"] == "standard" and type(loaded) is StandardSystem
        assert sorted(meta["files"]) == (["A", "B", "C", "D"] if np.any(rom.D) else ["A", "B", "C"])
        for key in ("A", "B", "C", "D"):
            assert np.array_equal(getattr(loaded, key), getattr(rom, key)), (name, key)
    assert np.any(rom.D)


def _sidecar(tmp_path, edit):
    """A saved scalar system's sidecar, its JSON replaced by ``edit(meta)``."""
    s = StandardSystem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    sidecar = mmio.save_system(tmp_path, "plant", s)
    sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
    return sidecar


MALFORMED = {
    "missing-C": (lambda m: dict(m, files={"A": "plant_A.mtx", "B": "plant_B.mtx"}),
                  "sidecar 'files' has no C"),
    "files-a-string": (lambda m: dict(m, files="x"), "'files' must map matrix names to file names"),
    "file-name-a-number": (lambda m: dict(m, files=dict(m["files"], B=3)),
                           "'files' must map matrix names to file names"),
    "kind-a-list": (lambda m: dict(m, kind=[1]), "unknown system kind [1]"),
    "top-level-array": (lambda m: [m], "is not a JSON object"),
    "alpha-a-list": (lambda m: dict(m, alpha_shift=[0.1]),
                     "sidecar 'alpha_shift' must be a number, got [0.1]"),
}


@pytest.mark.parametrize("edit, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_load_rejects_a_malformed_sidecar(tmp_path, edit, message):
    # each used to escape as TypeError or AttributeError
    with pytest.raises(ValueError, match=re.escape(message)):
        mmio.load_system(_sidecar(tmp_path, edit))


def test_load_without_d_gives_zero_feedthrough(tmp_path):
    loaded, _ = mmio.load_system(_sidecar(tmp_path, lambda m: m))
    assert np.array_equal(loaded.D, np.zeros((1, 1)))


def test_load_rejects_an_unknown_kind(tmp_path):
    sidecar = mmio.save_system(tmp_path, "plant", make_synthetic("random_stable", 4, 1, 1, seed=0))
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(dict(meta, kind="bilinear")))
    with pytest.raises(ValueError, match="unknown system kind 'bilinear'"):
        mmio.load_system(sidecar)


def test_feedthrough_persisted(tmp_path):
    s = StandardSystem(
        np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]), D=np.array([[2.5]])
    )
    sidecar = mmio.save_system(tmp_path, "ft", s)
    loaded, _ = mmio.load_system(sidecar)
    assert np.array_equal(loaded.D, s.D)


def test_sidecar_is_sorted_json(tmp_path):
    s = make_synthetic("random_stable", 4, 1, 1, seed=0)
    sidecar = mmio.save_system(tmp_path, "plant", s)
    text = sidecar.read_text()
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
