import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from conftest import random_descriptor
from oracles import SingularTransformError, diagonalize, similarity_transform
from tlbt.errors import SingularShiftError
from tlbt.reduction import transfer_at
from tlbt.synthetic import make_synthetic
from tlbt.systems import (
    DescriptorIndex1,
    GeneralizedSystem,
    StandardSystem,
    _factor,
    alpha_shift,
    eliminate_descriptor,
    shifted_solve,
    spectral_abscissa,
)


def scalar_descriptor():
    # M1=[1], A=[[-1,1],[1,-2]], B=(1,0)^T, C=(1,0), n_f=1
    return DescriptorIndex1(
        M1=np.array([[1.0]]),
        A1=np.array([[-1.0]]),
        A2=np.array([[1.0]]),
        A3=np.array([[1.0]]),
        A4=np.array([[-2.0]]),
        B1=np.array([[1.0]]),
        B2=np.array([[0.0]]),
        C1=np.array([[1.0]]),
        C2=np.array([[0.0]]),
    )


def test_system_dimension_validation():
    with pytest.raises(ValueError):
        StandardSystem(np.eye(3), np.ones((2, 1)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        StandardSystem(np.array([[np.nan]]), np.ones((1, 1)), np.ones((1, 1)))


def test_eliminate_descriptor_hand_example():
    gen, d = eliminate_descriptor(scalar_descriptor())
    assert np.allclose(gen.A, [[-0.5]])
    assert np.allclose(gen.B, [[1.0]])
    assert np.allclose(gen.C, [[1.0]])
    assert np.allclose(d, [[0.0]])


def test_eliminate_descriptor_decoupled():
    d = scalar_descriptor()
    d.A2 = np.zeros((1, 1))
    d.A3 = np.zeros((1, 1))
    d.B2 = np.array([[3.0]])
    d.C2 = np.array([[2.0]])
    gen, feed = eliminate_descriptor(d)
    assert np.allclose(gen.A, d.A1)
    assert np.allclose(gen.B, d.B1)
    assert np.allclose(gen.C, d.C1)
    # D = -C2 A4^{-1} B2 = -2 * (-1/2) * 3 = 3
    assert np.allclose(feed, [[3.0]])


def test_eliminate_descriptor_zero_coupling_gives_zero_feedthrough():
    d = scalar_descriptor()
    d.B2 = np.zeros((1, 1))
    d.C2 = np.zeros((1, 1))
    _, feed = eliminate_descriptor(d)
    assert np.allclose(feed, 0.0)


def test_descriptor_transfer_preserved(rng):
    # blocked pencil and eliminated system share the transfer function
    d = random_descriptor(8, 5, 2, 2, seed=4)
    gen, feed = eliminate_descriptor(d)
    for s in 1j * np.geomspace(0.1, 100, 10):
        h_full = transfer_at(d, s)
        h_elim = transfer_at(gen, s)
        assert np.linalg.norm(h_full - h_elim) <= 1e-8 * max(np.linalg.norm(h_full), 1e-30)


def test_shifted_solve_scalar_resolvent():
    s = StandardSystem(-np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
    b = np.array([1.0, 2.0, 3.0])
    v = shifted_solve(s, 1.0, b)
    assert np.allclose(v, -b / 2.0)


def test_shifted_solve_descriptor_matches_dense():
    d = scalar_descriptor()
    v = shifted_solve(d, 0.0, np.array([[1.0]]))
    assert np.allclose(v, [[-2.0]])


def test_shifted_solve_complex_scalar():
    s = StandardSystem(np.array([[-1.0]]), np.ones((1, 1)), np.ones((1, 1)))
    w = np.array([[1.0]])
    v = shifted_solve(s, 1.0 + 1.0j, w)
    assert np.allclose(v, w / (-2.0 - 1.0j))


def test_shifted_solve_descriptor_vs_elimination(rng):
    d = random_descriptor(20, 12, 2, 2, seed=9)
    gen, _ = eliminate_descriptor(d)
    w = rng.standard_normal((20, 2))
    for s in (0.5, 2.0 + 1.3j):
        v_aug = shifted_solve(d, s, w)
        v_dense = np.linalg.solve(gen.A - s * gen.M, w)
        assert np.linalg.norm(v_aug - v_dense) <= 1e-9 * np.linalg.norm(v_dense)


@pytest.mark.parametrize(
    "a, shift, scale",
    [
        (np.array([[-1.0]]), -1.0, 1.0),
        (np.diag([-1.0, -2.0, -3.0]), -2.0, 1.0),
        # not singular to working precision, but the solution overflows
        (np.diag([-1e-300, -2e-300]), 0.0, 1e10),
    ],
    ids=["scalar", "diag3", "overflow"],
)
def test_shifted_solve_singular_shift(a, shift, scale):
    n = a.shape[0]
    s = StandardSystem(a, np.ones((n, 1)), np.ones((1, n)))
    for sys in (s, s.transposed()):
        with pytest.raises(SingularShiftError):
            shifted_solve(sys, shift, scale * np.ones(n))


def _schur_forms(monkeypatch):
    """Shapes of the complex Schur forms computed from now on."""
    shapes, real = [], sla.schur

    def spy(a, output="real", **kwargs):
        if output == "complex":
            shapes.append(np.shape(a))
        return real(a, output=output, **kwargs)

    monkeypatch.setattr(sla, "schur", spy)
    return shapes


@pytest.mark.parametrize("kind", ["random_stable", "weakly_damped"])
@pytest.mark.parametrize("form_first", [True, False], ids=["form_then_dual", "dual_then_form"])
def test_schur_shifted_solve_matches_dense_solve(monkeypatch, rng, kind, form_first):
    n = 60
    s = make_synthetic(kind, n, 2, 2, seed=3)
    forms = _schur_forms(monkeypatch)
    if form_first:
        spectral_abscissa(s)
    dual = s.transposed()
    systems = (s, dual) if form_first else (dual, s)
    cases = [
        rng.standard_normal(n),
        rng.standard_normal((n, 3)),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)),
    ]
    for sys in systems:
        for shift in (0.7, 0.4 + 1.3j, -0.05 - 2.0j):
            for w in cases:
                v = shifted_solve(sys, shift, w)
                ref = np.linalg.solve(sys.A - shift * np.eye(n), w)
                assert v.shape == w.shape
                assert np.linalg.norm(v - ref) <= 1e-10 * np.linalg.norm(ref)
                real = np.isrealobj(shift) and np.isrealobj(w)
                assert v.dtype == (np.float64 if real else np.complex128)
    # one form serves the system and its dual, whichever computed it
    assert forms == [(n, n)]


def test_schur_spectral_abscissa_matches_eigenvalues():
    s = make_synthetic("weakly_damped", 60, 2, 2, seed=3)
    ref = np.max(np.linalg.eigvals(s.A).real)
    assert abs(spectral_abscissa(s.transposed()) - ref) <= 1e-10 * np.linalg.norm(s.A, 2)
    assert abs(spectral_abscissa(s) - ref) <= 1e-10 * np.linalg.norm(s.A, 2)


def test_descriptor_assembled_once_across_solves(monkeypatch, rng):
    w = rng.standard_normal((20, 2))
    shifts = (0.5, 2.0 + 1.3j, 0.5, 3.0)
    # a fresh system per solve assembles its pencil afresh, as every solve used to
    fresh = [shifted_solve(random_descriptor(20, 12, 2, 2, seed=9), s, w) for s in shifts]
    fresh_h = transfer_at(random_descriptor(20, 12, 2, 2, seed=9), 1.5j)
    built, real = [], sp.bmat

    def spy(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sp, "bmat", spy)
    d = random_descriptor(20, 12, 2, 2, seed=9)
    for s, ref in zip(shifts, fresh):
        assert np.array_equal(shifted_solve(d, s, w), ref)
    assert np.array_equal(transfer_at(d, 1.5j), fresh_h)
    assert len(built) == 2  # M and A, once


def test_similarity_identity(rng):
    s = make_synthetic("random_stable", 6, 1, 1, seed=0)
    out = similarity_transform(s, np.eye(6))
    assert np.allclose(out.A, s.A)


def test_similarity_scaling():
    s = StandardSystem(np.array([[-1.0]]), np.array([[2.0]]), np.array([[3.0]]))
    out = similarity_transform(s, 2.0 * np.eye(1))
    assert np.allclose(out.A, s.A)
    assert np.allclose(out.B, [[1.0]])
    assert np.allclose(out.C, [[6.0]])


def test_similarity_transfer_invariance(rng):
    s = make_synthetic("random_stable", 8, 2, 2, seed=3)
    t = rng.standard_normal((8, 8)) + 3 * np.eye(8)
    out = similarity_transform(s, t)
    h0 = transfer_at(s, 1.0 + 0.0j)
    h1 = transfer_at(out, 1.0 + 0.0j)
    assert np.linalg.norm(h0 - h1) <= 1e-10 * np.linalg.norm(h0)


def test_similarity_singular_transform():
    s = StandardSystem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(SingularTransformError):
        similarity_transform(s, np.zeros((1, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["M", "A", "B", "C", "D"])
def test_generalized_system_refuses_non_finite_dense_input(name, bad):
    mats = {"M": np.eye(2), "A": -np.eye(2), "B": np.ones((2, 1)), "C": np.ones((1, 2)),
            "D": np.zeros((1, 1))}
    mats[name] = mats[name].copy()
    mats[name][0, 0] = bad
    with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
        GeneralizedSystem(**mats)
    if name != "M":
        del mats["M"]
        with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
            StandardSystem(**mats)


@pytest.mark.parametrize("name", ["M1", "A1", "A2", "A3", "A4", "B1", "B2", "C1", "C2"])
def test_descriptor_refuses_non_finite_dense_blocks(name):
    d = random_descriptor(6, 3, 2, 2, seed=1)
    blocks = {f.name: getattr(d, f.name) for f in dataclasses.fields(d) if f.init}
    blocks[name] = blocks[name].copy()
    blocks[name][0, 0] = np.nan
    with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
        DescriptorIndex1(**blocks)


def test_generalized_system_checks_feedthrough_shape():
    with pytest.raises(ValueError, match="D must be p x m"):
        GeneralizedSystem(np.eye(2), -np.eye(2), np.ones((2, 1)), np.ones((1, 2)), D=np.ones((2, 2)))


def test_spectral_abscissa_diagonal():
    s = StandardSystem(np.diag([-1.0, -5.0]), np.ones((2, 1)), np.ones((1, 2)))
    assert abs(spectral_abscissa(s) - (-1.0)) < 1e-14


def test_spectral_abscissa_imaginary_pair():
    s = StandardSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.ones((2, 1)), np.ones((1, 2)))
    assert abs(spectral_abscissa(s)) < 1e-12


def test_spectral_abscissa_companion():
    comp = np.array([[0.0, 1.0], [-2.0, -3.0]])
    s = StandardSystem(comp, np.ones((2, 1)), np.ones((1, 2)))
    assert abs(spectral_abscissa(s) - (-1.0)) < 1e-12


def test_alpha_shift_zero_noop():
    s = make_synthetic("random_stable", 4, 1, 1, seed=1)
    assert alpha_shift(s, 0.0) is s


def test_alpha_shift_scalar_stabilizes():
    g = GeneralizedSystem(
        np.array([[1.0]]), np.array([[0.1]]), np.array([[1.0]]), np.array([[1.0]])
    )
    out = alpha_shift(g, 0.2)
    assert np.allclose(out.A, [[-0.1]])


def test_alpha_shift_generalized_bips_setting():
    # the power-grid preset shifts A by 0.08 M before reduction
    g = make_synthetic("heat_like", 10, 1, 1, seed=0)
    out = alpha_shift(g, 0.08)
    assert np.allclose((g.A - out.A).toarray(), (0.08 * g.M).toarray())


def test_diagonalize_requires_siso():
    s = make_synthetic("random_stable", 4, 2, 1, seed=0)
    with pytest.raises(ValueError):
        diagonalize(s)


def test_diagonalize_roundtrip(rng):
    s = make_synthetic("random_stable", 6, 1, 1, seed=5)
    d = diagonalize(s)
    back = (d.X * d.eigenvalues[None, :]) @ np.linalg.inv(d.X)
    assert np.linalg.norm(back.real - s.A) <= 1e-9 * np.linalg.norm(s.A)
    assert np.allclose(d.X_B, d.X * d.w[None, :])


def test_transposed_duality():
    s = make_synthetic("random_stable", 5, 2, 3, seed=2)
    ts = s.transposed()
    assert ts.A.shape == (5, 5)
    assert ts.B.shape == (5, 3)
    assert ts.C.shape == (2, 5)
    assert np.allclose(ts.A, s.A.T)


def test_sparse_standard_shifted_solve(rng):
    a = sp.diags([-2.0 * np.ones(30)], [0], format="csc")
    s = StandardSystem(a, rng.standard_normal((30, 1)), rng.standard_normal((1, 30)))
    v = shifted_solve(s, 1.0, s.B)
    assert np.allclose(v, s.B / -3.0)


def test_dense_factor_solve_matches_lu_solve(rng):
    a = rng.standard_normal((12, 12)) + 4.0 * np.eye(12)
    lu_piv = sla.lu_factor(a)
    solve = _factor(a)
    for rhs in (
        rng.standard_normal(12),
        rng.standard_normal((12, 3)),
        rng.standard_normal(12) + 1j * rng.standard_normal(12),
        rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2)),
    ):
        out = solve(rhs)
        assert out.dtype == rhs.dtype
        assert np.array_equal(out, sla.lu_solve(lu_piv, rhs))


def test_dense_factor_closure_frees_lu_without_gc(rng):
    # a closure that reached itself would keep the LU alive until the cyclic GC ran
    solve = _factor(rng.standard_normal((8, 8)) + 3.0 * np.eye(8))
    solve(np.ones(8) + 1j)
    lu = next(
        cell.cell_contents
        for cell in solve.__closure__
        if isinstance(cell.cell_contents, np.ndarray) and cell.cell_contents.ndim == 2
    )
    ref = weakref.ref(lu)
    del lu
    gc.disable()
    try:
        assert ref() is not None
        del solve
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("cls", [StandardSystem, GeneralizedSystem, DescriptorIndex1])
def test_cache_fields_are_not_parameters(cls):
    cached = [f for f in dataclasses.fields(cls) if f.name.startswith("_")]
    assert cached
    for f in cached:
        assert not (f.init or f.repr or f.compare), f.name


@pytest.mark.parametrize("kind", ["weakly_damped", "heat_like", "descriptor"])
def test_cached_derived_data_refers_back_to_no_system(kind):
    # with every cache filled, the system is freed by reference counting alone
    if kind == "descriptor":
        s = random_descriptor(20, 6, 2, 2, seed=4)
    else:
        s = make_synthetic(kind, 20, 2, 2, seed=4)
    dual = s.transposed()
    assert s.transposed() is dual
    for sys in (s, dual):
        shifted_solve(sys, 0.5, np.ones(sys.order))
        sys.mass_solve(sys.start_block())
        sys.first_order().mass_solve(np.ones(sys.order))
        spectral_abscissa(sys)
    ref = weakref.ref(s)
    gc.disable()
    try:
        del s
        assert ref() is None
    finally:
        gc.enable()
