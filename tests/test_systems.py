import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from conftest import random_descriptor
from solve_fingerprint import convection_diffusion
from oracles import (
    SingularTransformError,
    diagonalize,
    eliminate_descriptor,
    similarity_transform,
    transfer_at,
)
from tlbt.errors import SingularBlockError, SingularShiftError
from tlbt.mmio import load_system, save_system
from tlbt.reduction import ReducedModel, reduce
from tlbt.simulate import impulse_response, implicit_midpoint
from tlbt.synthetic import make_synthetic
from tlbt.systems import (
    DescriptorIndex1,
    GeneralizedSystem,
    StandardSystem,
    _dense,
    _factor,
    alpha_shift,
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


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_singular_a4_raises_singular_block(sparse):
    # A4 = 0: the algebraic block cannot be eliminated
    a4 = sp.csc_matrix((2, 2)) if sparse else np.zeros((2, 2))
    d = DescriptorIndex1(
        M1=np.eye(3), A1=-np.eye(3), A2=np.ones((3, 2)), A3=np.ones((2, 3)), A4=a4,
        B1=np.ones((3, 1)), B2=np.ones((2, 1)), C1=np.ones((1, 3)), C2=np.ones((1, 2)),
    )
    with pytest.raises(SingularBlockError):
        d.B
    with pytest.raises(SingularBlockError):
        reduce(d, "bt", r=1)


def test_system_dimension_validation():
    with pytest.raises(ValueError):
        StandardSystem(np.eye(3), np.ones((2, 1)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        StandardSystem(np.array([[np.nan]]), np.ones((1, 1)), np.ones((1, 1)))


def test_descriptor_dimensions():
    # n counts every state, order and n_f the differential ones; m and p
    # come from the input and output blocks
    d = random_descriptor(6, 4, 1, 2, seed=5)
    assert (d.n, d.n_f, d.order, d.m, d.p) == (10, 6, 6, 1, 2)
    assert d.B.shape == (6, 1) and d.C.shape == (2, 6) and d.D.shape == (2, 1)


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
    for key in ("B", "C", "D"):  # built from solves with A4, not by elimination
        assert np.allclose(getattr(d, key), getattr(gen, key), rtol=1e-12, atol=1e-12), key
    assert np.allclose(d.apply_a(np.eye(8)), gen.A, rtol=1e-12, atol=1e-12)
    for s in 1j * np.geomspace(0.1, 100, 10):
        h_full = transfer_at(d, s)
        h_elim = transfer_at(gen, s)
        assert np.linalg.norm(h_full - h_elim) <= 1e-8 * max(np.linalg.norm(h_full), 1e-30)


def test_shifted_solve_scalar_resolvent():
    s = StandardSystem(-np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
    b = np.array([[1.0], [2.0], [3.0]])
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
            shifted_solve(sys, shift, scale * np.ones((n, 1)))


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
        rng.standard_normal(n)[:, None],
        rng.standard_normal((n, 3)),
        (rng.standard_normal(n) + 1j * rng.standard_normal(n))[:, None],
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
    fresh_step = random_descriptor(20, 12, 2, 2, seed=9).midpoint_step(0.01)(w)
    built, real = [], sp.bmat

    def spy(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sp, "bmat", spy)
    d = random_descriptor(20, 12, 2, 2, seed=9)
    for s, ref in zip(shifts, fresh):
        assert np.array_equal(shifted_solve(d, s, w), ref)
    assert np.array_equal(transfer_at(d, 1.5j), fresh_h)
    assert np.array_equal(d.midpoint_step(0.01)(w), fresh_step)
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


_SPARSE_STATE = [("standard", "A"), ("generalized", "M"), ("generalized", "A"),
                 *(("descriptor", name) for name in ("M1", "A1", "A2", "A3", "A4"))]


@pytest.mark.parametrize("kind, name", _SPARSE_STATE, ids=[f"{k}-{n}" for k, n in _SPARSE_STATE])
def test_sparse_state_matrix_refuses_non_finite_entries(kind, name):
    # a sparse matrix is checked on its stored entries, as a dense one is on all
    if kind == "descriptor":
        s = random_descriptor(6, 3, 2, 2, seed=1)
    else:
        s = make_synthetic(_KINDS[kind], 6, 2, 2, seed=1)
    bad = sp.csc_matrix(getattr(s, name), copy=True)
    bad.data[0] = np.nan
    with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
        dataclasses.replace(s, **{name: bad})


def _bad_block(**blocks):
    return lambda: dataclasses.replace(random_descriptor(6, 3, 2, 2, seed=1), **blocks)


@pytest.mark.parametrize(
    "make, message",
    [(lambda: StandardSystem(np.ones((3, 2)), np.ones((3, 1)), np.ones((1, 3))),
      "A must be square"),
     (lambda: GeneralizedSystem(np.eye(3), -np.eye(2), np.ones((3, 1)), np.ones((1, 3))),
      "M and A must be square of equal size"),
     (lambda: GeneralizedSystem(np.ones((3, 2)), -np.eye(3), np.ones((3, 1)), np.ones((1, 3))),
      "M and A must be square of equal size"),
     (_bad_block(M1=np.eye(5)), "M1/A1 must be n_f x n_f"),
     (_bad_block(A2=np.ones((6, 2))), "off-diagonal blocks inconsistent"),
     (_bad_block(A4=np.eye(2)), "off-diagonal blocks inconsistent"),
     (_bad_block(B2=np.ones((2, 2))), "B blocks inconsistent"),
     (_bad_block(C2=np.ones((2, 2))), "C blocks inconsistent")],
    ids=["standard-A", "generalized-A", "generalized-M", "descriptor-M1", "descriptor-A2",
         "descriptor-A4", "descriptor-B2", "descriptor-C2"],
)
def test_state_matrix_shapes_checked(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_generalized_system_checks_feedthrough_shape():
    with pytest.raises(ValueError, match="D must be p x m"):
        GeneralizedSystem(np.eye(2), -np.eye(2), np.ones((2, 1)), np.ones((1, 2)), D=np.ones((2, 2)))


_FEEDTHROUGH = np.array([[0.5, 0.0], [0.0, -0.25]])
_KINDS = {"standard": "random_stable", "generalized": "heat_like"}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_sparse_feedthrough_reduces_simulates_and_round_trips(kind, tmp_path):
    # a sparse D is dense from construction: the system reduces, its reduced
    # model simulates and saves, bit-equal to the same system with a dense D
    base = make_synthetic(_KINDS[kind], 8, 2, 2, seed=4)
    dense, sparse = (dataclasses.replace(base, D=d)
                     for d in (_FEEDTHROUGH, sp.csr_matrix(_FEEDTHROUGH)))
    rom_d, rom_s = (reduce(s, "bt", r=3).to_system() for s in (dense, sparse))
    for key in ("A", "B", "C", "D"):
        assert np.array_equal(getattr(rom_s, key), getattr(rom_d, key))
    u = lambda t: np.full(2, 1.0)  # noqa: E731
    assert np.array_equal(implicit_midpoint(rom_s, u, None, 1e-2, 1.0).outputs,
                          implicit_midpoint(rom_d, u, None, 1e-2, 1.0).outputs)
    for name, sys, ref in (("system", sparse, dense), ("rom", rom_s, rom_d)):
        loaded, _ = load_system(save_system(tmp_path, name, sys))
        for f in dataclasses.fields(ref):
            if f.init:
                assert np.array_equal(_dense(getattr(loaded, f.name)), _dense(getattr(ref, f.name)))


def _one_d_io(kind, b, c):
    base = make_synthetic(_KINDS[kind], 6, 1, 1, seed=2)
    return dataclasses.replace(base, B=b(base.B), C=c(base.C))


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_one_dimensional_input_matrix_refused_at_construction(kind):
    with pytest.raises(ValueError, match="B/C dimensions inconsistent"):
        _one_d_io(kind, lambda b: b[:, 0], lambda c: c)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_one_dimensional_output_matrix_is_one_output_row(kind):
    two_d = _one_d_io(kind, lambda b: b, lambda c: c)
    one_d = _one_d_io(kind, lambda b: b, lambda c: c[0])
    assert one_d.C.shape == (1, 6) and one_d.p == 1
    assert np.array_equal(one_d.C, two_d.C)
    assert np.array_equal(impulse_response(one_d, dt=1e-2, t_f=0.5).outputs,
                          impulse_response(two_d, dt=1e-2, t_f=0.5).outputs)


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


def test_alpha_shift_sparse_standard():
    s = make_synthetic("random_stable", 8, 2, 1, seed=3)
    sparse = StandardSystem(sp.csc_matrix(s.A), s.B, s.C)
    out = alpha_shift(sparse, 0.3)
    assert isinstance(out, StandardSystem) and sp.issparse(out.A)
    assert np.array_equal(out.A.toarray(), (sparse.A - 0.3 * sp.identity(8)).toarray())
    assert np.array_equal(out.B, s.B) and np.array_equal(out.C, s.C)
    assert abs(spectral_abscissa(out) - (spectral_abscissa(s) - 0.3)) <= 1e-12


def test_alpha_shift_descriptor():
    # A1 <- A1 - alpha M1; every other block is the system's own
    d = random_descriptor(12, 5, 2, 2, seed=4)
    d = dataclasses.replace(d, M1=np.diag(1.0 + np.arange(12) / 12))
    out = alpha_shift(d, 0.4)
    assert isinstance(out, DescriptorIndex1)
    assert np.array_equal(out.A1, d.A1 - 0.4 * d.M1)
    for name in ("M1", "A2", "A3", "A4", "B1", "B2", "C1", "C2"):
        assert getattr(out, name) is getattr(d, name), name
    ref = spectral_abscissa(d) - 0.4
    assert abs(spectral_abscissa(out) - ref) <= 1e-10 * max(abs(ref), 1.0)


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


def _pattern_case(kind):
    """A sparse pencil and an entry ``(i, j)`` where A = 2 M exactly, which ``A - 2 M`` cancels."""
    if kind == "standard":
        a = convection_diffusion(4).A.tolil()  # kron stores explicit zeros, which are kept
        a[0, 0] = 2.0
        return StandardSystem(a.tocsr(), np.ones((16, 1)), np.ones((1, 16))), (0, 0)
    if kind == "generalized":
        heat = make_synthetic("heat_like", 30, 2, 2, seed=1)
        a = heat.A.tolil()
        a[0, 1] = 2.0 * heat.M[0, 1]
        return GeneralizedSystem(heat.M, a.tocsc(), heat.B, heat.C), (0, 1)
    d = random_descriptor(12, 4, 2, 2, seed=3)
    d.A1[0, 0] = 2.0 * d.M1[0, 0]
    return d, (0, 0)


@pytest.mark.parametrize("kind", ["standard", "generalized", "descriptor"])
@pytest.mark.parametrize("s", [0.5, 2.0 - 1.5j, 2.0], ids=["real", "complex", "cancel"])
def test_pattern_built_pencil_equals_sparse_arithmetic(rng, kind, s):
    # the shifted and the step matrix formed on the cached union pattern are
    # scipy's a - s*m and 0.5*m - dt/4*a bit for bit, exact zeros dropped,
    # and the solves on them are the solves on scipy's matrices
    sys, (i, j) = _pattern_case(kind)
    m, a = sys.pencil()
    shifted = sys._combine(lambda m, a: a - s * m)
    step = sys._combine(lambda m, a: 0.5 * m - (0.01 / 4.0) * a)
    for out, ref in ((shifted, a - s * m), (step, 0.5 * m - (0.01 / 4.0) * a)):
        ref = sp.csc_matrix(ref)
        assert sp.isspmatrix_csc(out) and out.dtype == ref.dtype
        for key in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(out, key), getattr(ref, key)), key
    # the entry is in the pattern, and only the cancelling shift drops it
    def stored(mat):
        return i in mat.indices[mat.indptr[j] : mat.indptr[j + 1]]

    assert stored(sys._pattern[2])
    assert stored(shifted) == (s != 2.0)
    w = rng.standard_normal((sys.order, 2))
    assert np.array_equal(shifted_solve(sys, s, w), sys._rows(_factor(a - s * m))(w))


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


@pytest.mark.parametrize("cls", [StandardSystem, GeneralizedSystem, DescriptorIndex1, ReducedModel])
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
        shifted_solve(sys, 0.5, np.ones((sys.order, 1)))
        sys.mass_solve(_dense(sys.B))
        sys.dense_state_input()
        spectral_abscissa(sys)
    ref = weakref.ref(s)
    gc.disable()
    try:
        del s
        assert ref() is None
    finally:
        gc.enable()
