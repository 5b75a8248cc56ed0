import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import banded_descriptor, random_descriptor
from oracles import eliminate_descriptor
from tlbt import linalg
from tlbt.errors import GridMismatchError, SingularStepError
from tlbt.gramians import TimeWindow
from tlbt.reduction import reduce
from tlbt.simulate import (
    Trajectory,
    custom_input,
    half_decay_time,
    impulse_input,
    impulse_response,
    implicit_midpoint,
    relative_error_series,
    step_input,
)
from tlbt.synthetic import make_synthetic
from tlbt.systems import DescriptorIndex1, GeneralizedSystem, StandardSystem

SCALAR = StandardSystem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))


def test_midpoint_single_step_closed_form():
    # x' = -x, x0 = 1, dt = 0.1: one step gives (1 - dt/2)/(1 + dt/2)
    # (C = 1: the output is the state)
    traj = implicit_midpoint(SCALAR, None, np.array([1.0]), 0.1, 0.1)
    assert abs(traj.outputs[1, 0] - 0.95 / 1.05) < 1e-15
    assert abs(traj.outputs[1, 0] - 0.9047619047619048) < 1e-12


@pytest.mark.parametrize("dt, t_f", [(0.01, np.inf), (np.nan, 1.0), (np.inf, 1.0),
                                     (0.01, np.nan), (0.0, 1.0), (0.01, -1.0), (1e-320, 1.0)])
def test_midpoint_refuses_non_finite_or_non_positive_grid(dt, t_f):
    with pytest.raises(ValueError, match="dt and t_f must be positive and finite"):
        implicit_midpoint(SCALAR, None, np.array([1.0]), dt, t_f)
    with pytest.raises(ValueError, match="dt and t_f must be positive and finite"):
        impulse_response(SCALAR, dt=dt, t_f=t_f)


def test_midpoint_zero_everything():
    traj = implicit_midpoint(SCALAR, None, None, 0.05, 1.0)
    assert np.allclose(traj.outputs, 0.0)


def test_midpoint_second_order_convergence():
    # global error at t=1 vs e^{-t} shrinks ~4x when dt halves
    errors = []
    for dt in (0.02, 0.01, 0.005):
        traj = implicit_midpoint(SCALAR, None, np.array([1.0]), dt, 1.0)
        errors.append(abs(traj.outputs[-1, 0] - np.exp(-1.0)))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for rate in rates:
        assert 1.8 <= rate <= 2.2


def test_midpoint_a_stability_large_steps():
    heat = make_synthetic("heat_like", 20, 1, 1, seed=0)
    s = GeneralizedSystem(heat.M, heat.A, heat.B, np.eye(20))  # outputs are the states
    x0 = np.ones(20)
    for dt in (0.1, 1.0, 10.0):
        traj = implicit_midpoint(s, None, x0, dt, 50 * dt)
        norms = np.linalg.norm(traj.outputs, axis=1)
        assert np.all(norms <= norms[0] * (1 + 1e-12))


def test_midpoint_step_input_reaches_dc_gain():
    traj = implicit_midpoint(SCALAR, step_input(1.0), None, 0.01, 20.0)
    assert abs(traj.outputs[-1, 0] - 1.0) < 1e-3


def test_midpoint_custom_input_matches_variation_of_constants():
    omega = 2.0
    u = custom_input(lambda t: np.array([np.sin(omega * t)]))
    traj = implicit_midpoint(SCALAR, u, None, 1e-3, 2.0)
    t = traj.times
    exact = (np.exp(-t) * omega - omega * np.cos(omega * t) + np.sin(omega * t)) / (1 + omega**2)
    assert np.max(np.abs(traj.outputs[:, 0] - exact)) < 1e-5


def test_impulse_scalar_analytic():
    traj = impulse_response(SCALAR, dt=1e-3, t_f=1.0)
    assert np.max(np.abs(traj.outputs[:, 0] - np.exp(-traj.times))) <= 1e-4


def test_impulse_zero_output_map():
    s = StandardSystem(np.array([[-1.0]]), np.array([[1.0]]), np.array([[0.0]]))
    traj = impulse_response(s, dt=0.01, t_f=1.0)
    assert np.allclose(traj.outputs, 0.0)


def test_impulse_matches_dense_expm(rng):
    s = make_synthetic("random_stable", 20, 2, 2, seed=1)
    dt = 2e-4
    traj = impulse_response(s, dt=dt, t_f=0.5)
    v = np.ones(2)
    for idx in np.linspace(0, traj.times.size - 1, 10, dtype=int):
        t = traj.times[idx]
        y_ref = s.C @ linalg.expm(np.asarray(s.A) * t) @ (s.B @ v)
        assert np.linalg.norm(traj.outputs[idx] - y_ref) <= 1e-6 * max(
            np.linalg.norm(y_ref), 1.0
        )


def test_impulse_generalized_initial_condition():
    heat = make_synthetic("heat_like", 15, 1, 1, seed=2)
    g = GeneralizedSystem(heat.M, heat.A, heat.B, np.eye(15))  # outputs are the states
    traj = impulse_response(g, dt=1e-4, t_f=0.01)
    # M x0 = B * 1
    assert np.allclose(g.M @ traj.outputs[0], g.B[:, 0], atol=1e-12)


def test_relative_error_identical():
    t = np.linspace(0, 1, 11)
    y = Trajectory(times=t, outputs=np.ones((11, 2)))
    err, e_max = relative_error_series(y, y)
    assert np.allclose(err, 0.0) and e_max == 0.0


def test_relative_error_zero_reduction():
    t = np.linspace(0, 1, 11)
    y = Trajectory(times=t, outputs=np.ones((11, 2)))
    yr = Trajectory(times=t, outputs=np.zeros((11, 2)))
    err, e_max = relative_error_series(y, yr)
    assert np.allclose(err, 1.0) and e_max == 1.0


def test_relative_error_direct_formula():
    t = np.array([0.0])
    y = Trajectory(times=t, outputs=np.array([[3.0, 4.0]]))
    yr = Trajectory(times=t, outputs=np.array([[3.0, 0.0]]))
    err, e_max = relative_error_series(y, yr)
    assert abs(err[0] - 0.8) < 1e-15 and abs(e_max - 0.8) < 1e-15


def test_relative_error_window_restriction():
    t = np.linspace(0, 1, 101)
    y = Trajectory(times=t, outputs=np.ones((101, 1)))
    out = np.ones((101, 1))
    out[-1] = 3.0  # large error only outside the window
    yr = Trajectory(times=t, outputs=out)
    _, e_max = relative_error_series(y, yr, TimeWindow(t_e=0.5))
    assert e_max == 0.0


@pytest.mark.parametrize("window", [TimeWindow(t_e=2.0, t_s=1.5), TimeWindow(t_e=0.55, t_s=0.52)],
                         ids=["past-the-grid", "between-points"])
def test_relative_error_refuses_a_window_without_grid_points(window):
    # a window past the last grid point, or between two of them, has no
    # maximum error; it used to report E_T = 0
    t = np.linspace(0, 1, 11)
    y = Trajectory(times=t, outputs=np.ones((11, 1)))
    with pytest.raises(ValueError, match="no grid point lies in the error window"):
        relative_error_series(y, Trajectory(times=t, outputs=np.zeros((11, 1))), window)


def test_relative_error_refuses_a_window_past_the_horizon():
    # t_e = 2 on a grid over [0, 1] used to report the maximum over [0, 1] only
    t = np.linspace(0, 1, 11)
    y = Trajectory(times=t, outputs=np.ones((11, 1)))
    with pytest.raises(ValueError, match="ends at 2.0, past the simulated horizon 1.0"):
        relative_error_series(y, y, TimeWindow(t_e=2.0))
    # the integrator's step-count rounding is allowed, and no more
    assert relative_error_series(y, y, TimeWindow(t_e=1.0 + 0.5e-9 * y.dt))[1] == 0.0
    with pytest.raises(ValueError, match="past the simulated horizon"):
        relative_error_series(y, y, TimeWindow(t_e=1.0 + 2e-9 * y.dt))


def test_relative_error_accepts_a_window_ending_at_t_f():
    # t_f = t_e with dt = t_e/3000, as tlbt compare runs it: the last grid
    # time may round below t_e, but never by more than 1e-9 dt
    s = make_synthetic("weakly_damped", 20, 1, 1, seed=1)
    for t_e in [half_decay_time(s), *np.geomspace(1e-3, 50.0, 37)]:
        y = impulse_response(SCALAR, dt=t_e / 3000, t_f=t_e)
        assert y.times.size == 3001
        assert relative_error_series(y, y, TimeWindow(t_e=t_e))[1] == 0.0


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf, [1.0, np.nan], [np.inf, 1.0]],
                         ids=["nan", "inf", "-inf", "vector-nan", "vector-inf"])
def test_step_input_refuses_non_finite_values(c):
    with pytest.raises(ValueError, match="step input must be finite"):
        step_input(c)


def test_relative_error_grid_mismatch():
    y = Trajectory(times=np.linspace(0, 1, 5), outputs=np.ones((5, 1)))
    yr = Trajectory(times=np.linspace(0, 2, 5), outputs=np.ones((5, 1)))
    with pytest.raises(GridMismatchError):
        relative_error_series(y, yr)


def test_half_decay_time_scalar():
    assert abs(half_decay_time(SCALAR) - np.log(2.0)) < 1e-12


@pytest.mark.parametrize("a", [[[0.5]], [[0.0, 1.0], [-1.0, 0.0]]], ids=["growing", "oscillating"])
def test_half_decay_time_refuses_a_system_that_does_not_decay(a):
    s = StandardSystem(np.array(a), np.ones((len(a), 1)), np.ones((1, len(a))))
    with pytest.raises(ValueError, match="only defined for stable systems"):
        half_decay_time(s)


def test_half_decay_time_refuses_large_sparse_system_before_densifying():
    # the abscissa of a sparse pencil needs the dense M^{-1} A (3.2 GB at
    # n = 20000): it is refused, naming n and the bound, before any allocation
    s = make_synthetic("heat_like", 20000, 2, 2, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n=20000 > 1000"):
            half_decay_time(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


def _as_dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)


def _reference_midpoint(sys, u, x0, dt, t_f, half_step=True):
    """Plain midpoint loop: scipy ``lu_solve`` or ``splu`` per step, input sampled every step.

    The half step solves (M - dt/2 A) w = M x + dt/2 B u and sets x = 2 w - x;
    ``half_step=False`` takes the same rule as (M - dt/2 A) x' = (M + dt/2 A) x + dt B u.
    """
    a, b, c, d = sys.A, _as_dense(sys.B), _as_dense(sys.C), sys.D
    n, m = b.shape
    m_mat = getattr(sys, "M", None)
    if m_mat is None:
        m_mat = sp.identity(n, format="csc") if sp.issparse(a) else np.eye(n)
    minus = m_mat - (dt / 2.0) * a
    plus = m_mat + (dt / 2.0) * a
    if sp.issparse(minus):
        solve = spla.splu(sp.csc_matrix(minus)).solve
    else:
        lu_piv = sla.lu_factor(minus, check_finite=False)
        solve = lambda rhs: sla.lu_solve(lu_piv, rhs, check_finite=False)  # noqa: E731
    nsteps = int(np.ceil(t_f / dt - 1e-9))
    times = dt * np.arange(nsteps + 1)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    outputs = np.empty((nsteps + 1, c.shape[0]))
    for k in range(nsteps + 1):
        outputs[k] = c @ x + d @ u.sample(times[k], m)
        if k < nsteps:
            u_mid = u.sample(times[k] + dt / 2.0, m)
            if half_step:
                x = 2.0 * solve(m_mat @ x + dt / 2.0 * (b @ u_mid)) - x
            else:
                x = solve(plus @ x + dt * (b @ u_mid))
    return outputs


def _reference_kick(form):
    """``M^{-1} B v`` for v = ones, the impulse response's initial state; M solved by ``splu``."""
    x0 = _as_dense(form.B) @ np.ones(form.m)
    if getattr(form, "M", None) is not None:
        x0 = spla.splu(sp.csc_matrix(form.M)).solve(x0)
    return x0


def _reference_impulse(sys, dt, t_f, half_step=True):
    return _reference_midpoint(sys, impulse_input(np.ones(sys.m)), _reference_kick(sys), dt, t_f,
                               half_step)


def _reference_propagator(sys, u, x0, dt, t_f):
    """Dense propagator loop ``x = Phi x + Gamma u``; Phi, Gamma from n-column solves.

    ``Phi = 2 (M - dt/2 A)^{-1} M - I`` and ``Gamma = dt (M - dt/2 A)^{-1} B``,
    each from the LU of ``(M - dt/2 A)/2`` (``lu_factor``, or ``splu`` on a
    sparse pencil) solved with the dense M and with B; ``u = None`` steps
    without an input. The outputs are one product of all states with C^T
    (and of all inputs with D^T).
    """
    a, b, c, d = sys.A, sys.B, sys.C, sys.D
    n, m = b.shape
    m_mat = getattr(sys, "M", None)
    if m_mat is None:
        m_mat = sp.identity(n, format="csc") if sp.issparse(a) else np.eye(n)
    half = 0.5 * m_mat - (dt / 4.0) * a
    if sp.issparse(half):
        solve = spla.splu(sp.csc_matrix(half)).solve
    else:
        lu_piv = sla.lu_factor(half, check_finite=False)
        solve = lambda rhs: sla.lu_solve(lu_piv, rhs, check_finite=False)  # noqa: E731
    phi = solve(_as_dense(m_mat)) - np.eye(n)
    gamma = dt / 2.0 * solve(b)
    nsteps = int(np.ceil(t_f / dt - 1e-9))
    times = dt * np.arange(nsteps + 1)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    states = []
    for k in range(nsteps + 1):
        states.append(x)
        if k < nsteps:
            x = phi @ x if u is None else phi @ x + gamma @ u.sample(times[k] + dt / 2.0, m)
    outputs = np.array(states) @ c.T
    if u is not None:
        outputs += np.array([u.sample(t, m) for t in times]) @ d.T
    return outputs


_SYSTEMS = {
    "dense": (lambda: make_synthetic("random_stable", 20, 2, 2, seed=1), 1e-2, 2.0),
    # more states than steps: no propagator, one solve per step
    "dense_long": (lambda: make_synthetic("random_stable", 250, 2, 2, seed=1), 1e-2, 2.0),
    "sparse_generalized": (lambda: make_synthetic("heat_like", 50, 2, 2, seed=1), 1e-4, 0.02),
    "rom": (
        lambda: reduce(make_synthetic("random_stable", 20, 2, 2, seed=1), "bt", r=6),
        1e-2,
        2.0,
    ),
}
# pencils with no more states than steps, dense or of at most 256 states, which
# step with one propagator matrix
_PROPAGATED = {"dense", "rom", "sparse_generalized"}
_INPUTS = {
    "step": lambda: step_input(0.7),
    "custom": lambda: custom_input(lambda t: np.array([np.sin(40.0 * t), np.cos(30.0 * t)])),
}


@pytest.mark.parametrize("kind", sorted(_SYSTEMS))
def test_impulse_bit_identical_to_reference_loop(kind):
    make, dt, t_f = _SYSTEMS[kind]
    sys = make()
    traj = impulse_response(sys, dt=dt, t_f=t_f)
    assert traj.times.size == 201
    if kind in _PROPAGATED:
        ref = _reference_propagator(sys, None, _reference_kick(sys), dt, t_f)
    else:
        ref = _reference_impulse(sys, dt, t_f)
    assert np.array_equal(traj.outputs, ref)


@pytest.mark.parametrize("kind", ["dense", "dense_long", "sparse_generalized"])
@pytest.mark.parametrize("signal", sorted(_INPUTS))
def test_forced_response_bit_identical_to_reference_loop(kind, signal):
    make, dt, t_f = _SYSTEMS[kind]
    sys = make()
    u = _INPUTS[signal]()
    traj = implicit_midpoint(sys, u, None, dt, t_f)
    reference = _reference_propagator if kind in _PROPAGATED else _reference_midpoint
    assert np.array_equal(traj.outputs, reference(sys, u, None, dt, t_f))
    assert np.any(traj.outputs != 0.0)


@pytest.mark.parametrize("n", [256, 257])
@pytest.mark.parametrize("signal", ["impulse", "custom"])
def test_sparse_pencil_size_bound(n, signal):
    # a sparse pencil of at most 256 states steps with the propagator, a
    # larger one keeps the per-step solve, both with more steps than states
    sys, dt, t_f = make_synthetic("heat_like", n, 2, 2, seed=1), 1e-4, 0.03
    if signal == "impulse":
        out = impulse_response(sys, dt=dt, t_f=t_f).outputs
        ref = (_reference_propagator(sys, None, _reference_kick(sys), dt, t_f) if n <= 256
               else _reference_impulse(sys, dt, t_f))
    else:
        u = _INPUTS[signal]()
        out = implicit_midpoint(sys, u, None, dt, t_f).outputs
        reference = _reference_propagator if n <= 256 else _reference_midpoint
        ref = reference(sys, u, None, dt, t_f)
    assert out.shape == (301, 2)
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("dt", [1e-17, 1e-300], ids=["memory", "size"])
def test_grid_too_large_raises_before_stepping(dt):
    # 1e17 steps ask numpy for an 800 PB grid and 1e300 for more elements
    # than an array may hold: both are refused at once, naming the step count
    with pytest.raises(ValueError, match="more than fit in memory") as exc:
        impulse_response(SCALAR, dt=dt, t_f=1.0)
    assert f"asks for {dt ** -1:.3g} steps" in str(exc.value)


def test_propagator_keeps_its_blocks_apart():
    # more steps than one block of stored states: every block's outputs land
    # in their own rows, equal to one product over all states up to roundoff
    sys = make_synthetic("random_stable", 20, 2, 2, seed=1)
    u, dt, t_f = _INPUTS["custom"](), 1e-3, 0.6
    out = implicit_midpoint(sys, u, None, dt, t_f).outputs
    ref = _reference_propagator(sys, u, None, dt, t_f)
    assert out.shape == (601, 2)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("sparse", [False, True])
def test_singular_step_matrix_raises(sparse):
    dt = 0.1
    a = (2.0 / dt) * (sp.identity(3, format="csc") if sparse else np.eye(3))
    s = StandardSystem(a, np.ones((3, 1)), np.ones((1, 3)))
    with pytest.raises(SingularStepError):
        implicit_midpoint(s, None, np.ones(3), dt, 1.0)
    with pytest.raises(SingularStepError):
        impulse_response(s, dt=dt, t_f=1.0)


@pytest.mark.parametrize("sparse", [False, True])
def test_exploding_run_raises(sparse):
    # each step multiplies x by (1 + 1.9)/(1 - 1.9): |x| passes 1e308 near step 605
    dt = 1e-2
    a = np.array([[1.9 * 2.0 / dt]])
    s = StandardSystem(sp.csc_matrix(a) if sparse else a, np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(SingularStepError), np.errstate(over="ignore", invalid="ignore"):
        implicit_midpoint(s, None, np.ones(1), dt, 1000 * dt)
    finite = implicit_midpoint(s, None, np.ones(1), dt, 400 * dt)
    assert np.all(np.isfinite(finite.outputs))


@pytest.mark.parametrize("u", [None, step_input(1.0)], ids=["impulse", "step"])
def test_descriptor_steps_on_block_pencil_like_its_elimination(u):
    # the block-pencil midpoint step and the eliminated B, C, D reproduce the
    # response of the densely eliminated generalized system
    d = random_descriptor(12, 4, 2, 2, seed=3)
    gen, _ = eliminate_descriptor(d)
    if u is None:
        out, ref = (impulse_response(s, dt=1e-2, t_f=1.0).outputs for s in (d, gen))
    else:
        out, ref = (implicit_midpoint(s, u, None, 1e-2, 1.0).outputs for s in (d, gen))
    assert np.allclose(out, ref, rtol=0, atol=1e-11 * np.max(np.abs(ref)))


def test_descriptor_reduced_and_simulated_without_dense_state_matrix():
    # reduce, the impulse responses of the system and of its reduced model and
    # a forced response run on the block pencil: none allocates an n_f x n_f
    # array, and one system serving all of them gives what fresh ones give
    window, dt, t_f, nf = TimeWindow(t_e=0.05), 1e-4, 0.02, 1200

    def desc():
        return banded_descriptor(nf, 120, 2, 2, seed=3)

    with pytest.warns(UserWarning, match="unverified"):
        fresh_rom = reduce(desc(), "mtlbt", window, r=6)
    fresh = [
        impulse_response(desc(), dt=dt, t_f=t_f),
        impulse_response(fresh_rom, dt=dt, t_f=t_f),
        implicit_midpoint(desc(), step_input(1.0), None, dt, t_f),
    ]
    d = desc()
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="unverified"):
            rom = reduce(d, "mtlbt", window, r=6)
        trajectories = [
            impulse_response(d, dt=dt, t_f=t_f),
            impulse_response(rom, dt=dt, t_f=t_f),
            implicit_midpoint(d, step_input(1.0), None, dt, t_f),
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * nf * nf
    for key in ("A", "B", "C", "D"):
        assert np.array_equal(getattr(rom, key), getattr(fresh_rom, key))
    for traj, ref in zip(trajectories, fresh, strict=True):
        assert np.array_equal(traj.outputs, ref.outputs)


@pytest.mark.parametrize("kind", ["weakly_damped", "heat_like"])
def test_midpoint_impulse_input_starts_from_mass_solved_kick(kind):
    # an impulse input u = delta(t) v starts from x0 + M^{-1} B v, and from
    # x0 = None it is the impulse response
    s = make_synthetic(kind, 20, 2, 2, seed=1)
    v, dt, t_f = np.array([1.0, -0.5]), 1e-2, 1.0
    traj = implicit_midpoint(s, impulse_input(v), None, dt, t_f)
    assert np.max(np.abs(traj.outputs)) > 0.1
    assert np.array_equal(traj.outputs, impulse_response(s, v, dt, t_f).outputs)
    kick = s.B @ v
    if kind == "heat_like":
        kick = spla.spsolve(s.M.tocsc(), kick)
    x0 = np.linspace(-1.0, 1.0, 20)
    ref = implicit_midpoint(s, None, x0 + kick, dt, t_f).outputs
    out = implicit_midpoint(s, impulse_input(v), x0, dt, t_f).outputs
    assert np.allclose(out, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def _textbook_case(kind):
    """``(system, system of the reference loop, dt, t_f)``; a descriptor's loop runs on its elimination."""
    if kind == "descriptor":
        d = random_descriptor(12, 4, 2, 2, seed=3)
        return d, eliminate_descriptor(d)[0], 1e-2, 1.0
    make, dt, t_f = _SYSTEMS[kind]
    sys = make()
    return sys, sys, dt, t_f


@pytest.mark.parametrize("kind", [*sorted(_SYSTEMS), "descriptor"])
@pytest.mark.parametrize("signal", ["impulse", *sorted(_INPUTS)])
def test_half_step_matches_textbook_midpoint_loop(kind, signal):
    # the half step is the textbook step (M - dt/2 A) x' = (M + dt/2 A) x + dt B u
    # up to roundoff
    sys, ref_sys, dt, t_f = _textbook_case(kind)
    if signal == "impulse":
        out = impulse_response(sys, dt=dt, t_f=t_f).outputs
        ref = _reference_impulse(ref_sys, dt, t_f, half_step=False)
    else:
        u = _INPUTS[signal]()
        out = implicit_midpoint(sys, u, None, dt, t_f).outputs
        ref = _reference_midpoint(ref_sys, u, None, dt, t_f, half_step=False)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_descriptor_impulse_solves_with_a4_independent_of_steps(monkeypatch):
    # the step never applies the Schur complement: A4 is solved for the
    # eliminated B, C and D only, not once per step
    calls, real = [], DescriptorIndex1.a4_solve

    def spy(self, rhs):
        calls.append(1)
        return real(self, rhs)

    monkeypatch.setattr(DescriptorIndex1, "a4_solve", spy)
    counts = []
    for t_f in (1.0, 10.0):
        calls.clear()
        impulse_response(random_descriptor(12, 4, 2, 2, seed=3), dt=1e-2, t_f=t_f)
        counts.append(len(calls))
    assert counts[0] == counts[1]
