import math

import numpy as np
import pytest

from conftest import omega, residue
from isomonodromy import ode
from isomonodromy.model import DriftExceeded, SingularF1, SystemPair
from isomonodromy.frobenius import build_fuchsian
from isomonodromy.deformation import (
    DeformationState,
    StepFailure,
    integrability_residual,
    radial_family,
    transport,
    vanishing_check,
)


def test_transport_diagonal_identity():
    sp = SystemPair(np.diag([0.5, -0.3]), [0.0, 1.0])
    st = transport(DeformationState(u=sp.u, A=sp.A.copy()),
                   np.array([0.3j, 1.5]), tol=1e-12)
    assert np.max(np.abs(st.A - sp.A)) < 1e-14


def test_transport_drift_past_its_limit_is_a_typed_failure(system_2x2):
    """The diagonal and the power sums drift by rounding, about 6e-17 on one step of
    sample2x2: past a drift limit of 100 tol = 1e-28 that is a DriftExceeded naming both
    drifts; at the default tol the same transport passes."""
    u = system_2x2.u
    target = u + np.array([0.0, 0.3j])
    with pytest.raises(DriftExceeded, match="invariant drift too large: diag .* power sums"):
        transport(DeformationState(u, system_2x2.A), target, tol=1e-30)
    transport(DeformationState(u, system_2x2.A), target)


def test_transport_closed_loop_integrability():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3)) * 0.5 + 1j * rng.normal(size=(3, 3)) * 0.2
    u0 = np.array([0.0, 1.0, 0.6 + 0.9j], dtype=complex)
    loop = [u0 + np.array([0, 0, dz]) for dz in (0.2, 0.2 + 0.2j, 0.2j, 0.0)]
    st = DeformationState(u=u0, A=A.copy())
    for w in loop:
        st = transport(st, w, tol=1e-12)
    assert np.max(np.abs(st.A - A)) < 1e-10


def test_transport_runs_when_numpy_raises_on_every_error():
    """Under errstate(all="raise") transport returns the same A: no step of it underflows."""
    A = np.array([[0.5, 2.0, 0.3], [3.0, 1 / 3, -0.7], [0.2, 1.1, -0.4]], dtype=complex)
    u = np.array([0.0, 1.0, 0.6 + 0.9j])
    free = transport(DeformationState(u, A), u + 0.01)
    with np.errstate(all="raise"):
        strict = transport(DeformationState(u, A), u + 0.01)
    assert np.array_equal(strict.A, free.A)


def _stack_with_an_early_converger():
    """A segment that converges long before its stack-mate sums further orders."""
    from isomonodromy.deformation import _transport_stack

    rng = np.random.default_rng(1)
    A = 3.0 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    u = np.array([0.0, 1.0, 1j, 1 + 1j])
    targets = np.stack([u + 1e-7, u + np.array([0.3, -0.2j, 0.1, 0.0])])
    stacked, _, _ = _transport_stack(u, A, targets, 1e-6)
    return [stacked]


def _families_item():
    """One item of the families benchmark: u_0 once round a small circle in 16
    transports, the integrability residual and 20 formal coefficients."""
    from conftest import draw_system
    from isomonodromy.laplace import formal_recursion

    system, _ = draw_system(np.random.default_rng(44), 4)
    radius = 0.1 * min(abs(a - b) for i, a in enumerate(system.u) for b in system.u[i + 1:])
    centre = system.u[0] - radius
    state = DeformationState(u=system.u.copy(), A=system.A.copy())
    for s in range(1, 17):
        w = system.u.copy()
        w[0] = centre + radius * np.exp(2j * np.pi * s / 16) if s < 16 else system.u[0]
        state = transport(state, w, tol=1e-12)
    return [state.A, np.array([state.diag_drift, state.spectrum_drift,
                               integrability_residual(system, tol=1e-12)]),
            np.array(formal_recursion(system, 20).F)]


def _radial_family_from_the_locus(vanishing_A_uc):
    states = radial_family(SystemPair(vanishing_A_uc, [0.5, -0.5, 2.0]), [0.0, 0.0, 2.0],
                           [1.0, 0.1, 1e-3, 1e-6])
    return [s.A for s in states]


def test_stack_runs_when_numpy_raises_on_every_error(vanishing_A_uc):
    """Under errstate(all="raise") the same results, bit for bit: no term of a stack whose
    segment converges long before its stack-mate, of a families item or of a radial family
    grown from the locus raises."""
    for case in (_stack_with_an_early_converger, _families_item,
                 lambda: _radial_family_from_the_locus(vanishing_A_uc)):
        free = case()
        with np.errstate(all="raise"):
            strict = case()
        assert [x.tobytes() for x in strict] == [x.tobytes() for x in free]


def _lockstep_keeping_every_segment(u0, A0, targets, taylor_step):
    """The transport loop in which a finished segment stays, stepping on with h = 0 and q = 0.

    Returns the end matrices, the diagonal and power-sum drifts and the
    (steps, nfev, piece_steps) the solve counts.
    """
    from isomonodromy.ode import STEP_RATIO
    from isomonodromy.deformation import _power_sum_drift
    from isomonodromy.model import COALESCE_TOL

    du = targets - u0
    gap0 = u0 - u0[:, None]
    dgap = du[:, None, :] - du[:, :, None]
    speed = np.abs(dgap)
    A, t = A0[None].repeat(len(targets), 0), np.zeros(len(targets))
    steps = nfev = piece_steps = 0
    with np.errstate(divide="ignore", under="ignore", over="ignore", invalid="ignore"):
        while t.min() < 1:
            g = gap0 + t[:, None, None] * dgap
            dist = np.abs(g)
            near = dist < COALESCE_TOL
            rest = 1 - t
            h = np.minimum(rest, (np.where(near, 2 * COALESCE_TOL, STEP_RATIO * dist)
                                  / speed).min((1, 2)))
            q = h[:, None, None] * dgap / g
            np.copyto(q, 0, where=near)
            A, c, order = taylor_step(A, q)
            ch = c * h
            t = np.where(ch == rest, 1.0, t + ch)
            steps, nfev, piece_steps = steps + 1, nfev + order, piece_steps + np.count_nonzero(h)
    diag = np.abs(A.diagonal(0, 1, 2) - A0.diagonal()).max(1)
    return A, diag, _power_sum_drift(A0, A), (steps, nfev, piece_steps)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_finished_segment_leaves_the_lockstep(n, monkeypatch):
    """Each Taylor step gets only the segments still short of their targets, so the stack
    narrows as they finish; ends, drifts and work equal, bit for bit, those of the loop
    that keeps every segment to the last step."""
    from isomonodromy import deformation, ode

    rng = np.random.default_rng(450 + n)
    u0 = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    A0 = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    du = rng.uniform(-1, 1, (2 * n, n)) + 1j * rng.uniform(-1, 1, (2 * n, n))
    targets = u0 + du * rng.uniform(0, 0.6, (2 * n, 1)) / np.abs(du).max(1, keepdims=True)
    taylor_step = deformation._taylor_step
    ref = _lockstep_keeping_every_segment(u0, A0, targets, taylor_step)
    widths = []

    def spy(A, q):
        widths.append(len(A))
        return taylor_step(A, q)

    monkeypatch.setattr(deformation, "_taylor_step", spy)
    with ode.counting() as work:
        out = deformation._transport_stack(u0, A0, targets, 1.0)
    assert widths[0] == 2 * n and widths[-1] < 2 * n
    assert widths == sorted(widths, reverse=True)
    assert [x.tobytes() for x in out] == [x.tobytes() for x in ref[:3]]
    assert (work.steps, work.nfev, work.piece_steps) == ref[3]


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_transport_refuses_a_tol_that_is_not_finite_and_positive(tol):
    """A NaN tol used to switch the drift limit off: max(drift) > 100 * nan is False."""
    sp = SystemPair(np.array([[0.5, 0.2], [0.1, -0.3]], dtype=complex), [0.0, 1.0])
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        transport(DeformationState(sp.u, sp.A), np.array([0.2j, 1.3]), tol=tol)


@pytest.mark.parametrize("step", [0.0, math.nan, math.inf])
def test_integrability_residual_refuses_a_step_that_is_zero_or_not_finite(step):
    """step = 0 used to return nan after a RuntimeWarning."""
    sp = SystemPair(np.array([[0.5, 0.2], [0.1, -0.3]], dtype=complex), [0.0, 1.0])
    with pytest.raises(ValueError, match="step must be finite and nonzero"):
        integrability_residual(sp, step=step)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_transport_refuses_a_u_or_target_that_is_not_finite(bad):
    """Each used to reach StepFailure only after numpy's invalid-value warnings; a start at
    +-inf repeated by the target used to pass, as inf == inf."""
    sp = SystemPair(np.array([[0.5, 0.2], [0.1, -0.3]], dtype=complex), [0.0, 1.0])
    with pytest.raises(ValueError, match="^target is not finite"):
        transport(DeformationState(sp.u, sp.A), np.array([bad, 1.3]))
    with pytest.raises(ValueError, match="^u is not finite"):
        transport(DeformationState(np.array([bad, 1.0]), sp.A), np.array([0.2j, 1.3]))
    with pytest.raises(ValueError, match="^u is not finite"):
        transport(DeformationState(np.array([bad, 1.0]), sp.A), np.array([bad, 1.3]))
    with pytest.raises(ValueError, match="^u is not finite"):
        transport(DeformationState(np.array([bad, 1.0]), sp.A), np.array([bad, 1.0]))
    with pytest.raises(ValueError, match="^u is not finite"):
        integrability_residual(SystemPair(sp.A, [bad, 1.0]))
    with pytest.raises(ValueError, match="^target - u is not finite"):
        transport(DeformationState(np.array([1e308, 0.0]), sp.A), np.array([-1e308, 1.3]))


def test_transport_stops_a_stalled_solve_at_the_step_budget():
    """A_00 = 0.5 + 1e17i on the workhorse system shortens the first Schlesinger step of a
    1e-3 segment by a factor of 1.9e-13, so the segment would take about 1e14 steps: the
    solve stops at ode.MAX_STEPS with a StepFailure naming its t and its step."""
    A = np.array([[0.5 + 1e17j, 2.0], [3.0, 1.0 / 3.0]])
    with pytest.raises(StepFailure, match=rf"^Schlesinger transport short of its target after "
                                          rf"{ode.MAX_STEPS} steps: t = 1\.9\d\de-10, by steps "
                                          rf"of 1\.9e-13$"):
        transport(DeformationState(np.array([0.0, 1.0]), A), np.array([1e-3, 1.0]))


@pytest.mark.parametrize("target", [[0.2j, 1.3, 2.0], [0.2j], [[0.2j, 1.3]]])
def test_transport_refuses_a_target_whose_shape_is_not_that_of_u(target):
    """A target of the wrong length used to fail with numpy's broadcast error."""
    sp = SystemPair(np.array([[0.5, 0.2], [0.1, -0.3]], dtype=complex), [0.0, 1.0])
    with pytest.raises(ValueError, match="^target has shape"):
        transport(DeformationState(sp.u, sp.A), np.array(target))


def test_transport_invariants_and_path_independence():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(3, 3)) * 0.4 + 1j * rng.normal(size=(3, 3)) * 0.3
    u0 = np.array([0.0, 1.0, 0.6 + 0.9j], dtype=complex)
    u1 = u0 + np.array([0.1j, -0.15, 0.2])
    s_direct = transport(DeformationState(u=u0, A=A.copy()), u1, tol=1e-12)
    mid = u0 + np.array([0.3, 0.1j, -0.2j])
    s_detour = DeformationState(u=u0, A=A.copy())
    for w in (mid, u1):
        s_detour = transport(s_detour, w, tol=1e-12)
    assert np.max(np.abs(s_direct.A - s_detour.A)) < 1e-10
    assert s_direct.diag_drift < 1e-12
    assert s_direct.spectrum_drift < 1e-10


def test_transport_guard_near_delta():
    sp = SystemPair(np.diag([0.5, -0.3]), [0.0, 1.0])
    with pytest.raises(StepFailure):
        transport(DeformationState(u=sp.u, A=sp.A.copy()),
                  np.array([2.0, 1.0]), tol=1e-12)  # segment crosses u_1 = u_2


def test_radial_decay_slope(vanishing_A_uc):
    uc = np.array([0, 0, 1.0], dtype=complex)
    u1 = np.array([0.04 + 0.02j, -0.04 - 0.02j, 1.0], dtype=complex)
    ts = [1.0, 0.1, 0.01, 0.001]
    states = radial_family(SystemPair(vanishing_A_uc, u1), uc, ts, tol=1e-12)
    xs = [math.log(t) for t in ts]
    ys = [math.log(abs(st.A[0, 1])) for st in states]
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)
    # commutator bound ||[B_i, B_j]|| <= C |u_i - u_j| along the approach
    for t, st in zip(ts, states):
        fs = build_fuchsian(st.system())
        B0, B1 = residue(fs, 0), residue(fs, 1)
        comm = np.max(np.abs(B0 @ B1 - B1 @ B0))
        assert comm <= 20.0 * abs(st.u[0] - st.u[1])


def test_vanishing_check_constructed_pass():
    d = 1e-5
    c = 0.7
    A = np.array([[0.2, c * d], [-c * d, 0.9]], dtype=complex)
    rows = vanishing_check(SystemPair(A, [d, 0.0]), groups=[(0, 1)])
    assert rows[0]["pass"]
    assert rows[0]["ratio"] == pytest.approx(c, rel=1e-6)


def test_vanishing_check_constructed_fail():
    A = np.array([[0.2, 0.5], [0.3, 0.9]], dtype=complex)
    rows = vanishing_check(SystemPair(A, [1e-6, 0.0]), groups=[(0, 1)])
    assert not rows[0]["pass"]
    assert rows[0]["commutator_norm"] > 0.1


def test_vanishing_check_along_transported_family(vanishing_A_uc):
    uc = np.array([0, 0, 1.0], dtype=complex)
    u1 = np.array([0.02, -0.02, 1.0], dtype=complex)
    st = radial_family(SystemPair(vanishing_A_uc, u1), uc, [1e-3], tol=1e-12)[0]
    rows = vanishing_check(st.system(), groups=[(0, 1)])
    assert rows[0]["pass"]


def test_integrability_residual_quadratic():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3)) * 0.5 + 1j * rng.normal(size=(3, 3)) * 0.2
    sp = SystemPair(A, [0.0, 1.0, 0.6 + 0.9j])
    r1 = integrability_residual(sp, step=2e-3, tol=1e-13)
    r2 = integrability_residual(sp, step=1e-3, tol=1e-13)
    assert 3.5 < r1 / r2 < 4.5


def test_integrability_negative_control():
    """Holding A fixed over the stencil leaves a step-independent residual."""
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3)) * 0.5 + 1j * rng.normal(size=(3, 3)) * 0.2
    u0 = np.array([0.0, 1.0, 0.6 + 0.9j], dtype=complex)

    def resid_fixed(step):
        worst = 0.0
        for i in range(3):
            for k in range(i + 1, 3):
                up, um = u0.copy(), u0.copy()
                up[i] += step
                um[i] -= step
                dik = (omega(SystemPair(A, up), k) - omega(SystemPair(A, um), k)) / (2 * step)
                up2, um2 = u0.copy(), u0.copy()
                up2[k] += step
                um2[k] -= step
                dki = (omega(SystemPair(A, up2), i) - omega(SystemPair(A, um2), i)) / (2 * step)
                oi, ok = omega(SystemPair(A, u0), i), omega(SystemPair(A, u0), k)
                worst = max(worst, np.max(np.abs(dik - dki - (oi @ ok - ok @ oi))))
        return worst

    assert resid_fixed(1e-3) > 1e-2
    assert abs(resid_fixed(1e-3) / resid_fixed(5e-4) - 1.0) < 0.05


def test_transport_from_locus_rejects_violated_vanishing():
    """A segment starting at u_0 = u_1 with A_01 != 0 raises SingularF1."""
    A = np.array([[0.2, 0.5, 0.1], [0.3, 0.9, 0.2], [0.1, 0.4, 0.35]], dtype=complex)
    with pytest.raises(SingularF1):
        transport(DeformationState(u=np.array([0.0, 0.0, 1.0], dtype=complex), A=A),
                  np.array([0.1, -0.1, 1.0]), tol=1e-10, enforce_guard=False)


def test_transport_from_locus_with_vanishing_entries():
    """The same start with vanishing in-group entries transports and keeps the invariants."""
    A = np.array([[0.2, 0.0, 0.1], [0.0, 0.9, 0.2], [0.1, 0.4, 0.35]], dtype=complex)
    st = transport(DeformationState(u=np.array([0.0, 0.0, 1.0], dtype=complex), A=A),
                   np.array([0.1, -0.1, 1.0]), tol=1e-10, enforce_guard=False)
    assert np.all(np.isfinite(st.A))
    assert st.diag_drift < 1e-10


def _segment_gaps(u0, u1):
    """The start gaps u0_j - u0_i and their changes du_j - du_i along the segment(s) to u1."""
    du = u1 - u0
    return u0 - u0[:, None], du[..., None, :] - du[..., :, None]


def _gap_loop_reference(u0, u1, samples=33):
    best = math.inf
    for t in np.linspace(0.0, 1.0, samples):
        u = u0 + t * (u1 - u0)
        for i in range(u.size):
            for j in range(i + 1, u.size):
                best = min(best, abs(u[i] - u[j]))
    return best


def _exact_gap_reference(u0, u1):
    """Least pairwise |u_i - u_j| on the segment, pair by pair: both ends and the stationary point."""
    best = math.inf
    du = u1 - u0
    for i in range(u0.size):
        for j in range(i + 1, u0.size):
            g0, dg = complex(u0[j] - u0[i]), complex(du[j] - du[i])
            best = min(best, abs(g0), abs(g0 + dg))
            if dg != 0:
                t = -(g0.real * dg.real + g0.imag * dg.imag) / abs(dg) ** 2
                if 0 < t < 1:
                    best = min(best, abs(g0 + t * dg))
    return best


def test_segment_gap_matches_loop_reference():
    """The exact least gap, against a pair-by-pair loop, and never above the 33-sample minimum."""
    from isomonodromy.deformation import _min_ingroup_gap_on_segment

    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for _ in range(20):
            u0, u1 = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n) for _ in range(2))
            u1[0] = u0[0] + (u1[-1] - u0[-1])  # u_0 - u_{n-1} stays fixed: dg = 0 for that pair
            with np.errstate(all="raise"):
                gap = _min_ingroup_gap_on_segment(*_segment_gaps(u0, u1))
            assert gap == pytest.approx(_exact_gap_reference(u0, u1), rel=1e-12, abs=1e-15)
            assert gap <= _gap_loop_reference(u0, u1) * (1 + 1e-14)


@pytest.mark.parametrize("offset", [1e-6, 0.0])
def test_transport_guard_sees_a_pass_between_samples(offset):
    """u_0 passes u_1 at t = 1/64, between 33 samples: the exact guard fires before any solve.

    The 33 samples read a least gap of 1.56e-2, far above NEAR_DELTA_GUARD.
    """
    from isomonodromy import ode

    A = np.array([[0.3, 0.2, 0.1], [0.4, -0.2, 0.3], [0.1, 0.5, 0.45]], dtype=complex)
    u0 = np.array([0.5 - 1 / 64 + offset * 1j, 0.5, 3.0])
    u1 = u0 + np.array([1.0, 0.0, 0.0])
    assert _gap_loop_reference(u0, u1) > 1e-2
    with ode.counting() as work:
        with pytest.raises(StepFailure, match="coalescence locus"):
            transport(DeformationState(u=u0, A=A), u1, tol=1e-10)
    assert work.solves == 0


@pytest.mark.parametrize("offset, raises", [(0.0, True), (3e-5, True), (2e-4, False)])
def test_transport_guard_raises_where_the_sampled_gap_is_small(offset, raises):
    """u_0 moves past u_1 at distance ``offset``: the guard fires below NEAR_DELTA_GUARD."""
    from isomonodromy.deformation import NEAR_DELTA_GUARD

    A = np.array([[0.3, 0.2, 0.1], [0.4, -0.2, 0.3], [0.1, 0.5, 0.45]], dtype=complex)
    u0 = np.array([-0.5 + offset * 1j, 0.0, 1.0 + 1.0j])
    u1 = np.array([0.5 + offset * 1j, 0.0, 1.0 + 1.0j])
    assert (_gap_loop_reference(u0, u1) < NEAR_DELTA_GUARD) == raises
    state = DeformationState(u=u0, A=A.copy())
    if raises:
        with pytest.raises(StepFailure, match="coalescence locus"):
            transport(state, u1, tol=1e-10)
    else:
        transport(state, u1, tol=1e-10)


def test_transport_samples_the_gap_only_when_guarded(monkeypatch):
    import isomonodromy.deformation as deformation

    calls = []
    original = deformation._min_ingroup_gap_on_segment

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(deformation, "_min_ingroup_gap_on_segment", counted)
    sp = SystemPair(np.array([[0.5, 0.2], [0.1, -0.3]], dtype=complex), [0.0, 1.0])
    for enforce, expected in ((False, 0), (True, 1)):
        calls.clear()
        transport(DeformationState(u=sp.u, A=sp.A.copy()), np.array([0.2j, 1.3]),
                  tol=1e-12, enforce_guard=enforce)
        assert len(calls) == expected


def test_short_segment_far_from_the_origin_is_transported():
    """A 1e-3 step at |u| ~ 150 moves A; the flow is translation invariant."""
    rng = np.random.default_rng(0)
    A = 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    u = np.array([0.1 + 0.2j, -0.7 + 0.1j, 0.5 - 0.6j])
    target = u + 150.0
    target[0] += 1e-3
    st = transport(DeformationState(u=u + 150.0, A=A.copy()), target, tol=1e-12,
                   enforce_guard=False)
    assert np.array_equal(st.u, target)
    assert np.max(np.abs(st.A - A)) > 1e-4
    near = integrability_residual(SystemPair(A, u))
    far = integrability_residual(SystemPair(A, u + 150.0))
    assert abs(far - near) < 1e-10


@pytest.mark.parametrize("n", range(2, 7))
def test_integrability_residual_makes_one_solve(n):
    from conftest import draw_system
    from isomonodromy import ode

    system, _ = draw_system(np.random.default_rng(40 + n), n)
    with ode.counting() as work:
        integrability_residual(system, tol=1e-12)
    assert work.solves == 1


RESONANT_GROUP_A = np.array([[0.5, 0.0, 0.4], [0.0, 2.5, -0.3], [0.6, 0.7, 0.25]], dtype=complex)


@pytest.mark.parametrize("g, raises", [(2e-3, False), (1e-3, True), (1e-4, True), (1e-8, True)])
def test_integrability_residual_refuses_a_stencil_across_the_locus(g, raises):
    """u = [0, g, 1], step 1e-3: a stencil segment within NEAR_DELTA_GUARD of u_0 = u_1 fails at once.

    Unguarded, g = 1e-3 ran past 30 s and g = 1e-4 failed only after
    14,063 steps; g = 2e-3 keeps its stencil clear and returns.
    """
    from isomonodromy import ode

    system = SystemPair(RESONANT_GROUP_A, [0.0, g, 1.0])
    with ode.counting() as work:
        if raises:
            with pytest.raises(StepFailure, match="coalescence locus"):
                integrability_residual(system, step=1e-3)
        else:
            assert math.isfinite(integrability_residual(system, step=1e-3))
    assert work.solves == (0 if raises else 1)


def test_integrability_residual_refuses_the_locus(vanishing_A_uc):
    """u on the coalescence locus: StepFailure before any solve, not a stalled stencil."""
    from isomonodromy import ode

    with ode.counting() as work:
        with pytest.raises(StepFailure, match="coalescence locus"):
            integrability_residual(SystemPair(vanishing_A_uc, [0.0, 0.0, 1.0]))
    assert work.solves == 0


def _residual_per_stencil_reference(system, step=1e-3, tol=1e-12):
    """One lone transport per stencil evaluation, omega_k rebuilt at each."""
    n = system.n
    base = DeformationState(u=np.asarray(system.u, dtype=complex),
                            A=np.asarray(system.A, dtype=complex))

    def omega_at(i, delta, k):
        u = base.u.copy()
        u[i] += delta
        return omega(transport(base, u, tol=tol, enforce_guard=False).system(), k)

    worst = 0.0
    for i in range(n):
        for k in range(i + 1, n):
            d_i_om_k = (omega_at(i, step, k) - omega_at(i, -step, k)) / (2 * step)
            d_k_om_i = (omega_at(k, step, i) - omega_at(k, -step, i)) / (2 * step)
            om_i, om_k = omega(system, i), omega(system, k)
            comm = om_i @ om_k - om_k @ om_i
            worst = max(worst, float(np.max(np.abs(d_i_om_k - d_k_om_i - comm))))
    return worst


@pytest.mark.parametrize("n", range(3, 7))
def test_stacked_stencil_matches_lone_transports(n):
    from conftest import draw_system
    from isomonodromy.deformation import _transport_stack

    system, _ = draw_system(np.random.default_rng(70 + n), n)
    step, tol = 1e-3, 1e-12
    assert abs(integrability_residual(system, step, tol)
               - _residual_per_stencil_reference(system, step, tol)) < 1e-12
    targets = system.u + step * np.concatenate([np.eye(n), -np.eye(n)])
    stacked, _, _ = _transport_stack(system.u, system.A, targets, tol)
    base = DeformationState(u=system.u, A=system.A)
    for A1, u1 in zip(stacked, targets):
        lone = transport(base, u1, tol=tol, enforce_guard=False).A
        assert np.max(np.abs(A1 - lone)) < 1e-10 * np.max(np.abs(lone))


def _transport_single_reference(u0, u1, A0):
    """One segment by scipy's DOP853 at rtol = 1e-13, atol = 1e-20 on the masked reduced flow."""
    from scipy.integrate import solve_ivp

    from isomonodromy.model import COALESCE_TOL

    n = u0.size
    gap0 = u0[None, :] - u0[:, None]
    dgap = (u1 - u0)[None, :] - (u1 - u0)[:, None]

    def rhs(t, y):
        A = y.reshape(n, n)
        gap = gap0 + t * dgap
        q = np.divide(dgap, gap, out=np.zeros_like(gap), where=np.abs(gap) >= COALESCE_TOL)
        W = A * q
        return (W @ A - A @ W).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), np.asarray(A0, dtype=complex).ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-20)
    return sol.y[:, -1].reshape(n, n)


def _assert_matches_reference(A1, u0, u1, A0):
    """The Taylor end matrix within 1e-11 of the scipy reference, relative to max(1, max|A|)."""
    ref = _transport_single_reference(np.asarray(u0, dtype=complex),
                                      np.asarray(u1, dtype=complex), A0)
    assert np.max(np.abs(A1 - ref)) < 1e-11 * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("case", ["random", "locus"])
def test_transport_is_a_stack_of_one(case):
    """A lone transport is the stack of its one segment; off the locus it matches the scipy reference."""
    from isomonodromy.deformation import _transport_stack

    if case == "random":
        rng = np.random.default_rng(11)
        A = 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        u0 = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        u1 = u0 + 0.2 * (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
    else:
        A = np.array([[0.2, 0.0, 0.1], [0.0, 0.9, 0.2], [0.1, 0.4, 0.35]], dtype=complex)
        u0 = np.array([0.0, 0.0, 1.0], dtype=complex)
        u1 = np.array([0.1, -0.1, 1.0], dtype=complex)
    st = transport(DeformationState(u=u0, A=A.copy()), u1, tol=1e-10, enforce_guard=False)
    (stacked,), _, _ = _transport_stack(u0, A, u1[None], 1e-10)
    assert np.array_equal(st.A, stacked)
    if case == "random":
        # From the locus, A_01 = c t^(A_11 - A_00) + O(t) solves the flow for
        # every c: each integrator picks its own c leaving the COALESCE_TOL
        # band (scipy's DOP853 alone moves A_01 by 3.5e-6 between atol 1e-13
        # and 1e-20), so only the random segment has a reference.
        _assert_matches_reference(st.A, u0, u1, A)


@pytest.mark.parametrize("n", range(3, 7))
def test_integrability_stack_matches_the_reference(n):
    """All 2n stencil segments of one Taylor stack, each against its own scipy solve."""
    from conftest import draw_system
    from isomonodromy.deformation import _transport_stack

    system, _ = draw_system(np.random.default_rng(80 + n), n)
    targets = system.u + 1e-3 * np.concatenate([np.eye(n), -np.eye(n)])
    stacked, _, _ = _transport_stack(system.u, system.A, targets, 1e-12)
    for A1, u1 in zip(stacked, targets):
        _assert_matches_reference(A1, system.u, u1, system.A)


def test_radial_family_matches_the_reference(coalescing_geometry, vanishing_A_uc):
    """A family grown from t = 1e-8 off the locus, segment by segment against scipy."""
    u_c = np.asarray(coalescing_geometry.u_c, dtype=complex)
    v = np.array([0.03, -0.03, 1.0]) - u_c
    ts = [0.5, 1.0]
    states = radial_family(SystemPair(vanishing_A_uc, u_c + v), u_c, ts, tol=1e-12)
    u_a, A_a = u_c + 1e-8 * v, vanishing_A_uc
    for t, st in zip(ts, states):
        _assert_matches_reference(st.A, u_a, st.u, A_a)
        u_a, A_a = st.u, st.A


def test_radial_family_rejects_violated_vanishing(coalescing_geometry, vanishing_A_uc):
    """An in-group entry above VANISH_TOL max(1, max|A|) at u^c raises SingularF1, as
    formal_recursion does."""
    A = vanishing_A_uc.copy()
    A[0, 1] = 1e-6
    with pytest.raises(SingularF1):
        radial_family(SystemPair(A, [0.03, -0.03, 1.0]), coalescing_geometry.u_c, [1.0])


def _steps_the_gaps_allow(u0, u1):
    """Steps of a segment whose every step is STEP_RATIO of the nearest gap's reach."""
    from isomonodromy.ode import STEP_RATIO

    i, j = np.triu_indices(u0.size, 1)
    gap0, dgap = u0[j] - u0[i], (u1 - u0)[j] - (u1 - u0)[i]
    t, steps = 0.0, 0
    while t < 1:
        h = min(1 - t, STEP_RATIO * np.min(np.abs(gap0 + t * dgap) / np.abs(dgap)))
        t = 1.0 if h == 1 - t else t + h
        steps += 1
    return steps


@pytest.mark.parametrize("scale", [1.5, 3.0])
def test_large_A_steps_shorten_and_match_the_reference(scale):
    """For large |A| the quadratic flow's own radius is shorter than the gaps', so steps shorten.

    The draws take more steps in all than the gaps alone allow; without
    the shortening rule the scale-3.0 draws raise StepFailure.
    """
    from conftest import draw_system
    from isomonodromy import ode
    from isomonodromy.deformation import _transport_stack

    rng = np.random.default_rng(int(10 * scale))
    allowed = 0
    with ode.counting() as work:
        for n in (3, 4, 5):
            system, _ = draw_system(rng, n, scale=scale, min_gap=0.35)
            u1 = system.u + 0.2 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            (A1,), _, _ = _transport_stack(system.u, system.A, u1[None], 1e-10)
            allowed += _steps_the_gaps_allow(system.u, u1)
            _assert_matches_reference(A1, system.u, u1, system.A)
    assert work.steps > allowed


# order updates of the 16 one-step transports of the closed loop, as measured
CLOSED_LOOP_NFEV = {3: 210, 4: 176, 5: 200, 6: 192}


@pytest.mark.parametrize("n", range(3, 7))
def test_closed_loop_makes_one_short_solve_per_segment(n):
    """u_0 once around a circle of a tenth of the smallest gap in 16 transports.

    Each transport is one solve of one Taylor step; the steps and order
    updates are pinned exactly, as measured.
    """
    from conftest import draw_system
    from isomonodromy import ode

    system, _ = draw_system(np.random.default_rng(60 + n), n, min_gap=0.35)
    gaps = np.abs(system.u[:, None] - system.u[None, :]) + np.diag(np.full(n, np.inf))
    radius = 0.1 * gaps.min()
    state = DeformationState(u=system.u, A=system.A)
    with ode.counting() as work:
        for s in range(1, 17):
            u = system.u.copy()
            u[0] += radius * (np.exp(2j * np.pi * s / 16) - 1)
            state = transport(state, u, tol=1e-12)
    assert (work.solves, work.steps, work.piece_steps) == (16, 16, 16)
    assert work.nfev == CLOSED_LOOP_NFEV[n]
    assert np.max(np.abs(state.A - system.A)) < 1e-12 * max(1.0, np.max(np.abs(system.A)))


def _defective_draw(seed, n=4):
    """A = S J S^-1 with a 2 x 2 Jordan block in J, and a 0.2 segment: a far-from-normal A."""
    rng = np.random.default_rng(seed)
    J = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.5
    J[1, 1] = J[0, 0]
    J[0, 1] = 1.0
    S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u0 = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    u1 = u0 + 0.2 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    return S @ J @ np.linalg.inv(S), u0, u1


def test_drift_monitor_passes_an_accurate_far_from_normal_transport():
    """A double eigenvalue with a Jordan block: matching eigenvalues read 1.35e-8 here.

    Rounding splits a defective eigenvalue by about sqrt(eps |A|), so an
    eigenvalue monitor raised DriftExceeded at tol = 1e-10 on a transport
    that agrees with the scipy reference to 1e-14; the power sums do not.
    """
    A, u0, u1 = _defective_draw(0)
    st = transport(DeformationState(u=u0, A=A), u1, tol=1e-10)
    ref = _transport_single_reference(u0, u1, A)
    assert np.max(np.abs(st.A - ref)) < 1e-10 * np.max(np.abs(ref))
    assert st.spectrum_drift < 1e-14


@pytest.mark.parametrize("delta", [1e-12, 1e-6, 1e-2])
def test_power_sum_drift_reads_a_shift(delta):
    """A0 + delta I moves tr(A) by n delta, so it reads at least delta / ||A0||; A0 itself reads 0."""
    from isomonodromy.deformation import _power_sum_drift

    rng = np.random.default_rng(17)
    for n in range(2, 7):
        A0 = 2.0 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        drift = _power_sum_drift(A0, np.stack([A0, A0 + delta * np.eye(n)]))
        assert drift[0] == 0.0
        assert drift[1] >= delta / np.linalg.norm(A0)


def test_power_sum_drift_scales_a_norm_whose_square_overflows():
    """||A0|| = 1.6e200 squares past the float range: the drift is still scaled by the norm,
    and reads a relative shift; a norm past the float range itself is IllConditioned.  No
    numpy warning comes first."""
    from isomonodromy.deformation import _power_sum_drift
    from isomonodromy.model import IllConditioned

    A0 = np.array([[1e200, 3.0], [-2.0, 1.2e200]], dtype=complex)
    drift = _power_sum_drift(A0, np.stack([A0, A0 * (1 + 1e-9)]))
    assert drift[0] == 0.0 and 1e-10 < drift[1] < 1e-8
    with pytest.raises(IllConditioned, match="leaves the float range"):
        _power_sum_drift(np.full((2, 2), 1.5e308 + 0j), np.zeros((1, 2, 2), dtype=complex))


@np.errstate(divide="ignore", under="ignore")
def _taylor_step_per_order(A, q):
    """The Taylor step by the per-order recurrence, each Cauchy sum a stack of n x n products.

    A copy of the step before its terms were kept as block buffers: T and W
    are (MAX_ORDER + 1, P, n, n) stacks, and order m sums m + 1 products of
    each kind.  Returns the end matrices, the shortening factors and the
    number of orders.
    """
    from isomonodromy.ode import STEP_RATIO, TAIL_ORDERS, TAYLOR_EPS
    from isomonodromy.ode import MAX_ORDER

    T = np.empty((MAX_ORDER + 1,) + A.shape, dtype=complex)
    W = np.empty_like(T)
    size = np.abs(A).max((1, 2))
    ratio = float(np.abs(q).max())
    hi = min(MAX_ORDER, max(2, math.ceil(math.log(TAYLOR_EPS) / math.log(ratio)))
             if ratio > 0 else 2)
    lo, c = 0, np.ones(A.shape[0])
    T[0] = A
    W[0] = q * A
    while True:
        for m in range(lo, hi):
            C = np.matmul(W[:m + 1], T[m::-1]).sum(0)
            C -= np.matmul(T[m::-1], W[:m + 1]).sum(0)
            T[m + 1] = C / (m + 1)
            W[m + 1] = q * (T[m + 1] - W[m])
        last = np.abs(T[hi - 1:hi + 1]).max((2, 3))
        slow = np.any(last > TAYLOR_EPS * size, 0)
        if not slow.any():
            return T[hi::-1].sum(0), c, hi
        assert hi < MAX_ORDER
        m = np.arange(hi + 1)[:, None]
        radius = np.min((size / last) ** (1 / m[hi - 1:]), 0)
        shorten = np.where(slow, np.minimum(1.0, STEP_RATIO * radius), 1.0)
        if np.any(shorten < 1):
            power = shorten ** m
            T[:hi + 1] *= power[..., None, None]
            W[:hi + 1] *= (power * shorten)[..., None, None]
            q = q * shorten[:, None, None]
            c *= shorten
        lo, hi = hi, min(MAX_ORDER, hi + TAIL_ORDERS)


def _step_draw(rng, P, n, a_scale, q_max):
    """A (P, n, n) stack of matrices and step factors q of largest modulus ``q_max`` (at most
    STEP_RATIO in a transport), zero on the diagonal as in a step."""
    A = a_scale * (rng.normal(size=(P, n, n)) + 1j * rng.normal(size=(P, n, n)))
    q = rng.normal(size=(P, n, n)) + 1j * rng.normal(size=(P, n, n))
    q[:, np.arange(n), np.arange(n)] = 0
    return A, q * (q_max / np.abs(q).max())


def _assert_step_matches_per_order(A, q):
    from isomonodromy.deformation import _taylor_step

    ref, c_ref, order_ref = _taylor_step_per_order(A, q)
    end, c, order = _taylor_step(A, q)
    assert order == order_ref
    assert np.max(np.abs(end - ref)) <= 1e-15 * np.max(np.abs(ref))
    return c, c_ref


@pytest.mark.parametrize("n", range(2, 7))
def test_taylor_step_matches_the_per_order_recurrence(n):
    """One product per order sums what the m + 1 products of each kind summed, at P = 1 and 2n."""
    rng = np.random.default_rng(40 + n)
    for P in (1, 2 * n):
        for _ in range(5):
            c, c_ref = _assert_step_matches_per_order(*_step_draw(rng, P, n, 0.5, 0.1))
            assert np.array_equal(c, c_ref)


def test_taylor_step_shortens_large_A_as_the_per_order_recurrence():
    """At |A| ~ 3 the flow's own radius is below the step: both shorten it, by the same factors."""
    A, q = _step_draw(np.random.default_rng(5), 8, 4, 3.0, 0.4)
    c, c_ref = _assert_step_matches_per_order(A, q)
    assert np.any(c_ref < 1)
    assert np.allclose(c, c_ref, rtol=1e-15, atol=0)


def test_taylor_step_grows_its_buffers_past_the_first_estimate(monkeypatch):
    """A step whose tail runs past the orders it first expected grows its buffers and converges."""
    import isomonodromy.deformation as deformation

    held = []
    grow = deformation._term_buffers

    def spy(P, n, K):
        held.append(K)
        return grow(P, n, K)

    monkeypatch.setattr(deformation, "_term_buffers", spy)
    A, q = _step_draw(np.random.default_rng(6), 3, 5, 2.0, 0.3)
    _assert_step_matches_per_order(A, q)
    assert len(held) >= 2 and held[-1] > held[0]


def test_taylor_step_refuses_a_step_not_converged_by_max_order():
    """A direct call at |q| = 0.95: untested_orders puts the first test at MAX_ORDER, where
    terms that fall like 0.95^m (1.2e-9 at m = 400) are still far above TAYLOR_EPS.
    _transport_stack's plan keeps |q| <= STEP_RATIO, which takes 54 orders untested."""
    from isomonodromy.deformation import _taylor_step

    A = np.array([[[0.5, 0.2], [0.3, 0.4]]], dtype=complex)
    q = np.array([[[0.0, 0.95], [0.95, 0.0]]], dtype=complex)
    with pytest.raises(StepFailure,
                       match=r"^Schlesinger step of 1 segment\(s\) did not converge in 400 "
                             r"orders$"):
        _taylor_step(A, q)


def test_stacked_gap_guard_matches_the_pair_reference():
    """The least gap of every target from one broadcast equals the pair-by-pair reference, target by target."""
    from isomonodromy.deformation import _min_ingroup_gap_on_segment

    rng = np.random.default_rng(4)
    for n in range(2, 7):
        u0 = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        targets = rng.uniform(-1, 1, (2 * n, n)) + 1j * rng.uniform(-1, 1, (2 * n, n))
        targets[0] = u0 + 0.3  # a rigid shift: every dg = 0
        with np.errstate(all="raise"):
            gaps = _min_ingroup_gap_on_segment(*_segment_gaps(u0, targets))
        assert gaps.shape == (2 * n,)
        for gap, u1 in zip(gaps, targets):
            assert gap == pytest.approx(_exact_gap_reference(u0, u1), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("n", range(2, 7))
def test_stacked_stencil_omegas_equal_omega_point_by_point(n):
    """The stencil's omega stack is the entrywise omega_k = [F_1, E_k] at each point, bit
    for bit."""
    from conftest import draw_system
    from isomonodromy.deformation import _distinct_omegas, _transport_stack

    system, _ = draw_system(np.random.default_rng(90 + n), n)
    targets = system.u + 1e-3 * np.concatenate([np.eye(n), -np.eye(n)])
    A1, _, _ = _transport_stack(system.u, system.A, targets, 1e-12)
    om = _distinct_omegas(A1, targets)
    for p in range(2 * n):
        for k in range(n):
            assert np.array_equal(om[p, k], omega(SystemPair(A1[p], targets[p]), k))


def test_transport_past_the_float_range_is_a_typed_failure():
    """Taylor terms past the float range end in StepFailure, with no numpy warning first."""
    A = np.array([[1e200, 2.0], [3.0, 1 / 3]], dtype=complex)
    with pytest.raises(StepFailure, match="not finite"):
        transport(DeformationState(u=np.array([0.0, 1.0]), A=A), np.array([0.1j, 1.0]))
