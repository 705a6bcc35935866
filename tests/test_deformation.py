import math

import numpy as np
import pytest

from isomonodromy.model import SystemPair
from isomonodromy.frobenius import build_fuchsian
from isomonodromy.laplace import SingularF1, f1
from isomonodromy.deformation import (
    DeformationState,
    _residue,
    NotReducible,
    StepFailure,
    integrability_residual,
    jordan_reduce_Bj,
    omega,
    radial_family,
    schlesinger_rhs,
    transport,
    vanishing_check,
)


def test_omega_diagonal_is_zero():
    sp = SystemPair(np.diag([0.5, -0.3]), [0.0, 1.0])
    assert np.max(np.abs(omega(sp, 0))) == 0.0


def test_omega_matches_commutator_with_E_k(system_2x2):
    """omega_k must equal [F_1, E_k] computed by matrix algebra."""
    F1 = f1(system_2x2)
    n = system_2x2.n
    for k in range(n):
        Ek = np.zeros((n, n))
        Ek[k, k] = 1.0
        assert np.allclose(omega(system_2x2, k), F1 @ Ek - Ek @ F1)
    # worked entry values: (omega_1)_{12} = A_12/(u_1-u_2) = -2,
    # (omega_1)_{21} = -A_21/(u_2-u_1) = -3
    om = omega(system_2x2, 0)
    assert om[0, 1] == pytest.approx(-2.0)
    assert om[1, 0] == pytest.approx(-3.0)


def test_omega_sum_vanishes(system_2x2):
    total = sum(omega(system_2x2, k) for k in range(2))
    assert np.max(np.abs(total)) < 1e-14


def test_omega_rejects_violated_vanishing():
    A = np.array([[0.2, 0.5], [0.1, 0.9]], dtype=complex)
    with pytest.raises(SingularF1):
        omega(SystemPair(A, [0.0, 0.0]), 0)


def test_schlesinger_rhs_diagonal_zero():
    fs = build_fuchsian(SystemPair(np.diag([0.5, -0.3]), [0.0, 1.0]))
    derivs, cons = schlesinger_rhs(fs)
    assert all(np.max(np.abs(D)) < 1e-15 for D in derivs.values())
    assert cons < 1e-15


def test_schlesinger_rhs_consistency_identity():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0, 0.6 + 0.9j]))
    _, cons = schlesinger_rhs(fs)
    assert cons < 1e-12


def test_schlesinger_rhs_finite_difference_oracle(system_2x2):
    """d B_2/d u_1 compared against a short-transport finite difference."""
    fs = build_fuchsian(system_2x2)
    derivs, _ = schlesinger_rhs(fs)
    h = 1e-5
    states = []
    for s in (+h, -h):
        u = system_2x2.u.copy()
        u[0] += s
        st = transport(DeformationState(u=system_2x2.u, A=system_2x2.A.copy()),
                       u, tol=1e-13)
        states.append(build_fuchsian(st.system()))
    fd = (_residue(states[0], 1) - _residue(states[1], 1)) / (2 * h)
    assert np.max(np.abs(fd - derivs[(0, 1)])) < 1e-7


def test_transport_diagonal_identity():
    sp = SystemPair(np.diag([0.5, -0.3]), [0.0, 1.0])
    st = transport(DeformationState(u=sp.u, A=sp.A.copy()),
                   np.array([0.3j, 1.5]), tol=1e-12)
    assert np.max(np.abs(st.A - sp.A)) < 1e-14


def test_transport_closed_loop_integrability():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3)) * 0.5 + 1j * rng.normal(size=(3, 3)) * 0.2
    u0 = np.array([0.0, 1.0, 0.6 + 0.9j], dtype=complex)
    loop = [u0 + np.array([0, 0, dz]) for dz in (0.2, 0.2 + 0.2j, 0.2j, 0.0)]
    st = DeformationState(u=u0, A=A.copy())
    for w in loop:
        st = transport(st, w, tol=1e-12)
    assert np.max(np.abs(st.A - A)) < 1e-10


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
        B0, B1 = _residue(fs, 0), _residue(fs, 1)
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


def test_jordan_reduce_diagonalizable(system_2x2):
    fs = build_fuchsian(system_2x2)
    G, T, branch = jordan_reduce_Bj(fs, 0)
    assert branch == "diagonal"
    assert np.allclose(np.diag(T), [-1.5, 0.0])
    # footnote columns: (e_0, e_1 - (A_01/(lambda'_0+1)) e_0)
    assert np.allclose(G[:, 0], [1.0, 0.0])
    assert np.allclose(G[:, 1], [-2.0 / 1.5, 1.0])


def test_jordan_reduce_diagonal_A_is_identity():
    fs = build_fuchsian(SystemPair(np.diag([0.5, -0.3]), [0.0, 1.0]))
    G, T, branch = jordan_reduce_Bj(fs, 0)
    assert np.allclose(G, np.eye(2))


def test_jordan_reduce_nilpotent_branch():
    A = np.array([[-1.0, 0.8], [0.3, 0.4]], dtype=complex)
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    G, T, branch = jordan_reduce_Bj(fs, 0)
    assert branch == "jordan"
    J = np.linalg.solve(G, _residue(fs, 0) @ G)
    assert np.max(np.abs(J - T)) < 1e-12
    assert T[0, 1] == 1.0 and np.count_nonzero(T) == 1


def test_jordan_reduce_zero_row_branch():
    A = np.array([[-1.0, 0.0], [0.3, 0.4]], dtype=complex)
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    G, T, branch = jordan_reduce_Bj(fs, 0)
    assert branch == "zero"
    with pytest.raises(NotReducible):
        jordan_reduce_Bj(fs, 0, strict=True)


def test_jordan_simultaneous_reduction_at_uc(vanishing_A_uc):
    """G^(1) G^(2) reduces both group residues at u^c simultaneously."""
    fs = build_fuchsian(SystemPair(vanishing_A_uc, [0.0, 0.0, 1.0]))
    G0, T0, _ = jordan_reduce_Bj(fs, 0)
    G1, T1, _ = jordan_reduce_Bj(fs, 1)
    G = G0 @ G1
    for j, T in ((0, T0), (1, T1)):
        R = np.linalg.solve(G, _residue(fs, j) @ G)
        assert np.max(np.abs(R - T)) < 1e-10


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


def _gap_loop_reference(u0, u1, samples=33):
    best = math.inf
    for t in np.linspace(0.0, 1.0, samples):
        u = u0 + t * (u1 - u0)
        for i in range(u.size):
            for j in range(i + 1, u.size):
                best = min(best, abs(u[i] - u[j]))
    return best


def test_segment_gap_matches_loop_reference():
    from isomonodromy.deformation import _min_ingroup_gap_on_segment

    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for _ in range(20):
            u0, u1 = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n) for _ in range(2))
            assert _min_ingroup_gap_on_segment(u0, u1) == pytest.approx(
                _gap_loop_reference(u0, u1), rel=1e-14)


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
def test_integrability_residual_makes_one_solve(monkeypatch, n):
    import isomonodromy.deformation as deformation
    from conftest import draw_system

    calls = []
    original = deformation.solve_ivp

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(deformation, "solve_ivp", counted)
    system, _ = draw_system(np.random.default_rng(40 + n), n)
    integrability_residual(system, tol=1e-12)
    assert len(calls) == 1


def test_integrability_residual_refuses_the_locus(vanishing_A_uc):
    """u on the coalescence locus: StepFailure before any solve, not a stalled stencil."""
    from isomonodromy import ode

    with ode.counting() as work:
        with pytest.raises(StepFailure, match="coalescence locus"):
            integrability_residual(SystemPair(vanishing_A_uc, [0.0, 0.0, 1.0]))
    assert work.solves == 0


def test_schlesinger_rhs_on_the_locus_is_finite_and_quiet(vanishing_A_uc):
    """The in-group pair's [B_0, B_1]/(u_0 - u_1) is skipped: no 0/0, no warning."""
    fs = build_fuchsian(SystemPair(vanishing_A_uc, [0.0, 0.0, 1.0]))
    with np.errstate(all="raise"):
        derivs, cons = schlesinger_rhs(fs)
    assert all(np.isfinite(d).all() for d in derivs.values())
    assert cons < 1e-14


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


def _transport_single_reference(u0, u1, A0, tol):
    """One segment solved on its own: the single-trajectory flow and tolerances."""
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

    sol = solve_ivp(rhs, (0.0, 1.0), A0.ravel(), method="DOP853",
                    rtol=max(tol, 1e-13), atol=1e-3 * tol)
    return sol.y[:, -1].reshape(n, n)


@pytest.mark.parametrize("case", ["random", "locus"])
def test_transport_is_a_stack_of_one(case):
    """A lone transport is bit-identical to the single-trajectory solve."""
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
    assert np.array_equal(st.A, _transport_single_reference(u0, u1, A, 1e-10))


def _gaps(u0, targets):
    du = targets - u0
    return u0[None, :] - u0[:, None], du[:, None, :] - du[:, :, None]


def test_segment_mask_is_fixed_only_off_the_locus():
    """The mask is computed once per solve unless some entry crosses COALESCE_TOL."""
    from isomonodromy.deformation import _segment_mask

    u0 = np.array([0.0, 1.0, 0.5j])
    away = u0 + np.array([[0.1, -0.1, 0.2j], [0.0, 0.3, 0.0]])
    assert np.array_equal(_segment_mask(*_gaps(u0, away)), np.broadcast_to(np.eye(3), (2, 3, 3)))
    # u_0 and u_1 meet halfway, or the segment leaves the locus: the mask changes with t
    through = np.array([[1.0, 0.0, 0.5j]])
    assert _segment_mask(*_gaps(u0, through)) is None
    on_locus = np.array([0.0, 0.0, 1.0])
    assert _segment_mask(*_gaps(on_locus, np.array([[0.1, -0.1, 1.0]]))) is None
    # a coalesced pair moving together stays masked along the whole segment
    together = _segment_mask(*_gaps(on_locus, np.array([[0.2j, 0.2j, 1.0]])))
    assert np.array_equal(together[0], np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool))


def test_fixed_mask_transport_matches_the_per_evaluation_mask(monkeypatch):
    """Bit-identical end matrices whether the mask is fixed once or rebuilt per evaluation."""
    from isomonodromy import deformation
    from isomonodromy.deformation import _transport_stack

    rng = np.random.default_rng(5)
    n = 4
    A = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    u0 = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    targets = u0 + 0.05 * (rng.uniform(-1, 1, (3, n)) + 1j * rng.uniform(-1, 1, (3, n)))
    assert deformation._segment_mask(*_gaps(u0, targets)) is not None
    fixed, _, _ = _transport_stack(u0, A, targets, 1e-11)
    monkeypatch.setattr(deformation, "_segment_mask", lambda gap0, dgap: None)
    per_eval, _, _ = _transport_stack(u0, A, targets, 1e-11)
    assert np.array_equal(fixed, per_eval)


def _assignment_distance(ev0, ev1):
    """Max matched distance of the minimum-sum assignment (the scipy reference)."""
    from scipy.optimize import linear_sum_assignment

    D = np.abs(ev0[:, None] - ev1[None, :])
    r, c = linear_sum_assignment(D)
    return float(np.max(D[r, c]))


@pytest.mark.parametrize("n", range(2, 9))
def test_spectrum_distance_is_the_optimal_assignment(n, caplog):
    import logging

    from isomonodromy.deformation import _spectrum_distance

    rng = np.random.default_rng(90 + n)
    checked = 0
    for scale in (1e-12, 1e-6, 1e-2, 0.1):
        ev0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        sep = min(abs(a - b) for i, a in enumerate(ev0) for b in ev0[i + 1:])
        ev1 = rng.permutation(ev0 + scale * sep * (rng.normal(size=n) + 1j * rng.normal(size=n)))
        with caplog.at_level(logging.WARNING, logger="isomonodromy.deformation"):
            d = _spectrum_distance(ev0, ev1)
        if d < 0.5 * sep:
            assert d == _assignment_distance(ev0, ev1)
            assert not caplog.records
            checked += 1
        caplog.clear()
    assert checked >= 3


def test_spectrum_distance_warns_outside_the_proven_regime(caplog):
    import logging

    from isomonodromy.deformation import _spectrum_distance

    ev0 = np.array([0.0, 1.0, 2.0 + 0.5j])
    ev1 = np.array([0.6, 3.0 + 3.0j, 2.0 + 0.5j])  # 0 and 1 share their nearest, 0.6
    with caplog.at_level(logging.WARNING, logger="isomonodromy.deformation"):
        d = _spectrum_distance(ev0, ev1)
    assert d == pytest.approx(0.6) and d < _assignment_distance(ev0, ev1)
    assert any("lower bound" in rec.getMessage() for rec in caplog.records)
