import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import isomonodromy.continuation as continuation
from isomonodromy import ode
from conftest import dense_piece, dense_rhs, draw_system
from test_frobenius import _dense_analytic, _dense_singular_phi, _pole_singular_phi
from isomonodromy.model import (CutPlane, DeformationGeometry, IllConditioned, SingularF1,
                               SystemPair, is_in_cell)
from isomonodromy.frobenius import (build_fuchsian, selected_solution, selected_solutions,
                                    shift_exponents)
from isomonodromy.stokes import (Ordering, _matching, stokes_from_connection, stokes_pair_direct,
                                 stokes_pipeline)
from isomonodromy.continuation import (
    BasisSingular,
    alpha_factor,
    connection_coefficients,
    connection_products,
    continue_basis,
    monodromy_matrix,
)
from isomonodromy.deformation import DeformationState, transport
from isomonodromy.laplace import laplace_columns

ETA = 1.5 * math.pi - math.pi / 4


def _polyline(fs, value, path):
    """Carry ``value`` along the waypoints of ``path``, one polyline piece."""
    [value] = continuation.carry(fs, [continuation._segment(path[0], path[-1], value,
                                                            via=path[1:-1])])
    return value


def _loop_at_pole(fs, j, value, base):
    """Carry ``value`` once around u_j on the positive circle through ``base``."""
    [value] = continuation.carry(fs, [continuation._loop(fs, j, base, value)])
    return value


def test_transport_diagonal_power_law():
    A = np.diag([0.3 + 0.1j, -0.7])
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    lam0, lam1 = -0.5 - 0.5j, 1.8 + 0.7j
    path = [lam0, 1.2 - 0.5j, lam1]  # 0.4 or more from both poles, below u_0
    v = _polyline(fs, np.array([1.0, 0.0], complex), path)
    rho = -A[0, 0] - 1
    branch = ((lam1 - fs.u[0]) / (lam0 - fs.u[0])) ** rho
    assert abs(v[0] - branch) < 1e-12
    assert abs(v[1]) == 0.0


def test_transport_contractible_loop_is_identity():
    A = np.array([[0.5, 2.0], [3.0, 1.0 / 3.0]], dtype=complex)
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    lam0 = -0.4 - 0.6j
    square = [lam0, lam0 + 0.25, lam0 + 0.25 + 0.25j, lam0 + 0.25j, lam0]
    v0 = np.array([1.0, 2.0], complex)
    v = _polyline(fs, v0, square)
    assert np.max(np.abs(v - v0)) < 1e-11


def test_transport_composition_consistency():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = [0.0, 1.0, 0.5 + 1.0j]
    fs = build_fuchsian(SystemPair(A, u))
    v0 = np.array([1.0, -0.5, 0.25j], complex)
    c = 0.5 + 0.2j
    r = 2.2
    half = [c + r, c + r * 1j, c - r]
    quarter1 = [c + r, c + r * cmath.exp(0.25j * math.pi), c + r * 1j]
    quarter2 = [c + r * 1j, c + r * cmath.exp(0.75j * math.pi), c - r]
    va = _polyline(fs, v0, half)
    vb = _polyline(fs, v0, quarter1)
    vb = _polyline(fs, vb, quarter2)
    assert np.max(np.abs(va - vb)) < 1e-10 * max(1.0, np.max(np.abs(va)))


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------


def test_monodromy_diagonal():
    A = np.diag([0.3 + 0.1j, -0.7])
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    for k in range(2):
        M = monodromy_matrix(fs, k, CutPlane(eta=ETA))
        expected = np.eye(2, dtype=complex)
        expected[k, k] = cmath.exp(-2j * math.pi * A[k, k])
        assert np.max(np.abs(M - expected)) < 5e-12


def test_monodromy_half_exponent(system_2x2):
    fs = build_fuchsian(system_2x2)
    M = monodromy_matrix(fs, 0, CutPlane(eta=ETA))
    assert M[0, 0] == pytest.approx(-1.0, abs=1e-9)
    # identity outside row k
    assert abs(M[1, 0]) < 1e-9 and M[1, 1] == pytest.approx(1.0, abs=1e-9)


def test_monodromy_eigenvalue_structure(system_2x2):
    fs = build_fuchsian(system_2x2)
    for k in range(2):
        M = monodromy_matrix(fs, k, CutPlane(eta=ETA))
        ev = sorted(np.linalg.eigvals(M), key=lambda z: z.real)
        expect = sorted(
            [1.0, cmath.exp(-2j * math.pi * fs.lambda_prime[k])], key=lambda z: z.real
        )
        assert np.max(np.abs(np.array(ev) - np.array(expect))) < 1e-9


def _basis_at_pole(fs, cut, j):
    """Base point of u_j and the selected-solution basis there."""
    sols = [selected_solution(fs, m, 40) for m in range(fs.n)]
    [base], [Psi], _ = continue_basis(fs, cut, sols, (j,))
    return base, Psi


def _basis_at_big_base(fs, cut, radius):
    """Basis matrix at u_0 - radius e^{i eta}, reached without cut crossings.

    The basis is brought to the standard base point of u_0 by the
    cut-safe production route and then slid outward along the anti-cut ray
    of u_0, which crosses no cuts for an admissible eta.
    """
    base_big = fs.u[0] - radius * cut.direction()
    b0, Psi = _basis_at_pole(fs, cut, 0)
    return base_big, _polyline(fs, Psi, [b0, base_big])


def test_big_loop_matches_infinity_monodromy(system_2x2):
    """Loop around both poles: eigenvalues e^{-2 pi i spec(A+I)}."""
    fs = build_fuchsian(system_2x2)
    cut = CutPlane(eta=ETA)
    radius = 2.8
    assert radius > abs(fs.u[1] - fs.u[0])  # circle encloses both poles
    base, Psi = _basis_at_big_base(fs, cut, radius)
    looped = _loop_at_pole(fs, 0, Psi, base)
    Mbig = np.linalg.solve(Psi, looped)
    ev = np.sort_complex(np.linalg.eigvals(Mbig))
    expect = np.sort_complex(
        np.exp(-2j * math.pi * (np.linalg.eigvals(system_2x2.A) + 1.0))
    )
    assert np.max(np.abs(ev - expect)) < 1e-8


@pytest.mark.parametrize("n", [2, 4, 6])
def test_loop_carried_as_the_identity_matches_the_looped_basis(n):
    """Phi @ Psi, Phi the loop's transition matrix from the identity, is Psi carried round it.

    continue_basis carries the identity round each loop in its one carry;
    carrying the basis itself round the loop agrees to 1e-12 of max|Psi|.
    """
    sp, tau = draw_system(np.random.default_rng(3), n, min_gap=0.35)
    fs = build_fuchsian(sp)
    cut = CutPlane(eta=DeformationGeometry(sp.u, 1e-3, tau).eta)
    sols = [selected_solution(fs, m, 40) for m in range(n)]
    for j, base, Psi, Phi in zip(range(n), *continue_basis(fs, cut, sols, range(n))):
        looped = _loop_at_pole(fs, j, Psi, base)
        assert np.max(np.abs(Phi @ Psi - looped)) <= 1e-12 * np.max(np.abs(Psi)), j


@pytest.mark.parametrize("n", [2, 4, 6])
def test_ascent_carried_as_the_identity_matches_the_carried_basis(n):
    """Phi_up @ Psi_deep, Phi_up an ascent's transition matrix from the identity, is
    Psi_deep carried up that ascent.

    continue_basis carries the identity up each ascent beside the descents;
    carrying the descended basis itself, after the descents, agrees to
    1e-12 of max|Psi|.
    """
    sp, tau = draw_system(np.random.default_rng(3), n, min_gap=0.35)
    fs = build_fuchsian(sp)
    cut = CutPlane(eta=DeformationGeometry(sp.u, 1e-3, tau).eta)
    sols = [selected_solution(fs, m, 40) for m in range(n)]
    depth = continuation._depth_frame(fs, cut)
    low = [fs.u[m] - depth * cut.direction() for m in range(n)]
    bases = continuation._base_points(fs, cut)
    seeds = [sols[m].selected_value(bases[m], cut) for m in range(n)]
    Psi_deep = np.column_stack(continuation.carry(fs, [
        continuation._segment(bases[m], low[0], seeds[m], via=(low[m],)) for m in range(n)]))
    for j, base, Psi in zip(range(n), *continue_basis(fs, cut, sols, range(n))[:2]):
        carried = _polyline(fs, Psi_deep, [low[0], low[j], base])
        carried[:, j] = seeds[j]
        assert np.max(np.abs(Psi - carried)) <= 1e-12 * np.max(np.abs(Psi)), j


def test_loop_composition_two_poles(system_2x2):
    """A loop around both poles equals the ordered product of small loops."""
    fs = build_fuchsian(system_2x2)
    cut = CutPlane(eta=ETA)
    base, Psi = _basis_at_big_base(fs, cut, 2.8)
    looped = _loop_at_pole(fs, 0, Psi, base)
    Mbig = np.linalg.solve(Psi, looped)
    M = [monodromy_matrix(fs, k, cut) for k in range(2)]
    candidates = [M[0] @ M[1], M[1] @ M[0]]
    errs = [np.max(np.abs(Mbig - c)) for c in candidates]
    assert min(errs) < 1e-7


def test_basis_singular_raises_for_integer_spectrum():
    A = np.array([[0.0, 1.0], [0.0, 2.0]], dtype=complex)  # eigenvalues 0, 2
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    with pytest.raises(BasisSingular):
        monodromy_matrix(fs, 0, CutPlane(eta=ETA))


# ---------------------------------------------------------------------------
# connection coefficients
# ---------------------------------------------------------------------------


def test_connection_diagonal_identity_pattern():
    A = np.diag([0.3 + 0.1j, -1.0, 0.21])
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0, 0.4 + 0.9j]))
    conn = connection_coefficients(fs, CutPlane(eta=ETA), tol=1e-12)
    C = conn.C
    assert abs(C[0, 0] - 1.0) < 1e-12  # noninteger diagonal
    assert abs(C[1, 1]) == 0.0  # integer exponent: c_kk = 0
    off = C - np.diag(np.diag(C))
    assert np.max(np.abs(off)) < 5e-12


def test_connection_without_projected_entries():
    """Integer exponents with zero selected solutions: every c_jk is a structural zero.

    Nothing is left to project, so no continuation runs and C is zero.
    """
    fs = build_fuchsian(SystemPair(np.diag([-1.0, -2.0]).astype(complex), [0.0, 1.0]))
    with ode.counting() as work:
        conn = connection_coefficients(fs, CutPlane(eta=ETA), tol=1e-12)
    assert not np.any(conn.provenance == "monodromy-projection")
    assert work.solves == 0 and np.all(conn.C == 0.0)


@pytest.mark.parametrize("u", [[0.0, 1.0], [0.0, 1.0, 0.4 + 0.9j]])
def test_connection_solve_count(u):
    """All n(n-1) coefficients cost 1 carry at any n, counted by ode.counting().

    Every column's descent to the deep point, every ascent to a base point
    and every loop ride in one solve.
    """
    n = len(u)
    rng = np.random.default_rng(11)
    A = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    fs = build_fuchsian(SystemPair(A, u))
    with ode.counting() as work:
        conn = connection_coefficients(fs, CutPlane(eta=ETA), tol=1e-12)
    assert np.sum(conn.provenance == "monodromy-projection") == n * (n - 1)
    assert work.solves == 1


@pytest.mark.parametrize("k", [0, 1, 2])
def test_monodromy_solve_count(k):
    """M_k costs 1 solve, with column k not sent to the deep point.

    The descent of the other columns, the ascent to the base point of u_k
    and the loop there ride in one solve.
    """
    rng = np.random.default_rng(5)
    n = 3
    A = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0, 0.4 + 0.9j]))
    with ode.counting() as work:
        M = monodromy_matrix(fs, k, CutPlane(eta=ETA))
    assert work.solves == 1
    assert abs(M[k, k] - cmath.exp(-2j * math.pi * A[k, k])) < 1e-9


def _gamma_shifted_case():
    """A 4x4 sweep system with A_00 set to 1: it needs the gamma-shift."""
    sp, tau = draw_system(np.random.default_rng(0), 4, min_gap=0.35)
    A = sp.A.copy()
    A[0, 0] = 1.0
    return SystemPair(A, sp.u), tau


# order updates and piece-steps of one formula pair on draw_system(rng(0), n), as measured
FORMULA_WORK = {2: (58, 52), 3: (58, 106), 4: (58, 145), 5: (58, 193), 6: (58, 232)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, "gamma"])
def test_stokes_pipeline_solve_count(n):
    """The formula route makes 1 solve of 1 lockstep step at every n, gamma-shifted or not,
    within 25 % of the measured order updates and with exactly the measured piece-steps.

    The batch has no samples, so every planned step is a run that rides in
    the same lockstep step, and the longest piece no longer sets the steps;
    the runs take the planned steps of the uncut carry, which took 16-22
    steps and 801-1,213 order updates on the same pairs.  Runs of CUT_STEPS
    took 4 steps and 232 order updates; two carries, the ascents waiting
    for the descents, took 23-39 steps and 1,139-2,136 order updates; five
    carries, with the deep point two pole spreads plus one below the poles,
    took 31-59 and 1,487-3,010.
    """
    if n == "gamma":
        sp, tau = _gamma_shifted_case()
        assert shift_exponents(sp)[0] != 0.0
    else:
        sp, tau = draw_system(np.random.default_rng(0), n, min_gap=0.35)
    with ode.counting() as work:
        stokes_pipeline(sp, DeformationGeometry(sp.u, 1e-3, tau), tol=1e-12)
    assert (work.solves, work.steps) == (1, 1)
    if n != "gamma":
        nfev, piece_steps = FORMULA_WORK[n]
        assert work.nfev <= 1.25 * nfev and work.piece_steps == piece_steps


def _segment_route_connection(fs, cut, tol):
    """c_jk by the route of one solve_ivp per segment and per theta-parametrised loop.

    The same anti-cut routes and projection as :func:`connection_coefficients`,
    with every column descended, every leg and loop integrated on its own.
    """
    def solve(f, t0, t1, y):
        sol = solve_ivp(lambda t, yy: f(t, yy.reshape(y.shape)).ravel(), (t0, t1), y.ravel(),
                        method="DOP853", rtol=max(tol, 1e-13), atol=1e-3 * tol)
        assert sol.success
        return sol.y[:, -1].reshape(y.shape)

    def segment(p, q, y):
        if p == q:
            return y
        return solve(lambda t, Y: dense_rhs(fs, p + t * (q - p)) @ Y * (q - p), 0.0, 1.0, y)

    def loop(j, base, y):
        r, th0 = abs(base - fs.u[j]), cmath.phase(base - fs.u[j])

        def f(t, Y):
            x = r * cmath.exp(1j * t)
            return dense_rhs(fs, fs.u[j] + x) @ Y * (1j * x)

        return solve(f, th0, th0 + 2 * math.pi, y)

    n = fs.n
    depth = continuation._depth_frame(fs, cut)
    low = [fs.u[m] - depth * cut.direction() for m in range(n)]
    bases = continuation._base_points(fs, cut)
    seeds = [selected_solution(fs, m, 40).selected_value(bases[m], cut) for m in range(n)]
    Psi_deep = np.column_stack([segment(low[m], low[0], segment(bases[m], low[m], seeds[m]))
                                for m in range(n)])
    C = np.zeros((n, n), dtype=complex)
    for j in range(n):
        Psi = segment(low[j], bases[j], segment(low[0], low[j], Psi_deep))
        Psi[:, j] = seeds[j]
        diff = loop(j, bases[j], Psi) - Psi
        psi_j = Psi[:, j]
        alpha_j = alpha_factor(fs.lambda_prime[j], fs.integer_class(j))
        C[j] = (psi_j.conj() @ diff) / (psi_j.conj() @ psi_j).real / alpha_j
    return C


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_connection_matches_segment_route(seed):
    """Batching every leg and loop moves c_jk by at most 1e-10 relative (n = 2..6)."""
    for n in range(2, 7):
        sp, tau = draw_system(np.random.default_rng(seed), n, min_gap=0.35)
        fs = build_fuchsian(sp)
        cut = CutPlane(eta=DeformationGeometry(sp.u, 1e-3, tau).eta)
        C = connection_coefficients(fs, cut, tol=1e-12).C
        ref = _segment_route_connection(fs, cut, 1e-12)
        off = ~np.eye(n, dtype=bool)
        assert np.max(np.abs(C - ref)[off]) <= 1e-10 * np.max(np.abs(ref[off])), n


def test_connection_series_matching_oracle(system_2x2):
    """c_12 from monodromy projection vs direct local-basis fit at u_1."""
    fs = build_fuchsian(system_2x2)
    cut = CutPlane(eta=ETA)
    conn = connection_coefficients(fs, cut, tol=1e-13)
    # continue Psi_2 to points near u_1 and fit against (Psi_1^{sing}, analytic basis)
    sol1 = selected_solution(fs, 0, 40)
    basis1 = _dense_analytic(fs, 0, 40)
    base, Psi = _basis_at_pole(fs, cut, 0)
    v = Psi[:, 1]
    samples = [base, fs.u[0] + 0.8 * (base - fs.u[0]), fs.u[0] + 1.3 * (base - fs.u[0])]
    vals = [v]
    for s in samples[1:]:
        vals.append(_polyline(fs, v, [base, s]))
    rows = []
    rhs = []
    for s, val in zip(samples, vals):
        x = s - fs.u[0]
        f_sing = sol1.selected_value(s, cut)
        f_reg = [sum(b[l] * x ** l for l in range(b.shape[0])) for b in basis1]
        rows.append(np.column_stack([f_sing] + f_reg))
        rhs.append(val)
    Mfit = np.vstack(rows)
    coeffs, *_ = np.linalg.lstsq(Mfit, np.concatenate(rhs), rcond=None)
    assert abs(coeffs[0] - conn.C[0, 1]) < 1e-7


def test_connection_branch_consistency(system_2x2):
    """Perturbing eta within the same labelled interval leaves c_jk fixed."""
    fs = build_fuchsian(system_2x2)
    c_ref = connection_coefficients(fs, CutPlane(eta=ETA), tol=1e-13).C
    for deta in (-0.3, 0.2):
        c2 = connection_coefficients(fs, CutPlane(eta=ETA + deta), tol=1e-13).C
        assert np.max(np.abs(c2 - c_ref)) < 1e-7


def test_negative_integer_rows_make_one_series_build(monkeypatch):
    """Poles 0 and 2 of negative-integer class: the singular solutions that decide their
    degenerate rows start from the stacked selected series, so the coefficients make one
    selected-series build, of all three poles; each row used to build its pole again."""
    from isomonodromy import frobenius

    A = np.array([[-2.0, 0.4, 0.3], [0.5, 0.37, 0.2], [0.1, 0.6, -3.0]], dtype=complex)
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0, 0.5 + 1.5j]))
    assert [fs.integer_class(k) for k in range(3)] == ["negative_integer", "noninteger",
                                                       "negative_integer"]
    built, selected = [], frobenius._selected

    def counted(fs, poles, N):
        built.append(list(poles))
        return selected(fs, poles, N)

    monkeypatch.setattr(frobenius, "_selected", counted)
    conn = connection_coefficients(fs, CutPlane(eta=0.3), tol=1e-12)
    assert built == [[0, 1, 2]]
    assert (conn.provenance == "monodromy-projection").sum() == 6


def test_zero_flag_needs_no_regular_completion():
    """A negative-integer row's zero flag says whether a singular solution exists, and
    agrees with the test-local per-pole reference: poles 0 and 2 of the first system
    (A_00 = -2, A_22 = -3) have a singular solution, and the exceptional lambda'_0 = -2
    of the second, with trivial local monodromy, does not, so its row is
    zero-by-degenerate-singular.
    """
    systems = [SystemPair(np.array(A, dtype=complex), u) for A, u in (
        ([[-2.0, 0.4, 0.3], [0.5, 0.37, 0.2], [0.1, 0.6, -3.0]], [0.0, 1.0, 0.5 + 1.5j]),
        ([[-2.0, 0.0], [0.0, 0.37]], [0.0, 1.0]))]
    conns = [connection_coefficients(build_fuchsian(sp), CutPlane(eta=0.3), tol=1e-12)
             for sp in systems]
    for sp, conn in zip(systems, conns):
        fs = build_fuchsian(sp)
        for j in range(sp.n):
            if fs.integer_class(j) == "negative_integer":
                zero = _pole_singular_phi(fs, j, 40)[0]
                degenerate = conn.provenance[j] == "zero-by-degenerate-singular"
                assert degenerate.sum() == (sp.n - 1 if zero else 0)
    assert [c.provenance[0, 1] for c in conns] == ["monodromy-projection",
                                                   "zero-by-degenerate-singular"]


def test_a_resonant_order_past_the_series_order_decides_its_row():
    """lambda'_0 = -45 puts the resonant order rho = 44 past the series' N + 1 = 41 orders:
    the singular-solution test reads only orders 0..rho of its chain, so row 0 is projected
    (it indexed the log source past its end, an IndexError)."""
    A = np.array([[-45.0, 0.3], [0.2, 0.37]], dtype=complex)
    conn = connection_coefficients(SystemPair(A, [0.0, 1.0]), CutPlane(eta=2.35))
    assert conn.provenance[0, 1] == "monodromy-projection"


def test_projection_residual_past_its_limit_is_a_typed_failure(system_2x2):
    """A series truncated at N = 6 leaves the carried Psi_j a mix of Psi_j and solutions
    analytic at u_j, so the loop difference is no longer proportional to it: a projection
    residual of 1.4e-6, past max(100 tol, 1e-7), is an IllConditioned naming the entry.
    At N = 8 it reads 6.1e-8 and passes."""
    fs = build_fuchsian(system_2x2)
    with pytest.raises(IllConditioned, match=r"projection residual .* for c\[0,1\]"):
        connection_coefficients(fs, CutPlane(eta=2.35), N=6)
    assert connection_coefficients(fs, CutPlane(eta=2.35), N=8).residuals.max() < 1e-7


def test_connection_invariant_under_regular_completion():
    """c_jk does not depend on the completion chosen for Psi_j^{sing}.

    The extraction projects the loop difference onto Psi_j; adding any
    analytic solution to the singular companion cannot change it.  Checked
    by re-running the projection against two completions of the local
    basis fit.
    """
    A = np.array([[-2.0, 0.9], [0.55, 0.37]], dtype=complex)
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    cut = CutPlane(eta=ETA)
    conn = connection_coefficients(fs, cut, tol=1e-13)
    phi = _dense_singular_phi(fs, 0, 40)
    sel0 = selected_solution(fs, 0, 40)
    # the regular completion may shift by any solution analytic at u_0: Psi_0 = x b(x)
    # itself, and the exponent-0 survivors
    shifted = np.zeros_like(phi)
    shifted[1:] = sel0.b[:-1]
    completions = [shifted] + _dense_analytic(fs, 0, 40)
    base, Psi = _basis_at_pole(fs, cut, 0)
    v = Psi[:, 1]
    x = base - fs.u[0]

    def fit_c(phi):
        # fit Psi_1 against c * Psi_0^{sing} + span of analytic solutions
        f_sing = (
            sum(sel0.b[l] * x ** (l + 1) for l in range(sel0.b.shape[0]))
            * cmath.log(x)
            + sum(phi[l] * x ** l for l in range(phi.shape[0]))
        )
        cols = [f_sing] + [sum(b[l] * x ** l for l in range(b.shape[0])) for b in completions]
        coeffs, res, *_ = np.linalg.lstsq(np.column_stack(cols), v, rcond=None)
        return coeffs[0]

    c_a = fit_c(phi)
    c_b = fit_c(phi + 0.7 * completions[0])
    assert abs(c_a - c_b) < 1e-8
    assert abs(c_a - conn.C[0, 1]) < 1e-7


def _family_member(geometry, vanishing_A_uc):
    """The t = 1 state of the radial family through u = (0.02, -0.02, 1): on the branch."""
    from isomonodromy.deformation import radial_family

    seed = SystemPair(vanishing_A_uc, [0.02, -0.02, 1.0])
    return radial_family(seed, geometry.u_c, [1.0], tol=1e-12)[0].system()


def test_connection_products_structural_zero(coalescing_geometry, vanishing_A_uc):
    """With a coalescing geometry C's in-group entries are 0, tagged, and checked; P keeps
    the measured products, bit for bit those of the extraction without a geometry."""
    geo = coalescing_geometry
    sp = _family_member(geo, vanishing_A_uc)
    cut = CutPlane(eta=geo.eta)
    P, conn = connection_products(sp, cut, tol=1e-11, geometry=geo)
    P_bare, conn_bare = connection_products(sp, cut, tol=1e-11)
    assert np.array_equal(P, P_bare)
    assert np.all(conn.C[geo.in_group] == 0.0)
    assert np.all(conn.provenance[geo.in_group] == "zero-by-coalescence")
    assert np.array_equal(conn.C[~geo.in_group], conn_bare.C[~geo.in_group])
    assert "zero-by-coalescence" not in conn_bare.provenance
    assert 0 < conn.in_group_product < 1e-8 and conn_bare.in_group_product is None
    assert 0 < abs(P[0, 1]) < 1e-8 and 0 < abs(P[1, 0]) < 1e-8


def test_connection_products_mask_only_in_group(coalescing_geometry, vanishing_A_uc):
    """The in-group rule changes C's in-group entries and no Stokes pair.

    P is bit-identical with and without the geometry, and the u^c ordering
    skips the in-group pairs, so the pair does not read the in-group products.
    """
    geo = coalescing_geometry
    sp = _family_member(geo, vanishing_A_uc)
    cut = CutPlane(eta=geo.eta)
    P, conn = connection_products(sp, cut, tol=1e-11, geometry=geo)
    P_bare, conn_bare = connection_products(sp, cut, tol=1e-11)
    assert np.array_equal(P, P_bare)
    changed = conn.C != conn_bare.C
    assert changed.any() and np.all(geo.in_group[changed])
    assert np.array_equal(conn.provenance != conn_bare.provenance, geo.in_group)
    ordering = Ordering(u_c=geo.u_c, tau=geo.tau)
    masked = P.copy()
    masked[geo.in_group] = 0.0
    S_mask = stokes_from_connection(masked, ordering, conn.lambda_prime)
    S_full = stokes_from_connection(P, ordering, conn.lambda_prime)
    assert np.array_equal(S_mask.S_nu, S_full.S_nu)
    assert np.array_equal(S_mask.S_nu_plus_mu, S_full.S_nu_plus_mu)


def test_connection_products_off_the_family_is_a_typed_error(coalescing_geometry,
                                                             vanishing_A_uc):
    """A_01 of the family's t = 1 state moved by 1e-3 leaves the branch whose in-group c_jk
    vanish: the in-group product (2.1e-3 of max(1, max|P|) measured) fails the check by name."""
    geo = coalescing_geometry
    sp = _family_member(geo, vanishing_A_uc)
    A = sp.A.copy()
    A[0, 1] += 1e-3
    off = SystemPair(A, sp.u)
    cut = CutPlane(eta=geo.eta)
    with pytest.raises(SingularF1, match=r"\(j, k\) = \((0, 1|1, 0)\)"):
        connection_products(off, cut, tol=1e-11, geometry=geo)
    # without a geometry no rule applies
    P, conn = connection_products(off, cut, tol=1e-11)
    assert np.max(np.abs(P[geo.in_group])) > continuation.IN_GROUP_LIMIT * np.max(np.abs(P))


def test_verify_connection_constancy_one_cell(system_2x2, geometry_2x2):
    """A transported to each sample of a path inside one tau-cell, in turn: the connection
    coefficients extracted there stay within 1e-7 of the first sample's."""
    samples = [
        np.array([0.0, 1.0], complex),
        np.array([0.02 + 0.02j, 1.0], complex),
        np.array([0.02 + 0.02j, 1.0 - 0.04j], complex),
    ]
    cut = CutPlane(eta=geometry_2x2.eta)
    state, Cs = DeformationState(u=system_2x2.u, A=system_2x2.A.copy()), []
    for u in samples:
        state = transport(state, u, tol=1e-13)
        Cs.append(connection_products(state.system(), cut, tol=1e-13)[1].C)
    stack = np.stack(Cs)
    assert np.max(np.abs(stack - stack[0])) < 1e-7
    assert all(is_in_cell(u, geometry_2x2)[0] for u in samples)


def test_connection_samples_start_at_the_problems_u(system_2x2, geometry_2x2):
    """Samples along a path transported from the problem's u, each waypoint reached by
    transport, the first too: a path that does not start at u gives the samples of the path
    that does, bit for bit (``isomono deform`` samples its paths so)."""
    u1 = np.array([0.02 + 0.02j, 1.0], complex)
    u2 = np.array([0.02 + 0.02j, 1.0 - 0.04j], complex)
    cut = CutPlane(eta=geometry_2x2.eta)

    def samples(path):
        state, out = DeformationState(u=system_2x2.u, A=system_2x2.A.copy()), []
        for u in path:
            state = transport(state, u, tol=1e-13)
            out.append((state, *connection_products(state.system(), cut, tol=1e-13)))
        return out

    off, on = samples([u1, u2]), samples([system_2x2.u, u1, u2])
    assert len(off) == 2
    for (s_off, P_off, c_off), (s_on, P_on, c_on) in zip(off, on[1:]):
        assert np.array_equal(s_off.u, s_on.u) and np.array_equal(s_off.A, s_on.A)
        assert np.array_equal(P_off, P_on) and np.array_equal(c_off.C, c_on.C)
    assert not np.array_equal(off[0][0].A, system_2x2.A)


# ---------------------------------------------------------------------------
# the Taylor carry against an independent reference
# ---------------------------------------------------------------------------


def _sweep_fs(n=4):
    sp, tau = draw_system(np.random.default_rng(2), n, min_gap=0.35)
    return build_fuchsian(sp), CutPlane(eta=DeformationGeometry(sp.u, 1e-3, tau).eta)


def _assert_matches_dense(fs, pieces, bound=1e-11):
    """Y(1) of every piece, or each of its integrals J in a batch with samples, within ``bound``
    relative of the reference."""
    sampled = any(piece.z.size for piece in pieces)
    for piece, out in zip(pieces, continuation.carry(fs, pieces)):
        end, J = dense_piece(fs, piece)
        for got, want in zip(out, J) if sampled else [(out, end)]:
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def _two_passes(planned):
    """Piece-steps of a piece of ``planned`` steps with samples: every run in the second pass,
    and in the first every run but its last, of (planned - 1) % CUT_STEPS + 1 steps."""
    return 2 * planned - ((planned - 1) % continuation.CUT_STEPS + 1)


def test_taylor_leg_from_an_anti_cut_base_point():
    """A straight leg from 0.15 pole gaps below u_1 down to its low point."""
    fs, cut = _sweep_fs()
    gap = fs.min_gap(1)
    start = fs.u[1] - 0.15 * gap * cut.direction()
    low = fs.u[1] - continuation._depth_frame(fs, cut) * cut.direction()
    y0 = np.eye(fs.n, dtype=complex)[:, :2] + 0.3j
    _assert_matches_dense(fs, [continuation._segment(start, low, y0)])


def test_taylor_loop_piece():
    """The loop is the CHORDS-gon inscribed in its circle, closed exactly at the base point,
    and its end matches the reference along those chords."""
    fs, cut = _sweep_fs()
    base = continuation._base_points(fs, cut)[2]
    piece = continuation._loop(fs, 2, base, np.eye(fs.n, dtype=complex))
    vertices = np.array([piece.a, *piece.via, piece.a + piece.b])
    assert vertices.size == continuation.CHORDS + 1 and vertices[-1] == base - fs.u[2]
    assert np.allclose(np.abs(vertices), abs(base - fs.u[2]), rtol=1e-15, atol=0)
    assert np.allclose(np.angle(vertices[1:] / vertices[:-1]), 2 * math.pi / continuation.CHORDS)
    _assert_matches_dense(fs, [piece])


def test_taylor_mixed_batch_of_n_pieces():
    """Legs and loops at every pole in one lockstep batch, each against its own solve."""
    fs, cut = _sweep_fs()
    rng = np.random.default_rng(9)
    pieces = []
    for k in range(fs.n):
        base = continuation._base_points(fs, cut)[k]
        y0 = rng.normal(size=(fs.n, 2)) + 1j * rng.normal(size=(fs.n, 2))
        if k % 2:
            pieces.append(continuation._loop(fs, k, base, y0))
        else:
            pieces.append(continuation._segment(base, base - 2.5 * cut.direction(), y0))
    _assert_matches_dense(fs, pieces)


def test_taylor_work_is_reported():
    """One solve per carry, one piece-step per chord of a loop, at most CUT_STEPS lockstep
    steps, one nfev per order update."""
    fs, cut = _sweep_fs()
    base = continuation._base_points(fs, cut)[0]
    with ode.counting() as work:
        continuation.carry(fs, [continuation._loop(fs, 0, base, np.eye(fs.n, dtype=complex))])
    # every chord is shorter than STEP_RATIO times its distance from u_0
    assert (work.solves, work.piece_steps) == (1, continuation.CHORDS)
    assert work.steps <= continuation.CUT_STEPS
    chord = 2 * math.sin(math.pi / continuation.CHORDS)  # over the distance from u_0
    least = math.ceil(math.log(ode.TAYLOR_EPS) / math.log(chord))
    assert work.nfev >= work.steps * least


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_loop_of_the_selected_solution_is_its_exponent(k):
    """gamma_k Psi_k = e^{-2 pi i lambda'_k} Psi_k, from the series value at the base point."""
    fs, cut = _sweep_fs()
    base = continuation._base_points(fs, cut)[k]
    psi = selected_solution(fs, k, 40).selected_value(base, cut)
    [looped] = continuation.carry(fs, [continuation._loop(fs, k, base, psi)])
    expected = cmath.exp(-2j * math.pi * fs.lambda_prime[k]) * psi
    assert np.max(np.abs(looped - expected)) <= 1e-12 * np.max(np.abs(psi))


def test_twelve_chords_keep_the_accuracy(monkeypatch):
    """Mutation check on CHORDS: 12 chords instead of 16 keep the same accuracy.

    A 12-gon still winds once around its pole alone and stays r cos(pi/12)
    from it, so the continuation is unchanged; only its chords, at 0.52 r,
    now exceed half the distance to the pole, so each takes two Taylor
    steps instead of one.
    """
    fs, cut = _sweep_fs()
    base = continuation._base_points(fs, cut)[1]
    one = np.eye(fs.n, dtype=complex)
    [sixteen] = continuation.carry(fs, [continuation._loop(fs, 1, base, one)])
    monkeypatch.setattr(continuation, "CHORDS", 12)
    piece = continuation._loop(fs, 1, base, one)
    assert len(piece.via) == 11
    with ode.counting() as work:
        [twelve] = continuation.carry(fs, [piece])
    assert work.piece_steps == 24 and work.steps <= continuation.CUT_STEPS
    assert np.max(np.abs(twelve - sixteen)) <= 1e-12 * np.max(np.abs(sixteen))
    _assert_matches_dense(fs, [piece])


def _uncut(fs, pieces, monkeypatch):
    """The end blocks of one carry of ``pieces`` with no piece cut, and its work.

    CUT_STEPS cuts a batch with samples only: without samples every planned
    step is a run whatever it is.
    """
    with monkeypatch.context() as m:
        m.setattr(continuation, "CUT_STEPS", 10 ** 6)
        with ode.counting() as work:
            ends = continuation.carry(fs, pieces)
    return ends, work


def test_a_long_descent_is_carried_in_runs(monkeypatch):
    """A descent of more than 3 CUT_STEPS planned steps at n = 6, one run per planned step.

    Psi_1 goes from the base point of u_1, half a loop radius below it, down
    its anti-cut ray and across to the deep point.  A batch without samples
    takes every planned step as a run in one lockstep step, so CUT_STEPS
    does not touch it: the carry with no piece cut takes the same planned
    steps and ends bit for bit where it does.  The product Phi_K ... Phi_2
    Y_1 of the runs matches the reference.
    """
    fs, cut = _sweep_fs(6)
    low = fs.u - continuation._depth_frame(fs, cut) * cut.direction()
    base = continuation._base_points(fs, cut)[1]
    psi = selected_solution(fs, 1, 40).selected_value(base, cut)
    pieces = [continuation._segment(base, low[0], psi, via=(low[1],))]
    with ode.counting() as work:
        [end] = continuation.carry(fs, pieces)
    [whole], uncut = _uncut(fs, pieces, monkeypatch)
    assert work.piece_steps == uncut.piece_steps > 3 * continuation.CUT_STEPS
    assert work.steps == uncut.steps == 1
    assert np.array_equal(end, whole)
    _assert_matches_dense(fs, pieces)


@pytest.mark.parametrize("k", [0, 5])
def test_a_loop_at_large_A_is_carried_in_runs(k, monkeypatch):
    """The identity once round u_k of a scale-0.9 system at n = 6, each of its 16 chords'
    steps a run: one lockstep step, the planned steps of the carry with no piece cut and its
    end bit for bit, and the product of the runs against the reference.

    Seed 1009 holds the largest max|S| of the large-A sweep, 8.0e12.
    """
    sp, tau = draw_system(np.random.default_rng(1009), 6, scale=0.9, min_gap=0.35)
    fs, cut = build_fuchsian(sp), CutPlane(eta=DeformationGeometry(sp.u, 1e-3, tau).eta)
    pieces = [continuation._loop(fs, k, continuation._base_points(fs, cut)[k],
                                 np.eye(fs.n, dtype=complex))]
    with ode.counting() as work:
        [end] = continuation.carry(fs, pieces)
    [whole], uncut = _uncut(fs, pieces, monkeypatch)
    assert (work.steps, work.piece_steps) == (1, uncut.piece_steps)
    assert work.piece_steps >= continuation.CHORDS
    assert np.array_equal(end, whole)
    _assert_matches_dense(fs, pieces)


def _composed(monkeypatch, carry_out):
    """Run ``carry_out()`` with every :func:`continuation._compose` call recorded.

    Returns its result and, run by run, ``(piece, end, chain)``: the end
    composed by run index beside the sequential chain of the per-run loop,
    a run's block of Y if it is its piece's first run, else that block times
    the chain of the run before it.
    """
    compose, runs = continuation._compose, []

    def recording(Y, widths, owner, index, P):
        E = compose(Y, widths, owner, index, P)
        chain = {}
        for f, w, p, i in zip(np.cumsum(widths) - widths, widths, owner, index):
            chain[p] = Y[:, f:f + w] if i == 0 else Y[:, f:f + w] @ chain[p]
            runs.append((p, E[i, p, :, :chain[p].shape[1]], chain[p]))
        return E

    monkeypatch.setattr(continuation, "_compose", recording)
    return carry_out(), runs


def test_composition_by_index_is_the_chain_bit_for_bit_on_oracle_legs(monkeypatch):
    """The oracle's first pass over its sampled legs, on the n = 5 sweep system: every run's
    end from one stacked product per run index is bit for bit the run-by-run chain."""
    sp, tau = draw_system(np.random.default_rng(0), 5, min_gap=0.35)
    _, runs = _composed(monkeypatch, lambda: stokes_pair_direct(
        sp, DeformationGeometry(sp.u, 1e-3, tau)))
    assert len(runs) > len({p for p, _, _ in runs}) > 1
    for _, end, chain in runs:
        assert np.array_equal(end, chain)


def test_composition_by_index_on_a_mixed_batch_without_samples(monkeypatch):
    """A vector descent, an identity loop, an (n, 2) block and a piece of zero length, in one
    batch without samples: each piece's end, composed by run index with the pieces of fewer
    runs padded by the identity, is within 1e-13 of the run-by-run chain and matches the
    reference; the zero-length piece returns its block as it is."""
    fs, cut = _sweep_fs()
    bases = continuation._base_points(fs, cut)
    rng = np.random.default_rng(4)
    vector = rng.normal(size=fs.n) + 1j * rng.normal(size=fs.n)
    block = rng.normal(size=(fs.n, 2)) + 1j * rng.normal(size=(fs.n, 2))
    pieces = [continuation._segment(bases[1], bases[1] - 2.5 * cut.direction(), vector),
              continuation._loop(fs, 2, bases[2], np.eye(fs.n, dtype=complex)),
              continuation._segment(bases[0], bases[0] - 0.7 * cut.direction(), block),
              continuation._segment(bases[3], bases[3], vector)]
    ends, runs = _composed(monkeypatch, lambda: continuation.carry(fs, pieces))
    counts = [sum(p == q for q, _, _ in runs) for p in range(len(pieces))]
    assert counts[3] == 1 and len(set(counts)) == len(pieces)
    chains = {p: chain for p, _, chain in runs}  # each piece's last run
    for p, end in enumerate(ends):
        chain = chains[p]
        assert np.max(np.abs(end.reshape(chain.shape) - chain)) <= 1e-13 * np.max(np.abs(chain))
    assert np.array_equal(ends[3], vector)
    _assert_matches_dense(fs, pieces)


@pytest.mark.parametrize("n", [2, 6])
def test_sampled_legs_are_carried_in_runs(n, monkeypatch):
    """A Laplace leg at every pole, each of more than 3 CUT_STEPS planned steps, cut into runs.

    The first pass carries the runs that a later run starts from, every run
    but the last of its leg, and the second every run again from its start
    with its integrals, so the batch takes 2 CUT_STEPS lockstep steps.  The
    uncut carry has one run per leg and no first pass: it takes each planned
    step once.  Every integral matches the uncut carry's within 1e-13 of
    its size.
    """
    fs, cut = _sweep_fs(n)
    pieces = [_leg(fs, cut, k, 12.0, [6.0, 14.0, 28.0]) for k in range(n)]
    planned = [_uncut(fs, [piece], monkeypatch)[1].piece_steps for piece in pieces]
    assert min(planned) > 3 * continuation.CUT_STEPS
    with ode.counting() as work:
        ends = continuation.carry(fs, pieces)
    whole, uncut = _uncut(fs, pieces, monkeypatch)
    assert work.steps == 2 * continuation.CUT_STEPS < uncut.steps
    assert uncut.piece_steps == sum(planned)
    assert work.piece_steps == sum(_two_passes(p) for p in planned)
    for J, J_whole in zip(ends, whole):
        assert J.shape == J_whole.shape == (3, fs.n)
        for j, j_whole in zip(J, J_whole):
            assert np.max(np.abs(j - j_whole)) <= 1e-13 * np.max(np.abs(j_whole))


def test_a_sampled_batch_of_one_run_per_leg_makes_no_first_pass(monkeypatch):
    """Legs of at most CUT_STEPS planned steps each are one run apiece: no run starts from
    another's end, so the batch makes its second pass only, each planned step once, and its
    integrals are bit for bit those of the uncut carry."""
    fs, cut = _sweep_fs()
    pieces = [_leg(fs, cut, k, 0.1, [6.0, 9.0]) for k in range(fs.n)]
    planned = [_uncut(fs, [piece], monkeypatch)[1].piece_steps for piece in pieces]
    assert 0 < max(planned) <= continuation.CUT_STEPS
    with ode.counting() as work:
        ends = continuation.carry(fs, pieces)
    assert (work.solves, work.steps, work.piece_steps) == (1, max(planned), sum(planned))
    whole, _ = _uncut(fs, pieces, monkeypatch)
    for J, J_whole in zip(ends, whole):
        assert np.array_equal(J, J_whole)
    _assert_matches_dense(fs, pieces)


@pytest.mark.parametrize("leg_first", [True, False])
def test_a_sampled_batch_of_two_widths_is_refused(leg_first):
    """A batch with samples holds blocks of one width: a sampled leg of width 1 beside a
    sample-free identity block of width n is a ValueError naming the widths, either way."""
    fs, cut = _sweep_fs()
    leg = _leg(fs, cut, 1, 4.0, [5.0, 8.0])
    block = continuation._segment(continuation._base_points(fs, cut)[3],
                                  fs.u[3] - 1.5 * cut.direction(), np.eye(fs.n, dtype=complex))
    pieces, widths = ([leg, block], [1, fs.n]) if leg_first else ([block, leg], [fs.n, 1])
    with pytest.raises(ValueError, match=re.escape(f"widths {widths}")):
        continuation.carry(fs, pieces)


def test_the_plan_refuses_a_path_through_a_pole_before_any_step():
    """Every piece is planned before the first step: a path through a pole is refused,
    although the other piece's block is not finite and the first step would refuse it."""
    fs, _ = _sweep_fs()
    through = continuation._segment(fs.u[0] - 0.5, fs.u[0] + 0.5, np.eye(fs.n, dtype=complex))
    bad = continuation._segment(fs.u[1] - 0.5, fs.u[1] - 0.6, np.full(fs.n, np.inf + 0j))
    with ode.counting() as work, pytest.raises(continuation.StepFailure, match="meets a pole"):
        continuation.carry(fs, [bad, through])
    assert work.solves == 0


def _leg(fs, cut, k, length, radii, phase=0.3):
    """A Laplace leg from the base point of u_k along its anti-cut ray, with samples.

    The samples satisfy z e^{id} = -r e^{i phase} for r in ``radii``, d the
    direction of the leg, so e^{z x} decays along it; the block is Psi_k.
    """
    base = continuation._base_points(fs, cut)[k]
    e_d = -cut.direction()
    psi = selected_solution(fs, k, 40).selected_value(base, cut)
    z = -np.asarray(radii) * cmath.exp(1j * phase) / e_d
    return continuation.Piece(fs.u[k], base - fs.u[k], length * e_d, psi, z)


def test_sampled_hairpin_leg():
    """A leg of three samples out to where e^{z x} has decayed by e^-42 for the slowest."""
    fs, cut = _sweep_fs()
    _assert_matches_dense(fs, [_leg(fs, cut, 1, 42.0 / (6.0 * math.cos(0.3)), [6.0, 9.0, 14.0])])


def test_sampled_group_disc_circle(coalescing_geometry, vanishing_A_uc):
    """The clockwise disc boundary of a coalescing pair, seen from u_0, with two samples."""
    from isomonodromy.deformation import radial_family

    geo = coalescing_geometry
    seed = SystemPair(vanishing_A_uc, [0.03, -0.03, 1.0])
    fs = build_fuchsian(radial_family(seed, geo.u_c, [1.0], tol=1e-12)[0].system())
    w0 = fs.u[0] - geo.group_values[0]
    theta = geo.tau - 0.5 * math.pi
    # the clockwise CHORDS-gon inscribed in it, from arg 2
    x = -w0 + 1.2 * geo.epsilon0 * np.exp(2.0j - 2j * math.pi * np.arange(17) / 16)
    circle = continuation.Piece(fs.u[0], x[0], 0.0, np.array([1.0, -0.5j, 0.25]),
                                np.array([12.0, 18.0]) * cmath.exp(1j * theta), tuple(x[1:-1]))
    _assert_matches_dense(fs, [circle])


def test_sampled_mixed_batch(monkeypatch):
    """Two legs of different lengths and a loop, each with three samples, in one batch.

    A batch with samples returns the integrals of every piece.  Each piece
    steps as it would alone: the batch's piece-steps are the sum of its
    pieces' two passes.
    """
    fs, cut = _sweep_fs()
    loop = continuation._loop(fs, 2, continuation._base_points(fs, cut)[2],
                              np.linspace(1.0, 2.0, fs.n) + 0.5j)
    loop = loop._replace(z=np.array([3 - 4j, 1 + 2j, -2 - 1j]))
    pieces = [_leg(fs, cut, 0, 6.0, [6.0, 9.0, 14.0]), _leg(fs, cut, 1, 4.0, [5.0, 8.0, 11.0]),
              loop]
    with ode.counting() as work:
        ends = continuation.carry(fs, pieces)
    assert work.solves == 1
    assert [end.shape for end in ends] == [(3, fs.n)] * 3
    _assert_matches_dense(fs, pieces)
    planned = [_uncut(fs, [piece], monkeypatch)[1].piece_steps for piece in pieces]
    assert work.piece_steps == sum(_two_passes(p) for p in planned)


def test_a_batch_of_two_sample_counts_or_of_no_piece_is_refused_before_any_solve():
    """A batch holds a piece, and in a batch with samples every piece has the same sample
    count: legs of three and of two samples, a leg beside a junction without samples, and an
    empty batch are each a ValueError naming the rule before any solve, through carry and
    through laplace_columns."""
    fs, cut = _sweep_fs()
    junction = continuation._segment(continuation._base_points(fs, cut)[3],
                                     fs.u[3] - 1.5 * cut.direction(),
                                     np.linspace(1.0, 2.0, fs.n) - 1j)
    three, two = _leg(fs, cut, 0, 6.0, [6.0, 9.0, 14.0]), _leg(fs, cut, 1, 4.0, [5.0, 8.0])
    sp, tau = draw_system(np.random.default_rng(0), 3, min_gap=0.35)
    geo = DeformationGeometry(sp.u, 1e-3, tau)
    specs = _matching(sp, geo, 0)[2]
    short, bare = (dataclasses.replace(specs[1], z=specs[1].z[:m]) for m in (2, 0))
    sols = selected_solutions(sp, 40)
    for refused in (lambda: continuation.carry(fs, [three, two]),
                    lambda: continuation.carry(fs, [three, junction]),
                    lambda: continuation.carry(fs, [junction, three]),
                    lambda: continuation.carry(fs, []),
                    lambda: laplace_columns(sp, geo, [specs[0], short], sols),
                    lambda: laplace_columns(sp, geo, [specs[0], bare], sols),
                    lambda: laplace_columns(sp, geo, [], sols)):
        with ode.counting() as work, pytest.raises(
                ValueError, match="a batch with samples one sample count and one block width"):
            refused()
        assert work.solves == 0


def test_sampled_leg_where_the_z_cap_binds(monkeypatch):
    """|z| = 160 on an oscillating leg of length 3: every step is Z_SPAN / |z| long, or less.

    The planned steps are read from the piece_steps of the uncut carry,
    which has no first pass and takes each planned step once.
    """
    fs, cut = _sweep_fs()
    piece = _leg(fs, cut, 1, 3.0, [160.0], phase=1.52)
    planned = _uncut(fs, [piece], monkeypatch)[1].piece_steps
    with ode.counting() as free:
        continuation.carry(fs, [piece._replace(z=piece.z[:0])])
    assert planned >= math.ceil(3.0 * 160.0 / continuation.Z_SPAN) > free.piece_steps
    _assert_matches_dense(fs, [piece])


def test_twelve_nodes_or_a_wider_z_span_keep_the_accuracy(monkeypatch):
    """Mutation checks on NODES and Z_SPAN: 12 nodes per panel, or Z_SPAN = 64, keep 1e-11.

    The rule has slack on both.  A step's polynomial converges on a disc of
    twice the step about its start, so in s the nearest singularity lies a
    whole step beyond [0, 1], four panel widths; and e^{z h s} turns by at
    most Z_SPAN / PANELS = 8 radians over a panel.  Twelve Gauss-Legendre
    nodes, exact to degree 23, integrate that to rounding, and so do 24
    nodes over 16 radians.  The oscillating leg of the z-cap test is where a
    coarse rule fails first: at 6 nodes per panel it is 3.8e-7 off.
    """
    fs, cut = _sweep_fs()
    oscillating = _leg(fs, cut, 1, 3.0, [80.0], phase=1.52)
    pieces = [oscillating, _leg(fs, cut, 1, 42.0 / (6.0 * math.cos(0.3)), [6.0, 9.0, 14.0])]
    for nodes, z_span in ((12, 32.0), (24, 64.0)):
        monkeypatch.setattr(continuation, "_QUADRATURE",
                            continuation._composite_gauss(continuation.PANELS, nodes))
        monkeypatch.setattr(continuation, "Z_SPAN", z_span)
        for piece in pieces:  # one sample count per batch
            _assert_matches_dense(fs, [piece])
    monkeypatch.setattr(continuation, "_QUADRATURE",
                        continuation._composite_gauss(continuation.PANELS, 6))
    monkeypatch.setattr(continuation, "Z_SPAN", 32.0)
    with pytest.raises(AssertionError):
        _assert_matches_dense(fs, [oscillating])


def test_a_repeated_vertex_takes_no_step():
    """A polyline that repeats a vertex ends where the same polyline without the repeat
    ends, bit for bit: planning skips a vertex the piece is on already, where a step of
    h = 0 would leave a lone piece at that vertex."""
    fs = build_fuchsian(SystemPair(np.array([[0.3, 0.2], [0.4, -0.25]]), [0.0, 1.0]))
    plain = continuation.Piece(0.0, -0.5, -0.5, np.array([1.0, 0.5 + 0j]), via=(-0.75,))
    [want] = continuation.carry(fs, [plain])
    for via in ((-0.75, -0.75), (-0.5, -0.75), (-0.75, -1.0)):
        [got] = continuation.carry(fs, [plain._replace(via=via)])
        assert np.array_equal(got, want), via


def test_taylor_carry_refuses_a_piece_that_starts_on_a_pole():
    fs, _ = _sweep_fs()
    with pytest.raises(continuation.StepFailure, match="meets a pole"):
        continuation.carry(fs, [continuation._segment(fs.u[0], fs.u[0] - 1j, np.eye(fs.n))])


@pytest.mark.parametrize("y0, z", [([1.7e308, 1.7e308], []), ([1.0, 1.0], [5000.0])],
                         ids=["block", "integral"])
def test_taylor_carry_refuses_a_non_finite_end(y0, z):
    """An end block, or an integral, that overflows on the last step raises StepFailure.

    The first piece's block is finite when its only step starts; the
    second's block stays finite while e^{z x} reaches e^{1000} on its leg.
    """
    fs = build_fuchsian(SystemPair(np.array([[0.3, 0.2], [0.4, -0.25]]), [0.0, 1.0]))
    piece = continuation._segment(-0.5, -0.3, y0)._replace(z=np.array(z, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(continuation.StepFailure, match="not finite"):
            continuation.carry(fs, [piece])


@pytest.mark.parametrize("scale", [1e300, 1e306])
def test_taylor_carry_refuses_a_product_of_finite_runs_past_the_float_range(scale):
    """The piece's runs are finite, and their product overflows to inf (nan at 1e306): the
    ends are checked once composed, so the carry raises, with no warning."""
    fs = SystemPair([[3.5, 0.2], [0.3, 0.4]], [0.0, 1.0])
    piece = continuation.Piece(0.0, -0.9, 0.89, scale * np.ones(2))
    with pytest.raises(continuation.StepFailure,
                       match=r"^continuation of 1 piece\(s\) ends not finite$"):
        continuation.carry(fs, [piece])


def test_taylor_carry_refuses_a_step_not_converged_by_max_order():
    """|A| = 1000 against a step of 0.25 to a pole at distance 0.5: the terms still grow at
    MAX_ORDER.  The one piece is two runs, and the message counts runs."""
    fs = SystemPair([[0.3, 1000.0], [1000.0, 0.4]], [0.0, 1.0])
    piece = continuation.Piece(0.0, -0.5, -0.5, np.eye(2))
    with pytest.raises(continuation.StepFailure,
                       match=r"^Taylor step of 2 run\(s\) did not converge in 400 orders$"):
        continuation.carry(fs, [piece])


def test_taylor_carry_refuses_a_stalled_step():
    """At x = 1e17 a step of STEP_RATIO times the distance 1 to the pole u_1 = 1e17 + i is
    below half the float spacing 16 of x, so x + h == x."""
    fs = SystemPair([[0.3, 0.2], [0.4, -0.25]], [0.0, 1e17 + 1j])
    piece = continuation.Piece(0.0, 1e17 - 64, 128.0, np.eye(2))
    with pytest.raises(continuation.StepFailure,
                       match=r"^continuation stalls at \(1e\+17\+0j\): a step of 5.0e-01 "
                             r"does not move it$"):
        continuation.carry(fs, [piece])


@pytest.mark.parametrize("zh", [1.0, 4.0, 8.0, 16.0, 32.0])
def test_step_integrals_match_mpmath(zh):
    """One step's integrals by the carry's rule against mpmath.quad at 30 digits.

    Random step polynomials of 55 orders whose terms fall by a ratio of
    0.2-0.55, at |z h| = ``zh`` (Z_SPAN is the largest) and random
    arguments of z, h and x.  The error is relative to
    max|Y| |h| max(1, e^{Re z h}) |e^{z x}|, which bounds the integral.
    """
    import mpmath

    rng = np.random.default_rng(int(zh))
    P, nz, n, M = 2, 2, 2, 56

    def polar(r, size):
        return r * np.exp(2j * np.pi * rng.uniform(size=size))

    ratio = rng.uniform(0.2, 0.55, P)
    T = (ratio[None, :, None] ** np.arange(M)[:, None, None]
         * polar(rng.uniform(0.5, 1.0, (M, P, n)), (M, P, n)))[..., None]
    h = polar(rng.uniform(0.05, 0.5, P), P)
    x = polar(rng.uniform(0.1, 1.0, P), P)
    z = polar(zh / np.abs(h)[:, None], (P, nz))
    weights = continuation._node_weights(x, h, z)
    got = continuation._fold(T.transpose(0, 2, 1, 3), weights, 0)
    s_grid = np.linspace(0.0, 1.0, 1001)
    with mpmath.workdps(30):
        for p in range(P):
            Y = np.polynomial.polynomial.polyval(s_grid, T[:, p, :, 0])
            for i in range(nz):
                zp, hp, xp = (mpmath.mpc(v.real, v.imag) for v in (z[p, i], h[p], x[p]))
                bound = (np.abs(Y).max() * abs(h[p]) * max(1.0, math.exp((z[p, i] * h[p]).real))
                         * abs(cmath.exp(z[p, i] * x[p])))
                for k in range(n):
                    coeffs = [mpmath.mpc(c.real, c.imag) for c in T[::-1, p, k, 0]]
                    want = mpmath.quad(lambda s: mpmath.exp(zp * (xp + hp * s)) * hp
                                       * mpmath.polyval(coeffs, s), [0, 1])
                    assert abs(got[p, i, k, 0] - complex(want)) <= 1e-14 * bound


_RG = np.array([[0.5, 0.0, 0.4], [0.0, 2.5, -0.3], [0.6, 0.7, 0.25]], dtype=complex)


def _with(A, entry, value):
    A = A.copy()
    A[entry] = value
    return A


@pytest.mark.parametrize("A, u, eta, N, error, match", [
    (_RG, [-1e308, -1e308j, 1.0], 1.5 * math.pi - 0.35, 40, IllConditioned,
     r"local series at pole 0 is summed at \|x\| = 1.41e\+307"),
    (_with(_RG, (2, 0), 0.6 - 6.779177678051755e16j), [113j, 0.0, 1.0], 1.5 * math.pi - 0.35, 24,
     IllConditioned, r"Psi_0 leaves the float range at \|x\| = 1.69e\+01"),
    (_with(_RG, (0, 1), -1.1646385523887994e16), [113.0, 0.0, 1.0], 1.5 * math.pi - 0.35, 24,
     continuation.StepFailure, "continuation of 9 piece"),
    (np.array([[0.5, 1e-300], [3.0, 1 / 3]]), [-1.7976931348623157e308, 1.0],
     1.5 * math.pi - 3.9324262620201624e16, 40, IllConditioned, r"summed at \|x\| = inf"),
    (np.array([[0.5, 2.0], [3.0, 1 / 3]]), [0.0, 1.0], 1.5 * math.pi - math.pi / 4, 10 ** 17,
     ValueError, "N <= MAX_ORDER = 400; got N = 100000000000000000"),
], ids=["gap", "sum", "carry", "base-point", "order"])
def test_connection_coefficients_on_edge_inputs_end_typed(A, u, eta, N, error, match):
    """Inputs of tests/test_fuzz.py that warned in numpy first: a gap u_j - u_k whose inverse
    overflows in _columns, a series sum past the float range at a finite x^N, a Taylor term
    of the carry, a base point past the float range, and an order that would allocate
    10^17 series orders.  Each now ends in its typed error, with no warning on the way."""
    with pytest.raises(error, match=match):
        connection_coefficients(SystemPair(A, u), CutPlane(eta=eta), N=N)
