import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import isomonodromy.continuation as continuation
from isomonodromy import ode
from conftest import dense_rhs, draw_system
from isomonodromy.model import CutPlane, DeformationGeometry, SystemPair, is_in_cell
from isomonodromy.frobenius import (
    analytic_basis,
    build_fuchsian,
    needs_gamma_shift,
    selected_solution,
    singular_solution,
)
from isomonodromy.stokes import Ordering, stokes_from_connection, stokes_pipeline
from isomonodromy.continuation import (
    BasisSingular,
    alpha_factor,
    connection_coefficients,
    connection_products,
    continue_basis,
    monodromy_matrix,
)
from isomonodromy.deformation import connection_samples

ETA = 1.5 * math.pi - math.pi / 4


def _polyline(fs, value, path):
    """Carry ``value`` along the waypoints of ``path``, one solve per segment."""
    for p, q in zip(path[:-1], path[1:]):
        if q != p:
            [value] = continuation.carry(fs, [continuation._segment(p, q, value)])
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
    [(_, base, Psi)] = continue_basis(fs, cut, sols, (j,))
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
    """All n(n-1) coefficients cost at most 5 carries at any n, counted by ode.counting().

    One basis continuation: one solve for the rays down to the low points,
    one for the lateral moves to the deep point, one for the lateral moves
    back up and one for the rays to the base points; then one for every
    loop.
    """
    n = len(u)
    rng = np.random.default_rng(11)
    A = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    fs = build_fuchsian(SystemPair(A, u))
    with ode.counting() as work:
        conn = connection_coefficients(fs, CutPlane(eta=ETA), tol=1e-12)
    assert np.sum(conn.provenance == "monodromy-projection") == n * (n - 1)
    assert 3 <= work.solves <= 5  # the rays down and up and the loops always run


@pytest.mark.parametrize("k", [0, 1, 2])
def test_monodromy_solve_count(k):
    """M_k costs 5 solves, 4 at k = 0, with column k not sent to the deep point.

    Descent of the other columns: one solve down their rays, one across to
    the deep point; ascent: one across to the low point of u_k (none for
    k = 0, whose low point is the deep point), one up its ray; then the
    loop.
    """
    rng = np.random.default_rng(5)
    n = 3
    A = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0, 0.4 + 0.9j]))
    with ode.counting() as work:
        M = monodromy_matrix(fs, k, CutPlane(eta=ETA))
    assert work.solves == (4 if k == 0 else 5)
    assert abs(M[k, k] - cmath.exp(-2j * math.pi * A[k, k])) < 1e-9


def _gamma_shifted_case():
    """A 4x4 sweep system with A_00 set to 1: it needs the gamma-shift."""
    sp, tau = draw_system(np.random.default_rng(0), 4, min_gap=0.35)
    A = sp.A.copy()
    A[0, 0] = 1.0
    return SystemPair(A, sp.u), tau


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, "gamma"])
def test_stokes_pipeline_solve_count(n):
    """The formula route makes at most 5 solves at every n, gamma-shifted or not."""
    if n == "gamma":
        sp, tau = _gamma_shifted_case()
        assert needs_gamma_shift(sp)
    else:
        sp, tau = draw_system(np.random.default_rng(0), n, min_gap=0.35)
    with ode.counting() as work:
        stokes_pipeline(sp, DeformationGeometry(sp.u, 1e-3, tau), tol=1e-12)
    assert 3 <= work.solves <= 5  # the rays down and up and the loops always run


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
    bases = [continuation._anti_cut_point(fs, m, cut) for m in range(n)]
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
    basis1 = analytic_basis(fs, 0, N=40)
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
    sng = singular_solution(fs, 0, N=40)
    assert not sng.zero
    sel0 = selected_solution(fs, 0, 40)
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
        cols = [f_sing] + [
            sum(b[l] * x ** l for l in range(b.shape[0]))
            for b in sng.analytic_completion
        ]
        coeffs, res, *_ = np.linalg.lstsq(np.column_stack(cols), v, rcond=None)
        return coeffs[0]

    c_a = fit_c(sng.phi)
    completion2 = sng.phi + 0.7 * sng.analytic_completion[0][: sng.phi.shape[0]]
    c_b = fit_c(completion2)
    assert abs(c_a - c_b) < 1e-8
    assert abs(c_a - conn.C[0, 1]) < 1e-7


def test_connection_products_structural_zero(coalescing_geometry, vanishing_A_uc):
    sp = SystemPair(vanishing_A_uc, [0.02, -0.02, 1.0])
    cut = CutPlane(eta=coalescing_geometry.eta)
    P, conn = connection_products(sp, cut, tol=1e-11, geometry=coalescing_geometry)
    assert conn.provenance[0][1] == "zero-by-coalescence"
    assert P[0, 1] == 0.0 and P[1, 0] == 0.0


def test_connection_products_mask_only_in_group(coalescing_geometry, vanishing_A_uc):
    """The coalescence mask zeroes the in-group products and nothing else.

    Outside the groups the masked and unmasked products are bit-identical,
    and the u^c ordering skips the in-group pairs, so both give the same
    Stokes pair: one unmasked extraction serves both uses.
    """
    geo = coalescing_geometry
    sp = SystemPair(vanishing_A_uc, [0.02, -0.02, 1.0])
    cut = CutPlane(eta=geo.eta)
    P_mask, _ = connection_products(sp, cut, tol=1e-11, geometry=geo)
    P_full, _ = connection_products(sp, cut, tol=1e-11)
    in_group = geo.in_group
    assert in_group.any()
    assert np.all(P_mask[in_group] == 0.0)
    assert np.array_equal(P_mask[~in_group], P_full[~in_group])
    ordering = Ordering(u_c=geo.u_c, tau=geo.tau)
    S_mask = stokes_from_connection(P_mask, ordering, sp.lambda_prime)
    S_full = stokes_from_connection(P_full, ordering, sp.lambda_prime)
    assert np.array_equal(S_mask.S_nu, S_full.S_nu)
    assert np.array_equal(S_mask.S_nu_plus_mu, S_full.S_nu_plus_mu)


def test_verify_connection_constancy_one_cell(system_2x2, geometry_2x2):
    samples = [
        np.array([0.0, 1.0], complex),
        np.array([0.02 + 0.02j, 1.0], complex),
        np.array([0.02 + 0.02j, 1.0 - 0.04j], complex),
    ]
    cut = CutPlane(eta=geometry_2x2.eta)
    stack = np.stack([conn.C for _, _, conn in connection_samples(
        system_2x2, samples, cut, tol=1e-13)])
    assert np.max(np.abs(stack - stack[0])) < 1e-7
    assert all(is_in_cell(u, geometry_2x2)[0] for u in samples)


# ---------------------------------------------------------------------------
# the Taylor carry against an independent reference
# ---------------------------------------------------------------------------


def _dense_piece(fs, piece):
    """End block of one piece and its Laplace integrals, by scipy's DOP853 on dense residues.

    rtol = 1e-13, atol = 1e-20.  Returns Y(1) for a piece without samples,
    ``(Y(1), J)`` for one with samples, as :func:`continuation.carry` does.
    """
    y0 = np.asarray(piece.y0, dtype=complex)
    state = np.zeros((1 + piece.z.size,) + y0.shape, dtype=complex)
    state[0] = y0

    def rhs(s, y):
        e = piece.c * cmath.exp(1j * piece.omega * s)
        x, dx = piece.a + piece.b * s + e, piece.b + 1j * piece.omega * e
        y = y.reshape(state.shape)
        dy = np.empty_like(y)
        dy[0] = dense_rhs(fs, piece.pole + x) @ y[0] * dx
        dy[1:] = np.multiply.outer(np.exp(piece.z * x) * dx, y[0])
        return dy.ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), state.ravel(), method="DOP853", rtol=1e-13, atol=1e-20)
    assert sol.success
    end = sol.y[:, -1].reshape(state.shape)
    return (end[0], end[1:]) if piece.z.size else end[0]


def _sweep_fs(n=4):
    sp, tau = draw_system(np.random.default_rng(2), n, min_gap=0.35)
    return build_fuchsian(sp), CutPlane(eta=DeformationGeometry(sp.u, 1e-3, tau).eta)


def _assert_matches_dense(fs, pieces, bound=1e-11):
    """Y(1) of every piece, and each of its integrals J, within ``bound`` relative of the reference."""
    for piece, end in zip(pieces, continuation.carry(fs, pieces)):
        ref = _dense_piece(fs, piece)
        pairs = [(end[0], ref[0]), *zip(end[1], ref[1])] if piece.z.size else [(end, ref)]
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def test_taylor_leg_from_an_anti_cut_base_point():
    """A straight leg from 0.15 pole gaps below u_1 down to its low point."""
    fs, cut = _sweep_fs()
    gap = fs.min_gap(1)
    start = fs.u[1] - 0.15 * gap * cut.direction()
    low = fs.u[1] - continuation._depth_frame(fs, cut) * cut.direction()
    y0 = np.eye(fs.n, dtype=complex)[:, :2] + 0.3j
    _assert_matches_dense(fs, [continuation._segment(start, low, y0)])


def test_taylor_loop_piece():
    fs, cut = _sweep_fs()
    base = continuation._anti_cut_point(fs, 2, cut)
    _assert_matches_dense(fs, [continuation._loop(fs, 2, base, np.eye(fs.n, dtype=complex))])


def test_taylor_mixed_batch_of_n_pieces():
    """Legs and loops at every pole in one lockstep batch, each against its own solve."""
    fs, cut = _sweep_fs()
    rng = np.random.default_rng(9)
    pieces = []
    for k in range(fs.n):
        base = continuation._anti_cut_point(fs, k, cut)
        y0 = rng.normal(size=(fs.n, 2)) + 1j * rng.normal(size=(fs.n, 2))
        if k % 2:
            pieces.append(continuation._loop(fs, k, base, y0))
        else:
            pieces.append(continuation._segment(base, base - 2.5 * cut.direction(), y0))
    _assert_matches_dense(fs, pieces)


def test_taylor_work_is_reported():
    """One solve per carry, one step per chord of a loop, one nfev per order update."""
    fs, cut = _sweep_fs()
    base = continuation._anti_cut_point(fs, 0, cut)
    with ode.counting() as work:
        continuation.carry(fs, [continuation._loop(fs, 0, base, np.eye(fs.n, dtype=complex))])
    # every chord is shorter than STEP_RATIO times its distance from u_0
    assert (work.solves, work.steps) == (1, continuation.CHORDS)
    chord = 2 * math.sin(math.pi / continuation.CHORDS)  # over the distance from u_0
    least = math.ceil(math.log(continuation.TAYLOR_EPS) / math.log(chord))
    assert work.nfev >= work.steps * least


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_loop_of_the_selected_solution_is_its_exponent(k):
    """gamma_k Psi_k = e^{-2 pi i lambda'_k} Psi_k, from the series value at the base point."""
    fs, cut = _sweep_fs()
    base = continuation._anti_cut_point(fs, k, cut)
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
    base = continuation._anti_cut_point(fs, 1, cut)
    piece = continuation._loop(fs, 1, base, np.eye(fs.n, dtype=complex))
    [sixteen] = continuation.carry(fs, [piece])
    monkeypatch.setattr(continuation, "CHORDS", 12)
    with ode.counting() as work:
        [twelve] = continuation.carry(fs, [piece])
    assert work.steps == 24
    assert np.max(np.abs(twelve - sixteen)) <= 1e-12 * np.max(np.abs(sixteen))
    _assert_matches_dense(fs, [piece])


def _leg(fs, cut, k, length, radii, phase=0.3):
    """A Laplace leg from the base point of u_k along its anti-cut ray, with samples.

    The samples satisfy z e^{id} = -r e^{i phase} for r in ``radii``, d the
    direction of the leg, so e^{z x} decays along it; the block is Psi_k.
    """
    base = continuation._anti_cut_point(fs, k, cut)
    e_d = -cut.direction()
    psi = selected_solution(fs, k, 40).selected_value(base, cut)
    z = -np.asarray(radii) * cmath.exp(1j * phase) / e_d
    return continuation.Piece(fs.u[k], base - fs.u[k], length * e_d, 0.0, 0.0, psi, z)


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
    circle = continuation.Piece(fs.u[0], -w0, 0.0, 1.2 * geo.epsilon0 * cmath.exp(2.0j),
                                -2 * math.pi, np.array([1.0, -0.5j, 0.25]),
                                np.array([12.0, 18.0]) * cmath.exp(1j * theta))
    _assert_matches_dense(fs, [circle])


def test_sampled_mixed_batch():
    """Legs of three and two samples, a loop of one and a junction without any, in one batch."""
    fs, cut = _sweep_fs()
    junction = continuation._segment(continuation._anti_cut_point(fs, 3, cut),
                                     fs.u[3] - 1.5 * cut.direction(),
                                     np.linspace(1.0, 2.0, fs.n) - 1j)
    loop = continuation._loop(fs, 2, continuation._anti_cut_point(fs, 2, cut),
                              np.linspace(1.0, 2.0, fs.n) + 0.5j)._replace(z=np.array([3 - 4j]))
    pieces = [_leg(fs, cut, 0, 6.0, [6.0, 9.0, 14.0]), _leg(fs, cut, 1, 4.0, [5.0, 8.0]),
              loop, junction]
    with ode.counting() as work:
        ends = continuation.carry(fs, pieces)
    assert work.solves == 1
    assert [type(end) for end in ends] == [tuple, tuple, tuple, np.ndarray]
    assert [end[1].shape for end in ends[:3]] == [(3, fs.n), (2, fs.n), (1, fs.n)]
    _assert_matches_dense(fs, pieces)
    # a piece without samples takes no z cap: its end is its lone carry's, to rounding
    [alone] = continuation.carry(fs, [junction])
    assert np.max(np.abs(ends[3] - alone)) <= 1e-14 * np.max(np.abs(alone))


def test_sampled_leg_where_the_z_cap_binds():
    """|z| = 80 on an oscillating leg of length 3: every step is Z_SPAN / |z| long, or less."""
    fs, cut = _sweep_fs()
    piece = _leg(fs, cut, 1, 3.0, [80.0], phase=1.52)
    with ode.counting() as capped:
        continuation.carry(fs, [piece])
    with ode.counting() as free:
        continuation.carry(fs, [piece._replace(z=piece.z[:0])])
    assert capped.steps >= math.ceil(3.0 * 80.0 / continuation.Z_SPAN) > free.steps
    _assert_matches_dense(fs, [piece])


def test_twelve_nodes_or_a_wider_z_span_keep_the_accuracy(monkeypatch):
    """Mutation checks on NODES and Z_SPAN: 12 nodes per panel, or Z_SPAN = 32, keep 1e-11.

    The rule has slack on both.  A step's polynomial converges on a disc of
    twice the step about its start, so in s the nearest singularity lies a
    whole step beyond [0, 1], four panel widths; and e^{z h s} turns by at
    most Z_SPAN / PANELS = 4 radians over a panel.  Twelve Gauss-Legendre
    nodes, exact to degree 23, integrate either to rounding, and so do 24
    nodes over 8 radians.  The oscillating leg of the z-cap test is where a
    coarse rule fails first: at 6 nodes per panel it is 3.6e-10 off.
    """
    fs, cut = _sweep_fs()
    oscillating = _leg(fs, cut, 1, 3.0, [80.0], phase=1.52)
    pieces = [oscillating, _leg(fs, cut, 1, 42.0 / (6.0 * math.cos(0.3)), [6.0, 9.0, 14.0])]
    for nodes, z_span in ((12, 16.0), (24, 32.0)):
        monkeypatch.setattr(continuation, "_QUADRATURE",
                            continuation._composite_gauss(continuation.PANELS, nodes))
        monkeypatch.setattr(continuation, "Z_SPAN", z_span)
        _assert_matches_dense(fs, pieces)
    monkeypatch.setattr(continuation, "_QUADRATURE",
                        continuation._composite_gauss(continuation.PANELS, 6))
    monkeypatch.setattr(continuation, "Z_SPAN", 16.0)
    with pytest.raises(AssertionError):
        _assert_matches_dense(fs, [oscillating])


def test_taylor_carry_refuses_a_piece_that_starts_on_a_pole():
    fs, _ = _sweep_fs()
    with pytest.raises(continuation.StepFailure, match="meets a pole"):
        continuation.carry(fs, [continuation._segment(fs.u[0], fs.u[0] - 1j, np.eye(fs.n))])
