import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import isomonodromy.continuation as continuation
from conftest import draw_system
from isomonodromy.model import CutPlane, DeformationGeometry, SystemPair
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
    continue_solution,
    loop_at_pole,
    monodromy_matrix,
)
from isomonodromy.deformation import verify_connection_constancy

ETA = 1.5 * math.pi - math.pi / 4


def test_transport_diagonal_power_law():
    A = np.diag([0.3 + 0.1j, -0.7])
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    lam0, lam1 = -0.5 - 0.5j, 1.8 + 0.7j
    path = [lam0, 1.2 - 0.5j, lam1]  # 0.4 or more from both poles, below u_0
    v = continue_solution(fs, np.array([1.0, 0.0], complex), lam0, path, tol=1e-12)
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
    v = continue_solution(fs, v0, lam0, square, tol=1e-12)
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
    va = continue_solution(fs, v0, c + r, half, tol=1e-11)
    vb = continue_solution(fs, v0, c + r, quarter1, tol=1e-11)
    vb = continue_solution(fs, vb, c + r * 1j, quarter2, tol=1e-11)
    assert np.max(np.abs(va - vb)) < 1e-10 * max(1.0, np.max(np.abs(va)))


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------


def test_monodromy_diagonal():
    A = np.diag([0.3 + 0.1j, -0.7])
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    for k in range(2):
        M = monodromy_matrix(fs, k, CutPlane(eta=ETA), tol=1e-12)
        expected = np.eye(2, dtype=complex)
        expected[k, k] = cmath.exp(-2j * math.pi * A[k, k])
        assert np.max(np.abs(M - expected)) < 5e-12


def test_monodromy_half_exponent(system_2x2):
    fs = build_fuchsian(system_2x2)
    M = monodromy_matrix(fs, 0, CutPlane(eta=ETA), tol=1e-12)
    assert M[0, 0] == pytest.approx(-1.0, abs=1e-9)
    # identity outside row k
    assert abs(M[1, 0]) < 1e-9 and M[1, 1] == pytest.approx(1.0, abs=1e-9)


def test_monodromy_eigenvalue_structure(system_2x2):
    fs = build_fuchsian(system_2x2)
    for k in range(2):
        M = monodromy_matrix(fs, k, CutPlane(eta=ETA), tol=1e-12)
        ev = sorted(np.linalg.eigvals(M), key=lambda z: z.real)
        expect = sorted(
            [1.0, cmath.exp(-2j * math.pi * fs.lambda_prime[k])], key=lambda z: z.real
        )
        assert np.max(np.abs(np.array(ev) - np.array(expect))) < 1e-9


def _basis_at_pole(fs, cut, j, tol=1e-13):
    """Base point of u_j and the selected-solution basis there."""
    sols = [selected_solution(fs, m, cut, 40) for m in range(fs.n)]
    [(_, base, Psi)] = continue_basis(fs, cut, sols, (j,), tol=tol)
    return base, Psi


def _basis_at_big_base(fs, cut, radius, tol=1e-13):
    """Basis matrix at u_0 - radius e^{i eta}, reached without cut crossings.

    The basis is brought to the standard base point of u_0 by the
    cut-safe production route and then slid outward along the anti-cut ray
    of u_0, which crosses no cuts for an admissible eta.
    """
    base_big = fs.u[0] - radius * cut.direction()
    b0, Psi = _basis_at_pole(fs, cut, 0, tol=tol)
    return base_big, continue_solution(fs, Psi, b0, [b0, base_big], tol=tol)


def test_big_loop_matches_infinity_monodromy(system_2x2):
    """Loop around both poles: eigenvalues e^{-2 pi i spec(A+I)}."""
    fs = build_fuchsian(system_2x2)
    cut = CutPlane(eta=ETA)
    radius = 2.8
    assert radius > abs(fs.u[1] - fs.u[0])  # circle encloses both poles
    base, Psi = _basis_at_big_base(fs, cut, radius)
    looped = loop_at_pole(fs, 0, Psi, base, tol=1e-13)
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
    looped = loop_at_pole(fs, 0, Psi, base, tol=1e-13)
    Mbig = np.linalg.solve(Psi, looped)
    M = [monodromy_matrix(fs, k, cut, tol=1e-13) for k in range(2)]
    candidates = [M[0] @ M[1], M[1] @ M[0]]
    errs = [np.max(np.abs(Mbig - c)) for c in candidates]
    assert min(errs) < 1e-7


def test_basis_singular_raises_for_integer_spectrum():
    A = np.array([[0.0, 1.0], [0.0, 2.0]], dtype=complex)  # eigenvalues 0, 2
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    with pytest.raises(BasisSingular):
        monodromy_matrix(fs, 0, CutPlane(eta=ETA), tol=1e-12)


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


def _count_solves(monkeypatch):
    """Record every solve_ivp call made from the continuation module."""
    solve = continuation.solve_ivp
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(continuation, "solve_ivp", counted)
    return calls


def test_connection_without_projected_entries(monkeypatch):
    """Integer exponents with zero selected solutions: every c_jk is a structural zero.

    Nothing is left to project, so no continuation runs and C is zero.
    """
    fs = build_fuchsian(SystemPair(np.diag([-1.0, -2.0]).astype(complex), [0.0, 1.0]))
    calls = _count_solves(monkeypatch)
    conn = connection_coefficients(fs, CutPlane(eta=ETA), tol=1e-12)
    assert not np.any(conn.provenance == "monodromy-projection")
    assert not calls and np.all(conn.C == 0.0)


@pytest.mark.parametrize("u", [[0.0, 1.0], [0.0, 1.0, 0.4 + 0.9j]])
def test_connection_solve_count(monkeypatch, u):
    """All n(n-1) coefficients cost at most 5 ODE solves at any n.

    One basis continuation: one solve for the rays down to the low points,
    one for the lateral moves to the deep point, one for the lateral moves
    back up and one for the rays to the base points; then one for every
    loop.
    """
    n = len(u)
    rng = np.random.default_rng(11)
    A = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    fs = build_fuchsian(SystemPair(A, u))
    calls = _count_solves(monkeypatch)
    conn = connection_coefficients(fs, CutPlane(eta=ETA), tol=1e-12)
    assert np.sum(conn.provenance == "monodromy-projection") == n * (n - 1)
    assert 3 <= len(calls) <= 5  # the rays down and up and the loops always run


@pytest.mark.parametrize("k", [0, 1, 2])
def test_monodromy_solve_count(monkeypatch, k):
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
    calls = _count_solves(monkeypatch)
    M = monodromy_matrix(fs, k, CutPlane(eta=ETA), tol=1e-12)
    assert len(calls) == (4 if k == 0 else 5)
    assert abs(M[k, k] - cmath.exp(-2j * math.pi * A[k, k])) < 1e-9


def _gamma_shifted_case():
    """A 4x4 sweep system with A_00 set to 1: it needs the gamma-shift."""
    sp, tau = draw_system(np.random.default_rng(0), 4, min_gap=0.35)
    A = sp.A.copy()
    A[0, 0] = 1.0
    return SystemPair(A, sp.u), tau


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, "gamma"])
def test_stokes_pipeline_solve_count(monkeypatch, n):
    """The formula route makes at most 5 solves at every n, gamma-shifted or not."""
    if n == "gamma":
        sp, tau = _gamma_shifted_case()
        assert needs_gamma_shift(sp)
    else:
        sp, tau = draw_system(np.random.default_rng(0), n, min_gap=0.35)
    calls = _count_solves(monkeypatch)
    stokes_pipeline(sp, DeformationGeometry(sp.u, 1e-3, tau), tol=1e-12)
    assert 3 <= len(calls) <= 5  # the rays down and up and the loops always run


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
        return solve(lambda t, Y: fs.rhs(p + t * (q - p)) @ Y * (q - p), 0.0, 1.0, y)

    def loop(j, base, y):
        r, th0 = abs(base - fs.u[j]), cmath.phase(base - fs.u[j])

        def f(t, Y):
            x = r * cmath.exp(1j * t)
            return fs.rhs(fs.u[j] + x) @ Y * (1j * x)

        return solve(f, th0, th0 + 2 * math.pi, y)

    n = fs.n
    depth = continuation._depth_frame(fs, cut)
    low = [fs.u[m] - depth * cut.direction() for m in range(n)]
    bases = [continuation._anti_cut_point(fs, m, cut) for m in range(n)]
    seeds = [selected_solution(fs, m, cut, 40).selected_value(bases[m], cut) for m in range(n)]
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
    sol1 = selected_solution(fs, 0, cut, 40)
    basis1 = analytic_basis(fs, 0, N=40)
    base, Psi = _basis_at_pole(fs, cut, 0)
    v = Psi[:, 1]
    samples = [base, fs.u[0] + 0.8 * (base - fs.u[0]), fs.u[0] + 1.3 * (base - fs.u[0])]
    vals = [v]
    for s in samples[1:]:
        vals.append(continue_solution(fs, v, base, [base, s], tol=1e-13))
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
    sel0 = selected_solution(fs, 0, cut, 40)
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
    in_group = np.array([[a != b and geo.same_group(a, b) for b in range(sp.n)]
                         for a in range(sp.n)])
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
    report = verify_connection_constancy(system_2x2, geometry_2x2, samples, tol=1e-13)
    assert report["max_variation"] < 1e-7
    assert all(report["in_cell"])
