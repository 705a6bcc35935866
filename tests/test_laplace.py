import cmath
import logging
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad_vec, solve_ivp

import isomonodromy.continuation as continuation
import isomonodromy.laplace as laplace
from conftest import dense_piece, dense_rhs, draw_system
from isomonodromy import ode
from isomonodromy.cli import ProblemSpec
from isomonodromy.model import DeformationGeometry, SystemPair, _group_partition
from isomonodromy.frobenius import (
    build_fuchsian,
    cgamma,
    levelt_at_confluence,
    selected_solution,
    selected_solutions,
)
from isomonodromy.laplace import (
    QuadratureDivergence,
    asymptotic_coeffs,
    assemble_formal,
    formal_recursion,
)

TAU = math.pi / 4
ROOT = Path(__file__).resolve().parents[1]


class _FC:
    """Complex rationals: pairs of Fractions, just enough for the oracle."""

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return _FC(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _FC(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _FC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        d = o.re * o.re + o.im * o.im
        return _FC((self.re * o.re + self.im * o.im) / d,
                   (self.im * o.re - self.re * o.im) / d)

    def to_complex(self):
        return complex(self.re, self.im)


def _formal_oracle_exact(A_rows, u_vals, L):
    """Recursion for F_1..F_L in exact complex-rational arithmetic."""
    n = len(u_vals)
    A = [[_FC(*x) if isinstance(x, tuple) else _FC(x) for x in row] for row in A_rows]
    u = [_FC(*x) if isinstance(x, tuple) else _FC(x) for x in u_vals]
    zero = _FC(0)
    F = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                F[i][j] = A[i][j] / (u[j] - u[i])
    for i in range(n):
        s = zero
        for j in range(n):
            if j != i:
                s = s + A[i][j] * F[j][i]
        F[i][i] = zero - s
    out = [F]
    for k in range(2, L + 1):
        prev = out[-1]
        Fk = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                num = (A[i][i] - A[j][j] + _FC(k - 1)) * prev[i][j]
                for p in range(n):
                    if p != i:
                        num = num + A[i][p] * prev[p][j]
                Fk[i][j] = num / (u[j] - u[i])
        for i in range(n):
            s = zero
            for j in range(n):
                if j != i:
                    s = s + A[i][j] * Fk[j][i]
            Fk[i][i] = (zero - s) / _FC(k)
        out.append(Fk)
    return [np.array([[x.to_complex() for x in row] for row in Fk]) for Fk in out]


def test_formal_recursion_matches_exact_oracle(system_2x2):
    formal = formal_recursion(system_2x2, 4)
    oracle = _formal_oracle_exact(
        [[Fraction(1, 2), Fraction(2)], [Fraction(3), Fraction(1, 3)]],
        [Fraction(0), Fraction(1)],
        4,
    )
    for Fa, Fb in zip(formal.F, oracle):
        assert np.max(np.abs(Fa - Fb)) < 1e-12 * max(1.0, np.max(np.abs(Fb)))


def test_formal_recursion_diagonal_zero():
    sp = SystemPair(np.diag([0.5, -0.3, 1.2]), [0.0, 1.0, 2.0])
    formal = formal_recursion(sp, 5)
    assert all(np.max(np.abs(F)) == 0.0 for F in formal.F)


def test_formal_recursion_resonance_report():
    # u^c = (0, 0, 1), lambda' = (1/2, 1/2 + 2, 1/4): free position at order 2
    A = np.array(
        [[0.5, 0.0, 0.4], [0.0, 2.5, -0.3], [0.6, 0.7, 0.25]], dtype=complex
    )
    sp = SystemPair(A, [0.0, 0.0, 1.0])
    formal = formal_recursion(sp, 4)
    assert formal.free_positions == [(2, 0, 1)]
    assert formal.obstructed_positions == [(2, 0, 1)]


def _merged_pole_reference(system, L):
    """F_1..F_L at a coalescence point from the local series, a route independent of the
    recursion: Levelt normal form of each group (noninteger exponents), Gamma ratios, and
    the asymptotic coefficients of each singleton's selected solution."""
    fs = build_fuchsian(system)
    lp = fs.lambda_prime
    cols = np.zeros((L, fs.n, fs.n), dtype=complex)
    for group in _group_partition(fs.u)[0]:
        if len(group) == 1:
            k = group[0]
            sol = selected_solution(fs, k, N=L + max(round(lp[k].real), 0) + 2)
            cols[:, :, k] = asymptotic_coeffs(sol, L)
            continue
        data = levelt_at_confluence(fs, group, N=L)
        for j in group:
            for l in range(1, L + 1):
                b = cgamma(lp[j] + 1) * (data.G @ data.G_series[l][:, j])
                cols[l - 1][:, j] = b / cgamma(lp[j] + 1 - l)
    return list(cols)


def _vanishing_draw(rng, n, groups):
    """A random system at a coalescence point, its in-group entries of A zeroed."""
    A = 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    u = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    for g in groups:
        u[list(g)] = u[g[0]]
        A[np.ix_(g, g)] = np.diag(np.diag(A)[list(g)])
    return SystemPair(A, u)


def _at_locus_cases(vanishing_A_uc):
    spec = ProblemSpec.load(ROOT / "problems" / "coalescing3x3.json")
    A = spec.A.copy()
    A[spec.geometry.in_group] = 0.0
    cases = [SystemPair(A, spec.u_c), SystemPair(vanishing_A_uc, [0.0, 0.0, 1.0])]
    rng = np.random.default_rng(19)
    for n in range(3, 7):
        cases.append(_vanishing_draw(rng, n, [(0, 1)]))
        if n >= 4:
            cases.append(_vanishing_draw(rng, n, [(0, 1), (n - 2, n - 1)]))
    return cases


def test_formal_recursion_at_the_locus_matches_the_merged_pole_series(vanishing_A_uc):
    """At u^c the recursion's in-group step agrees with the Levelt/Frobenius route."""
    for sp in _at_locus_cases(vanishing_A_uc):
        formal = formal_recursion(sp, 6)
        ref = _merged_pole_reference(sp, 6)
        scale = max(1.0, max(float(np.max(np.abs(F))) for F in ref))
        assert max(float(np.max(np.abs(a - b))) for a, b in zip(formal.F, ref)) <= 1e-12 * scale
        assert formal.free_positions == [] and formal.obstructed_positions == []


def _defining_residual(system, F):
    """Largest residual of F_k Lambda - Lambda F_k = (A + k - 1) F_{k-1} - F_{k-1} Lambda',
    k = 1..L+1 with F_0 = I and F_{L+1} = 0 (order L+1 tests only the in-group entries
    of F_L), relative to max(1, max|F_k|)."""
    A, n = system.A, system.n
    Lam, Lp = np.diag(system.u), np.diag(np.diag(A))
    same = np.abs(system.u[:, None] - system.u[None, :]) < 1e-12
    Fs = [np.eye(n)] + list(F) + [np.zeros((n, n))]
    worst = 0.0
    for k in range(1, len(Fs)):
        r = Fs[k] @ Lam - Lam @ Fs[k] - ((A + (k - 1) * np.eye(n)) @ Fs[k - 1] - Fs[k - 1] @ Lp)
        worst = max(worst, float(np.max(np.abs(np.where(same, r, 0) if k == len(Fs) - 1 else r))))
    return worst / max(1.0, max(float(np.max(np.abs(Fk))) for Fk in F))


@pytest.mark.parametrize("lp0", [-1.0, 1.0, 2.0])
def test_formal_recursion_integer_exponent_in_a_group(vanishing_A_uc, lp0):
    """An integer exponent inside a group needs no gamma shift: the equations hold at u^c."""
    A = vanishing_A_uc.copy()
    A[0, 0] = lp0
    sp = SystemPair(A, [0.0, 0.0, 1.0])
    formal = formal_recursion(sp, 6)
    assert formal.free_positions == []
    assert _defining_residual(sp, formal.F) <= 1e-13


def test_formal_recursion_unobstructed_resonance(vanishing_A_uc):
    """resonant_group with A_02 = 0: the resonance at order 2 is free, not obstructed,
    its entry is 0, and the recursion agrees with the merged-pole series."""
    A = np.array(
        [[0.5, 0.0, 0.0], [0.0, 2.5, -0.3], [0.6, 0.7, 0.25]], dtype=complex
    )
    sp = SystemPair(A, [0.0, 0.0, 1.0])
    formal = formal_recursion(sp, 6)
    assert formal.free_positions == [(2, 0, 1)]
    assert formal.obstructed_positions == []
    assert formal.F[1][0, 1] == 0.0
    assert _defining_residual(sp, formal.F) <= 1e-13
    ref = _merged_pole_reference(sp, 6)
    scale = max(1.0, max(float(np.max(np.abs(F))) for F in ref))
    assert max(float(np.max(np.abs(a - b))) for a, b in zip(formal.F, ref)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Laplace columns
# ---------------------------------------------------------------------------


@pytest.fixture
def diag_geo():
    return DeformationGeometry([0.0, 1.0], 0.08, TAU)


def _ray(modulus, theta):
    return np.asarray(modulus, dtype=float) * cmath.exp(1j * theta)


def _sols(fs):
    """The N = 40 selected-solution series of every pole."""
    return [selected_solution(fs, k, 40) for k in range(fs.n)]


def _column(fs, k, h, geometry, z, theta, tol=1e-12):
    """Column k of Y_{nu+h mu} at the samples z of the ray arg theta: the stacked record of a
    batch of one."""
    spec = laplace.ColumnSpec(k, h, z, theta)
    return laplace.laplace_columns(fs, geometry, [spec], _sols(fs), tol)


def test_laplace_column_diagonal_noninteger(diag_geo):
    A = np.diag([0.3 + 0.1j, -0.7])
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    theta = TAU - 0.5 * math.pi
    z = _ray([6.0, 11.0], theta)
    for k in range(2):
        col = _column(fs, k, 0, diag_geo, z, theta, tol=1e-13)
        lp = A[k, k]
        for i, zz in enumerate(z):
            expect = cmath.exp(lp * (math.log(abs(zz)) + 1j * theta))
            assert abs(col.reduced[0, i, k] - expect) < 1e-12 * abs(expect)
            assert abs(col.reduced[0, i, 1 - k]) < 1e-13


@pytest.mark.parametrize("a00", [1.0, -2.0, 1 + 1e-9])
def test_laplace_column_refuses_an_integer_exponent(system_2x2, diag_geo, a00):
    """A Laplace column is a hairpin: a pole whose lambda'_k is an integer (within INTEGER_TOL)
    raises a ValueError that names it, before any carry.  The oracle shifts such a system
    first (the diag(1, 0.5) and diag(-2, 0.5) pairs of test_stokes.py)."""
    A = system_2x2.A.copy()
    A[0, 0] = a00
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    theta = TAU - 0.5 * math.pi
    with ode.counting() as work, pytest.raises(ValueError, match="pole 0 has the integer"):
        _column(fs, 0, 0, diag_geo, _ray([7.0], theta), theta)
    assert work.solves == 0


def test_laplace_column_refuses_samples_off_the_ray(system_2x2, diag_geo):
    """Every sample z must lie on the ray arg z = ``arg`` of its spec."""
    fs = build_fuchsian(system_2x2)
    theta = TAU - 0.5 * math.pi
    z = _ray([7.0, 9.0], theta)
    z[1] *= cmath.exp(1e-6j)
    with pytest.raises(ValueError, match="must lie on the ray"):
        _column(fs, 0, 0, diag_geo, z, theta)
    _column(fs, 0, 0, diag_geo, z[:1], theta)


def test_laplace_column_satisfies_irregular_ode(system_2x2, diag_geo):
    """dY/dz = (Lambda + A/z) Y checked by central differences."""
    fs = build_fuchsian(system_2x2)
    theta = TAU - 0.5 * math.pi
    r, h = 8.0, 1e-4
    z = _ray([r - h, r, r + h], theta)
    for k in range(2):
        col = _column(fs, k, 0, diag_geo, z, theta, tol=1e-13)
        raw = [col.reduced[0, i] * cmath.exp(z[i] * fs.u[k]) for i in range(3)]
        dY = (raw[2] - raw[0]) / (z[2] - z[0])
        M = np.diag(fs.u) + system_2x2.A / z[1]
        resid = np.max(np.abs(dY - M @ raw[1]))
        assert resid < 1e-6 * max(1.0, np.max(np.abs(raw[1])))


def test_laplace_contour_deformation_invariance(monkeypatch, system_2x2, diag_geo):
    """Two contour directions in the same eta-window give the same column."""
    fs = build_fuchsian(system_2x2)
    theta = TAU - 0.5 * math.pi
    z = _ray([9.0, 14.0], theta)
    eta = 1.5 * math.pi - TAU
    cols = []
    for d in (eta - 0.35, eta + 0.3):
        monkeypatch.setattr(laplace, "_direction_for", lambda *args, d=d: d)
        cols.append([_column(fs, k, 0, diag_geo, z, theta, tol=1e-13) for k in range(2)])
        assert all(col.eta[0] == d for col in cols[-1])
    for a, b in zip(*cols):
        scale = max(1.0, float(np.max(np.abs(a.reduced))))
        assert np.max(np.abs(a.reduced - b.reduced)) < 1e-10 * scale


# ---------------------------------------------------------------------------
# leg integrals against a quadrature of the dense-output continuation
# ---------------------------------------------------------------------------


def _reference_column(fs, k, z, d):
    """Reduced column k by an independent route: scipy's quad_vec per contour part.

    Psi_k is its local series (N = 60) within a = 0.3 of the series radius
    and scipy's DOP853 dense output beyond.  The hairpin's circle has
    radius a, and the leg length is chosen here; the column depends on
    neither.
    """
    sol = selected_solution(fs, k, N=60)
    e_d = cmath.exp(1j * d)
    lp = fs.lambda_prime[k]
    a = 0.3 * sol.radius
    t_max = (60.0 + 4.0 * max(0.0, float((-lp - 1).real))) / float(np.min(-(z * e_d).real))

    def series(t):
        return polyval(t * e_d, sol.b) * np.exp(sol.rho * (np.log(t) + 1j * d))

    dense = solve_ivp(lambda t, y: (dense_rhs(fs, fs.u[k] + t * e_d) @ y) * e_d,
                      (a, t_max), series(a), method="DOP853", rtol=1e-13, atol=1e-15,
                      dense_output=True).sol

    def quad(f, lo, hi):
        return quad_vec(f, lo, hi, epsabs=0.0, epsrel=1e-13, norm="max")[0]

    leg = quad(lambda t: np.outer(np.exp(z * e_d * t), dense(t)), a, t_max)

    def circle(th):
        x = a * cmath.exp(1j * th)
        psi = polyval(x, sol.b) * cmath.exp(sol.rho * (math.log(a) + 1j * th))
        return np.outer(np.exp(z * x) * 1j * x, psi)

    jump = 1.0 - cmath.exp(2j * math.pi * lp)
    return (jump * e_d * leg + quad(circle, d - 2 * math.pi, d)) / (2j * math.pi)


def _contour_cases(system_2x2, diag_geo, coalescing_geometry, vanishing_A_uc):
    """(fs, k, geometry, z, kind) for the hairpins of a 2x2 system, and one inside a coalescing
    group.

    The coalescing case needs a genuine vanishing-family point: the poles of
    its group lie 0.06 apart, so the hairpin at u_0 has a small series zone.
    """
    from isomonodromy.deformation import radial_family

    theta = TAU - 0.5 * math.pi
    z = _ray([6.0, 9.0, 14.0], theta)
    cases = [(build_fuchsian(system_2x2), k, diag_geo, z, "hairpin") for k in range(2)]
    geo = coalescing_geometry
    seed = SystemPair(vanishing_A_uc, [0.03, -0.03, 1.0])
    fs = build_fuchsian(radial_family(seed, geo.u_c, [1.0], tol=1e-12)[0].system())
    cases.append((fs, 0, geo, _ray([12.0, 18.0], geo.tau - 0.5 * math.pi), "coalescing"))
    return cases


def test_leg_integrals_match_dense_output_quadrature(system_2x2, diag_geo,
                                                     coalescing_geometry, vanishing_A_uc):
    for fs, k, geo, z, kind in _contour_cases(system_2x2, diag_geo, coalescing_geometry,
                                               vanishing_A_uc):
        col = _column(fs, k, 0, geo, z, float(np.angle(z[0])), tol=1e-13)
        ref = _reference_column(fs, k, z, col.eta[0])
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs(col.reduced[0] - ref)) <= 1e-10 * scale, kind


def test_column_error_covers_carried_part(system_2x2, diag_geo, coalescing_geometry,
                                          vanishing_A_uc):
    """``error``, the series tail at the start plus the carry's stated bound, covers the column.

    It is positive and at least the distance from the quad_vec reference
    for every column class.
    """
    for fs, k, geo, z, kind in _contour_cases(system_2x2, diag_geo, coalescing_geometry,
                                               vanishing_A_uc):
        col = _column(fs, k, 0, geo, z, float(np.angle(z[0])), tol=1e-13)
        ref = _reference_column(fs, k, z, col.eta[0])
        dist = np.max(np.abs(col.reduced[0] - ref)) / np.max(np.abs(ref))
        assert 0.0 < col.error[0] and dist <= col.error[0], kind


def test_leg_work_one_solve_without_dense_output(system_2x2, diag_geo, coalescing_geometry,
                                                 vanishing_A_uc):
    """One carry per column of every class, counted as a solve by :func:`isomonodromy.ode.counting`.

    The Taylor carry keeps no dense output at all.
    """
    for fs, k, geo, z, kind in _contour_cases(system_2x2, diag_geo, coalescing_geometry,
                                               vanishing_A_uc):
        with ode.counting() as work:
            _column(fs, k, 0, geo, z, float(np.angle(z[0])), tol=1e-13)
        assert work.solves == 1, kind


def _window(labels, h, theta):
    """The eta-window of label h mu cut to the convergence half-plane of arg z = theta."""
    m = h * labels.mu
    return (max(1.5 * math.pi - labels.tau_nu(m + 1), 0.5 * math.pi - theta),
            min(1.5 * math.pi - labels.tau_nu(m), 1.5 * math.pi - theta))


def _clamped(labels, h, theta, u):
    """The earlier contour direction: pi - theta clamped 5 % inside the window."""
    lo, hi = _window(labels, h, theta)
    pad = 0.05 * (hi - lo)
    return min(max(math.pi - theta, lo + pad), hi - pad)


def test_an_unblocked_direction_is_the_centre_of_its_window():
    """Both labels of both matchings on 15 sweep systems take d at the centre of the window,
    inside the convergence half-plane, as far as it can be from the inter-pole directions at
    its edges.  The control: the earlier rule, pi - theta clamped 5 % inside the window (which
    left legs grazing poles), gives another d."""
    from isomonodromy.stokes import _matching_ray

    cases = []
    for seed in range(3):
        for n in range(2, 7):
            system, tau = draw_system(np.random.default_rng(seed), n, min_gap=0.35)
            geo = DeformationGeometry(system.u, 1e-3, tau)
            for h in (0, 1):
                theta = _matching_ray(geo, h)
                cases += [(geo.labels, label, theta, system.u) for label in (h, h + 1)]

    def centred(direction_for):
        for labels, h, theta, u in cases:
            lo, hi = _window(labels, h, theta)
            d = direction_for(labels, h, theta, u)
            assert 0.5 * math.pi - theta <= lo < d < hi <= 1.5 * math.pi - theta
            if d != 0.5 * (lo + hi):
                return False
        return True

    assert centred(laplace._direction_for)
    assert not centred(_clamped)


def test_direction_nudge_budget_warns(caplog):
    """A window narrower than the pole-direction margin exhausts the nudges and logs it."""
    from isomonodromy.model import RayLabels

    # eta-window (pi - 5e-10, pi + 5e-10) around the direction of u_0 - u_1
    labels = RayLabels(tau=0.5 * math.pi, mu=2,
                       basic=(-0.5 * math.pi + 5e-10, 0.5 * math.pi - 5e-10))
    u = np.array([0.0, 1.0], dtype=complex)
    with caplog.at_level(logging.WARNING, logger="isomonodromy.laplace"):
        d = laplace._direction_for(labels, 0, 0.0, u)
    assert abs(d - math.pi) < 1e-9
    assert any("128 nudges" in rec.getMessage() for rec in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="isomonodromy.laplace"):
        laplace._direction_for(RayLabels(tau=0.5 * math.pi, mu=2, basic=(-1.0, 1.0)), 0, 0.0, u)
    assert not caplog.records


def test_quadrature_divergence_outside_halfplane(system_2x2, diag_geo):
    fs = build_fuchsian(system_2x2)
    theta = TAU + 0.4 * math.pi + 0.5 * math.pi
    with pytest.raises(QuadratureDivergence):
        _column(fs, 0, 0, diag_geo, _ray([50.0], theta), theta)


@pytest.mark.parametrize("re, diverges", [(-5e-12, True), (-1e-10, False)])
def test_quadrature_divergence_edge(system_2x2, re, diverges):
    """|z| = 10 along d = 0: Re(z e^{id}) must be below -1e-12 |z| = -1e-11.

    -5e-12 is inside that margin and raises; -1e-10 is past it and plans a
    column.  A margin of 1e-12 / |z| = 1e-13 would let -5e-12 through.
    """
    fs = build_fuchsian(system_2x2)
    z = complex(re, math.sqrt(100.0 - re * re))
    assert abs(abs(z) - 10.0) < 1e-15 and (z * cmath.exp(0j)).real == re
    spec = laplace.ColumnSpec(0, 0, np.array([z]), cmath.phase(z))
    sol = selected_solution(fs, 0, 40)
    if diverges:
        with pytest.raises(QuadratureDivergence):
            laplace._plan(fs, [spec], [0.0], [sol], 1e-12)
    else:
        [leg], *_ = laplace._plan(fs, [spec], [0.0], [sol], 1e-12)
        assert leg.z.size == 1


# ---------------------------------------------------------------------------
# asymptotic coefficients and fit
# ---------------------------------------------------------------------------


def _asymptotic_fit(z, reduced_columns, lambda_prime, L, theta):
    """Least-squares fit of reduced columns on one ray against I + sum_l F_l z^-l.

    ``reduced_columns[k]`` holds Y_k e^{-z u_k} at ``z``; z^{lambda'_k} is
    removed on the branch arg z = theta.  Returns ``(F_1..F_L, max residual)``.
    """
    logz = np.log(np.abs(z)) + 1j * theta
    V = np.vander(1.0 / z, N=L + 1, increasing=True)[:, 1:]  # columns z^-1 .. z^-L
    n = len(reduced_columns)
    F = np.zeros((L, n, n), dtype=complex)
    resid = 0.0
    for k, col in enumerate(reduced_columns):
        target = col * np.exp(-lambda_prime[k] * logz)[:, None] - np.eye(n)[k]
        F[:, :, k] = np.linalg.lstsq(V, target, rcond=None)[0]
        resid = max(resid, float(np.max(np.abs(V @ F[:, :, k] - target))))
    return F, resid


def test_asymptotic_coeffs_diagonal_zero():
    fs = build_fuchsian(SystemPair(np.diag([0.5, -0.3]), [0.0, 1.0]))
    sol = selected_solution(fs, 0, N=10)
    out = asymptotic_coeffs(sol, 5)
    assert np.max(np.abs(out)) == 0.0


def test_asymptotic_coeffs_natural_low_order():
    # class natural with lambda' = 1: f_1 = b_1/0! = b_1
    A = np.array([[1.0, 0.7], [0.4, 0.35 + 0.2j]], dtype=complex)
    fs = build_fuchsian(SystemPair(A, [0.0, 1.3]))
    sol = selected_solution(fs, 0, N=10)
    out = asymptotic_coeffs(sol, 3)
    assert np.allclose(out[0], sol.b[1])
    assert np.allclose(out[1], -sol.d[0])  # (-1)^{2-1} 0! d_0


def test_asymptotic_coeffs_of_a_zero_natural_solution():
    """A natural pole whose selected solution is zero: its column past order r is exactly 0.

    On A = [[0, 1e-15], [2e-15, 0.5]] at u = (0, 1), pole 0 is natural
    (lambda'_0 = 0 = r) and its analytic series d, at most 1.4e-14, is
    below the zero rule's 1e-12: ``zero`` is set, and its f_l, l > r, are
    0, not (-1)^(l-r) (l-r-1)! d_{l-r-1}, which is not 0.  The assembled F_l
    agree with the recursion within 1e-14 (7.5e-15 measured at L = 3, the
    recursion's own column 0, of the size of A's coupling).
    """
    sp = SystemPair(np.array([[0.0, 1e-15], [2e-15, 0.5]]), [0.0, 1.0])
    sols = selected_solutions(build_fuchsian(sp), 40)
    sol = sols[0]
    assert (sol.klass, sol.zero) == ("natural", True)
    assert 0 < np.max(np.abs(sol.d)) <= 1e-12
    out = asymptotic_coeffs(sol, 3)
    assert np.all(out == 0)
    for Fa, Fb in zip(formal_recursion(sp, 3).F, assemble_formal(sols, 3)):
        assert np.max(np.abs(Fa - Fb)) < 1e-14


def test_assembled_formal_matches_recursion_all_classes():
    A = np.array(
        [[1.0, 0.4, -0.3], [0.2, -2.0, 0.6], [0.5, -0.25, 0.37 + 0.1j]],
        dtype=complex,
    )
    sp = SystemPair(A, [0.0, 1.3, 0.8 + 1.1j])
    fs = build_fuchsian(sp)
    formal = formal_recursion(sp, 3)
    sols = [selected_solution(fs, k, N=25) for k in range(3)]
    assembled = assemble_formal(sols, 3)
    for Fa, Fb in zip(formal.F, assembled):
        assert np.max(np.abs(Fa - Fb)) < 1e-10


def test_asymptotic_fit_diagonal(diag_geo):
    fs = build_fuchsian(SystemPair(np.diag([0.3, -0.6]), [0.0, 1.0]))
    theta = TAU - 0.5 * math.pi
    z = _ray(np.geomspace(8, 800, 10), theta)
    cols = [_column(fs, k, 0, diag_geo, z, theta, tol=1e-13).reduced[0]
            for k in range(2)]
    F, resid = _asymptotic_fit(z, cols, fs.lambda_prime, 3, theta)
    assert max(np.max(np.abs(Fl)) for Fl in F) < 1e-8
    assert resid < 1e-8


def test_asymptotic_fit_generic(system_2x2, diag_geo):
    fs = build_fuchsian(system_2x2)
    theta = TAU - 0.5 * math.pi
    z = _ray(np.geomspace(10, 1000, 16), theta)
    cols = [_column(fs, k, 0, diag_geo, z, theta, tol=1e-13).reduced[0]
            for k in range(2)]
    F, resid = _asymptotic_fit(z, cols, fs.lambda_prime, 6, theta)
    assert np.max(np.abs(F[0] - formal_recursion(system_2x2, 1).F[0])) < 1e-4


def test_asymptotic_fit_negative_control(system_2x2, diag_geo):
    """Samples mixed across sectors have no 1/z expansion: residual blows up."""
    from isomonodromy.stokes import stokes_pipeline

    fs = build_fuchsian(system_2x2)
    pair = stokes_pipeline(system_2x2, diag_geo, tol=1e-12)
    theta = TAU + 0.5 * math.pi  # inside sector 1's pinned range, outside S_0
    z = _ray(np.geomspace(8, 50, 12), theta)
    cols1 = [_column(fs, k, 1, diag_geo, z, theta, tol=1e-12).reduced[0]
             for k in range(2)]
    # Y_0 = Y_1 S_0^{-1} continued outside its own sector
    Sinv = np.linalg.inv(pair.S_nu)
    exps = [np.exp(np.outer(z, fs.u[m])).T for m in range(2)]
    raw1 = np.stack([cols1[m] * np.exp(z * fs.u[m])[:, None] for m in range(2)])
    y0 = np.einsum("kzn,km->mzn", raw1, Sinv)
    cols0_out = [y0[m] * np.exp(-z * fs.u[m])[:, None] for m in range(2)]
    _, resid_good = _asymptotic_fit(z, cols1, fs.lambda_prime, 4, theta)
    _, resid_bad = _asymptotic_fit(z, cols0_out, fs.lambda_prime, 4, theta)
    assert resid_bad > 1e3 * max(resid_good, 1e-12)


# ---------------------------------------------------------------------------
# batched columns and the vectorised formal recursion
# ---------------------------------------------------------------------------


def _formal_loop_reference(A, u, L):
    """F_1..F_L by the entrywise loop recursion (distinct u)."""
    n = u.size
    F = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i != j:
                F[i, j] = A[i, j] / (u[j] - u[i])
    for i in range(n):
        F[i, i] = -sum(A[i, j] * F[j, i] for j in range(n) if j != i)
    Fs = [F]
    for k in range(2, L + 1):
        prev = Fs[-1]
        Fk = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                num = (A[i, i] - A[j, j] + k - 1) * prev[i, j]
                num += sum(A[i, p] * prev[p, j] for p in range(n) if p != i)
                Fk[i, j] = num / (u[j] - u[i])
        for i in range(n):
            Fk[i, i] = -sum(A[i, j] * Fk[j, i] for j in range(n) if j != i) / k
        Fs.append(Fk)
    return Fs


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_formal_recursion_matches_loop_reference(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        A = 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        u = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        formal = formal_recursion(SystemPair(A, u), 10)
        for Fa, Fb in zip(formal.F, _formal_loop_reference(A, u, 10)):
            assert np.max(np.abs(Fa - Fb)) <= 1e-13 * np.max(np.abs(Fb))


def _batch_cases(system_2x2, diag_geo, coalescing_geometry, vanishing_A_uc):
    """(fs, geometry, specs, kind): every column of each contour-kind system, both labels."""
    from isomonodromy.stokes import _matching_ray

    cases = []
    for fs, k, geo, _, kind in _contour_cases(system_2x2, diag_geo, coalescing_geometry,
                                              vanishing_A_uc):
        if kind == "hairpin" and k == 1:
            continue
        theta = _matching_ray(geo, 0)
        z = _ray([6.0, 9.0, 14.0] if kind != "coalescing" else [12.0, 18.0], theta)
        specs = [laplace.ColumnSpec(j, h, z, theta) for h in (0, 1) for j in range(fs.n)]
        cases.append((fs, geo, specs, kind))
    return cases


def test_batched_columns_match_one_at_a_time(system_2x2, diag_geo, coalescing_geometry,
                                             vanishing_A_uc):
    """One batch of every column agrees with batches of one column, in one carry: column p
    of the stacked record, its values and its direction, against the lone column's."""
    for fs, geo, specs, kind in _batch_cases(system_2x2, diag_geo, coalescing_geometry,
                                             vanishing_A_uc):
        sols = _sols(fs)
        with ode.counting() as work:
            batch = laplace.laplace_columns(fs, geo, specs, sols, tol=1e-13)
        assert work.solves == 1, kind
        for p, spec in enumerate(specs):
            lone = laplace.laplace_columns(fs, geo, [spec], sols, tol=1e-13)
            scale = float(np.max(np.abs(lone.reduced[0])))
            assert np.max(np.abs(batch.reduced[p] - lone.reduced[0])) <= 1e-10 * scale, (kind, spec)
            assert batch.eta[p] == lone.eta[0]


def test_carry_applies_rank_one_residues(monkeypatch, system_2x2, diag_geo,
                                         coalescing_geometry, vanishing_A_uc):
    """The carried values match those of the dense residue matrices."""
    batches = []
    carry = laplace.carry

    def recorded(fs, pieces):
        out = carry(fs, pieces)
        batches.append((fs, pieces, out))
        return out

    monkeypatch.setattr(laplace, "carry", recorded)
    for fs, geo, specs, _ in _batch_cases(system_2x2, diag_geo, coalescing_geometry,
                                          vanishing_A_uc):
        laplace.laplace_columns(fs, geo, specs, _sols(fs), tol=1e-13)
    monkeypatch.undo()
    # hairpin circles are summed from the series: a Laplace batch holds legs only, each
    # straight or bent once
    assert batches and all(len(p.via) <= 1 for _, pieces, _ in batches for p in pieces)
    for fs, pieces, out in batches:
        for J, piece in zip(out, pieces):
            J_ref = dense_piece(fs, piece)[1]
            assert np.max(np.abs(J - J_ref)) <= 1e-10 * np.max(np.abs(J_ref))


@pytest.mark.parametrize("lp", [0.3 + 0.2j, 1 - 1e-6, 2 + 1e-7])
def test_closed_form_circle_matches_the_two_piece_hairpin(monkeypatch, diag_geo, lp):
    """The hairpin column against its circle carried as a second piece, started on arg d - 2 pi.

    The column sums the circle from the local series (:func:`laplace._circle`);
    the reference carries the circle |x| = r and the column's own leg in one
    batch and weights them 1 and the jump 1 - e^{2 pi i lambda'}.  Near an
    integer lambda' the jump is small and the circle's factor sin(pi s) / s
    has s near 0.  The carried circle loses accuracy there as the coupling
    grows (8e-10 of the circle against mpmath at A_01 A_10 = 6, where the
    closed form is checked by the next test), so the coupling here is 0.06.
    """
    fs = build_fuchsian(SystemPair(np.array([[lp, 0.2], [0.3, 1 / 3]]), [0.0, 1.0]))
    assert fs.integer_class(0) == "noninteger"
    legs = []
    carry = laplace.carry

    def recorded(fs, pieces):
        legs.extend(pieces)
        return carry(fs, pieces)

    monkeypatch.setattr(laplace, "carry", recorded)
    theta = TAU - 0.5 * math.pi
    col = _column(fs, 0, 0, diag_geo, _ray([6.0, 9.0, 14.0], theta), theta, tol=1e-13)
    monkeypatch.undo()
    [leg] = legs
    circle = continuation._loop(fs, 0, leg.pole + leg.a,
                                leg.y0 * cmath.exp(2j * math.pi * (lp + 1)))._replace(z=leg.z)
    J_circle, J_leg = laplace.carry(fs, [circle, leg])
    ref = (J_circle + (1.0 - cmath.exp(2j * math.pi * lp)) * J_leg) / (2j * math.pi)
    assert np.max(np.abs(col.reduced[0] - ref)) <= 1e-12 * np.max(np.abs(col.reduced[0]))


@pytest.mark.parametrize("lp", [0.3 + 0.2j, 1 - 1e-6, 2 + 1e-7, -0.45 - 1.77j])
def test_circle_matches_mpmath(system_2x2, lp):
    """The closed-form circle against mpmath.quad of the same series at 25 digits, to 1e-14.

    The coupling A_01 A_10 = 6 makes b_2 or b_3 of order 1e7-1e9 near an
    integer lambda'; a large imaginary part puts a factor e^{2 pi Im lambda'}
    between the two ends of the circle.
    """
    import mpmath

    A = system_2x2.A.copy()
    A[0, 0] = lp
    sol = selected_solution(build_fuchsian(SystemPair(A, [0.0, 1.0])), 0, 40)
    r, d, z = 1 / 7, 3.9, 9.0 * cmath.exp(-0.9j)
    got = laplace._circle(sol.b[None], np.array([sol.lambda_prime_k]), np.array([r]),
                          np.array([d]), np.array([[z]]))[0, 0]
    with mpmath.workdps(25):
        zm, lpm = mpmath.mpc(z), mpmath.mpc(lp)
        for col in range(2):
            coeffs = [mpmath.mpc(c) for c in sol.b[::-1, col]]

            def f(th):
                x = r * mpmath.expj(th)
                return (mpmath.exp(zm * x) * mpmath.polyval(coeffs, x)
                        * mpmath.exp((-lpm - 1) * (mpmath.log(r) + 1j * th)) * 1j * x)

            want = complex(mpmath.quad(f, mpmath.linspace(d - 2 * mpmath.pi, d, 3)))
            assert abs(got[col] - want) <= 1e-14 * abs(want)


def test_one_direction_per_label_and_ray(monkeypatch, system_2x2, diag_geo):
    """Ten columns on three (label, ray) pairs, each with two samples, ask for three contour
    directions."""
    from isomonodromy.stokes import _matching_ray

    calls = []
    direction_for = laplace._direction_for

    def counted(labels, h, theta, u):
        calls.append((h, theta))
        return direction_for(labels, h, theta, u)

    monkeypatch.setattr(laplace, "_direction_for", counted)
    fs = build_fuchsian(system_2x2)
    theta = _matching_ray(diag_geo, 0)
    specs = [laplace.ColumnSpec(k, h, _ray(r, theta), theta)
             for r in ([6.0, 9.0], [14.0, 20.0]) for h in (0, 1) for k in range(fs.n)]
    specs += [laplace.ColumnSpec(k, 0, _ray([7.0, 11.0], theta - 0.1), theta - 0.1)
              for k in range(fs.n)]
    laplace.laplace_columns(fs, diag_geo, specs, _sols(fs), tol=1e-13)
    assert sorted(calls) == sorted({(0, theta), (1, theta), (0, theta - 0.1)})


# ---------------------------------------------------------------------------
# bent legs
# ---------------------------------------------------------------------------


def _pair_batch(n):
    """The oracle pair's batch on draw_system(rng(0), n): fs, geometry, 4n specs, series."""
    from isomonodromy.stokes import _matching

    system, tau = draw_system(np.random.default_rng(0), n, min_gap=0.35)
    geo = DeformationGeometry(system.u, 1e-3, tau)
    specs = _matching(system, geo, 0)[2] + _matching(system, geo, 1)[2]
    fs = build_fuchsian(system)
    return fs, geo, specs, selected_solutions(fs, 40)


def _straight(fs, leg):
    """The leg along its first chord, out to where e^{z x} x^(-lambda'_k - 1) is below e^-46.

    The tail rule is the test's own: t grows by 1 % until
    rate t - g log t > 46, rate = min Re(-z e^{id}) over the samples and
    g = max(0, Re(-lambda'_k - 1)), 4 more than the carry's e^-42.
    """
    k = int(np.argmin(np.abs(fs.u - leg.pole)))
    e_d = leg.a / abs(leg.a)
    rate = float(np.min(-(leg.z * e_d).real))
    g = max(0.0, float((-fs.lambda_prime[k] - 1).real))
    t = abs(leg.a)
    while rate * t - g * math.log(max(t, 1.0)) <= 46.0:
        t *= 1.01
    return leg._replace(b=(t - abs(leg.a)) * e_d, via=())


def _columns_with(monkeypatch, fs, geo, specs, sols, swap):
    """The batch's columns with bent leg i replaced by ``swap(i, leg)``, and their work."""
    carry = laplace.carry

    def swapped(fs, pieces):
        return carry(fs, [swap(i, p) for i, p in enumerate(pieces)])

    monkeypatch.setattr(laplace, "carry", swapped)
    with ode.counting() as work:
        cols = laplace.laplace_columns(fs, geo, specs, sols, tol=1e-13)
    monkeypatch.undo()
    return cols, work


@pytest.mark.parametrize("n", [4, 6])
def test_bent_columns_match_straight_legs(monkeypatch, n):
    """Every bent column against the same column on a straight leg carried to its tail.

    The wedge between a bent leg and its straight leg lies outside the pole
    hull, so the columns agree within 1e-10 of max|column| (they read 2e-15
    or better at n = 4..6), and the bent legs take fewer piece-steps.
    Moving one leg's corner inward, so that its wedge holds a pole, moves
    that column by more than 1e-2 of max|column| (0.37-0.96 measured): the
    control.
    """
    fs, geo, specs, sols = _pair_batch(n)
    pieces = []
    carry = laplace.carry
    monkeypatch.setattr(laplace, "carry", lambda fs, p: pieces.extend(p) or carry(fs, p))
    with ode.counting() as bent_work:
        bent = laplace.laplace_columns(fs, geo, specs, sols, tol=1e-13)
    monkeypatch.undo()
    assert all(p.via for p in pieces)
    straight, straight_work = _columns_with(monkeypatch, fs, geo, specs, sols,
                                            lambda i, leg: _straight(fs, leg))
    for a, b in zip(bent.reduced, straight.reduced):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))
    assert bent_work.piece_steps < straight_work.piece_steps

    # the control: a corner between the start and a pole that lies on the
    # side the leg turns to, x_j = alpha e^{id} + beta (-e^{-i theta}), beta > 0
    def descent(leg):
        return -np.conj(leg.z[0]) / abs(leg.z[0])

    def wedge_pole(leg):
        e_d, e_s = leg.a / abs(leg.a), descent(leg)
        for x in fs.u - leg.pole:
            alpha, beta = np.linalg.solve([[e_d.real, e_s.real], [e_d.imag, e_s.imag]],
                                          [x.real, x.imag])
            if beta > 0 and alpha > 2 * abs(leg.a):
                return alpha
        return None

    # one leg per column
    p = next(i for i, leg in enumerate(pieces) if wedge_pole(leg))

    def inward(i, leg):
        if i != p:
            return leg
        corner = 0.5 * (abs(leg.a) + wedge_pole(leg)) * leg.a / abs(leg.a)
        end = corner + abs(leg.a + leg.b - leg.via[0]) * descent(leg)
        return leg._replace(b=end - leg.a, via=(corner,))

    control, _ = _columns_with(monkeypatch, fs, geo, specs, sols, inward)
    miss = np.max(np.abs(control.reduced[p] - straight.reduced[p]))
    assert miss > 1e-2 * np.max(np.abs(straight.reduced[p]))


@pytest.mark.parametrize("case", ["collinear", "past the tail"])
def test_legs_that_went_straight_match_straight_legs(system_2x2, case):
    """The legs a length test once left straight, bent, against ``_straight``'s reference.

    ``collinear``: d = pi - theta, so the corner lies on the steepest-descent
    ray and the leg is straight in all but its vertex.  ``past the tail``:
    samples at |z| = 30 and 40, where e^{z x} is below e^-42 at the corner
    R = 2 already, so the descent length s is 0 and the leg ends at the
    corner.  Each column agrees with its straight leg's within 1e-10 of
    max|column| (1e-16 or better measured).
    """
    fs = build_fuchsian(system_2x2)
    theta = TAU - 0.5 * math.pi
    if case == "collinear":
        z, d = _ray([6.0, 9.0, 14.0], theta), math.pi - theta
    else:
        z, d = _ray([30.0, 40.0], theta), math.pi - theta - 0.3
    specs = [laplace.ColumnSpec(k, 0, z, theta) for k in range(2)]
    legs, weight, base, _, _ = laplace._plan(fs, specs, [d, d], _sols(fs), 1e-13)
    for leg in legs:
        [corner] = leg.via
        if case == "collinear":
            turn = (leg.a + leg.b - corner) / (corner - leg.a)
            assert turn.real > 0 and abs(turn.imag) <= 1e-12 * abs(turn)
        else:
            assert abs(leg.a + leg.b - corner) <= 1e-15 * abs(corner)
    bent = laplace.carry(fs, legs)
    straight = laplace.carry(fs, [_straight(fs, leg) for leg in legs])
    columns = [base + weight[:, None, None] * J for J in (bent, straight)]
    for a, b in zip(*columns):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), case


def test_stacked_circles_match_one_at_a_time():
    """Every hairpin circle of an n = 6 pair, in one stacked product and one column at a time.

    The columns have their own r, d, lambda' and series length J of
    e^{z x}; the stack pads J with zero terms.  They agree within 1e-15 of
    each column's max|circle|.
    """
    fs, geo, specs, sols = _pair_batch(6)
    rng = np.random.default_rng(3)
    k = np.array([spec.k for spec in specs])
    b = np.stack([sols[j].b for j in k])
    lp = fs.lambda_prime[k]
    r = rng.uniform(0.01, 0.3, k.size)
    d = rng.uniform(-math.pi, math.pi, k.size)
    z = np.stack([spec.z for spec in specs]) * rng.uniform(0.5, 2.0, k.size)[:, None]
    stacked = laplace._circle(b, lp, r, d, z)
    for i in range(k.size):
        one = laplace._circle(b[i:i + 1], lp[i:i + 1], r[i:i + 1], d[i:i + 1], z[i:i + 1])[0]
        assert np.max(np.abs(stacked[i] - one)) <= 1e-15 * np.max(np.abs(one))


def test_both_routes_sum_their_series_by_one_selected_values_call(monkeypatch):
    """One continue_basis call and one laplace_columns call each sum their local series by one
    frobenius.selected_values call over the whole batch, and neither calls selected_value."""
    from isomonodromy import frobenius
    from isomonodromy.model import CutPlane

    fs, geo, specs, sols = _pair_batch(4)
    calls = []
    for module in (continuation, laplace):
        def counted(batch, r, arg, name=module.__name__, real=module.selected_values):
            calls.append((name, len(batch)))
            return real(batch, r, arg)

        monkeypatch.setattr(module, "selected_values", counted)

    def refused(self, lam, cut):
        raise AssertionError("LocalSolution.selected_value called")

    monkeypatch.setattr(frobenius.LocalSolution, "selected_value", refused)
    continuation.continue_basis(fs, CutPlane(eta=geo.eta), sols, range(4))
    laplace.laplace_columns(fs, geo, specs, sols, tol=1e-13)
    assert calls == [("isomonodromy.continuation", 4), ("isomonodromy.laplace", 16)]
