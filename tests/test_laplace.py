import cmath
import logging
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad_vec, solve_ivp

import isomonodromy.laplace as laplace
from conftest import dense_rhs
from isomonodromy import ode
from isomonodromy.cli import ProblemSpec
from isomonodromy.model import DeformationGeometry, SystemPair, _group_partition
from isomonodromy.frobenius import (
    build_fuchsian,
    cgamma,
    levelt_at_confluence,
    selected_solution,
)
from isomonodromy.laplace import (
    QuadratureDivergence,
    SingularF1,
    asymptotic_coeffs,
    assemble_formal,
    f1,
    formal_recursion,
)

TAU = math.pi / 4
ROOT = Path(__file__).resolve().parents[1]


def test_f1_diagonal_is_zero():
    sp = SystemPair(np.diag([0.5, -0.3]), [0.0, 1.0])
    assert np.max(np.abs(f1(sp))) == 0.0


def test_f1_worked_example(system_2x2):
    F1 = f1(system_2x2)
    assert np.allclose(F1, [[6.0, 2.0], [-3.0, -6.0]])


def test_f1_coalescing_limit():
    # A_ij proportional to u_i - u_j: quotient tends to -c as the gap shrinks
    c = 0.7
    for d in (1e-4, 1e-6, 1e-8):
        A = np.array([[0.2, c * d], [-c * d, 0.9]], dtype=complex)
        F1 = f1(SystemPair(A, [d, 0.0]))
        assert F1[0, 1] == pytest.approx(-c)
    # below the coalescence threshold the entry is the defined limit 0
    d = 1e-14
    A = np.array([[0.2, c * d], [-c * d, 0.9]], dtype=complex)
    assert f1(SystemPair(A, [d, 0.0]))[0, 1] == 0.0


def test_f1_detects_violated_vanishing():
    A = np.array([[0.2, 0.5], [0.1, 0.9]], dtype=complex)
    with pytest.raises(SingularF1):
        f1(SystemPair(A, [0.0, 0.0]))


def _f1_loop(system):
    """F_1 entry by entry: the double loop with a per-row sum for the diagonal."""
    from isomonodromy.model import COALESCE_TOL, VANISH_TOL

    A, u, n = system.A, system.u, system.n
    F = np.zeros((n, n), dtype=complex)
    scale = max(1.0, float(np.max(np.abs(A))))
    for i in range(n):
        for j in range(n):
            if i != j and abs(u[j] - u[i]) >= COALESCE_TOL:
                F[i, j] = A[i, j] / (u[j] - u[i])
            elif i != j and abs(A[i, j]) > VANISH_TOL * scale:
                raise SingularF1(f"u_{i} = u_{j}")
    for i in range(n):
        F[i, i] = -sum(A[i, j] * F[j, i] for j in range(n) if j != i)
    return F


def test_f1_matches_the_entrywise_loop():
    """The array form of F_1 agrees with the loop, with a coalesced vanishing pair and without."""
    rng = np.random.default_rng(21)
    systems = []
    for n in range(2, 7):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        systems.append(SystemPair(A, rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)))
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A[0, 1], A[1, 0] = 1e-11, 0.0
    coalesced = [0.3 + 0.1j, 0.3 + 0.1j, 1.0, -0.5j]
    systems.append(SystemPair(A, coalesced))
    for sp in systems:
        ref = _f1_loop(sp)
        assert np.max(np.abs(f1(sp) - ref)) <= 1e-14 * np.max(np.abs(ref))
    A[1, 0] = 0.5  # a coupling of the coalesced pair that does not vanish
    for build in (f1, _f1_loop):
        with pytest.raises(SingularF1, match="u_1 = u_0"):
            build(SystemPair(A, coalesced))


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
    """Column k of Y_{nu+h mu} at the samples z of the ray arg theta: a batch of one."""
    spec = laplace.ColumnSpec(k, h, z, theta)
    return laplace.laplace_columns(fs, geometry, [spec], _sols(fs), tol)[0]


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
            assert abs(col.reduced[i][k] - expect) < 1e-12 * abs(expect)
            assert abs(col.reduced[i][1 - k]) < 1e-13


def test_laplace_column_diagonal_negative_integer(diag_geo):
    fs = build_fuchsian(SystemPair(np.diag([-2.0, 0.5]), [0.0, 1.0]))
    theta = TAU - 0.5 * math.pi
    z = _ray([7.0], theta)
    col = _column(fs, 0, 0, diag_geo, z, theta, tol=1e-13)
    assert abs(col.reduced[0][0] - z[0] ** -2.0) < 1e-14


def test_laplace_column_diagonal_natural(diag_geo):
    fs = build_fuchsian(SystemPair(np.diag([1.0, 0.5]), [0.0, 1.0]))
    theta = TAU - 0.5 * math.pi
    z = _ray([7.0], theta)
    col = _column(fs, 0, 0, diag_geo, z, theta, tol=1e-13)
    assert abs(col.reduced[0][0] - z[0]) < 1e-12


def test_laplace_column_satisfies_irregular_ode(system_2x2, diag_geo):
    """dY/dz = (Lambda + A/z) Y checked by central differences."""
    fs = build_fuchsian(system_2x2)
    theta = TAU - 0.5 * math.pi
    r, h = 8.0, 1e-4
    z = _ray([r - h, r, r + h], theta)
    for k in range(2):
        col = _column(fs, k, 0, diag_geo, z, theta, tol=1e-13)
        raw = [col.reduced[i] * cmath.exp(z[i] * fs.u[k]) for i in range(3)]
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
        assert all(col.eta_used == d for col in cols[-1])
    for a, b in zip(*cols):
        scale = max(1.0, float(np.max(np.abs(a.reduced))))
        assert np.max(np.abs(a.reduced - b.reduced)) < 1e-10 * scale


# ---------------------------------------------------------------------------
# leg integrals against a quadrature of the dense-output continuation
# ---------------------------------------------------------------------------


def _reference_column(fs, k, z, d, kind):
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
        x = t * e_d
        if kind == "natural":
            return polyval(x, sol.d)
        return polyval(x, sol.b) * np.exp(sol.rho * (np.log(t) + 1j * d))

    dense = solve_ivp(lambda t, y: (dense_rhs(fs, fs.u[k] + t * e_d) @ y) * e_d,
                      (a, t_max), series(a), method="DOP853", rtol=1e-13, atol=1e-15,
                      dense_output=True).sol

    def quad(f, lo, hi, points=None):
        return quad_vec(f, lo, hi, epsabs=0.0, epsrel=1e-13, norm="max", points=points)[0]

    if kind in ("hairpin", "coalescing"):
        leg = quad(lambda t: np.outer(np.exp(z * e_d * t), dense(t)), a, t_max)

        def circle(th):
            x = a * cmath.exp(1j * th)
            psi = polyval(x, sol.b) * cmath.exp(sol.rho * (math.log(a) + 1j * th))
            return np.outer(np.exp(z * x) * 1j * x, psi)

        jump = 1.0 - cmath.exp(2j * math.pi * lp)
        return (jump * e_d * leg + quad(circle, d - 2 * math.pi, d)) / (2j * math.pi)
    leg = e_d * quad(lambda t: np.outer(np.exp(z * e_d * t), series(t) if t <= a else dense(t)),
                     0.0, t_max, points=[a])
    if kind == "natural":
        Nk = int(round(lp.real))
        leg += sum(np.outer(z ** (Nk - l) / math.factorial(Nk - l), sol.b[l])
                   for l in range(Nk + 1))
    return leg


def _contour_cases(system_2x2, diag_geo, coalescing_geometry, vanishing_A_uc):
    """(fs, k, geometry, z, kind) for each column class, and a column inside a coalescing group.

    The coalescing case needs a genuine vanishing-family point: the poles of
    its group lie 0.06 apart, so the hairpin at u_0 has a small series zone.
    """
    from isomonodromy.deformation import radial_family

    theta = TAU - 0.5 * math.pi
    z = _ray([6.0, 9.0, 14.0], theta)
    cases = [(build_fuchsian(system_2x2), k, diag_geo, z, "hairpin") for k in range(2)]
    for a00, kind in ((1.0, "natural"), (-2.0, "halfline")):
        A = system_2x2.A.copy()
        A[0, 0] = a00
        cases.append((build_fuchsian(SystemPair(A, [0.0, 1.0])), 0, diag_geo, z, kind))
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
        assert fs.integer_class(k) == {"natural": "natural",
                                       "halfline": "negative_integer"}.get(kind, "noninteger")
        ref = _reference_column(fs, k, z, col.eta_used, kind)
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs(col.reduced - ref)) <= 1e-10 * scale, kind


def test_column_error_covers_carried_part(system_2x2, diag_geo, coalescing_geometry,
                                          vanishing_A_uc):
    """``error``, the series tail at the start plus the carry's stated bound, covers the column.

    It is positive and at least the distance from the quad_vec reference
    for every column class.
    """
    for fs, k, geo, z, kind in _contour_cases(system_2x2, diag_geo, coalescing_geometry,
                                               vanishing_A_uc):
        col = _column(fs, k, 0, geo, z, float(np.angle(z[0])), tol=1e-13)
        ref = _reference_column(fs, k, z, col.eta_used, kind)
        dist = np.max(np.abs(col.reduced - ref)) / np.max(np.abs(ref))
        assert 0.0 < col.error and dist <= col.error, kind


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
    cols = [_column(fs, k, 0, diag_geo, z, theta, tol=1e-13).reduced
            for k in range(2)]
    F, resid = _asymptotic_fit(z, cols, fs.lambda_prime, 3, theta)
    assert max(np.max(np.abs(Fl)) for Fl in F) < 1e-8
    assert resid < 1e-8


def test_asymptotic_fit_generic(system_2x2, diag_geo):
    fs = build_fuchsian(system_2x2)
    theta = TAU - 0.5 * math.pi
    z = _ray(np.geomspace(10, 1000, 16), theta)
    cols = [_column(fs, k, 0, diag_geo, z, theta, tol=1e-13).reduced
            for k in range(2)]
    F, resid = _asymptotic_fit(z, cols, fs.lambda_prime, 6, theta)
    assert np.max(np.abs(F[0] - f1(system_2x2))) < 1e-4


def test_asymptotic_fit_negative_control(system_2x2, diag_geo):
    """Samples mixed across sectors have no 1/z expansion: residual blows up."""
    from isomonodromy.stokes import stokes_pipeline

    fs = build_fuchsian(system_2x2)
    pair = stokes_pipeline(system_2x2, diag_geo, tol=1e-12)
    theta = TAU + 0.5 * math.pi  # inside sector 1's pinned range, outside S_0
    z = _ray(np.geomspace(8, 50, 12), theta)
    cols1 = [_column(fs, k, 1, diag_geo, z, theta, tol=1e-12).reduced
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
    """One batch of every column agrees with batches of one column, in one carry."""
    for fs, geo, specs, kind in _batch_cases(system_2x2, diag_geo, coalescing_geometry,
                                             vanishing_A_uc):
        sols = _sols(fs)
        with ode.counting() as work:
            batch = laplace.laplace_columns(fs, geo, specs, sols, tol=1e-13)
        assert work.solves == 1, kind
        for spec, col in zip(specs, batch):
            lone = laplace.laplace_columns(fs, geo, [spec], sols, tol=1e-13)[0]
            scale = float(np.max(np.abs(lone.reduced)))
            assert np.max(np.abs(col.reduced - lone.reduced)) <= 1e-10 * scale, (kind, spec)
            assert (col.k, col.label, col.eta_used) == (lone.k, lone.label, lone.eta_used)


def _carry_dense_reference(fs, pieces):
    """The batched carry with the dense residue matrices sum_k B_k/(lam - u_k) per piece.

    scipy's DOP853 at rtol = 1e-13, atol = 1e-20 on the state of every
    block and its integrals.
    """
    P, n = len(pieces), fs.n
    m = max(p.z.size for p in pieces)
    pole, a, b, c, omega = np.array([p[:5] for p in pieces], dtype=complex).T
    z = np.zeros((P, 1 + m), dtype=complex)
    weight = np.zeros((P, 1 + m))
    y0 = np.zeros((P, 1 + m, n), dtype=complex)
    for i, p in enumerate(pieces):
        z[i, 1:1 + p.z.size] = p.z
        weight[i, :1 + p.z.size] = 1.0
        y0[i, 0] = p.y0

    def rhs(s, y):
        psi = y.reshape(P, 1 + m, n)[:, 0]
        e = c * np.exp(1j * omega * s)
        x = a + b * s + e
        dx = (b + 1j * omega * e)[:, None]
        dy = (np.exp(z * x[:, None]) * (weight * dx))[:, :, None] * psi[:, None]
        dy[:, 0] = np.einsum("pij,pj->pi", dense_rhs(fs, (pole + x)[:, None]), dy[:, 0])
        return dy.ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), y0.ravel(), method="DOP853", rtol=1e-13, atol=1e-20)
    y = sol.y[:, -1].reshape(P, 1 + m, n)
    return [(y[i, 0], y[i, 1:1 + p.z.size]) for i, p in enumerate(pieces)]


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
    assert any(p.c != 0 for _, pieces, _ in batches for p in pieces)  # circles included
    for fs, pieces, out in batches:
        ref = _carry_dense_reference(fs, pieces)
        for p, end, (psi_ref, J_ref) in zip(pieces, out, ref):
            psi, J = end if p.z.size else (end, J_ref)
            assert np.max(np.abs(psi - psi_ref)) <= 1e-10 * np.max(np.abs(psi_ref))
            if J_ref.size:
                assert np.max(np.abs(J - J_ref)) <= 1e-10 * np.max(np.abs(J_ref))
