import cmath
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import isomonodromy.laplace as laplace
from conftest import dense_rhs
from isomonodromy import ode
from isomonodromy.model import DeformationGeometry, SystemPair
from isomonodromy.frobenius import build_fuchsian, selected_solution
from isomonodromy.continuation import IllConditioned, carry_tolerances
from isomonodromy.laplace import (
    QuadratureDivergence,
    SingularF1,
    adaptive_quad,
    asymptotic_coeffs,
    asymptotic_fit,
    assemble_formal,
    f1,
    formal_recursion,
    laplace_column,
)

TAU = math.pi / 4


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


# ---------------------------------------------------------------------------
# Laplace columns
# ---------------------------------------------------------------------------


@pytest.fixture
def diag_geo():
    return DeformationGeometry([0.0, 1.0], 0.08, TAU)


def _ray(modulus, theta):
    return np.asarray(modulus, dtype=float) * cmath.exp(1j * theta)


def test_laplace_column_diagonal_noninteger(diag_geo):
    A = np.diag([0.3 + 0.1j, -0.7])
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    theta = TAU - 0.5 * math.pi
    z = _ray([6.0, 11.0], theta)
    for k in range(2):
        col = laplace_column(fs, k, 0, diag_geo, z, arg=theta, tol=1e-13)
        lp = A[k, k]
        for i, zz in enumerate(z):
            expect = cmath.exp(lp * (math.log(abs(zz)) + 1j * theta))
            assert abs(col.reduced[i][k] - expect) < 1e-12 * abs(expect)
            assert abs(col.reduced[i][1 - k]) < 1e-13


def test_laplace_column_diagonal_negative_integer(diag_geo):
    fs = build_fuchsian(SystemPair(np.diag([-2.0, 0.5]), [0.0, 1.0]))
    theta = TAU - 0.5 * math.pi
    z = _ray([7.0], theta)
    col = laplace_column(fs, 0, 0, diag_geo, z, arg=theta, tol=1e-13)
    assert abs(col.reduced[0][0] - z[0] ** -2.0) < 1e-14


def test_laplace_column_diagonal_natural(diag_geo):
    fs = build_fuchsian(SystemPair(np.diag([1.0, 0.5]), [0.0, 1.0]))
    theta = TAU - 0.5 * math.pi
    z = _ray([7.0], theta)
    col = laplace_column(fs, 0, 0, diag_geo, z, arg=theta, tol=1e-13)
    assert abs(col.reduced[0][0] - z[0]) < 1e-12


def test_laplace_column_satisfies_irregular_ode(system_2x2, diag_geo):
    """dY/dz = (Lambda + A/z) Y checked by central differences."""
    fs = build_fuchsian(system_2x2)
    theta = TAU - 0.5 * math.pi
    r, h = 8.0, 1e-4
    z = _ray([r - h, r, r + h], theta)
    for k in range(2):
        col = laplace_column(fs, k, 0, diag_geo, z, arg=theta, tol=1e-13)
        raw = [col.reduced[i] * cmath.exp(z[i] * fs.u[k]) for i in range(3)]
        dY = (raw[2] - raw[0]) / (z[2] - z[0])
        M = np.diag(fs.u) + system_2x2.A / z[1]
        resid = np.max(np.abs(dY - M @ raw[1]))
        assert resid < 1e-6 * max(1.0, np.max(np.abs(raw[1])))


def test_laplace_contour_deformation_invariance(system_2x2, diag_geo):
    """Two contour directions in the same eta-window give the same column."""
    fs = build_fuchsian(system_2x2)
    theta = TAU - 0.5 * math.pi
    z = _ray([9.0, 14.0], theta)
    eta = 1.5 * math.pi - TAU
    for k in range(2):
        a = laplace_column(fs, k, 0, diag_geo, z, arg=theta, tol=1e-13,
                           direction=eta - 0.35)
        b = laplace_column(fs, k, 0, diag_geo, z, arg=theta, tol=1e-13,
                           direction=eta + 0.3)
        scale = max(1.0, float(np.max(np.abs(a.reduced))))
        assert np.max(np.abs(a.reduced - b.reduced)) < 1e-10 * scale


def test_laplace_group_contour_equivalence(coalescing_geometry, vanishing_A_uc):
    """Hairpin at u_k and group contour agree for a coalescing group member.

    Needs a genuine vanishing-family point: Psi_k is holomorphic at the
    sibling poles only for members of the isomonodromic family.
    """
    from isomonodromy.deformation import radial_family

    geo = coalescing_geometry
    seed = SystemPair(vanishing_A_uc, [0.03, -0.03, 1.0])
    state = radial_family(seed, geo.u_c, [1.0], tol=1e-12)[0]
    sp = state.system()
    fs = build_fuchsian(sp)
    theta = geo.tau - 0.5 * math.pi
    z = _ray([12.0], theta)
    a = laplace_column(fs, 0, 0, geo, z, arg=theta, tol=1e-12, contour="hairpin")
    b = laplace_column(fs, 0, 0, geo, z, arg=theta, tol=1e-12, contour="group")
    assert np.max(np.abs(a.reduced - b.reduced)) < 1e-8 * max(
        1.0, float(np.max(np.abs(a.reduced)))
    )


# ---------------------------------------------------------------------------
# leg integrals against a quadrature of the dense-output continuation
# ---------------------------------------------------------------------------


def _horner(coeffs, x):
    acc = np.zeros((x.size, coeffs.shape[1]), dtype=complex)
    for c in coeffs[::-1]:
        acc = acc * x[:, None] + c[None, :]
    return acc


def _dense_ray(fs, k, sol, d, t_max, branched):
    """Psi_k on u_k + t e^{id}: series inside 0.75 of its radius, dense ODE output beyond."""
    e_d = cmath.exp(1j * d)
    t_switch = 0.75 * sol.radius
    coeffs = sol.b if sol.d is None else sol.d

    def series(ts):
        acc = _horner(coeffs, ts * e_d)
        if branched:
            acc = acc * np.exp(sol.rho * (np.log(ts) + 1j * d))[:, None]
        return acc

    dense = solve_ivp(lambda t, y: (dense_rhs(fs, fs.u[k] + t * e_d) @ y) * e_d,
                      (t_switch, t_max), series(np.array([t_switch]))[0],
                      method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True).sol

    def values(ts):
        out = np.empty((ts.size, fs.n), dtype=complex)
        inside = ts <= t_switch
        if inside.any():
            out[inside] = series(ts[inside])
        if not inside.all():
            out[~inside] = dense(ts[~inside]).T
        return out

    return values


def _reference_column(fs, k, geometry, z, d, kind, tol=1e-13):
    """Reduced column k by the former route: one adaptive quadrature per z.

    The contour is chosen here independently of the library (its own loop
    radius and leg length); the column does not depend on either.
    """
    sol = selected_solution(fs, k, N=40)
    e_d = cmath.exp(1j * d)
    lp = fs.lambda_prime[k]
    rate = float(np.min(-(z * e_d).real))
    t_max = (60.0 + 4.0 * max(0.0, float((-lp - 1).real))) / rate
    values = _dense_ray(fs, k, sol, d, t_max, branched=kind != "natural")
    jump = 1.0 - cmath.exp(2j * math.pi * lp)
    out = np.zeros((z.size, fs.n), dtype=complex)
    if kind == "group":
        center = geometry.group_values[geometry.group_of(k)]
        r = 0.1
        w0 = fs.u[k] - center
        bh = (w0 * np.conj(e_d)).real
        a = -bh + math.sqrt(bh * bh - (abs(w0) ** 2 - r * r))
        th_exit = cmath.phase(w0 + a * e_d)
        circ = solve_ivp(
            lambda th, y: (dense_rhs(fs, center + r * cmath.exp(1j * th)) @ y)
            * 1j * r * cmath.exp(1j * th),
            (th_exit, th_exit - 2 * math.pi), values(np.array([a]))[0],
            method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True).sol
    else:
        a = 0.3 * sol.radius if kind == "hairpin" else 0.0
    for i, zi in enumerate(z):
        sigma = zi * e_d
        leg, _ = adaptive_quad(lambda ts: values(ts) * np.exp(sigma * ts)[:, None],
                               a, t_max, tol)
        leg = leg * e_d
        if kind == "hairpin":
            def circle(ths):
                x = a * np.exp(1j * ths)
                w = np.exp(zi * x + sol.rho * (math.log(a) + 1j * ths)) * 1j * x
                return _horner(sol.b, x) * w[:, None]

            c, _ = adaptive_quad(circle, d - 2 * math.pi, d, tol)
            out[i] = (jump * leg + c) / (2j * math.pi)
        elif kind == "group":
            def circle(ths):
                x = center - fs.u[k] + r * np.exp(1j * ths)
                w = np.exp(zi * x) * 1j * r * np.exp(1j * ths)
                return circ(ths).T * w[:, None]

            c, _ = adaptive_quad(circle, th_exit - 2 * math.pi, th_exit, tol)
            out[i] = (jump * leg + c) / (2j * math.pi)
        elif kind == "natural":
            Nk = int(round(lp.real))
            out[i] = leg + sum(sol.b[l] * zi ** (Nk - l) / math.factorial(Nk - l)
                               for l in range(Nk + 1))
        else:
            out[i] = leg
    return out


def _contour_cases(system_2x2, diag_geo, coalescing_geometry, vanishing_A_uc):
    """(fs, k, geometry, z, kind) for each of the four contour kinds."""
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
    cases.append((fs, 0, geo, _ray([12.0, 18.0], geo.tau - 0.5 * math.pi), "group"))
    return cases


def test_leg_integrals_match_dense_output_quadrature(system_2x2, diag_geo,
                                                     coalescing_geometry, vanishing_A_uc):
    for fs, k, geo, z, kind in _contour_cases(system_2x2, diag_geo, coalescing_geometry,
                                               vanishing_A_uc):
        theta = float(np.angle(z[0]))
        col = laplace_column(fs, k, 0, geo, z, arg=theta, tol=1e-13,
                             contour="group" if kind == "group" else "hairpin")
        assert fs.integer_class(k) == {"natural": "natural",
                                       "halfline": "negative_integer"}.get(kind, "noninteger")
        ref = _reference_column(fs, k, geo, z, col.eta_used, kind)
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs(col.reduced - ref)) <= 1e-10 * scale, kind


def test_column_error_covers_carried_part(system_2x2, diag_geo, coalescing_geometry,
                                          vanishing_A_uc):
    """``error`` adds the carry's tolerance bound to the quadrature estimate.

    The group column's leg starts beyond the series zone, so all of it is
    carried: its error is nonzero and still covers its distance from the
    dense-output reference, as it does for every contour kind.
    """
    for fs, k, geo, z, kind in _contour_cases(system_2x2, diag_geo, coalescing_geometry,
                                               vanishing_A_uc):
        col = laplace_column(fs, k, 0, geo, z, arg=float(np.angle(z[0])), tol=1e-13,
                             contour="group" if kind == "group" else "hairpin")
        ref = _reference_column(fs, k, geo, z, col.eta_used, kind)
        dist = np.max(np.abs(col.reduced - ref)) / np.max(np.abs(ref))
        assert dist <= col.error, kind
        if kind == "group":
            assert col.error > 0.0


def test_leg_work_one_solve_without_dense_output(system_2x2, diag_geo, coalescing_geometry,
                                                 vanishing_A_uc):
    """One ODE solve per non-group column, three at most on the group contour.

    The solves are counted by :func:`isomonodromy.ode.counting`; that
    integrator keeps no dense output at all.
    """
    for fs, k, geo, z, kind in _contour_cases(system_2x2, diag_geo, coalescing_geometry,
                                               vanishing_A_uc):
        with ode.counting() as work:
            laplace_column(fs, k, 0, geo, z, arg=float(np.angle(z[0])), tol=1e-13,
                           contour="group" if kind == "group" else "hairpin")
        if kind == "group":
            # leg continuation to the disc, leg integrals, disc circle
            assert 2 <= work.solves <= 3
        else:
            assert work.solves == 1, kind


def test_adaptive_quad_warns_at_depth_limit(caplog):
    def step(ts):
        return np.where(ts < 1.0 / 3.0, 0.0, 1.0)

    with caplog.at_level(logging.WARNING, logger="isomonodromy.laplace"):
        _, err = adaptive_quad(step, 0.0, 1.0, 1e-13, max_depth=3)
    assert err > 1e-13
    assert any("max_depth" in rec.getMessage() and rec.levelno == logging.WARNING
               for rec in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="isomonodromy.laplace"):
        val, _ = adaptive_quad(np.cos, 0.0, 1.0, 1e-13)
    assert abs(val - math.sin(1.0)) < 1e-13
    assert not caplog.records


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
        laplace_column(fs, 0, 0, diag_geo, _ray([50.0], theta), arg=theta)


# ---------------------------------------------------------------------------
# asymptotic coefficients and fit
# ---------------------------------------------------------------------------


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
    cols = [laplace_column(fs, k, 0, diag_geo, z, arg=theta, tol=1e-13).reduced
            for k in range(2)]
    F, cond, resid = asymptotic_fit(z, cols, fs.lambda_prime, 3,
                                    args=[theta] * len(z))
    assert max(np.max(np.abs(Fl)) for Fl in F) < 1e-8
    assert resid < 1e-8


def test_asymptotic_fit_generic(system_2x2, diag_geo):
    fs = build_fuchsian(system_2x2)
    theta = TAU - 0.5 * math.pi
    z = _ray(np.geomspace(10, 1000, 16), theta)
    cols = [laplace_column(fs, k, 0, diag_geo, z, arg=theta, tol=1e-13).reduced
            for k in range(2)]
    F, cond, resid = asymptotic_fit(z, cols, fs.lambda_prime, 6,
                                    args=[theta] * len(z))
    assert np.max(np.abs(F[0] - f1(system_2x2))) < 1e-4


def test_asymptotic_fit_negative_control(system_2x2, diag_geo):
    """Samples mixed across sectors have no 1/z expansion: residual blows up."""
    from isomonodromy.stokes import stokes_pipeline

    fs = build_fuchsian(system_2x2)
    pair = stokes_pipeline(system_2x2, diag_geo, tol=1e-12)
    theta = TAU + 0.5 * math.pi  # inside sector 1's pinned range, outside S_0
    z = _ray(np.geomspace(8, 50, 12), theta)
    cols1 = [laplace_column(fs, k, 1, diag_geo, z, arg=theta, tol=1e-12).reduced
             for k in range(2)]
    # Y_0 = Y_1 S_0^{-1} continued outside its own sector
    Sinv = np.linalg.inv(pair.S_nu)
    exps = [np.exp(np.outer(z, fs.u[m])).T for m in range(2)]
    raw1 = np.stack([cols1[m] * np.exp(z * fs.u[m])[:, None] for m in range(2)])
    y0 = np.einsum("kzn,km->mzn", raw1, Sinv)
    cols0_out = [y0[m] * np.exp(-z * fs.u[m])[:, None] for m in range(2)]
    _, _, resid_good = asymptotic_fit(z, cols1, fs.lambda_prime, 4,
                                      args=[theta] * len(z))
    _, _, resid_bad = asymptotic_fit(z, cols0_out, fs.lambda_prime, 4,
                                     args=[theta] * len(z))
    assert resid_bad > 1e3 * max(resid_good, 1e-12)


def test_asymptotic_fit_ill_conditioned():
    z = _ray(np.geomspace(10, 12, 12), 0.3)
    cols = [np.ones((12, 2), dtype=complex) for _ in range(2)]
    with pytest.raises(IllConditioned):
        asymptotic_fit(z, cols, np.array([0.1, 0.2]), 11, args=[0.3] * 12)


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
        z = _ray([6.0, 9.0, 14.0] if kind != "group" else [12.0, 18.0], theta)
        specs = [laplace.ColumnSpec(j, h, z, theta,
                                    "group" if kind == "group" and geo.group_of(j) == 0
                                    else "hairpin")
                 for h in (0, 1) for j in range(fs.n)]
        cases.append((fs, geo, specs, kind))
    return cases


def test_batched_columns_match_one_at_a_time(system_2x2, diag_geo, coalescing_geometry,
                                             vanishing_A_uc):
    """One batch of every column agrees with laplace_column per column, all contour kinds."""
    for fs, geo, specs, kind in _batch_cases(system_2x2, diag_geo, coalescing_geometry,
                                             vanishing_A_uc):
        with ode.counting() as work:
            batch = laplace.laplace_columns(fs, geo, specs, tol=1e-13)
        # group junctions beyond the series zone take the one earlier solve
        assert work.solves == (2 if kind == "group" else 1), kind
        for spec, col in zip(specs, batch):
            lone = laplace_column(fs, spec.k, spec.h, geo, spec.z, arg=spec.arg, tol=1e-13,
                                  contour=spec.contour)
            scale = float(np.max(np.abs(lone.reduced)))
            assert np.max(np.abs(col.reduced - lone.reduced)) <= 1e-10 * scale, (kind, spec)
            assert (col.k, col.label, col.eta_used) == (lone.k, lone.label, lone.eta_used)


def _carry_dense_reference(fs, pieces, cont_tol):
    """The batched carry with the dense residue matrices sum_k B_k/(lam - u_k) per piece."""
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

    rtol, atol = carry_tolerances(cont_tol, min(n * (1 + p.z.size) for p in pieces), y0.size)
    sol = solve_ivp(rhs, (0.0, 1.0), y0.ravel(), method="DOP853", rtol=rtol, atol=atol)
    y = sol.y[:, -1].reshape(P, 1 + m, n)
    return [(y[i, 0], y[i, 1:1 + p.z.size]) for i, p in enumerate(pieces)]


def test_carry_applies_rank_one_residues(monkeypatch, system_2x2, diag_geo,
                                         coalescing_geometry, vanishing_A_uc):
    """The carried values match those of the dense residue matrices."""
    batches = []
    carry = laplace.carry

    def recorded(fs, pieces, tol):
        out = carry(fs, pieces, tol)
        batches.append((fs, pieces, tol, out))
        return out

    monkeypatch.setattr(laplace, "carry", recorded)
    for fs, geo, specs, _ in _batch_cases(system_2x2, diag_geo, coalescing_geometry,
                                          vanishing_A_uc):
        laplace.laplace_columns(fs, geo, specs, tol=1e-13)
    monkeypatch.undo()
    assert any(p.c != 0 for _, pieces, _, _ in batches for p in pieces)  # circles included
    for fs, pieces, tol, out in batches:
        ref = _carry_dense_reference(fs, pieces, tol)
        for p, end, (psi_ref, J_ref) in zip(pieces, out, ref):
            psi, J = end if p.z.size else (end, J_ref)
            assert np.max(np.abs(psi - psi_ref)) <= 1e-10 * np.max(np.abs(psi_ref))
            if J_ref.size:
                assert np.max(np.abs(J - J_ref)) <= 1e-10 * np.max(np.abs(J_ref))
