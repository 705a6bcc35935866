"""The in-package DOP853 against scipy.integrate.solve_ivp, bit for bit, and its work counter."""

import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from conftest import draw_system
from isomonodromy import continuation, deformation, laplace, ode
from isomonodromy.deformation import integrability_residual, radial_family
from isomonodromy.frobenius import build_fuchsian
from isomonodromy.model import DeformationGeometry, SystemPair
from isomonodromy.stokes import _matching_ray, stokes_pair_direct, stokes_pipeline


def _record(monkeypatch, module):
    """Record the arguments of every solve_ivp call made from ``module``."""
    calls = []

    def recorded(fun, t_span, y0, **kwargs):
        calls.append((fun, t_span, np.array(y0), kwargs))
        return ode.solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(module, "solve_ivp", recorded)
    return calls


def _assert_identical(fun, t_span, y0, **kwargs):
    """One solve by both integrators: same end state, outcome, nfev and accepted times."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy's rtol-floor and overflow warnings
        ref = scipy_solve_ivp(fun, t_span, y0, **kwargs)
        out = ode.solve_ivp(fun, t_span, y0, **kwargs)
    assert out.y.shape == (y0.size, 1)
    assert np.array_equal(out.y[:, -1], ref.y[:, -1])
    assert (out.success, out.message, out.nfev) == (ref.success, ref.message, ref.nfev)
    assert np.array_equal(out.t, ref.t)
    return ref


def test_oracle_pair_carry_batches_are_bit_identical(monkeypatch):
    """The two Laplace batches of an oracle pair; the formula route makes no DOP853 solve."""
    system, tau = draw_system(np.random.default_rng(3), 3, min_gap=0.35)
    geometry = DeformationGeometry(system.u, 1e-3, tau)
    calls = _record(monkeypatch, continuation)
    stokes_pipeline(system, geometry)
    assert not calls
    stokes_pair_direct(system, geometry)
    assert len(calls) == 2
    for fun, t_span, y0, kwargs in calls:
        _assert_identical(fun, t_span, y0, **kwargs)


def test_oracle_carry_with_a_circle_piece_is_bit_identical(monkeypatch, coalescing_geometry,
                                                           vanishing_A_uc):
    """The Laplace columns of a coalescing system, group contours included."""
    geo = coalescing_geometry
    seed = SystemPair(vanishing_A_uc, [0.03, -0.03, 1.0])
    fs = build_fuchsian(radial_family(seed, geo.u_c, [1.0], tol=1e-12)[0].system())
    theta = _matching_ray(geo, 0)
    z = np.array([12.0, 18.0]) * np.exp(1j * theta)
    specs = [laplace.ColumnSpec(j, h, z, theta, "group" if geo.group_of(j) == 0 else "hairpin")
             for h in (0, 1) for j in range(fs.n)]
    pieces = []
    carry = laplace.carry

    def recorded_carry(fs, batch, tol):
        pieces.extend(batch)
        return carry(fs, batch, tol)

    monkeypatch.setattr(laplace, "carry", recorded_carry)
    calls = _record(monkeypatch, continuation)
    laplace.laplace_columns(fs, geo, specs, tol=1e-13)
    assert any(p.c != 0 for p in pieces)  # the group disc circle is carried
    assert len(calls) == 2
    for fun, t_span, y0, kwargs in calls:
        _assert_identical(fun, t_span, y0, **kwargs)


def test_schlesinger_stack_is_bit_identical(monkeypatch):
    system, _ = draw_system(np.random.default_rng(44), 4)
    calls = _record(monkeypatch, deformation)
    integrability_residual(system, tol=1e-12)
    [(fun, t_span, y0, kwargs)] = calls
    _assert_identical(fun, t_span, y0, **kwargs)


def test_rtol_below_the_floor_is_raised_to_it():
    M = np.array([[0.0, 1.0], [-4.0, 0.1j]])
    ref = _assert_identical(lambda t, y: M @ y, (0.0, 3.0), np.array([1.0, 0.5j]),
                            method="DOP853", rtol=1e-17, atol=1e-20)
    assert ref.success and len(ref.t) > 10


def test_too_small_step_fails_as_scipy_does():
    ref = _assert_identical(lambda t, y: y / (0.5 - t) ** 2, (0.0, 1.0),
                            np.ones(3, dtype=complex), method="DOP853", rtol=1e-10, atol=1e-12)
    assert not ref.success
    assert ref.message == ode.TOO_SMALL_STEP


def test_only_dop853():
    with pytest.raises(ValueError):
        ode.solve_ivp(lambda t, y: y, (0.0, 1.0), np.ones(2), method="RK45")


def test_counter_totals_equal_scipy_on_the_same_batch(monkeypatch):
    """solves, accepted steps and nfev of one oracle pair, as scipy counts them."""
    system, tau = draw_system(np.random.default_rng(7), 4, min_gap=0.35)
    calls = _record(monkeypatch, continuation)
    with ode.counting() as work:
        with ode.counting() as inner:
            stokes_pair_direct(system, DeformationGeometry(system.u, 1e-3, tau))
        ode.solve_ivp(lambda t, y: -y, (0.0, 1.0), np.ones(2))
    refs = [scipy_solve_ivp(fun, t_span, y0, **kwargs) for fun, t_span, y0, kwargs in calls]
    expected = (len(refs), sum(len(r.t) - 1 for r in refs), sum(r.nfev for r in refs))
    assert (inner.solves, inner.steps, inner.nfev) == expected
    assert work.solves == inner.solves + 1 and work.steps > inner.steps
    assert ode._open.get() == ()
