import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isomonodromy import model
from isomonodromy.model import (
    ANGLE_TOL,
    CutPlane,
    DeformationGeometry,
    NonAdmissibleError,
    Ordering,
    SystemPair,
    angular_distance_mod_pi,
    exponent_class,
    is_in_cell,
    sector_bounds,
    stokes_ray_directions,
)
from isomonodromy.stokes import stokes_pair_direct, stokes_pipeline

PI = math.pi


def test_ray_directions_two_real_poles():
    rays, skipped = stokes_ray_directions([0.0, 1.0])
    assert skipped == []
    assert rays[(0, 1)] == pytest.approx(PI / 2)
    assert rays[(1, 0)] == pytest.approx(3 * PI / 2)


def test_ray_directions_imaginary_separation():
    # u_1 - u_2 = -i: Re(-i e^{i th}) = sin th = 0, Im = -cos th < 0 -> th = 0
    rays, _ = stokes_ray_directions([0.0, 1.0j])
    assert rays[(0, 1)] == pytest.approx(0.0)
    assert rays[(1, 0)] == pytest.approx(PI)


def test_ray_directions_defining_equations():
    rng = np.random.default_rng(3)
    u = rng.normal(size=4) + 1j * rng.normal(size=4)
    rays, _ = stokes_ray_directions(u)
    for (j, k), th in rays.items():
        w = (u[j] - u[k]) * cmath.exp(1j * th)
        assert abs(w.real) < 1e-12
        assert w.imag < 0


def test_ray_directions_skip_coalesced():
    rays, skipped = stokes_ray_directions([0.0, 1.0, 1.0])
    assert (1, 2) in skipped and (2, 1) in skipped
    assert (0, 1) in rays and (0, 2) in rays


@given(
    st.lists(
        st.complex_numbers(min_magnitude=0, max_magnitude=5, allow_nan=False,
                           allow_infinity=False),
        min_size=2, max_size=5,
    )
)
@example([0j, 2 + 5e-324j])  # an angle that underflows to a subnormal
@example([1.5j, 1.8797085536676895e-15 - 2j])  # one ray rounds to 0, its pair to 2 pi - 1 ulp
@settings(max_examples=60, deadline=None)
def test_rays_come_in_antipodal_pairs(u):
    rays, _ = stokes_ray_directions(u)
    for (j, k), th in rays.items():
        d = (rays[(k, j)] - th - PI) % (2 * PI)  # directions compared mod 2 pi
        assert min(d, 2 * PI - d) <= 1e-9


def test_label_rays_single_pair():
    labels = DeformationGeometry([0.0, 1.0], 1e-3, PI / 4).labels
    mu = labels.mu
    assert mu == 1
    assert labels.tau_nu(0) == pytest.approx(-PI / 2)
    assert labels.tau_nu(1) == pytest.approx(PI / 2)
    # tau_{nu+mu} = tau_nu + pi for all nu
    for m in range(-3, 4):
        assert labels.tau_nu(m + mu) == pytest.approx(labels.tau_nu(m) + PI)


def test_label_rays_coalesced_pair_generates_no_ray():
    assert DeformationGeometry([0.0, 1.0, 1.0], 1e-3, PI / 4).labels.mu == 1


def test_label_rays_three_distinct_points():
    # derived by enumerating all six rays and counting classes mod pi
    labels = DeformationGeometry([0.0, 1.0, 1.0j], 1e-3, 0.1).labels
    assert labels.mu == 3
    rays, _ = stokes_ray_directions([0.0, 1.0, 1.0j])
    classes = {round((th % PI), 6) for th in rays.values()}
    assert len(classes) == 3
    # every labelled ray matches one of the computed directions mod 2 pi
    for m in range(-4, 5):
        t = labels.tau_nu(m) % (2 * PI)
        assert any(abs(cmath.exp(1j * t) - cmath.exp(1j * th)) < 1e-9
                   for th in rays.values())


def test_label_rays_mu_invariant_under_window():
    # mu must not depend on which length-pi window is used to count
    u = [0.0, 1.0, 0.3 + 0.8j]
    rays, _ = stokes_ray_directions(u)
    classes = {round(th % PI, 9) for th in rays.values()}
    all_rays = sorted({round((th + s * PI) % (2 * PI), 9) % (2 * PI)
                       for th in rays.values() for s in (0, 1)})
    for start in np.linspace(0.01, 2 * PI, 23):
        count = sum(1 for r in all_rays if start <= r < start + PI
                    or start <= r + 2 * PI < start + PI)
        assert count == len(classes)
    assert DeformationGeometry(u, 1e-3, 0.05).labels.mu == len(classes)


def test_label_rays_rejects_ray_direction():
    with pytest.raises(NonAdmissibleError) as exc:
        DeformationGeometry([0.0, 1.0], 1e-3, PI / 2)
    assert exc.value.suggestion is not None
    # the suggestion itself must be admissible
    DeformationGeometry([0.0, 1.0], 1e-3, exc.value.suggestion)


def test_suggested_tau_bisects_the_widest_gap():
    """u = (0, 1, i) has classes 0, pi/2 and 3 pi/4 mod pi: gaps pi/2, pi/4, pi/4.

    The suggestion must lie half the widest gap, pi/4, from its nearest
    class; reps[i] - gaps[i]/2 would put it on the class at 3 pi/4.
    """
    u = [0.0, 1.0, 1.0j]
    with pytest.raises(NonAdmissibleError) as exc:
        DeformationGeometry(u, 1e-3, 0.0)
    s = exc.value.suggestion
    assert min(angular_distance_mod_pi(s, r) for r in (0.0, PI / 2, 3 * PI / 4)) == \
        pytest.approx(PI / 4, abs=1e-12)
    assert DeformationGeometry(u, 1e-3, s).labels.mu == 3


@pytest.mark.parametrize("u", [[1.5j, 1.8797085536676895e-15 - 2j],
                               [1.8797085536676895e-15 - 2j, 1.5j]])
def test_classes_merge_across_the_mod_pi_wrap(u):
    """Collinear vertical poles: the two rays read 0.0 and a few ulp below pi, one class mod pi.

    Both orders of the poles: the class rep is whichever ray comes first, so
    each side of the wrap is matched against the other.
    """
    lo, hi = sorted(stokes_ray_directions(u)[0].values())
    assert lo == 0.0 and 0.0 < PI - hi < 1e-15
    geo = DeformationGeometry(u, 0.1, 0.7)
    assert len(geo.rotation) == 1 and geo.mu == 1


@pytest.mark.parametrize("u_c, epsilon0, tau, name", [
    ([0.0, 1.0], math.nan, PI / 4, "epsilon0"),
    ([0.0, 1.0], math.inf, PI / 4, "epsilon0"),
    ([0.0, 1.0], -0.05, PI / 4, "epsilon0"),
    ([0.0, 1.0], 0.0, PI / 4, "epsilon0"),
    ([0.0, 1.0], 0.08, math.inf, "tau"),
    ([0.0, 1.0], 0.08, math.nan, "tau"),
    ([0.0, complex(math.nan, 0.0)], 0.08, PI / 4, "u_c"),
    ([0.0, complex(0.0, math.inf)], 0.08, PI / 4, "u_c"),
])
def test_geometry_rejects_out_of_range_values(u_c, epsilon0, tau, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        DeformationGeometry(u_c, epsilon0, tau)


@pytest.mark.parametrize("u", [[0.0, math.nan, 1.0], [0.0, complex(0.0, math.inf), 1.0]])
def test_ray_directions_reject_a_non_finite_u(u):
    """A NaN or infinite pole is refused by name, not turned into NaN rays."""
    with pytest.raises(ValueError, match="^u must be finite"):
        stokes_ray_directions(u)


def _max_epsilon0_loop(geo):
    """The least half-distance between the cut half-lines of two groups, on numpy scalars:
    the cut-plane picture of the largest admissible epsilon0."""
    e = cmath.exp(1j * geo.eta)
    best = math.inf
    vals = geo.group_values
    for a in range(len(vals)):
        for b in range(len(vals)):
            if a == b:
                continue
            d = vals[a] - vals[b]
            rho = max(0.0, (-d * np.conj(e)).real)
            best = min(best, abs(d + rho * e) / 2.0)
    return best


def test_geometry_admits_epsilon0_up_to_the_cut_half_distance():
    """The one admissibility rule, validate() > 0, against the cut half-lines: on random poles
    in and out of groups and random tau, the constructor accepts epsilon0 a relative 1e-9
    below the least half-distance and refuses it 1e-9 above, naming epsilon0."""
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        u = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        u[rng.integers(n)] = u[0]  # sometimes a coalesced pair
        tau = float(rng.uniform(0.0, PI))
        try:
            geo = DeformationGeometry(u, 1e-6, tau)
        except ValueError:  # tau on a ray, or one group
            continue
        dmax = _max_epsilon0_loop(geo)
        assert DeformationGeometry(u, dmax * (1 - 1e-9), tau).validate() > 0
        with pytest.raises(ValueError, match=r"^epsilon0=\S+ is not admissible: .* \(margin "):
            DeformationGeometry(u, dmax * (1 + 1e-9), tau)
        checked += 1
    assert checked > 100


def test_ray_geometry_is_built_once_per_geometry(monkeypatch, system_2x2):
    """One pass over the pairs per geometry; the Stokes routes, sectors and validate() reuse it."""
    calls = []
    build = model._ray_classes
    monkeypatch.setattr(model, "_ray_classes", lambda *args: calls.append(args) or build(*args))
    geo = DeformationGeometry(system_2x2.u, 1e-3, PI / 4)
    assert len(calls) == 1
    stokes_pair_direct(system_2x2, geo)
    stokes_pipeline(system_2x2, geo)
    for h in (-1, 0, 1, 2):
        sector_bounds(h * geo.mu, geo, shrink=True)
    geo.validate()
    assert len(calls) == 1


def test_sector_bounds_at_uc(geometry_2x2):
    lo, hi = sector_bounds(0, geometry_2x2)
    assert lo == pytest.approx(-3 * PI / 2)
    assert hi == pytest.approx(PI / 2)
    # h = 1 shifts both bounds by pi
    lo1, hi1 = sector_bounds(1, geometry_2x2)
    assert lo1 == pytest.approx(lo + PI)
    assert hi1 == pytest.approx(hi + PI)


def test_sector_shrinkage_conservative(geometry_2x2):
    """Sampled ray rotation over the polydisc never exceeds the bound used."""
    geo = geometry_2x2
    lo, hi = sector_bounds(0, geo)
    lo_s, hi_s = sector_bounds(0, geo, shrink=True)
    assert lo <= lo_s < hi_s <= hi
    assert hi_s - lo_s > PI  # opening stays > pi
    (_, bound), = geo.rotation
    assert bound <= 2 * math.asin(2 * geo.epsilon0 / abs(geo.u_c[0] - geo.u_c[1]))
    base = (1.5 * PI - cmath.phase(geo.u_c[0] - geo.u_c[1])) % (2 * PI)
    worst = 0.0
    for ph1 in np.linspace(0, 2 * PI, 64, endpoint=False):
        for ph2 in np.linspace(0, 2 * PI, 64, endpoint=False):
            u0 = geo.u_c[0] + geo.epsilon0 * cmath.exp(1j * ph1)
            u1 = geo.u_c[1] + geo.epsilon0 * cmath.exp(1j * ph2)
            th = (1.5 * PI - cmath.phase(u0 - u1)) % (2 * PI)
            d = abs(th - base)
            worst = max(worst, min(d, 2 * PI - d))
    assert worst <= bound + 1e-12


def test_sector_overlap_contains_tau_and_no_rays(coalescing_geometry):
    geo = coalescing_geometry
    mu = geo.mu
    lo0, hi0 = sector_bounds(0, geo, shrink=True)
    lo1, hi1 = sector_bounds(mu, geo, shrink=True)
    lo, hi = max(lo0, lo1), min(hi0, hi1)
    assert lo < geo.tau < hi
    rays, _ = stokes_ray_directions(geo.u_c)
    for th in rays.values():
        for shift in range(-2, 3):
            assert not (lo < th + shift * PI < hi)


def test_shrunk_sector_bounds_need_a_multiple_of_mu():
    """Only a label h mu is pinned to the admissible direction tau + h pi."""
    geo = DeformationGeometry([0.0, 1.0, 1j], 0.05, 0.35)
    assert geo.mu == 3
    with pytest.raises(ValueError,
                       match="^shrunk bounds need a label that is a multiple of mu=3; got 4$"):
        sector_bounds(4, geo, shrink=True)


def test_is_in_cell_at_uc_fails_by_coalescence(coalescing_geometry):
    ok, offenders = is_in_cell(coalescing_geometry.u_c, coalescing_geometry)
    assert not ok
    assert (0, 1, "coalescence") in offenders


def test_is_in_cell_admissible_point(coalescing_geometry):
    ok, offenders = is_in_cell([0.01, -0.01, 1.0], coalescing_geometry)
    assert ok and offenders == []


def test_is_in_cell_constructed_ray_offender(coalescing_geometry):
    # put the pair's separation exactly at arg = 3 pi/2 - tau so its ray sits on tau
    geo = coalescing_geometry
    d = 1e-3 * cmath.exp(1j * (1.5 * PI - geo.tau))
    u = [0.5 * d, -0.5 * d, 1.0]
    ok, offenders = is_in_cell(u, geo)
    assert not ok
    assert (0, 1, "ray_on_tau") in offenders



@pytest.mark.parametrize("offset", [0.0, 1e-13, 1e-11, 1e-6])
def test_cell_test_and_ordering_share_the_tie(coalescing_geometry, offset):
    """Near a crossing-locus hit the cell test and the ordering call the same pairs ties."""
    geo = coalescing_geometry
    phi = 0.5 * PI - geo.tau  # u_0 = epsilon0 e^{i phi} puts the (0, 1) ray on tau
    u = np.array([geo.epsilon0 * cmath.exp(1j * (phi + offset)), 0.0, 1.0])
    tie = offset < ANGLE_TOL
    ok, offenders = is_in_cell(u, geo)
    assert ok != tie and offenders == ([(0, 1, "ray_on_tau")] if tie else [])
    if tie:
        with pytest.raises(NonAdmissibleError, match=r"pair \(0,1\)"):
            Ordering(u, geo.tau)
    else:
        assert Ordering(u, geo.tau).sign[0, 1] == -1  # s_01 = -epsilon0 sin(offset)

def test_epsilon0_validation_on_sampled_grid(coalescing_geometry):
    geo = coalescing_geometry
    assert geo.validate() > 0
    rng = np.random.default_rng(11)
    for _ in range(200):
        u = geo.u_c + geo.epsilon0 * (
            rng.uniform(0, 1, 3) * np.exp(2j * PI * rng.uniform(0, 1, 3))
        )
        rays, _ = stokes_ray_directions(u)
        for (j, k), th in rays.items():
            if not geo.in_group[j, k]:
                assert angular_distance_mod_pi(th, geo.tau) > 1e-9


def test_in_group_masks_the_coalescing_pairs():
    geo = DeformationGeometry([0.0, 0.0, 1.0, 2.0, 1.0], 0.01, 0.35)
    assert geo.groups == ((0, 1), (2, 4), (3,))
    expected = np.zeros((5, 5), dtype=bool)
    for a, b in ((0, 1), (2, 4)):
        expected[a, b] = expected[b, a] = True
    assert np.array_equal(geo.in_group, expected)


def test_epsilon0_must_be_below_cut_line_distance():
    with pytest.raises(ValueError):
        DeformationGeometry([0.0, 1.0], 0.6, PI / 4)


def test_cut_plane_branch_window():
    cut = CutPlane(eta=1.0)
    a = cut.arg_from(1.0 + 0.0j, 0.0j)
    assert cut.eta - 2 * PI < a < cut.eta
    assert a == pytest.approx(0.0)
    b = cut.arg_from(cmath.exp(1j * 2.0), 0.0j)
    assert b == pytest.approx(2.0 - 2 * PI)


def _arg_by_turns(eta, a):
    """The reduction arg_from replaced: one 2 pi turn at a time, and the turns taken."""
    turns = 0
    while a >= eta:
        a, turns = a - 2 * PI, turns + 1
    while a < eta - 2 * PI:
        a, turns = a + 2 * PI, turns + 1
    return a, turns


def test_arg_from_equals_the_turn_by_turn_reduction():
    """Where one turn of 2 pi at most brings the phase into [eta - 2 pi, eta), arg_from
    takes it as that one step, bit for bit; past it, within 4 ulp of the turn-by-turn
    loop.  The grid holds |eta| <= 3 pi and every window edge: eta at each phase a, at
    a +- 2 pi, and one float either side of each."""
    points = ([cmath.rect(1.0, t) for t in np.linspace(-PI, PI, 49)]
              + [1.0, -1.0, complex(-1.0, -0.0), 1j, -1j, complex(0.3, -0.0)])
    one_step = 0
    for z in points:
        a = cmath.phase(z)
        edges = [e for x in (a, a + 2 * PI, a - 2 * PI)
                 for e in (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf))]
        for eta in edges + np.linspace(-3 * PI, 3 * PI, 61).tolist():
            if abs(eta) > 3 * PI:
                continue
            got = CutPlane(eta=eta).arg_from(complex(z), 0j)
            want, turns = _arg_by_turns(eta, a)
            if turns <= 1:
                one_step += 1
                assert got.hex() == want.hex(), (a, eta)
            else:
                assert abs(got - want) <= 4 * math.ulp(want), (a, eta)
    assert one_step > 1000


def test_arg_from_takes_every_turn_at_once():
    """A large |eta| costs one step: eta = 1e17, whose float spacing exceeds 2 pi, returns,
    and eta = 1e6 lands in the window within its float spacing."""
    for eta in (1e17, -1e17, 1e300):
        assert math.isfinite(CutPlane(eta=eta).arg_from(1j, 0j))
    for eta in (1e6, -1e6):
        a = CutPlane(eta=eta).arg_from(-1 - 1j, 0j)
        assert eta - 2 * PI - 1e-9 <= a < eta + 1e-9
        assert abs(math.remainder(a - cmath.phase(-1 - 1j), 2 * PI)) < 1e-9


def test_geometry_refuses_a_tau_no_ray_test_resolves():
    """A tau whose float spacing exceeds ANGLE_TOL (|tau| from 2^23 up) is refused."""
    DeformationGeometry([0.0, 1.0], 1e-3, 2.0 ** 23 - 0.2)
    for tau in (2.0 ** 23, 1e9, -1e17):
        with pytest.raises(ValueError, match="float spacing .* exceeds ANGLE_TOL"):
            DeformationGeometry([0.0, 1.0], 1e-3, tau)


def test_system_pair_validation():
    with pytest.raises(ValueError):
        SystemPair(np.eye(3), [0.0, 1.0])
    sp = SystemPair(np.diag([0.5, -2.0, 1.0]), [0.0, 1.0, 2.0])
    assert [exponent_class(lp) for lp in sp.lambda_prime] == [
        "noninteger", "negative_integer", "natural"]


def test_system_pair_keeps_its_own_copies():
    """Changing the caller's A or u after SystemPair(A, u) moves neither A, its diagonal
    nor A+I."""
    A = np.array([[0.5, 2.0], [3.0, 1 / 3]], dtype=complex)
    u = np.array([0.0, 1.0], dtype=complex)
    sp = SystemPair(A, u)
    A[0, 0], A[1, 0], u[1] = 7.0, -1.0, 5.0
    assert np.array_equal(sp.A, [[0.5, 2.0], [3.0, 1 / 3]])
    assert np.array_equal(sp.A_plus_I, sp.A + np.eye(2))
    assert np.array_equal(sp.lambda_prime, [0.5, 1 / 3])
    assert np.array_equal(sp.u, [0.0, 1.0])
    assert [sp.integer_class(k) for k in range(2)] == ["noninteger", "noninteger"]
    assert sp.min_gap(0) == sp.validity_radius(0) / 0.75 == 1.0


@pytest.mark.parametrize("name", ["A", "u", "lambda_prime", "A_plus_I"])
def test_system_pair_is_read_only(name):
    """An in-place edit of the pair's arrays raises, so A, its diagonal and A+I cannot split:
    ``sp.A[0, 0] = 5`` would leave A_plus_I[0, 0] at 1.5."""
    sp = SystemPair([[0.5, 2.0], [3.0, 0.25]], [0.0, 1.0])
    with pytest.raises(ValueError, match="read-only"):
        getattr(sp, name)[0] = 5.0
    assert sp.A_plus_I[0, 0] == 1.5 and sp.lambda_prime[0] == 0.5


@pytest.mark.parametrize("A", [[[0.5, 2.0, 1.0], [3.0, 0.25, 1.0]], [0.5, 2.0]])
def test_system_pair_refuses_an_A_that_is_not_square(A):
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \((2, 3|2,)\)$"):
        SystemPair(A, [0.0, 1.0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
def test_system_pair_refuses_an_entry_that_is_not_finite(bad):
    """A or u with an entry that is not finite is a ValueError naming it: before, a library
    call such as connection_coefficients met it as a numpy warning in its local series."""
    A = np.array([[0.5, 2.0], [3.0, 1 / 3]], dtype=complex)
    with pytest.raises(ValueError, match="^u is not finite"):
        SystemPair(A, [0.0, bad])
    A[1, 0] = bad
    with pytest.raises(ValueError, match="^A is not finite"):
        SystemPair(A, [0.0, 1.0])
