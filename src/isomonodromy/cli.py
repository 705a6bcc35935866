"""Command-line entry point: rays, stokes, deform, levelt, check.

A problem file is JSON with complex numbers as [re, im] pairs, matrices
row-major and angles in radians::

    {
      "schema_version": 1,
      "A": [[[0.5,0],[2,0]],[[3,0],[0.3333333333333333,0]]],
      "u": [[0,0],[1,0]],
      "u_c": [[0,0],[1,0]],          // optional, defaults to u
      "epsilon0": 0.1,
      "tau": 0.7853981633974483,
      "tol": 1e-10,                  // optional
      "order": 40,                   // optional series order
      "formal_order": 4,             // optional number of F_l
      "paths": [[[0,0],[1,0],[0.2,0]], ...]   // deform: per-path waypoints (at least
                                              // one, each a full u vector), from u on
    }

Any other key is an error; every number is a JSON number, and schema_version,
order and formal_order are JSON integers.  The file alone sets every value a
command reads: no command takes an option that overrides one.

Reports are deterministic JSON (sorted keys, no timestamps, no NaN or
infinity) with five keys: schema_version, command, metadata (tolerance,
series_order, seed, versions), stages and results.  Each stage record has a
name and a status (ok, failed with its error, or skipped); an ok stage also
records the work it made.  The results of stokes, levelt and check tag each
computed block with its method; rays and deform report plain values.
Exit codes: 0 ok, 2 problem-file error, 3 numerical failure.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path as FsPath

import click
import numpy as np

from . import __version__
from .model import (
    MAX_FACTORIAL,
    BadGamma,
    BasisSingular,
    CutPlane,
    DeformationGeometry,
    DriftExceeded,
    IllConditioned,
    MatchingInconsistent,
    NonAdmissibleError,
    QuadratureDivergence,
    ResonanceAmbiguity,
    SingularF1,
    StepFailure,
    SystemPair,
    _group_partition,
    sector_bounds,
    stokes_ray_directions,
)
from .ode import MAX_ORDER, counting

# No command loads scipy, and each imports the layer it runs in its body: ``rays``
# loads model and ode alone, ``check`` adds deformation, ``levelt`` frobenius, and
# ``stokes`` and ``deform`` the Fuchsian layer (frobenius, continuation, laplace, stokes).

SCHEMA_VERSION = 1
SPEC_KEYS = ("schema_version", "A", "u", "u_c", "epsilon0", "tau", "tol", "order",
             "formal_order", "paths")

NUMERICAL_ERRORS = (
    StepFailure,
    DriftExceeded,
    IllConditioned,
    BasisSingular,
    QuadratureDivergence,
    SingularF1,
    MatchingInconsistent,
    ResonanceAmbiguity,
    BadGamma,
    NonAdmissibleError,
    np.linalg.LinAlgError,
)


class SpecError(ValueError):
    """Problem file failed to parse or validate."""


def _pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def _num(x, name):
    """The JSON number ``x`` of field ``name`` as a float: a boolean, a string or an integer
    past the float range is an error."""
    if type(x) is float or (type(x) is int and abs(x) <= sys.float_info.max):
        return float(x)
    raise SpecError(f"{name}: expected a JSON number in the float range, got {x!r:.40}")


def _cplx(pair, name):
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise SpecError(f"{name}: expected [re, im] pair, got {pair!r}")
    return complex(_num(pair[0], name), _num(pair[1], name))


def _vec(vals, name):
    return np.array([_cplx(p, name) for p in vals], dtype=complex)


def mat_json(M):
    M = np.atleast_2d(np.asarray(M))
    return [[_pair(x) for x in row] for row in M]


def vec_json(v):
    return [_pair(x) for x in np.asarray(v).ravel()]


class ProblemSpec:
    """A validated problem: every number finite, and every difference u_j - u_k of u, u_c and
    a waypoint, epsilon0 > 0, tol > 0, 3 <= order <= MAX_ORDER and
    1 <= formal_order <= MAX_FACTORIAL."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise SpecError("a problem file holds one JSON object")
        unknown = sorted(set(data) - set(SPEC_KEYS))
        if unknown:
            raise SpecError(f"unknown key(s) {', '.join(map(repr, unknown))}; a problem file "
                            f"holds only {', '.join(SPEC_KEYS)}")
        for key in ("schema_version", "order", "formal_order"):
            if key in data and type(data[key]) is not int:
                raise SpecError(f"{key} must be a JSON integer; got {data[key]!r}")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise SpecError(f"schema_version must be {SCHEMA_VERSION}; got "
                            f"{data.get('schema_version')!r}")
        try:
            self.A = np.array([_vec(row, "A") for row in data["A"]], dtype=complex)
            self.u = _vec(data["u"], "u")
            self.u_c = _vec(data["u_c"], "u_c") if "u_c" in data else self.u.copy()
            self.epsilon0 = _num(data["epsilon0"], "epsilon0")
            self.tau = _num(data["tau"], "tau")
            self.tol = _num(data.get("tol", 1e-10), "tol")
            self.order = data.get("order", 40)
            self.formal_order = data.get("formal_order", 4)
            self.paths = [[_vec(pt, "paths") for pt in path] for path in data.get("paths", [])]
        except SpecError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"invalid problem file: {exc}") from exc
        n = self.u.size
        if self.A.shape != (n, n):
            raise SpecError(f"A must be {n}x{n} to match u; got {self.A.shape}")
        if self.u_c.size != n:
            raise SpecError("u_c must have the same length as u")
        if any(not path or any(pt.size != n for pt in path) for path in self.paths):
            raise SpecError("every path needs at least one waypoint, each a full u vector")
        numbers = [("A", self.A), ("u", self.u), ("u_c", self.u_c), ("epsilon0", self.epsilon0),
                   ("tau", self.tau), ("tol", self.tol)]
        for name, value in numbers + [("paths", pt) for path in self.paths for pt in path]:
            if not np.all(np.isfinite(value)):
                raise SpecError(f"{name} must be finite")
        with np.errstate(over="ignore"):  # u_c's are checked by DeformationGeometry, below
            for name, x in [("u", self.u)] + [("paths", pt) for path in self.paths for pt in path]:
                if not np.isfinite(x - x[:, None]).all():
                    raise SpecError(f"{name}: a difference u_j - u_k leaves the float range")
        # a local series is summed where it converges at least as fast as a Taylor step,
        # which fails past MAX_ORDER orders, so orders past that add nothing; F_l carries
        # factors of about (l - 1)!, from the recursion and from the Gammas and factorials
        # of the local-series route, that leave the float range past MAX_FACTORIAL
        for rule, ok in (("epsilon0 > 0", self.epsilon0 > 0), ("tol > 0", self.tol > 0),
                         (f"3 <= order <= {MAX_ORDER}", 3 <= self.order <= MAX_ORDER),
                         (f"1 <= formal_order <= {MAX_FACTORIAL}",
                          1 <= self.formal_order <= MAX_FACTORIAL)):
            if not ok:
                raise SpecError(f"{rule} is required")
        try:
            self.geometry = DeformationGeometry(self.u_c, self.epsilon0, self.tau)
        except NonAdmissibleError as exc:
            raise SpecError(
                f"tau is not admissible at u_c: {exc}; nearest admissible "
                f"suggestion: {exc.suggestion}"
            ) from exc
        except ValueError as exc:
            raise SpecError(str(exc)) from exc

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecError(f"cannot read problem file {path}: {exc}") from exc

    def system(self):
        return SystemPair(self.A, self.u)


class Runner:
    """Stage runner producing a partial report on numerical failures."""

    def __init__(self, command, spec):
        self.report = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "metadata": {
                "tolerance": spec.tol,
                "series_order": spec.order,
                "seed": 0,
                "versions": {
                    "isomonodromy": __version__,
                    "numpy": np.__version__,
                },
            },
            "stages": [],
            "results": {},
        }
        self.failed = False

    def file(self, entries):
        """Merge ``entries`` into the results; a list already under a key is extended."""
        results = self.report["results"]
        for key, value in entries.items():
            if isinstance(results.get(key), list):
                results[key] += value
            else:
                results[key] = value

    def stage(self, name, fn, always=False):
        """Run ``fn`` and file the entries it returns; a ``fn`` of None, or any
        stage after a failed one unless ``always``, is recorded as skipped.
        An ok stage's record carries the work ``fn`` made (:func:`.ode.counting`)."""
        if fn is None or (self.failed and not always):
            self.report["stages"].append({"name": name, "status": "skipped"})
            return
        try:
            with counting() as work:
                entries = fn()
        except NUMERICAL_ERRORS as exc:
            self.report["stages"].append(
                {"name": name, "status": "failed",
                 "error": f"{type(exc).__name__}: {exc}"}
            )
            self.failed = True
            return
        self.report["stages"].append({"name": name, "status": "ok", "work": asdict(work)})
        self.file(entries)

    def write(self, out_dir, name):
        out_dir = FsPath(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.report, fh, sort_keys=True, indent=1, allow_nan=False)
            fh.write("\n")
        return path


def _write_csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) + "\n")


def _stokes_json(pair, **extra):
    return {
        "S_nu": mat_json(pair.S_nu),
        "S_nu_plus_mu": mat_json(pair.S_nu_plus_mu),
        "nu": 0,
        "method": pair.method,
        **extra,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Monodromy data of rank-1 irregular systems via Laplace transform."""


def _common_options(fn):
    """--spec and --out, the options of every command."""
    fn = click.option("--spec", "spec_path", required=True,
                      type=click.Path(exists=True), help="problem file (JSON)")(fn)
    return click.option("--out", "out_dir", default="out", show_default=True,
                        help="output directory")(fn)


def _load(spec_path, then=lambda spec: None):
    """The problem file, and ``then(spec)``.

    Every problem-file error, including those ``then`` raises, is reported
    as ``problem file error`` with exit code 2.
    """
    try:
        spec = ProblemSpec.load(spec_path)
        return spec, then(spec)
    except SpecError as exc:
        click.echo(f"problem file error: {exc}", err=True)
        sys.exit(2)


def _finish(runner, out_dir, name):
    path = runner.write(out_dir, name)
    click.echo(f"report: {path}")
    if runner.failed:
        sys.exit(3)


@main.command()
@_common_options
def rays(spec_path, out_dir):
    """Stokes-ray table, sector bounds and crossing-locus samples."""
    spec, _ = _load(spec_path)
    runner = Runner("rays", spec)
    geo = spec.geometry
    od = FsPath(out_dir)

    def ray_tables():
        ray_uc, skipped_uc = stokes_ray_directions(spec.u_c)
        ray_u, _ = stokes_ray_directions(spec.u)
        secs = [(h * geo.mu, *sector_bounds(h * geo.mu, geo),
                 *sector_bounds(h * geo.mu, geo, shrink=True)) for h in (-1, 0, 1, 2)]
        for name, table in (("rays_uc.csv", ray_uc), ("rays_u.csv", ray_u)):
            _write_csv(od / name, ["j", "k", "theta"],
                       [(j + 1, k + 1, float(th)) for (j, k), th in sorted(table.items())])
        _write_csv(od / "sectors.csv",
                   ["label", "lo_uc", "hi_uc", "lo_polydisc", "hi_polydisc"],
                   [tuple(map(float, s)) for s in secs])
        return {
            "mu": geo.mu,
            "nu_offset": 0,
            "tau_0": geo.labels.tau_nu(0),
            "basic_rays": [float(b) for b in geo.labels.basic],
            "skipped_pairs_at_uc": [[j + 1, k + 1] for j, k in skipped_uc],
            "epsilon0_margin": geo.validate(),
            "sectors": [
                {"label": int(m), "at_uc": [lo, hi], "polydisc": [lo_s, hi_s]}
                for (m, lo, hi, lo_s, hi_s) in secs
            ],
        }

    def crossing_locus():
        hits = _crossing_locus(geo)
        _write_csv(od / "crossing_locus.csv", ["coordinate", "sibling", "phi"], hits)
        return {"crossing_locus_hits": len(hits)}

    runner.stage("rays", ray_tables)
    runner.stage("crossing_locus", crossing_locus)
    _finish(runner, out_dir, "rays_report.json")


def _crossing_locus(geo):
    """Crossing-locus hits (i, j, phi), 1-based, with one coordinate swept on its polydisc circle.

    With u_i = u^c_i + epsilon0 e^{i phi} and its sibling j at u^c_j, the
    (i, j) Stokes ray lies on tau mod pi where Re(e^{i tau} (u_i - u^c_j))
    = 0, that is cos(phi + tau) = -Re(e^{i tau} (u^c_i - u^c_j)) / epsilon0:
    phi = +-acos(.) - tau mod 2 pi, two hits per ordered sibling pair.
    """
    hits = []
    for i, j in zip(*np.nonzero(geo.in_group)):
        c = -(cmath.exp(1j * geo.tau) * (geo.u_c[i] - geo.u_c[j])).real / geo.epsilon0
        if abs(c) <= 1:
            a = math.acos(c)
            hits += [(i + 1, j + 1, phi) for phi in sorted([(a - geo.tau) % (2 * math.pi),
                                                            (-a - geo.tau) % (2 * math.pi)])]
    return hits


@main.command()
@_common_options
@click.option("--oracle", type=click.Choice(["on", "off"]), default="on",
              show_default=True, help="run the sectorial-matching oracle")
def stokes(spec_path, out_dir, oracle):
    """Full pipeline: connection coefficients -> Stokes pair (+ oracle)."""
    from .continuation import connection_products
    from .frobenius import selected_solutions
    from .laplace import assemble_formal, formal_recursion
    from .stokes import monodromy_invariant_residual, stokes_from_connection, stokes_pair_direct

    spec, _ = _load(spec_path)
    runner = Runner("stokes", spec)
    geo = spec.geometry
    system = spec.system()
    cut = CutPlane(eta=geo.eta)
    runner.file({"ray_labels": {
        "nu": 0,
        "nu_offset": 0,
        "mu": geo.mu,
        "tau": geo.tau,
        "eta": geo.eta,
        "tau_nu": {str(m): geo.labels.tau_nu(m) for m in range(-geo.mu, 2 * geo.mu + 1)},
    }})
    P = conn = pair = None

    def connection():
        nonlocal P, conn
        P, conn = connection_products(system, cut, tol=spec.tol, N=spec.order, geometry=geo)
        return {"gamma_shift_used": bool(conn.gamma), "connection": {
            "C": mat_json(conn.C),
            "alpha": vec_json(conn.alpha),
            "eta": conn.eta,
            "gamma": conn.gamma,
            "provenance": [[str(t) for t in row] for row in conn.provenance],
            "max_projection_residual": float(np.max(conn.residuals)),
            "in_group_product": conn.in_group_product,
            "method": "monodromy-projection",
        }}

    def formula():
        nonlocal pair
        pair = stokes_from_connection(P, geo.ordering, conn.lambda_prime)
        structural = np.argwhere(conn.provenance == "zero-by-coalescence") + 1
        return {"stokes_formula": _stokes_json(
            pair, structural_zero_pairs=structural.tolist(),
            monodromy_invariant=monodromy_invariant_residual(pair, system.A))}

    def formal_coefficients():
        formal = formal_recursion(system, spec.formal_order)
        out = {
            "F": [mat_json(F) for F in formal.F],
            "free_positions": [[l, i + 1, j + 1] for (l, i, j) in formal.free_positions],
            "method": "recursion",
        }
        # off the coalescence locus: cross-check against the local series
        if len(_group_partition(system.u)[0]) == system.n:
            sols = selected_solutions(system, spec.order)
            assembled = assemble_formal(sols, min(spec.formal_order, spec.order - 2))
            out["method"] = "recursion+asymptotic-coefficients"
            out["asymptotic_vs_recursion_max_diff"] = max(
                float(np.max(np.abs(Fa - Fb))) for Fa, Fb in zip(formal.F, assembled))
        if formal.free_positions:
            out["family_notice"] = ("in-group resonances make the formal solution a family; "
                                    "free entries defaulted")
        if formal.obstructed_positions:
            out["obstructed_positions"] = [
                [l, i + 1, j + 1] for (l, i, j) in formal.obstructed_positions
            ]
        return {"formal": out}

    def oracle_stage():
        op = stokes_pair_direct(system, geo, tol=max(spec.tol * 1e-2, 1e-13), N=spec.order)
        return {
            "stokes_oracle": _stokes_json(
                op, monodromy_invariant=monodromy_invariant_residual(op, system.A),
                **{f"{key}_{h}": op.diagnostics[h][key]
                   for h in ("h0", "h1") for key in ("ladder", "z_spread", "directions")}),
            "formula_oracle_max_diff": float(np.max(np.abs(
                np.stack([op.S_nu, op.S_nu_plus_mu]) - np.stack([pair.S_nu, pair.S_nu_plus_mu])))),
        }

    runner.stage("connection", connection)
    runner.stage("stokes_formula", formula)
    runner.stage("formal_coefficients", formal_coefficients, always=True)
    runner.stage("stokes_oracle", oracle_stage if oracle == "on" else None)
    _finish(runner, out_dir, "stokes_report.json")


@main.command()
@_common_options
def deform(spec_path, out_dir):
    """Constancy of connection coefficients and Stokes entries along paths."""
    from .continuation import connection_products
    from .deformation import DeformationState, transport
    from .stokes import stokes_from_connection

    spec, _ = _load(spec_path, _require_paths)
    runner = Runner("deform", spec)
    geo = spec.geometry
    in_group = geo.in_group
    cut = CutPlane(eta=geo.eta)
    runner.file({"paths": []})

    def run_path(p_idx, path):
        conns = []
        stokeses = []
        decay_rows = []
        state = DeformationState(u=spec.u, A=spec.A.copy())
        for i, u in enumerate(path):
            state = transport(state, u, tol=spec.tol)
            P, conn = connection_products(state.system(), cut, tol=spec.tol, N=spec.order,
                                          geometry=geo)
            sp = stokes_from_connection(P, geo.ordering, conn.lambda_prime)
            conns.append(conn)
            stokeses.append(np.stack([sp.S_nu, sp.S_nu_plus_mu]))
            decay_rows += [(i, a + 1, b + 1, float(abs(state.u[a] - state.u[b])),
                            float(abs(state.A[a, b])), float(abs(state.A[b, a])),
                            conn.in_group_product)
                           for a, b in zip(*np.nonzero(np.triu(in_group)))]
        if decay_rows:
            _write_csv(FsPath(out_dir) / f"decay_path{p_idx}.csv",
                       ["sample", "i", "j", "gap", "abs_A_ij", "abs_A_ji", "in_group_product"],
                       decay_rows)
        Cs = np.stack([c.C for c in conns])
        cvar = float(np.max(np.abs(Cs - Cs[0])))
        svar = float(np.max(np.abs(np.stack(stokeses) - stokeses[0])))
        return {"paths": [{
            "path": p_idx,
            "samples": len(path),
            "c_max_variation": cvar,
            "stokes_max_variation": svar,
            "in_group_product": max(c.in_group_product for c in conns) if in_group.any() else None,
            "diag_drift": state.diag_drift,
            "spectrum_drift": state.spectrum_drift,
        }]}

    for p_idx, path in enumerate(spec.paths):
        runner.stage(f"path_{p_idx}", lambda: run_path(p_idx, path))
    _finish(runner, out_dir, "deform_report.json")


def _require_paths(spec):
    if not spec.paths:
        raise SpecError("deform requires at least one path in 'paths'")


def _levelt_order(spec):
    """The order N of the Levelt recursion that ``levelt`` runs."""
    return max(spec.order // 2, 8)


def _parse_free(values, spec):
    """--free items 'l,i,j=re[:im]' into a position -> value map (1-based ij).

    Each item names a position that ``levelt`` reports as free: a resonant position
    of :func:`.frobenius.levelt_exponents` at a merged pole of u_c, l up to its order.
    """
    from .frobenius import levelt_exponents
    out = {}
    n, N = spec.u.size, _levelt_order(spec)
    fs_c = SystemPair(spec.A, spec.u_c)
    gaps = [levelt_exponents(fs_c, g)[1] for g in spec.geometry.groups if len(g) > 1]
    for item in values:
        try:
            pos, _, val = item.partition("=")
            l, i, j = (int(x) for x in pos.split(","))
            re_s, _, im_s = val.partition(":")
            value = complex(float(re_s), float(im_s or 0.0))
        except ValueError as exc:
            raise SpecError(f"bad --free item {item!r}: {exc}") from exc
        if not cmath.isfinite(value):
            raise SpecError(f"bad --free item {item!r}: the value must be finite")
        if not (1 <= i <= n and 1 <= j <= n and 1 <= l <= N
                and any(K[i - 1, j - 1] == l for K in gaps)):
            raise SpecError(f"bad --free item {item!r}: not a resonant position (an integer "
                            f"exponent gap T_i - T_j = l in 1..{N} at a merged pole of u_c)")
        out[(l, i - 1, j - 1)] = value
    return out


@main.command()
@_common_options
@click.option("--free", "free_items", multiple=True,
              help="value for a resonant free parameter, as 'l,i,j=re[:im]'")
def levelt(spec_path, out_dir, free_items):
    """Levelt exponents, resonance structure and free parameters at u_c."""
    from .frobenius import levelt_at_confluence
    spec, free_values = _load(spec_path, lambda sp: _parse_free(free_items, sp))
    runner = Runner("levelt", spec)
    fs_c = SystemPair(spec.A, spec.u_c)
    runner.file({"groups": []})

    def run_group(group):
        data = levelt_at_confluence(fs_c, group, N=_levelt_order(spec),
                                    free_values=free_values)
        return {"groups": [{
            "group": [i + 1 for i in group],
            "T_diagonal": vec_json(np.diag(data.T)),
            "kappa": data.kappa,
            "free_parameters": [[l, i + 1, j + 1] for (l, i, j) in data.free_parameters],
            "free_parameter_count": len(data.free_parameters),
            "partial_nonresonance": bool(data.partial_nonresonance),
            "R_norms": {str(l): float(np.max(np.abs(R))) for l, R in data.R_parts.items()},
            "method": "levelt-recursion",
        }]}

    for g_idx, group in enumerate(spec.geometry.groups):
        if len(group) < 2:
            runner.file({"groups": [{
                "group": [i + 1 for i in group],
                "note": "singleton: plain Frobenius exponent, no free parameters",
            }]})
        else:
            runner.stage(f"group_{g_idx}", lambda: run_group(group))
    _finish(runner, out_dir, "levelt_report.json")


@main.command()
@_common_options
def check(spec_path, out_dir):
    """Integrability residual (steps 1e-3 and 5e-4) and vanishing-condition checks."""
    from .deformation import integrability_residual, vanishing_check

    spec, _ = _load(spec_path)
    runner = Runner("check", spec)
    system = spec.system()

    def integrability():
        step = 1e-3
        r1 = integrability_residual(system, step=step, tol=min(spec.tol, 1e-12))
        r2 = integrability_residual(system, step=step / 2, tol=min(spec.tol, 1e-12))
        return {"integrability": {
            "step": step, "residual": r1, "residual_half_step": r2,
            "ratio": (r1 / r2 if r2 > 0 else None),
            "at_noise_floor": bool(r1 < 1e-11),
            "method": "central-differences+transport"}}

    def vanishing():
        return {"vanishing": {
            "pairs": vanishing_check(system, groups=spec.geometry.groups),
            "method": "direct-evaluation",
        }}

    runner.stage("integrability", integrability)
    runner.stage("vanishing", vanishing, always=True)
    runner.file({"epsilon0_margin": spec.geometry.validate()})
    _finish(runner, out_dir, "check_report.json")


if __name__ == "__main__":
    main()
