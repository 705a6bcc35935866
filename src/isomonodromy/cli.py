"""Command-line entry point: rays, stokes, deform, levelt, check.

A problem file is JSON with complex numbers as [re, im] pairs, matrices
row-major and angles in radians::

    {
      "schema_version": 1,
      "A": [[[0.5,0],[2,0]],[[3,0],[0.3333333333333333,0]]],
      "u": [[0,0],[1,0]],
      "u_c": [[0,0],[1,0]],          // optional, defaults to u
      "epsilon0": 0.1,
      "tau": 0.7853981633974483,     // or "eta"
      "tol": 1e-10,                  // optional
      "order": 40,                   // optional series order
      "formal_order": 4,             // optional number of F_l
      "gamma": 0.3,                  // optional, else chosen automatically
      "paths": [[[0,0],[1,0],[0.2,0]], ...]   // deform: per-path waypoints
                                              // (each point is the full u vector)
    }

Reports are deterministic JSON (sorted keys, no timestamps); every numeric
result carries a method tag and an error estimate.  Exit codes: 0 ok,
2 problem-file error, 3 numerical failure.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from pathlib import Path as FsPath

import click
import numpy as np

from . import __version__
from .model import (
    BasisSingular,
    COALESCE_TOL,
    CutPlane,
    DeformationGeometry,
    DriftExceeded,
    IllConditioned,
    MatchingInconsistent,
    NonAdmissibleError,
    OverlapEmpty,
    QuadratureDivergence,
    SingularF1,
    StepFailure,
    SystemPair,
    is_in_cell,
    label_rays,
    sector_bounds,
    stokes_ray_directions,
)
from .frobenius import (
    BadGamma,
    ResonanceAmbiguity,
    build_fuchsian,
    levelt_at_confluence,
    needs_gamma_shift,
    selected_solution,
)

# No command loads scipy: the solving modules (continuation, laplace, stokes,
# deformation) integrate by their own Taylor steps, and the commands that
# solve import them in their bodies, so ``rays`` and ``levelt`` load none of
# them.

SCHEMA_VERSION = 1

NUMERICAL_ERRORS = (
    StepFailure,
    DriftExceeded,
    IllConditioned,
    BasisSingular,
    QuadratureDivergence,
    SingularF1,
    OverlapEmpty,
    MatchingInconsistent,
    ResonanceAmbiguity,
    BadGamma,
    np.linalg.LinAlgError,
)


class SpecError(ValueError):
    """Problem file failed to parse or validate."""


def _pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def _cplx(pair):
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise SpecError(f"expected [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _vec(vals):
    return np.array([_cplx(p) for p in vals], dtype=complex)


def _mat(rows):
    return np.array([[_cplx(p) for p in row] for row in rows], dtype=complex)


def mat_json(M):
    M = np.atleast_2d(np.asarray(M))
    return [[_pair(x) for x in row] for row in M]


def vec_json(v):
    return [_pair(x) for x in np.asarray(v).ravel()]


class ProblemSpec:
    """Validated problem definition (see :meth:`check` for the value rules)."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise SpecError("a problem file holds one JSON object")
        try:
            if int(data.get("schema_version", -1)) != SCHEMA_VERSION:
                raise SpecError(
                    f"schema_version must be {SCHEMA_VERSION}; got {data.get('schema_version')!r}"
                )
            self.A = _mat(data["A"])
            self.u = _vec(data["u"])
            self.u_c = _vec(data["u_c"]) if "u_c" in data else self.u.copy()
            self.epsilon0 = float(data["epsilon0"])
            if "tau" in data:
                self.tau = float(data["tau"])
            elif "eta" in data:
                self.tau = 1.5 * math.pi - float(data["eta"])
            else:
                raise SpecError("one of 'tau' or 'eta' is required")
            self.tol = float(data.get("tol", 1e-10))
            self.order = int(data.get("order", 40))
            self.formal_order = int(data.get("formal_order", 4))
            self.gamma = None if data.get("gamma") is None else float(data["gamma"])
            self.paths = [
                [_vec(pt) for pt in path] for path in data.get("paths", [])
            ]
        except SpecError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"invalid problem file: {exc}") from exc
        n = self.u.size
        if self.A.shape != (n, n):
            raise SpecError(f"A must be {n}x{n} to match u; got {self.A.shape}")
        if self.u_c.size != n:
            raise SpecError("u_c must have the same length as u")
        for path in self.paths:
            for pt in path:
                if pt.size != n:
                    raise SpecError("every path waypoint must be a full u vector")
        self.check()
        try:
            self.geometry = DeformationGeometry(self.u_c, self.epsilon0, self.tau)
        except NonAdmissibleError as exc:
            raise SpecError(
                f"tau is not admissible at u_c: {exc}; nearest admissible "
                f"suggestion: {exc.suggestion}"
            ) from exc
        except ValueError as exc:
            raise SpecError(str(exc)) from exc

    def check(self):
        """Raise SpecError unless the values are in range.

        Every number must be finite, with epsilon0 > 0, tol > 0, order >= 3
        and formal_order >= 1.
        """
        numbers = [("A", self.A), ("u", self.u), ("u_c", self.u_c), ("epsilon0", self.epsilon0),
                   ("tau/eta", self.tau), ("tol", self.tol),
                   ("gamma", 0.0 if self.gamma is None else self.gamma)]
        for name, value in numbers + [("paths", pt) for path in self.paths for pt in path]:
            if not np.all(np.isfinite(value)):
                raise SpecError(f"{name} must be finite")
        for rule, ok in (("epsilon0 > 0", self.epsilon0 > 0), ("tol > 0", self.tol > 0),
                         ("order >= 3", self.order >= 3),
                         ("formal_order >= 1", self.formal_order >= 1)):
            if not ok:
                raise SpecError(f"{rule} is required")

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecError(f"cannot read problem file {path}: {exc}") from exc

    def system(self):
        return SystemPair(self.A, self.u)


REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "metadata", "stages", "results"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "metadata": {
            "type": "object",
            "required": ["tolerance", "series_order", "seed", "versions"],
        },
        "stages": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status"],
                "properties": {"status": {"enum": ["ok", "failed", "skipped"]}},
            },
        },
        "results": {"type": "object"},
    },
}


_JSON_TYPES = {"object": dict, "array": list, "string": str}


def _same(a, b):
    """JSON equality: 1 == 1.0, but true is not 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _check(value, schema, where):
    """Raise ValueError where ``value`` breaks ``schema`` (the keywords REPORT_SCHEMA uses)."""
    unknown = set(schema) - {"type", "required", "properties", "items", "const", "enum"}
    if unknown:
        raise ValueError(f"{where}: unsupported schema keywords {sorted(unknown)}")
    if "type" in schema and not isinstance(value, _JSON_TYPES[schema["type"]]):
        raise ValueError(f"{where} is not of type {schema['type']!r}")
    if "const" in schema and not _same(value, schema["const"]):
        raise ValueError(f"{where} must be {schema['const']!r}, got {value!r}")
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        raise ValueError(f"{where} must be one of {schema['enum']!r}, got {value!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError(f"{where} is missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, f"{where}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{where}[{i}]")


def validate_report(report):
    """Raise ValueError unless ``report`` satisfies REPORT_SCHEMA."""
    _check(report, REPORT_SCHEMA, "report")


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

    def stage(self, name, fn, always=False):
        if self.failed and not always:
            self.report["stages"].append({"name": name, "status": "skipped"})
            return None
        try:
            out = fn()
        except NUMERICAL_ERRORS as exc:
            self.report["stages"].append(
                {"name": name, "status": "failed",
                 "error": f"{type(exc).__name__}: {exc}"}
            )
            self.failed = True
            return None
        self.report["stages"].append({"name": name, "status": "ok"})
        return out

    def write(self, out_dir, name):
        out_dir = FsPath(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        validate_report(self.report)
        path = out_dir / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.report, fh, sort_keys=True, indent=1, allow_nan=False)
            fh.write("\n")
        return path


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) + "\n")


def _connection_json(conn):
    return {
        "C": mat_json(conn.C),
        "alpha": vec_json(conn.alpha),
        "eta": conn.eta,
        "gamma": conn.gamma,
        "provenance": [[str(t) for t in row] for row in conn.provenance],
        "max_projection_residual": float(np.max(conn.residuals)),
        "method": "monodromy-projection",
    }


def _stokes_json(pair, extra=None):
    out = {
        "S_nu": mat_json(pair.S_nu),
        "S_nu_plus_mu": mat_json(pair.S_nu_plus_mu),
        "nu": pair.nu,
        "method": pair.method,
    }
    if extra:
        out.update(extra)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Monodromy data of rank-1 irregular systems via Laplace transform."""


def _common_options(fn):
    fn = click.option("--spec", "spec_path", required=True,
                      type=click.Path(exists=True), help="problem file (JSON)")(fn)
    fn = click.option("--out", "out_dir", default="out", show_default=True,
                      help="output directory")(fn)
    fn = click.option("--tol", type=float, default=None,
                      help="override tolerance")(fn)
    fn = click.option("--order", type=int, default=None,
                      help="override series truncation order")(fn)
    fn = click.option("--gamma", type=float, default=None,
                      help="override the exponent shift")(fn)
    return fn


def _load(spec_path, tol, order, gamma, then=lambda spec: None):
    """The problem file with the command-line overrides, and ``then(spec)``.

    The overrides are checked like the file's values.  Every problem-file
    error, including those ``then`` raises, is reported as
    ``problem file error`` with exit code 2.
    """
    try:
        spec = ProblemSpec.load(spec_path)
        for name, value in (("tol", tol), ("order", order), ("gamma", gamma)):
            if value is not None:
                setattr(spec, name, value)
        spec.check()
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
def rays(spec_path, out_dir, tol, order, gamma):
    """Stokes-ray table, sector bounds and crossing-locus samples."""
    spec, _ = _load(spec_path, tol, order, gamma)
    runner = Runner("rays", spec)
    geo = spec.geometry

    def ray_tables():
        ray_uc, skipped_uc = stokes_ray_directions(spec.u_c)
        ray_u, _ = stokes_ray_directions(spec.u)
        nu, mu, labels = label_rays(spec.u_c, spec.tau)
        secs = []
        for h in (-1, 0, 1, 2):
            m = h * mu
            lo, hi = sector_bounds(m, geo)
            lo_s, hi_s = sector_bounds(m, geo, shrink=True)
            secs.append((m, lo, hi, lo_s, hi_s))
        return ray_uc, skipped_uc, ray_u, (nu, mu, labels), secs

    out = runner.stage("rays", ray_tables)
    crossing = runner.stage("crossing_locus", lambda: _crossing_locus(spec))
    if out is not None:
        ray_uc, skipped_uc, ray_u, (nu, mu, labels), secs = out
        od = FsPath(out_dir)
        od.mkdir(parents=True, exist_ok=True)
        _write_csv(od / "rays_uc.csv", ["j", "k", "theta"],
                   [(j + 1, k + 1, float(th)) for (j, k), th in sorted(ray_uc.items())])
        _write_csv(od / "rays_u.csv", ["j", "k", "theta"],
                   [(j + 1, k + 1, float(th)) for (j, k), th in sorted(ray_u.items())])
        _write_csv(od / "sectors.csv",
                   ["label", "lo_uc", "hi_uc", "lo_polydisc", "hi_polydisc"],
                   [tuple(map(float, s)) for s in secs])
        runner.report["results"] = {
            "mu": mu,
            "nu_offset": labels.nu_offset,
            "tau_0": labels.tau_nu(0),
            "basic_rays": [float(b) for b in labels.basic],
            "skipped_pairs_at_uc": [[j + 1, k + 1] for j, k in skipped_uc],
            "epsilon0_margin": geo.validate(),
            "sectors": [
                {"label": int(m), "at_uc": [lo, hi], "polydisc": [lo_s, hi_s]}
                for (m, lo, hi, lo_s, hi_s) in secs
            ],
        }
    if crossing is not None:
        od = FsPath(out_dir)
        _write_csv(od / "crossing_locus.csv",
                   ["coordinate", "sibling", "phi"],
                   [(i + 1, j + 1, float(phi)) for (i, j, phi) in crossing])
        runner.report["results"]["crossing_locus_hits"] = len(crossing)
    _finish(runner, out_dir, "rays_report.json")


def _crossing_locus(spec):
    """Crossing-locus hits with one coordinate swept on its polydisc circle.

    With u_i = u^c_i + epsilon0 e^{i phi} and its sibling j at u^c_j, the
    (i, j) Stokes ray lies on tau mod pi where Re(e^{i tau} (u_i - u^c_j))
    = 0, that is cos(phi + tau) = -Re(e^{i tau} (u^c_i - u^c_j)) / epsilon0:
    phi = +-acos(.) - tau mod 2 pi, two hits per ordered sibling pair.
    """
    geo = spec.geometry
    hits = []
    for i in range(geo.n):
        for j in geo.groups[geo.group_of(i)]:
            c = -(cmath.exp(1j * geo.tau) * (geo.u_c[i] - geo.u_c[j])).real / geo.epsilon0
            if j == i or abs(c) > 1:
                continue
            a = math.acos(c)
            hits += [(i, j, phi) for phi in sorted([(a - geo.tau) % (2 * math.pi),
                                                    (-a - geo.tau) % (2 * math.pi)])]
    return hits


@main.command()
@_common_options
@click.option("--oracle", type=click.Choice(["on", "off"]), default="on",
              show_default=True, help="run the sectorial-matching oracle")
def stokes(spec_path, out_dir, tol, order, gamma, oracle):
    """Full pipeline: connection coefficients -> Stokes pair (+ oracle)."""
    from .continuation import connection_products
    from .laplace import assemble_formal, formal_recursion
    from .stokes import Ordering, stokes_from_connection, stokes_pair_direct

    spec, _ = _load(spec_path, tol, order, gamma)
    runner = Runner("stokes", spec)
    geo = spec.geometry
    system = spec.system()
    cut = CutPlane(eta=geo.eta)
    results = runner.report["results"]
    results["ray_labels"] = {
        "nu": 0,
        "nu_offset": geo.labels.nu_offset,
        "mu": geo.mu,
        "tau": geo.tau,
        "eta": geo.eta,
        "tau_nu": {str(m): geo.labels.tau_nu(m) for m in range(-geo.mu, 2 * geo.mu + 1)},
    }

    def conn_stage():
        P, conn = connection_products(system, cut, tol=spec.tol, N=spec.order,
                                      geometry=geo, gamma=spec.gamma)
        return P, conn

    conn_out = runner.stage("connection", conn_stage)
    if conn_out is not None:
        P, conn = conn_out
        results["gamma_shift_used"] = bool(needs_gamma_shift(system))
        results["connection"] = _connection_json(conn)

    pair = runner.stage(
        "stokes_formula",
        lambda: stokes_from_connection(
            conn_out[0], Ordering(u_c=geo.u_c, tau=geo.tau), system.lambda_prime
        ),
    )
    if pair is not None:
        structural = [
            [j + 1, k + 1]
            for j in range(system.n)
            for k in range(system.n)
            if j != k and geo.same_group(j, k)
        ]
        results["stokes_formula"] = _stokes_json(
            pair,
            {
                "structural_zero_pairs": structural,
                "error_estimate": float(np.max(conn_out[1].residuals)),
            },
        )

    def formal_stage():
        formal = formal_recursion(system, spec.formal_order)
        i, j = np.triu_indices(system.n, 1)
        # on the coalescence locus: no recursion cross-check
        if np.any(np.abs(system.u[i] - system.u[j]) < COALESCE_TOL):
            return formal, None, None
        fs = build_fuchsian(system)
        sols = [selected_solution(fs, k, cut, spec.order) for k in range(system.n)]
        assembled = assemble_formal(sols, min(spec.formal_order, spec.order - 2))
        diff = max(
            float(np.max(np.abs(Fa - Fb)))
            for Fa, Fb in zip(formal.F, assembled)
        )
        return formal, assembled, diff

    formal_out = runner.stage("formal_coefficients", formal_stage, always=True)
    if formal_out is not None:
        formal, assembled, diff = formal_out
        results["formal"] = {
            "F": [mat_json(F) for F in formal.F],
            "free_positions": [[l, i + 1, j + 1] for (l, i, j) in formal.free_positions],
            "method": ("merged-pole series" if assembled is None
                       else "recursion+asymptotic-coefficients"),
        }
        if diff is not None:
            results["formal"]["asymptotic_vs_recursion_max_diff"] = diff
        if formal.free_positions:
            results["formal"]["family_notice"] = (
                "in-group resonances make the formal solution a family; "
                "free entries defaulted"
            )
        if formal.obstructed_positions:
            results["formal"]["obstructed_positions"] = [
                [l, i + 1, j + 1] for (l, i, j) in formal.obstructed_positions
            ]

    if oracle == "on":
        def oracle_stage():
            op = stokes_pair_direct(system, geo, tol=max(spec.tol * 1e-2, 1e-13),
                                    N=spec.order)
            agree = max(
                float(np.max(np.abs(op.S_nu - pair.S_nu))),
                float(np.max(np.abs(op.S_nu_plus_mu - pair.S_nu_plus_mu))),
            )
            return op, agree

        oracle_out = runner.stage("stokes_oracle", oracle_stage)
        if oracle_out is not None:
            op, agree = oracle_out
            results["stokes_oracle"] = _stokes_json(op, {
                "ladder_h0": op.diagnostics["h0"]["ladder"],
                "z_spread_h0": op.diagnostics["h0"]["z_spread"],
                "ladder_h1": op.diagnostics["h1"]["ladder"],
                "z_spread_h1": op.diagnostics["h1"]["z_spread"],
            })
            results["formula_oracle_max_diff"] = agree
    else:
        runner.report["stages"].append({"name": "stokes_oracle", "status": "skipped"})

    _finish(runner, out_dir, "stokes_report.json")


@main.command()
@_common_options
def deform(spec_path, out_dir, tol, order, gamma):
    """Constancy of connection coefficients and Stokes entries along paths."""
    from .deformation import connection_samples
    from .stokes import Ordering, stokes_from_connection

    spec, _ = _load(spec_path, tol, order, gamma, _require_paths)
    runner = Runner("deform", spec)
    geo = spec.geometry
    results = runner.report["results"]
    results["paths"] = []
    ordering = Ordering(u_c=geo.u_c, tau=geo.tau)
    cut = CutPlane(eta=geo.eta)

    for p_idx, path in enumerate(spec.paths):
        def run_path(path=path):
            conns = []
            stokeses = []
            cells = []
            decay_rows = []
            in_group = np.array([[a != b and geo.same_group(a, b) for b in range(geo.n)]
                                 for a in range(geo.n)])
            # one extraction without structural zeros: the u_c ordering
            # skips the in-group pairs, and the reported C zeroes them
            samples = connection_samples(spec.system(), path, cut, tol=spec.tol,
                                         N=spec.order, gamma=spec.gamma)
            for i, (state, P, conn) in enumerate(samples):
                sysi = state.system()
                sp = stokes_from_connection(P, ordering, sysi.lambda_prime)
                conns.append(np.where(in_group, 0.0, conn.C))
                stokeses.append((sp.S_nu, sp.S_nu_plus_mu))
                cells.append(bool(is_in_cell(state.u, geo)[0]))
                ingroup_max = 0.0
                if in_group.any():
                    # structural zeros are vacuous here: measure the in-group
                    # entries honestly with the ordering at the instant u
                    sp2 = stokes_from_connection(
                        P, Ordering(u_c=sysi.u, tau=geo.tau), sysi.lambda_prime
                    )
                    ingroup_max = float(max(
                        np.max(np.abs(sp2.S_nu[in_group])),
                        np.max(np.abs(np.linalg.inv(sp2.S_nu_plus_mu)[in_group])),
                    ))
                for a in range(sysi.n):
                    for b in range(a + 1, sysi.n):
                        if in_group[a, b]:
                            decay_rows.append(
                                (i, a + 1, b + 1,
                                 float(abs(state.u[a] - state.u[b])),
                                 float(abs(state.A[a, b])),
                                 float(abs(state.A[b, a])),
                                 float(ingroup_max))
                            )
            cvar = float(np.max(np.abs(np.stack(conns) - conns[0])))
            svar = max(
                float(np.max(np.abs(np.stack([s[0] for s in stokeses]) - stokeses[0][0]))),
                float(np.max(np.abs(np.stack([s[1] for s in stokeses]) - stokeses[0][1]))),
            )
            return {
                "path": p_idx,
                "samples": len(path),
                "in_cell": cells,
                "c_max_variation": cvar,
                "stokes_max_variation": svar,
                "ingroup_stokes_max": (
                    float(max(r[6] for r in decay_rows)) if decay_rows else None
                ),
                "diag_drift": state.diag_drift,
                "spectrum_drift": state.spectrum_drift,
            }, decay_rows

        out = runner.stage(f"path_{p_idx}", run_path)
        if out is not None:
            summary, decay_rows = out
            results["paths"].append(summary)
            if decay_rows:
                od = FsPath(out_dir)
                od.mkdir(parents=True, exist_ok=True)
                _write_csv(od / f"decay_path{p_idx}.csv",
                           ["sample", "i", "j", "gap", "abs_A_ij", "abs_A_ji",
                            "ingroup_stokes_max"],
                           decay_rows)
    _finish(runner, out_dir, "deform_report.json")


def _require_paths(spec):
    if not spec.paths:
        raise SpecError("deform requires at least one path in 'paths'")


def _parse_free(values):
    """--free items 'l,i,j=re[:im]' into a position -> value map (1-based ij)."""
    out = {}
    for item in values:
        try:
            pos, _, val = item.partition("=")
            l, i, j = (int(x) for x in pos.split(","))
            re_s, _, im_s = val.partition(":")
            out[(l, i - 1, j - 1)] = complex(float(re_s), float(im_s or 0.0))
        except ValueError as exc:
            raise SpecError(f"bad --free item {item!r}: {exc}") from exc
    return out


@main.command()
@_common_options
@click.option("--free", "free_items", multiple=True,
              help="value for a resonant free parameter, as 'l,i,j=re[:im]'")
def levelt(spec_path, out_dir, tol, order, gamma, free_items):
    """Levelt exponents, resonance structure and free parameters at u_c."""
    spec, free_values = _load(spec_path, tol, order, gamma, lambda _: _parse_free(free_items))
    runner = Runner("levelt", spec)
    geo = spec.geometry
    results = runner.report["results"]
    sys_c = SystemPair(spec.A, spec.u_c)
    fs_c = build_fuchsian(sys_c)
    results["groups"] = []
    for g_idx, group in enumerate(geo.groups):
        if len(group) < 2:
            results["groups"].append({
                "group": [i + 1 for i in group],
                "note": "singleton: plain Frobenius exponent, no free parameters",
            })
            continue

        def run_group(group=group):
            data = levelt_at_confluence(fs_c, group, N=max(spec.order // 2, 8),
                                        free_values=free_values)
            return {
                "group": [i + 1 for i in group],
                "T_diagonal": vec_json(np.diag(data.T)),
                "kappa": data.kappa,
                "free_parameters": [[l, i + 1, j + 1] for (l, i, j) in data.free_parameters],
                "free_parameter_count": len(data.free_parameters),
                "partial_nonresonance": bool(data.partial_nonresonance),
                "R_norms": {str(l): float(np.max(np.abs(R))) for l, R in data.R_parts.items()},
                "method": "levelt-recursion",
            }

        out = runner.stage(f"group_{g_idx}", run_group)
        if out is not None:
            results["groups"].append(out)
    _finish(runner, out_dir, "levelt_report.json")


def _check_step(step):
    if not (math.isfinite(step) and step > 0):
        raise SpecError(f"--step must be finite and > 0; got {step}")


@main.command()
@_common_options
@click.option("--step", type=float, default=1e-3, show_default=True,
              help="finite-difference step for the integrability residual")
def check(spec_path, out_dir, tol, order, gamma, step):
    """Integrability residual and vanishing-condition checks."""
    from .deformation import integrability_residual, schlesinger_rhs, vanishing_check

    spec, _ = _load(spec_path, tol, order, gamma, lambda _: _check_step(step))
    runner = Runner("check", spec)
    system = spec.system()
    results = runner.report["results"]

    def resid_stage():
        r1 = integrability_residual(system, step=step, tol=min(spec.tol, 1e-12))
        r2 = integrability_residual(system, step=step / 2, tol=min(spec.tol, 1e-12))
        return {"step": step, "residual": r1, "residual_half_step": r2,
                "ratio": (r1 / r2 if r2 > 0 else None),
                "at_noise_floor": bool(r1 < 1e-11),
                "method": "central-differences+transport"}

    out = runner.stage("integrability", resid_stage)
    if out is not None:
        results["integrability"] = out

    def vanish_stage():
        fs = build_fuchsian(system)
        _, consistency = schlesinger_rhs(fs)
        rows = vanishing_check(system, groups=spec.geometry.groups)
        return {
            "schlesinger_consistency": consistency,
            "pairs": rows,
            "method": "direct-evaluation",
        }

    out = runner.stage("vanishing", vanish_stage, always=True)
    if out is not None:
        results["vanishing"] = out
    results["epsilon0_margin"] = spec.geometry.validate()
    _finish(runner, out_dir, "check_report.json")


if __name__ == "__main__":
    main()
