import cmath
import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from isomonodromy.cli import ProblemSpec, SpecError, _crossing_locus, main
from isomonodromy.model import is_in_cell

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ("sample2x2", "coalescing3x3", "resonant_group")

SAMPLE = {
    "schema_version": 1,
    "A": [[[0.5, 0.0], [2.0, 0.0]], [[3.0, 0.0], [1.0 / 3.0, 0.0]]],
    "u": [[0.0, 0.0], [1.0, 0.0]],
    "epsilon0": 0.08,
    "tau": math.pi / 4,
    "tol": 1e-11,
    "order": 40,
    "formal_order": 3,
}


def _write(tmp_path, data, name="prob.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_problem_spec_roundtrip(tmp_path):
    spec = ProblemSpec.load(_write(tmp_path, SAMPLE))
    assert spec.u.tolist() == [0.0, 1.0]
    assert spec.geometry.mu == 1


def test_problem_spec_rejects_bad_schema(tmp_path):
    bad = dict(SAMPLE)
    bad["schema_version"] = 99
    with pytest.raises(SpecError):
        ProblemSpec.load(_write(tmp_path, bad))


def test_problem_spec_rejects_dimension_mismatch(tmp_path):
    bad = dict(SAMPLE)
    bad["u"] = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(SpecError):
        ProblemSpec.load(_write(tmp_path, bad))


def test_problem_spec_rejects_inadmissible_tau_with_suggestion(tmp_path):
    bad = dict(SAMPLE)
    bad["tau"] = math.pi / 2  # on the Stokes ray of (0, 1)
    with pytest.raises(SpecError) as exc:
        ProblemSpec.load(_write(tmp_path, bad))
    assert "suggestion" in str(exc.value)


def test_cli_exit_code_2_on_spec_error(tmp_path):
    bad = dict(SAMPLE)
    bad["tau"] = math.pi / 2
    path = _write(tmp_path, bad)
    result = CliRunner().invoke(main, ["rays", "--spec", path, "--out", str(tmp_path)])
    assert result.exit_code == 2


def _nan_in_A(prob):
    A = json.loads(json.dumps(prob["A"]))
    A[0][1][1] = math.nan
    return {**prob, "A": A}


def _without_tau(prob, **extra):
    return {**{k: v for k, v in prob.items() if k != "tau"}, **extra}


def _a00_string(prob):
    A = json.loads(json.dumps(prob["A"]))
    A[0][0] = ["0.5", 0]
    return {**prob, "A": A}


def _a00_not_a_pair(prob):
    A = json.loads(json.dumps(prob["A"]))
    A[0][0] = [0.5]
    return {**prob, "A": A}


MALFORMED = {  # case: (problem file from SAMPLE, text the error names)
    "epsilon0 negative": (lambda p: {**p, "epsilon0": -0.1}, "epsilon0"),
    "epsilon0 NaN": (lambda p: {**p, "epsilon0": math.nan}, "epsilon0"),
    "NaN in A": (_nan_in_A, "A must be finite"),
    "u infinite": (lambda p: {**p, "u": [[0.0, 0.0], [math.inf, 0.0]]}, "u must be finite"),
    "tau NaN": (lambda p: {**p, "tau": math.nan}, "tau"),
    "tau missing": (_without_tau, "tau"),
    # a tau whose float spacing no ray test resolves
    "tau 1e9": (lambda p: {**p, "tau": 1e9}, "float spacing 1.19e-07 exceeds ANGLE_TOL"),
    "tau -1e17": (lambda p: {**p, "tau": -1e17}, "float spacing 16 exceeds ANGLE_TOL"),
    "path point NaN": (lambda p: {**p, "paths": [[[[0.0, 0.0], [math.nan, 0.0]]]]}, "paths"),
    "path empty": (lambda p: {**p, "paths": [[]]}, "path"),
    "order 0": (lambda p: {**p, "order": 0}, "order"),
    "order 2": (lambda p: {**p, "order": 2}, "order"),
    "order 40.9": (lambda p: {**p, "order": 40.9}, "order must be a JSON integer"),
    "order 10**12": (lambda p: {**p, "order": 10 ** 12}, "3 <= order <= 400"),
    "formal_order 0": (lambda p: {**p, "formal_order": 0}, "formal_order"),
    "formal_order 10**12": (lambda p: {**p, "formal_order": 10 ** 12},
                            "1 <= formal_order <= 170"),
    "formal_order true": (lambda p: {**p, "formal_order": True},
                          "formal_order must be a JSON integer"),
    "schema_version 1.7": (lambda p: {**p, "schema_version": 1.7},
                           "schema_version must be a JSON integer"),
    "tol negative": (lambda p: {**p, "tol": -1}, "tol"),
    "not an object": (lambda p: [p], "object"),
    # the closed key set: the removed gamma and eta (an alias of tau), and a misspelling
    "gamma key": (lambda p: {**p, "gamma": 0.3}, "'gamma'"),
    "eta key": (lambda p: _without_tau(p, eta=1.5 * math.pi - p["tau"]), "'eta'"),
    "unknown key": (lambda p: {**p, "formal_ordr": 2}, "'formal_ordr'"),
    # numbers are JSON numbers: no boolean or string stands for one
    "tol true": (lambda p: {**p, "tol": True}, "tol: expected a JSON number"),
    "epsilon0 string": (lambda p: {**p, "epsilon0": "0.08"}, "epsilon0: expected a JSON number"),
    "tau string": (lambda p: {**p, "tau": str(p["tau"])}, "tau: expected a JSON number"),
    "A entry string": (_a00_string, "A: expected a JSON number"),
    "A entry not a pair": (_a00_not_a_pair, "A: expected [re, im] pair, got [0.5]"),
    "u_c length": (lambda p: {**p, "u_c": p["u"] + [[2.0, 0.0]]},
                   "u_c must have the same length as u"),
    "u entry false": (lambda p: {**p, "u": [[False, 0.0], p["u"][1]]},
                      "u: expected a JSON number"),
    "tol past the float range": (lambda p: {**p, "tol": 10 ** 400}, "tol: expected a JSON number"),
    # finite points whose difference u_j - u_k overflows (found by tests/test_fuzz.py)
    "u difference past the float range": (lambda p: {**p, "u": [[0.0, -1e308], [1.0, 1e308]]},
                                          "u: a difference u_j - u_k leaves the float range"),
    "u_c difference past the float range": (
        lambda p: {**p, "u_c": [[-1e308, 0.0], [1e308, 0.0]]},
        "u_c must be finite, and so must its differences u_j - u_k"),
    "path difference past the float range": (
        lambda p: {**p, "paths": [[[[0.0, -1e308], [1.0, 1e308]]]]},
        "paths: a difference u_j - u_k leaves the float range"),
}


@pytest.mark.parametrize("case, cmd", [(case, cmd) for case in sorted(MALFORMED)
                                        for cmd in ["rays", "stokes"]])
def test_cli_malformed_problem_exits_2(tmp_path, case, cmd):
    """Non-finite numbers, out-of-range settings, non-numbers, non-integer counts and keys
    outside the format are problem-file errors that name what is wrong, not crashes."""
    edit, named = MALFORMED[case]
    path = _write(tmp_path, edit(SAMPLE))
    result = CliRunner().invoke(main, [cmd, "--spec", path, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "problem file error" in result.output
    assert named in result.output, result.output
    assert not (tmp_path / "out").exists()


def test_cli_problem_file_that_is_not_json_exits_2(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text("{not json")
    result = CliRunner().invoke(main, ["rays", "--spec", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"problem file error: cannot read problem file {path}: Expecting property name" \
        in result.output
    assert not (tmp_path / "out").exists()


# u = (-1, 1, i y) at tau = 0: the cut half-lines of u_0 and u_2 lie 1 apart, and the Stokes
# ray of the pair (0, 2) rotates onto tau mod pi exactly at epsilon0 = 1/2
_BOUNDARY_A = [[0.3, 0.2, 0.1], [0.4, 0.6, 0.2], [0.1, 0.3, 0.45]]


def _boundary_problem(tmp_path, y, epsilon0):
    return _write(tmp_path, {"schema_version": 1, "tau": 0.0, "epsilon0": epsilon0,
                             "A": [[[x, 0.0] for x in row] for row in _BOUNDARY_A],
                             "u": [[-1.0, 0.0], [1.0, 0.0], [0.0, y]]})


@pytest.mark.parametrize("cmd", ["rays", "check", "stokes"])
def test_cli_epsilon0_at_a_zero_margin_exits_2(tmp_path, cmd):
    """y = 0.1 and epsilon0 = 0.49999999999999994, the float below 1/2: validate() reads a
    margin of 0, so every command refuses the geometry by name, exit 2, before any stage."""
    path = _boundary_problem(tmp_path, 0.1, 0.49999999999999994)
    result = CliRunner().invoke(main, [cmd, "--spec", path, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert ("problem file error: epsilon0=0.49999999999999994 is not admissible: a "
            "cross-group Stokes ray reaches tau mod pi in the polydisc (margin 0 <= 0)"
            in result.output), result.output


def test_cli_stokes_at_a_rounding_positive_margin_runs(tmp_path):
    """y = 0.4 and epsilon0 = 0.4999999999999999: the margin reads 2.2e-16, and the
    rounded bounds of the shrunk sectors cross there.  The oracle matches on their bisector,
    tau + pi to rounding, and lands within 1e-12 of the formula (5.7e-14 measured)."""
    path = _boundary_problem(tmp_path, 0.4, 0.4999999999999999)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    results = json.loads((out / "stokes_report.json").read_text())["results"]
    assert results["formula_oracle_max_diff"] < 1e-12


def test_cli_rays_outputs(tmp_path):
    """On each shipped problem: a positive epsilon0 margin (0.625, 1.040 and 1.040 measured),
    mu basic rays, and every sector's polydisc bounds inside its bounds at u^c."""
    for problem in SHIPPED:
        out, spec = tmp_path / problem, str(ROOT / "problems" / f"{problem}.json")
        result = CliRunner().invoke(main, ["rays", "--spec", spec, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "rays_report.json").read_text())
        r = report["results"]
        assert r["mu"] == 1 and len(r["basic_rays"]) == r["mu"], problem
        assert r["epsilon0_margin"] > 0, problem
        for sector in r["sectors"]:
            lo, hi = sector["at_uc"]
            assert lo <= sector["polydisc"][0] < sector["polydisc"][1] <= hi, (problem, sector)
        assert (out / "rays_uc.csv").exists()
        assert (out / "sectors.csv").exists()


def test_cli_stokes_deterministic(tmp_path):
    path = _write(tmp_path, SAMPLE)
    outs = []
    for name in ("out_a", "out_b"):
        out = tmp_path / name
        result = CliRunner().invoke(main, ["stokes", "--spec", path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        outs.append((out / "stokes_report.json").read_bytes())
    assert outs[0] == outs[1]  # bit-identical reports
    report = json.loads(outs[0])
    assert report["results"]["formal"]["asymptotic_vs_recursion_max_diff"] < 1e-8
    S = report["results"]["stokes_formula"]["S_nu"]
    assert S[1][0] == [0.0, 0.0]  # triangular zero below the diagonal


def _results(tmp_path, cmd, spec, name):
    """The results of ``cmd`` on the problem file ``spec``, which must exit 0."""
    out = tmp_path / name
    result = CliRunner().invoke(main, [cmd, "--spec", spec, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return json.loads((out / f"{cmd}_report.json").read_text())["results"]


def _pair_of(results, route):
    return np.array([[[complex(*z) for z in row] for row in results[route][key]]
                     for key in ("S_nu", "S_nu_plus_mu")])


def test_cli_stokes_on_a_shifted_problem_keeps_the_pair(tmp_path):
    """Y -> z^{-gamma} Y maps A onto A - gamma I and leaves the pair.

    A problem file holding A - 0.3 I gives its problem's pair on both
    routes within 1e-11: sample2x2's copy takes no shift of its own (7.5e-13 formula,
    7.8e-13 oracle measured); coalescing3x3's, with diagonal 0, 0, -0.09,
    takes a nonzero automatic one (1.9e-14 and 1.5e-13), and deform on it
    varies c_jk and the Stokes entries by less than 1e-10 along its path
    (3.9e-14 and 7.8e-14).  sample2x2 with lambda'_0 at 1, or 3e-8 from it,
    takes one nonzero shift, and its routes agree within 1e-10 (2.0e-12 and
    1.4e-12; unshifted, 1 + 3e-8 read 2.9e-8).
    """
    for problem in ("sample2x2", "coalescing3x3"):
        plain = str(ROOT / "problems" / f"{problem}.json")
        prob = json.loads(Path(plain).read_text())
        for i, row in enumerate(prob["A"]):
            row[i][0] -= 0.3
        spec = _write(tmp_path, prob, f"{problem}_shifted.json")
        shifted, unshifted = (_results(tmp_path, "stokes", p, f"{problem}_{name}")
                              for p, name in ((spec, "shifted"), (plain, "plain")))
        assert unshifted["connection"]["gamma"] == 0.0 and not unshifted["gamma_shift_used"]
        assert (shifted["connection"]["gamma"] != 0) == (problem == "coalescing3x3")
        assert shifted["gamma_shift_used"] == (problem == "coalescing3x3")
        for route in ("stokes_formula", "stokes_oracle"):
            diff = np.max(np.abs(_pair_of(shifted, route) - _pair_of(unshifted, route)))
            assert diff < 1e-11, (problem, route, diff)
    [path] = _results(tmp_path, "deform", spec, "deform")["paths"]
    assert max(path["c_max_variation"], path["stokes_max_variation"]) < 1e-10, path
    for a00 in (1.0, 1 + 3e-8):
        prob = json.loads((ROOT / "problems" / "sample2x2.json").read_text())
        prob["A"][0][0] = [a00, 0.0]
        results = _results(tmp_path, "stokes", _write(tmp_path, prob, f"{a00}.json"), f"{a00}")
        assert results["connection"]["gamma"] != 0, a00
        assert results["formula_oracle_max_diff"] < 1e-10, a00


def test_cli_stokes_gamma_on_an_integer_is_a_failed_connection(tmp_path):
    """A_00 = 1e17 is an integer that no shift below 1 moves in floating point: the picked
    gamma leaves lambda'_0 on the integer, so the connection stage fails with BadGamma, exit 3."""
    result, failed = _stokes_on_a00(tmp_path, 1e17)
    assert result.exit_code == 3, result.output
    assert failed["connection"].startswith("BadGamma"), failed


@pytest.mark.parametrize("cmd, stage", [("stokes", "connection"), ("deform", "path_0")])
def test_cli_off_the_family_is_a_failed_stage(tmp_path, cmd, stage):
    """coalescing3x3 with A_01 = 0.2 and A_10 = 0.1 is off the isomonodromic family: its
    in-group products (0.57 of max|P|) fail the check, exit 3, where its formula pair was
    off by O(1) at exit 0."""
    prob = json.loads((ROOT / "problems" / "coalescing3x3.json").read_text())
    prob["A"][0][1], prob["A"][1][0] = [0.2, 0.0], [0.1, 0.0]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [cmd, "--spec", _write(tmp_path, prob), "--out", str(out)])
    assert result.exit_code == 3, result.output
    stages = {s["name"]: s for s in json.loads((out / f"{cmd}_report.json").read_text())["stages"]}
    assert stages[stage]["error"].startswith("SingularF1"), stages
    assert "(j, k) = (0, 1)" in stages[stage]["error"]


def _stokes_on_a00(tmp_path, a00):
    """stokes with the oracle on SAMPLE with A_00 = a00: exit code and failed stages' errors."""
    prob = json.loads(json.dumps(SAMPLE))
    prob["A"][0][0] = [a00.real, a00.imag]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", _write(tmp_path, prob),
                                       "--out", str(out)])
    stages = json.loads((out / "stokes_report.json").read_text())["stages"]
    return result, {s["name"]: s["error"] for s in stages if s["status"] == "failed"}


def test_cli_stokes_on_a_subnormal_coefficient_runs(tmp_path):
    """A_10 = -5e-324 leaves subnormal series coefficients, which set no hairpin start: no
    overflow warning (an error under the test settings), and the routes agree within 1e-12."""
    prob = json.loads(json.dumps(SAMPLE))
    prob["A"][1][0] = [-5e-324, 0.0]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", _write(tmp_path, prob),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    results = json.loads((out / "stokes_report.json").read_text())["results"]
    assert results["formula_oracle_max_diff"] < 1e-12


_IM_LIMIT = ("at pole 0: e^(2 pi |Im lambda'_k|) leaves the float range above "
             "|Im lambda'_k| = 112.97")


@pytest.mark.parametrize("a00, errors", [
    (0.5 + 120j, {"connection": f"IllConditioned: Im lambda'_k = 120 {_IM_LIMIT}"}),
    (0.5 - 300j, {"connection": f"IllConditioned: Im lambda'_k = -300 {_IM_LIMIT}",
                  "formal_coefficients": "IllConditioned: Gamma(lambda'_k + 1 - l) leaves the "
                                         "float range at pole 0"}),
    (0.5 + 60j, {"connection": "IllConditioned: projection residual inf for c[0,1] at pole 0"}),
    (0.5 + 100j, {"connection": "IllConditioned: projection residual nan for c[0,1] at pole 0"}),
    (0.5 - 150j, {"connection": f"IllConditioned: Im lambda'_k = -150 {_IM_LIMIT}"}),
])
def test_cli_stokes_large_imaginary_exponent_is_a_typed_failure(tmp_path, a00, errors):
    """A large |Im lambda'_0| ends in a typed failure with a report, exit 3.

    Above |Im lambda'_0| = 112.97, e^{2 pi |Im lambda'_0|} leaves the float
    range, of alpha_0 for a positive Im and of the Stokes formula for a
    negative one: the connection stage names the pole before any carry.
    The reflection of Gamma in the asymptotic coefficients overflows at
    Im = -300; below the bound the projection overflows.  RuntimeWarnings
    are errors under pytest, so a numpy overflow warning first would end
    the run with exit 1.
    """
    result, failed = _stokes_on_a00(tmp_path, a00)
    assert result.exit_code == 3, result.output
    assert failed.keys() == errors.keys()
    for name, error in failed.items():
        assert error.startswith(errors[name]), error


@pytest.mark.parametrize("a00", [200.0, 200.5, -200.0])
def test_cli_stokes_overflowing_exponent_is_a_typed_failure(tmp_path, a00):
    """f_k leaves the float range from about |lambda'_k| = 171: exit 3 with a report.

    The connection stage fails on the shifted exponent, formal_coefficients
    on the unshifted one; each names the error.
    """
    result, failed = _stokes_on_a00(tmp_path, a00)
    assert result.exit_code == 3, result.output
    assert list(failed) == ["connection", "formal_coefficients"]
    for error in failed.values():
        assert error.startswith("IllConditioned: leading factor f_k"), error
        assert "lambda'_k" in error


@pytest.mark.parametrize("entry, value, errors", [
    ((0, 0), 1e200, {"connection": "BadGamma",
                     "formal_coefficients": "IllConditioned: the formal recursion"}),
    ((0, 1), 1e12, {"connection": "IllConditioned: the local series at pole 0 leaves the float "
                                   "range at order 30",
                    "formal_coefficients": "IllConditioned: the local series at pole 0 leaves the "
                                           "float range at order 30"}),
])
def test_cli_stokes_overflowing_series_is_a_typed_failure(tmp_path, entry, value, errors):
    """A formal recursion or a local series past the float range: exit 3 with a report.

    RuntimeWarnings are errors under pytest, so a numpy overflow warning
    before the typed failure would end the command with exit 1 instead.  The
    series of both poles run as one stacked recursion, and the failure still
    names the pole and the first order past the float range.  No shift moves
    A_00 = 1e200 off the integers in floating point: the connection stage
    fails with BadGamma.
    """
    from isomonodromy.cli import NUMERICAL_ERRORS

    prob = json.loads(json.dumps(SAMPLE))
    prob["A"][entry[0]][entry[1]] = [value, 0.0]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", _write(tmp_path, prob),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    stages = json.loads((out / "stokes_report.json").read_text())["stages"]
    failed = {s["name"]: s["error"] for s in stages if s["status"] == "failed"}
    assert failed.keys() == errors.keys()
    names = {e.__name__ for e in NUMERICAL_ERRORS}
    for name, error in failed.items():
        assert error.startswith(errors[name]), error
        assert error.split(":")[0] in names


@pytest.mark.parametrize("u1", [1e17, 1e200, 1e308])
def test_cli_stokes_at_a_large_u_is_a_typed_failure(tmp_path, u1):
    """sample2x2 with u = u_c = (0, u1): the series of pole 0 would be summed at its base
    point, half a loop radius from it, where x^40 leaves the float range.  The connection
    stage fails with IllConditioned naming the pole before that arithmetic,
    formal_coefficients runs, and the run exits 3 with no numpy overflow warning (an error
    under pytest) on the way; at 1e308 the refusal also comes before the continuation's
    deep point, which would lie past the float range."""
    prob = json.loads(json.dumps(SAMPLE))
    prob["u"] = prob["u_c"] = [[0.0, 0.0], [u1, 0.0]]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", _write(tmp_path, prob),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    stages = json.loads((out / "stokes_report.json").read_text())["stages"]
    assert [s["status"] for s in stages] == ["failed", "skipped", "ok", "skipped"]
    assert stages[0]["error"].startswith("IllConditioned: the local series at pole 0 is summed "
                                         "at |x| = 1.06e+"), stages[0]["error"]
    assert stages[0]["error"].endswith("where x^40 leaves the float range")


# inputs that tests/test_fuzz.py found warning (an error under pytest), mended where the value
# first leaves the float range: (problem, edits of [re, im] entries, command, exit code,
# failed stage -> start of its error)
EDGE_INPUTS = {
    "check-norm": ("sample2x2", {("A", 1, 0): [1e300, 0.0],
                                 ("u", 0): [0.0, -3.0234672043681788e16]}, "check", 3,
                   {"integrability": "DriftExceeded: invariant drift too large: diag 2.18e+245"}),
    "check-omega": ("sample2x2", {("u", 0): [0.0, 1e308], ("u", 1): [1e308, 0.0],
                                  ("A", 0, 1): [2.0, 9.047567231561042e92]}, "check", 0, {}),
    "check-gap": ("resonant_group", {("u", 1): [-1.7976931348623157e308, 0.0]}, "check", 0, {}),
    "check-ratio": ("coalescing3x3", {("A", 0, 1): [-0.01597393211124391, 1e308]}, "check", 3,
                    {"integrability": "StepFailure", "vanishing": "IllConditioned: |A_ij|, "
                     "|u_i - u_j| or a ratio of the vanishing report of pair (0, 1)"}),
    "levelt": ("coalescing3x3", {("A", 1, 2): [-0.3556777794895197, 6.287838554784802e16]},
               "levelt", 3, {"group_0": "IllConditioned: the Levelt recursion of group (0, 1)"}),
    "stokes-gamma": ("sample2x2", {("A", 0, 0): [0.5, -3.5310280151773996e16],
                                   ("u", 1): [1.0, -3.5310280151773996e16]}, "stokes", 3,
                     {"connection": "IllConditioned: Im lambda'_k",
                      "formal_coefficients": "IllConditioned: Gamma(lambda'_k + 1 - l)"}),
    "stokes-exponent": ("coalescing3x3", {("A", 0, 0): [1e308, 112.0]}, "stokes", 3,
                        {"connection": "IllConditioned: Re lambda'_k = 1e+308 at pole 0",
                         "formal_coefficients": "IllConditioned: the formal recursion"}),
    "stokes-carry": ("coalescing3x3", {("A", 0, 2): [-19125767.684662443, 0.003504753806184138]},
                     "stokes", 3, {"connection": "StepFailure: continuation of 9 piece(s)"}),
    "deform-carry": ("coalescing3x3", {("A", 0, 2): [-19125767.684662443, 0.003504753806184138]},
                     "deform", 3, {"path_0": "StepFailure: continuation of 9 piece(s)"}),
    "stokes-basis": ("coalescing3x3", {("A", 0, 1): [113.0, -0.008186421542610189],
                                       ("A", 1, 0): [-0.01483923241692367, 113.0]}, "stokes", 3,
                     {"connection": "IllConditioned: projection residual nan for c[0,1]"}),
}


@pytest.mark.parametrize("case", sorted(EDGE_INPUTS))
def test_cli_edge_inputs_end_typed(tmp_path, case):
    """Each input warned in numpy before its mend (a traceback under -W error): an overflowing
    sum of squares in ||A|| of the integrability stage's power sums, a quotient A_ij/(u_j-u_i)
    of its omegas, a gap or |A_ij| ratio of the vanishing report, the Levelt recursion,
    Gamma(lambda'_k + 1 - l) underflowing to 0 in the formal stage, 2 pi lambda'_k past the
    float range in alpha_k (a ValueError of cmath), a Taylor term of the carry, and the basis
    product of continue_basis.  Now the command exits with its code, the stages listed fail
    with typed errors and every other stage is ok or skipped."""
    problem, edits, cmd, code, failed = EDGE_INPUTS[case]
    prob = json.loads((ROOT / "problems" / f"{problem}.json").read_text())
    prob.setdefault("paths", [[prob["u"]]])
    for (key, *at), value in edits.items():
        node = prob[key]
        for i in at[:-1]:
            node = node[i]
        node[at[-1]] = value
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [cmd, "--spec", _write(tmp_path, prob), "--out", str(out)])
    assert result.exit_code == code, (result.output, result.exc_info)
    stages = json.loads((out / f"{cmd}_report.json").read_text())["stages"]
    errors = {s["name"]: s["error"] for s in stages if s["status"] == "failed"}
    assert errors.keys() == failed.keys(), errors
    for name, start in failed.items():
        assert errors[name].startswith(start), errors[name]


def test_cli_check_overflowing_commutators_is_a_typed_failure(tmp_path):
    """check on coalescing3x3 with A_00 = A_10 = 1e200: the in-group commutator
    [B_0, B_1] has the row A_10 w_0, w_0 = row 0 of A+I, whose entry
    A_10 (A_00 + 1) is past the float range; the vanishing stage fails with
    IllConditioned naming the pair, exit 3.

    No numpy overflow warning (an error under pytest) comes before it.
    """
    prob = json.loads((ROOT / "problems" / "coalescing3x3.json").read_text())
    prob["A"][0][0] = prob["A"][1][0] = [1e200, 0.0]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["check", "--spec", _write(tmp_path, prob),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    stages = json.loads((out / "check_report.json").read_text())["stages"]
    failed = {s["name"]: s["error"] for s in stages if s["status"] == "failed"}
    assert failed.keys() == {"integrability", "vanishing"}
    assert failed["integrability"].startswith("StepFailure")
    assert failed["vanishing"] == ("IllConditioned: the residue commutator [B_0, B_1] "
                                   "leaves the float range")


def test_cli_check_on_a_stalling_solve_is_a_typed_failure(tmp_path):
    """check on sample2x2 with A_00 = 0.5 + 1e17i, which hung: its stencil solve's first step
    is shortened by a factor of 1.9e-13, and the 1e-3 segment would take about 1e14 steps.
    The solve stops at ode.MAX_STEPS, so the run exits 3 within 5 s (1.2 s measured), the
    integrability stage failed with a StepFailure and the vanishing stage ok."""
    prob = json.loads(json.dumps(SAMPLE))
    prob["A"][0][0] = [0.5, 1e17]
    out = tmp_path / "out"
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["check", "--spec", _write(tmp_path, prob),
                                       "--out", str(out)])
    assert time.perf_counter() - start < 5.0
    assert result.exit_code == 3, result.output
    stages = {s["name"]: s for s in json.loads((out / "check_report.json").read_text())["stages"]}
    assert stages["integrability"]["status"] == "failed"
    assert stages["integrability"]["error"].startswith(
        "StepFailure: Schlesinger transport short of its target after 1000 steps: t = ")
    assert stages["vanishing"]["status"] == "ok"


def test_cli_check_on_a_residual_past_the_float_range_is_a_typed_failure(tmp_path):
    """A = [[0.5, 1e152], [1e152, 0.5]] at u = (0, 2e-3): the flow is exactly stationary there,
    so every stencil transport stays finite, but the commutator of the omegas, of size about
    (1e152 / 2e-3)^2, is not.  The integrability stage fails with IllConditioned, exit 3, and
    the vanishing stage is ok."""
    prob = {"schema_version": 1, "epsilon0": 1e-4, "tau": math.pi / 4,
            "A": [[[0.5, 0.0], [1e152, 0.0]], [[1e152, 0.0], [0.5, 0.0]]],
            "u": [[0.0, 0.0], [2e-3, 0.0]]}
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["check", "--spec", _write(tmp_path, prob),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    stages = {s["name"]: s for s in json.loads((out / "check_report.json").read_text())["stages"]}
    assert stages["integrability"]["error"] == ("IllConditioned: the integrability residual "
                                                "leaves the float range")
    assert stages["vanishing"]["status"] == "ok"


def test_cli_stokes_with_oracle(tmp_path):
    """sample2x2's routes agree within 1e-10 (1.6e-12 measured), and each route's monodromy
    invariant is below 1e-10 (9.6e-13 formula, 1.0e-13 oracle)."""
    path = _write(tmp_path, SAMPLE)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    results = json.loads((out / "stokes_report.json").read_text())["results"]
    assert results["formula_oracle_max_diff"] < 1e-10
    for route in ("stokes_formula", "stokes_oracle"):
        assert results[route]["monodromy_invariant"] < 1e-10, route


def test_cli_levelt_resonant_group(tmp_path):
    prob = {
        "schema_version": 1,
        "A": [
            [[0.5, 0.0], [0.0, 0.0], [0.4, 0.0]],
            [[0.0, 0.0], [2.5, 0.0], [-0.3, 0.0]],
            [[0.6, 0.0], [0.7, 0.0], [0.25, 0.0]],
        ],
        "u": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        "epsilon0": 0.09,
        "tau": 0.35,
        "order": 24,
    }
    path = _write(tmp_path, prob)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["levelt", "--spec", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "levelt_report.json").read_text())
    groups = report["results"]["groups"]
    assert groups[0]["free_parameter_count"] == 1
    assert groups[0]["kappa"] == 2
    assert groups[1]["note"].startswith("singleton")


def test_cli_deform_exit_3_on_guarded_path(tmp_path):
    prob = dict(SAMPLE)
    # second waypoint collapses the poles: transport guard must fire
    prob["paths"] = [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]]
    path = _write(tmp_path, prob)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["deform", "--spec", path, "--out", str(out)])
    assert result.exit_code == 3
    report = json.loads((out / "deform_report.json").read_text())
    assert any(s["status"] == "failed" for s in report["stages"])



def test_cli_deform_reaches_the_first_waypoint_by_transport_from_u(tmp_path):
    """A path starts at the problem's u and reaches its first waypoint by transport.

    coalescing3x3's path without its first waypoint, u itself, beside the
    whole path: the decay rows (gap, |A_01|, |A_10|, in-group product) of
    the shorter path are those of the longer one from its second sample on,
    bit for bit, and the longer one's first sample holds the problem's A.
    """
    prob = json.loads((ROOT / "problems" / "coalescing3x3.json").read_text())
    [whole] = prob["paths"]
    prob["paths"] = [whole[1:], whole]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["deform", "--spec", _write(tmp_path, prob),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    short, full = ([row[1:] for row in csv.reader(open(out / f"decay_path{p}.csv"))][1:]
                   for p in (0, 1))
    assert len(short) == 2 and short == full[1:]
    a01 = complex(*prob["A"][0][1])
    assert float(full[0][3]) == abs(a01) != float(short[0][3])

def _crossing_path(tmp_path, offset):
    """coalescing3x3 with one path from u to the first crossing-locus hit, turned by ``offset``."""
    prob = json.loads((ROOT / "problems" / "coalescing3x3.json").read_text())
    geo = ProblemSpec(prob).geometry
    i, _, phi = _crossing_locus(geo)[0]
    end = geo.u_c.copy()
    end[i - 1] += geo.epsilon0 * cmath.exp(1j * (phi + offset))
    prob["paths"] = [[prob["u"], [[z.real, z.imag] for z in end]]]
    return _write(tmp_path, prob)


@pytest.mark.parametrize("offset, error", [(1e-13, "NonAdmissibleError"),
                                           (-1e-13, "NonAdmissibleError"), (1e-6, None)])
def test_cli_deform_near_the_crossing_locus(tmp_path, offset, error):
    """A sample within 1e-9 rad of the hit is a tie of the ordering: a failed stage, exit 3."""
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["deform", "--spec", _crossing_path(tmp_path, offset),
                                       "--out", str(out)])
    assert result.exit_code == (0 if error is None else 3), result.output
    [stage] = json.loads((out / "deform_report.json").read_text())["stages"]
    if error is None:
        assert stage["status"] == "ok"
    else:
        assert stage["error"].startswith(error)


def test_cli_deform_on_the_crossing_locus_exits_3_quickly(tmp_path):
    """At the exact hit the ascent leg runs through the other pole: StepFailure, not a hang."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "isomonodromy.cli", "deform", "--spec",
                           _crossing_path(tmp_path, 0.0), "--out", str(tmp_path / "out")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    [stage] = json.loads((tmp_path / "out" / "deform_report.json").read_text())["stages"]
    assert stage["error"].startswith("StepFailure")


def _moved(tmp_path, angles, key="u", radius=1.0):
    """sample2x2 with u_c = (0, 1) and u_1 = r e^{ia}: the problem's ``u`` for one angle, or
    one deform path through all of them.

    The dominance sign of the pair (0, 1), that of Re(e^{i tau}(u_0 - u_1)) = -r cos(pi/4 + a)
    at tau = pi/4, is u_c's at a = 0.5 and the opposite at a = 0.9, whatever r: the pair's
    Stokes ray has crossed tau there.
    """
    prob = dict(SAMPLE, u_c=SAMPLE["u"])
    points = [[[0.0, 0.0], [radius * math.cos(a), radius * math.sin(a)]] for a in angles]
    if key == "u":
        [prob["u"]] = points
    else:
        prob["paths"] = [points]
    return _write(tmp_path, prob)


@pytest.mark.parametrize("radius", [1.0, 2.0], ids=["on", "off"])
def test_cli_stokes_past_a_crossed_ray_exits_3(tmp_path, radius):
    """A u whose cross-group dominance sign differs from u_c's fails the connection stage,
    with u_1 on the unit circle and off it, and neither route runs.

    The formula assembles the pair with u_c's signs, so there it read 2.8 from the oracle
    at exit 0.
    """
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", _moved(tmp_path, [0.9], radius=radius),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    stages = json.loads((out / "stokes_report.json").read_text())["stages"]
    assert (stages[0]["name"], stages[0]["status"]) == ("connection", "failed")
    assert stages[0]["error"] == ("NonAdmissibleError: u leaves the tau-cell of u^c at pair "
                                  "(0, 1): crossed")
    assert {s["name"]: s["status"] for s in stages[1:]} == {
        "stokes_formula": "skipped", "formal_coefficients": "ok", "stokes_oracle": "skipped"}


def test_cli_deform_through_a_crossed_ray_exits_3(tmp_path):
    """A path from u_1 = 1 to e^{0.9i} fails where the (0, 1) ray has crossed tau; its
    Stokes entries read a variation of 4.9 at exit 0 before."""
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["deform", "--spec",
                                       _moved(tmp_path, [0.0, 0.3, 0.6, 0.9], key="paths"),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    [stage] = json.loads((out / "deform_report.json").read_text())["stages"]
    assert stage["error"].endswith("at pair (0, 1): crossed")


def test_cli_stokes_outside_the_polydisc_on_the_same_side_runs(tmp_path):
    """u_1 = e^{0.5i} lies outside the polydisc of radius 0.08 but keeps u_c's signs: both
    routes run and agree within 1e-10 (2.4e-12 measured)."""
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", _moved(tmp_path, [0.5]), "--out",
                                       str(out)])
    assert result.exit_code == 0, result.output
    results = json.loads((out / "stokes_report.json").read_text())["results"]
    assert results["formula_oracle_max_diff"] < 1e-10


@pytest.mark.parametrize("cmd, option, value", [
    ("rays", "--tol", "1e-9"), ("rays", "--order", "30"), ("rays", "--gamma", "0.1"),
    ("levelt", "--tol", "1e-9"), ("levelt", "--order", "30"), ("levelt", "--gamma", "0.1"),
    ("check", "--tol", "1e-9"), ("check", "--order", "30"), ("check", "--gamma", "0.1"),
    ("check", "--step", "1e-3"),
    ("stokes", "--tol", "1e-9"), ("stokes", "--order", "30"), ("stokes", "--gamma", "0.3"),
    ("stokes", "--oracle", "on"),
    ("deform", "--tol", "1e-9"), ("deform", "--order", "30"), ("deform", "--gamma", "-0.2"),
    ("deform", "--oracle", "on"),
])
def test_cli_unread_override_is_a_usage_error(tmp_path, cmd, option, value):
    """The problem file alone sets a run: no command takes --tol, --order, --gamma or
    --step, and stokes always runs the oracle: no command takes --oracle."""
    path = _write(tmp_path, SAMPLE)
    result = CliRunner().invoke(
        main, [cmd, "--spec", path, "--out", str(tmp_path / "out"), option, value]
    )
    assert result.exit_code == 2
    assert f"No such option '{option}'" in result.output
    assert not (tmp_path / "out").exists()


RESONANT = {
    "schema_version": 1,
    "A": [
        [[0.5, 0.0], [0.0, 0.0], [0.4, 0.0]],
        [[0.0, 0.0], [2.5, 0.0], [-0.3, 0.0]],
        [[0.6, 0.0], [0.7, 0.0], [0.25, 0.0]],
    ],
    "u": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    "epsilon0": 0.09,
    "tau": 0.35,
    "order": 24,
}


def test_cli_stokes_resonant_partial_report(tmp_path):
    """On the coalescence locus: family notice emitted, exit code 3."""
    path = _write(tmp_path, RESONANT)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", path, "--out", str(out)])
    assert result.exit_code == 3
    report = json.loads((out / "stokes_report.json").read_text())
    statuses = {s["name"]: s["status"] for s in report["stages"]}
    assert statuses["connection"] == "failed"
    assert statuses["formal_coefficients"] == "ok"
    formal = report["results"]["formal"]
    assert formal["free_positions"] == [[2, 1, 2]]
    assert "family" in formal["family_notice"]


def test_cli_levelt_free_value_flag(tmp_path):
    path = _write(tmp_path, RESONANT)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["levelt", "--spec", path, "--out", str(out), "--free", "2,1,2=0.25:0.5"],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "levelt_report.json").read_text())
    assert report["results"]["groups"][0]["free_parameter_count"] == 1


# items on copies of resonant_group.json: 2,3,1 is resonant off the group {1, 2} of u_c
# (the merged residue's exponents are T = (-2, -1.37, 0), so T_3 - T_1 = 2), and 2,2,3 at a
# merged pole of three members with resonances at l = 2 and l = 4
_FREE_PROBLEMS = {
    "2,3,1=0.5": {"A": [[[1.0, 0.0], [0.0, 0.0], [0.4, 0.0]],
                        [[0.0, 0.0], [0.37, 0.0], [-0.3, 0.0]],
                        [[0.6, 0.0], [0.7, 0.0], [0.25, 0.0]]]},
    "2,2,3=nan": {
        "A": [[[x, 0.0] for x in row] for row in [[0.5, 0, 0, 0.4], [0, 2.5, 0, -0.3],
                                                  [0, 0, 4.5, 0.2], [0.6, 0.7, 0.5, 0.25]]],
        "u": [[0.0, 0.0]] * 3 + [[1.0, 0.0]], "u_c": [[0.0, 0.0]] * 3 + [[1.0, 0.0]]},
}


@pytest.mark.parametrize("item, code", [
    ("2,7,2=0.5", 2),  # index outside 1..n
    ("2,0,2=0.5", 2),  # index outside 1..n (0 is not 1-based)
    ("9,1,2=0.5", 2),  # A_22 - A_11 = 2, not 9
    ("2,1,2=nan", 2),  # a non-finite value at the resonant position
    ("2,1,2=inf", 2),
    ("2,1,2=1e400", 2),  # past the float range
    ("2,1,2=0.5:nan", 2),
    ("2,2,3=nan", 2),  # the doubly resonant copy, whose report would hold the NaN
    ("2,1,2=0.5", 0),  # the one resonant position of resonant_group
    ("2,3,1=0.5", 0),  # the off-group position, which levelt reports
])
def test_cli_levelt_free_items_are_checked(tmp_path, monkeypatch, item, code):
    """An item that names no position levelt reports as free, or gives it a non-finite value,
    is a problem-file error, before any stage; one that does is reported and its value lands
    in G."""
    from isomonodromy import frobenius

    prob = json.loads((ROOT / "problems" / "resonant_group.json").read_text())
    prob.update(_FREE_PROBLEMS.get(item, {}))
    runs = []

    def levelt_at_confluence(*args, **kwargs):
        runs.append(levelt(*args, **kwargs))
        return runs[-1]

    levelt = frobenius.levelt_at_confluence
    monkeypatch.setattr(frobenius, "levelt_at_confluence", levelt_at_confluence)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["levelt", "--spec", _write(tmp_path, prob),
                                       "--out", str(out), "--free", item])
    assert result.exit_code == code, result.output
    assert (out / "levelt_report.json").exists() == (code == 0)
    if code:
        assert "problem file error: bad --free item" in result.output
        return
    l, i, j = (int(x) for x in item.partition("=")[0].split(","))
    report = json.loads((out / "levelt_report.json").read_text())
    assert [l, i, j] in report["results"]["groups"][0]["free_parameters"]
    assert [data.G_series[l][i - 1, j - 1] for data in runs] == [0.5]


def test_cli_levelt_unparsable_free_item_exits_2(tmp_path):
    """An item with no l,i,j position is a problem-file error that quotes the parse failure."""
    spec = str(ROOT / "problems" / "resonant_group.json")
    result = CliRunner().invoke(main, ["levelt", "--spec", spec, "--out", str(tmp_path / "out"),
                                       "--free", "1,2=x"])
    assert result.exit_code == 2, result.output
    assert ("problem file error: bad --free item '1,2=x': not enough values to unpack "
            "(expected 3, got 2)" in result.output), result.output
    assert not (tmp_path / "out").exists()


def test_cli_stokes_on_the_locus_says_the_local_series_needs_distinct_poles(tmp_path):
    """resonant_group sits on the locus, where no local series exists at the merged pole."""
    spec = str(ROOT / "problems" / "resonant_group.json")
    result = CliRunner().invoke(main, ["stokes", "--spec", spec, "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    report = json.loads((tmp_path / "stokes_report.json").read_text())
    [stage] = [s for s in report["stages"] if s["name"] == "connection"]
    assert stage["error"] == ("ResonanceAmbiguity: poles u_0 and u_1 coincide: the local series "
                              "at u_0 needs distinct poles")


def test_cli_check_runs(tmp_path):
    path = _write(tmp_path, SAMPLE)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["check", "--spec", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "check_report.json").read_text())
    assert report["results"]["integrability"]["at_noise_floor"]


def test_cli_check_on_the_locus_still_checks_vanishing(tmp_path):
    """resonant_group sits on the locus: integrability fails at once, vanishing still runs."""
    out = tmp_path / "out"
    spec = str(ROOT / "problems" / "resonant_group.json")
    with np.errstate(all="raise"):
        result = CliRunner().invoke(main, ["check", "--spec", spec, "--out", str(out)])
    assert result.exit_code == 3, result.output
    report = json.loads((out / "check_report.json").read_text())
    stages = {s["name"]: s for s in report["stages"]}
    assert stages["integrability"]["status"] == "failed"
    assert stages["integrability"]["error"].startswith("StepFailure")
    assert stages["vanishing"]["status"] == "ok"
    vanishing = report["results"]["vanishing"]
    assert [row["pair"] for row in vanishing["pairs"]] == [[0, 1]]
    assert all(row["pass"] for row in vanishing["pairs"])


def test_cli_check_on_the_locus_reports_a_violated_pair(tmp_path):
    """resonant_group with A_01 = 0.3 breaks the vanishing condition of its coalesced pair: the
    vanishing stage reports that pair as failing, and integrability fails on the locus, exit 3."""
    prob = json.loads((ROOT / "problems" / "resonant_group.json").read_text())
    prob["A"][0][1] = [0.3, 0.0]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["check", "--spec", _write(tmp_path, prob),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    report = json.loads((out / "check_report.json").read_text())
    assert [s["status"] for s in report["stages"]] == ["failed", "ok"]
    [row] = report["results"]["vanishing"]["pairs"]
    assert row["pair"] == [0, 1] and row["abs_A"] == 0.3 and row["pass"] is False


def test_cli_check_beside_the_locus_exits_3_quickly(tmp_path):
    """u_1 1e-3 from u_0: the step-1e-3 stencil reaches the locus and fails at once with exit 3."""
    prob = dict(RESONANT, u=[[0.0, 0.0], [1e-3, 0.0], [1.0, 0.0]], u_c=RESONANT["u"])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "isomonodromy.cli", "check", "--spec",
                           _write(tmp_path, prob), "--out", str(tmp_path / "out")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    report = json.loads((tmp_path / "out" / "check_report.json").read_text())
    stages = {s["name"]: s for s in report["stages"]}
    assert stages["integrability"]["error"].startswith("StepFailure")
    assert stages["vanishing"]["status"] == "ok"


def test_shipped_sample_problems_parse():
    root = Path(__file__).resolve().parents[1] / "problems"
    for name in ("sample2x2.json", "coalescing3x3.json", "resonant_group.json"):
        ProblemSpec.load(str(root / name))


def _strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("cmd, problem", [
    (cmd, problem) for cmd in ("rays", "stokes", "deform", "levelt", "check")
    for problem in SHIPPED])
def test_cli_reports_are_strict_json(tmp_path, cmd, problem):
    """Every report a command writes on a shipped problem parses as standard JSON."""
    spec = str(ROOT / "problems" / f"{problem}.json")
    result = CliRunner().invoke(main, [cmd, "--spec", spec, "--out", str(tmp_path)])
    assert result.exit_code in (0, 2, 3), result.output
    report = tmp_path / f"{cmd}_report.json"
    assert report.exists() == (result.exit_code != 2)  # 2: deform without paths
    if report.exists():
        _strict_json(report.read_text())


def test_cli_rays_crossing_locus_hits_lie_on_tau(tmp_path):
    """Two hits per ordered sibling pair, each with the pair's ray on tau."""
    path = ROOT / "problems" / "coalescing3x3.json"
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["rays", "--spec", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out / "crossing_locus.csv", encoding="utf-8") as fh:
        hits = [(int(r["coordinate"]) - 1, int(r["sibling"]) - 1, float(r["phi"]))
                for r in csv.DictReader(fh)]
    geo = ProblemSpec.load(str(path)).geometry
    pairs = [(i, j) for g in geo.groups for i in g for j in g if i != j]
    assert pairs and sorted((i, j) for i, j, _ in hits) == sorted(pairs * 2)
    assert json.loads((out / "rays_report.json").read_text())["results"][
        "crossing_locus_hits"] == len(hits)
    for i, j, phi in hits:
        u = geo.u_c.copy()
        u[i] += geo.epsilon0 * cmath.exp(1j * phi)
        ok, offenders = is_in_cell(u, geo)
        assert not ok and (min(i, j), max(i, j), "ray_on_tau") in offenders, phi


def test_cli_levelt_violated_vanishing_is_a_failed_stage(tmp_path):
    """Nonvanishing in-group couplings at u_c fail the group stage with SingularF1: exit 3."""
    out = tmp_path / "out"
    spec = str(ROOT / "problems" / "coalescing3x3.json")
    result = CliRunner().invoke(main, ["levelt", "--spec", spec, "--out", str(out)])
    assert result.exit_code == 3, result.output
    report = json.loads((out / "levelt_report.json").read_text())
    [stage] = [s for s in report["stages"] if s["name"] == "group_0"]
    assert stage["status"] == "failed" and stage["error"].startswith("SingularF1")


def _key_paths(value, prefix=""):
    """Sorted dotted key paths of a results block; a list of objects adds [i] per item."""
    if isinstance(value, dict):
        return sorted(p for k, v in value.items()
                      for p in _key_paths(v, f"{prefix}.{k}" if prefix else k))
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return sorted(p for i, v in enumerate(value) for p in _key_paths(v, f"{prefix}[{i}]"))
    return [prefix]


def _block(name, keys):
    return [f"{name}.{k}" for k in keys]


_RAYS = sorted(["basic_rays", "crossing_locus_hits", "epsilon0_margin", "mu", "nu_offset",
                "skipped_pairs_at_uc", "tau_0"]
               + [f"sectors[{i}].{k}" for i in range(4) for k in ("at_uc", "label", "polydisc")])
_RAY_LABELS = _block("ray_labels", ["eta", "mu", "nu", "nu_offset", "tau", "tau_nu.-1",
                                    "tau_nu.0", "tau_nu.1", "tau_nu.2"])
_PAIR = ["S_nu", "S_nu_plus_mu", "method", "nu"]
_STOKES = sorted(
    _block("connection", ["C", "alpha", "eta", "gamma", "in_group_product",
                          "max_projection_residual", "method", "provenance"])
    + _block("formal", ["F", "asymptotic_vs_recursion_max_diff", "free_positions", "method"])
    + ["formula_oracle_max_diff", "gamma_shift_used"] + _RAY_LABELS
    + _block("stokes_formula", _PAIR + ["monodromy_invariant", "structural_zero_pairs"])
    + _block("stokes_oracle", _PAIR + ["directions_h0", "directions_h1", "ladder_h0",
                                       "ladder_h1", "monodromy_invariant", "z_spread_h0",
                                       "z_spread_h1"]))
_SINGLETON = ["group", "note"]
_LEVELT = ["R_norms.2", "T_diagonal", "free_parameter_count", "free_parameters", "group",
           "kappa", "method", "partial_nonresonance"]
_INTEGRABILITY = _block("integrability", ["at_noise_floor", "method", "ratio", "residual",
                                          "residual_half_step", "step"])
_VANISHING = _block("vanishing", ["method"])
_PAIR_ROW = _block("vanishing.pairs[0]", ["abs_A", "commutator_norm", "commutator_ratio", "gap",
                                          "near_locus", "pair", "pass", "ratio"])
# (command, problem): (exit code, [(stage, status), ...], sorted results key paths);
# stages None for a problem-file error, which writes no report
REPORT_SHAPES = {
    **{("rays", p): (0, [("rays", "ok"), ("crossing_locus", "ok")], _RAYS) for p in SHIPPED},
    **{("stokes", p): (0, [("connection", "ok"), ("stokes_formula", "ok"),
                           ("formal_coefficients", "ok"), ("stokes_oracle", "ok")], _STOKES)
       for p in ("sample2x2", "coalescing3x3")},
    ("stokes", "resonant_group"): (
        3, [("connection", "failed"), ("stokes_formula", "skipped"),
            ("formal_coefficients", "ok"), ("stokes_oracle", "skipped")],
        sorted(_block("formal", ["F", "family_notice", "free_positions", "method",
                                 "obstructed_positions"]) + _RAY_LABELS)),
    ("levelt", "sample2x2"): (0, [], _block("groups[0]", _SINGLETON)
                              + _block("groups[1]", _SINGLETON)),
    ("levelt", "coalescing3x3"): (3, [("group_0", "failed")], _block("groups[0]", _SINGLETON)),
    ("levelt", "resonant_group"): (0, [("group_0", "ok")], _block("groups[0]", _LEVELT)
                                   + _block("groups[1]", _SINGLETON)),
    ("check", "sample2x2"): (0, [("integrability", "ok"), ("vanishing", "ok")],
                             sorted(["epsilon0_margin", "vanishing.pairs"] + _INTEGRABILITY
                                    + _VANISHING)),
    ("check", "coalescing3x3"): (0, [("integrability", "ok"), ("vanishing", "ok")],
                                 sorted(["epsilon0_margin"] + _INTEGRABILITY + _VANISHING
                                        + _PAIR_ROW)),
    ("check", "resonant_group"): (3, [("integrability", "failed"), ("vanishing", "ok")],
                                  sorted(["epsilon0_margin"] + _VANISHING + _PAIR_ROW)),
    ("deform", "sample2x2"): (2, None, None),
    ("deform", "coalescing3x3"): (0, [("path_0", "ok")], _block("paths[0]", [
        "c_max_variation", "diag_drift", "in_group_product", "path", "samples",
        "spectrum_drift", "stokes_max_variation"])),
    ("deform", "resonant_group"): (2, None, None),
}


@pytest.mark.parametrize("cmd, problem", sorted(REPORT_SHAPES))
def test_report_shape_is_pinned(tmp_path, cmd, problem):
    """Exit code, the five top-level keys, schema version, command name, metadata keys,
    ordered stage records and results key paths of each command on each shipped problem;
    no check of the report's shape runs in ``cli`` itself."""
    code, stages, keys = REPORT_SHAPES[cmd, problem]
    spec = str(ROOT / "problems" / f"{problem}.json")
    result = CliRunner().invoke(main, [cmd, "--spec", spec, "--out", str(tmp_path)])
    assert result.exit_code == code, result.output
    report = tmp_path / f"{cmd}_report.json"
    assert report.exists() == (stages is not None)
    if report.exists():
        report = json.loads(report.read_text())
        assert sorted(report) == ["command", "metadata", "results", "schema_version", "stages"]
        assert (report["schema_version"], report["command"]) == (1, cmd)
        assert sorted(report["metadata"]) == ["seed", "series_order", "tolerance", "versions"]
        assert [(s["name"], s["status"]) for s in report["stages"]] == stages
        assert _key_paths(report["results"]) == keys
        # an ok stage, and only an ok one, records its work as ode.counting() counts it
        for s in report["stages"]:
            assert sorted(s.get("work", ())) == (
                ["nfev", "piece_steps", "solves", "steps"] if s["status"] == "ok" else []), s
            assert all(type(v) is int and v >= 0 for v in s.get("work", {}).values()), s


def test_cli_stokes_reports_the_depth_of_its_connection_stage(tmp_path):
    """sample2x2's connection is one carry of one lockstep step, every planned step a run; the
    formula assembles it with no solve, and the oracle makes one carry of two passes over its
    runs of CUT_STEPS, the second for the integrals, so of more than CUT_STEPS and at most
    2 CUT_STEPS."""
    from isomonodromy.continuation import CUT_STEPS

    spec = str(ROOT / "problems" / "sample2x2.json")
    result = CliRunner().invoke(main, ["stokes", "--spec", spec, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "stokes_report.json").read_text())
    work = {s["name"]: s["work"] for s in report["stages"]}
    assert (work["connection"]["solves"], work["connection"]["steps"]) == (1, 1)
    assert work["stokes_formula"] == dict.fromkeys(work["connection"], 0)
    assert work["stokes_oracle"]["solves"] == 1
    assert CUT_STEPS < work["stokes_oracle"]["steps"] <= 2 * CUT_STEPS
    assert work["stokes_oracle"]["piece_steps"] <= 156  # measured
