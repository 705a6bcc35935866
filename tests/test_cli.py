import cmath
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from isomonodromy.cli import ProblemSpec, SpecError, _crossing_locus, main, validate_report
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


MALFORMED = {  # case: (problem file from SAMPLE, extra command-line arguments)
    "epsilon0 negative": (lambda p: {**p, "epsilon0": -0.1}, []),
    "epsilon0 NaN": (lambda p: {**p, "epsilon0": math.nan}, []),
    "NaN in A": (_nan_in_A, []),
    "u infinite": (lambda p: {**p, "u": [[0.0, 0.0], [math.inf, 0.0]]}, []),
    "tau NaN": (lambda p: {**p, "tau": math.nan}, []),
    "path point NaN": (lambda p: {**p, "paths": [[[[0.0, 0.0], [math.nan, 0.0]]]]}, []),
    "path empty": (lambda p: {**p, "paths": [[]]}, []),
    "order 0": (lambda p: {**p, "order": 0}, []),
    "order 2": (lambda p: {**p, "order": 2}, []),
    "formal_order 0": (lambda p: {**p, "formal_order": 0}, []),
    "tol negative": (lambda p: {**p, "tol": -1}, []),
    "not an object": (lambda p: [p], []),
    "--tol negative": (lambda p: p, ["--tol", "-1"]),
    "--order 2": (lambda p: p, ["--order", "2"]),
}


# rays takes no override, so the cases with command-line arguments run on stokes only
@pytest.mark.parametrize("case, cmd", [(case, cmd) for case in sorted(MALFORMED)
                                        for cmd in ["rays", "stokes"]
                                        if cmd == "stokes" or not MALFORMED[case][1]])
def test_cli_malformed_problem_exits_2(tmp_path, case, cmd):
    """Non-finite numbers and out-of-range settings are problem-file errors, not crashes."""
    edit, args = MALFORMED[case]
    path = _write(tmp_path, edit(SAMPLE))
    result = CliRunner().invoke(main, [cmd, "--spec", path, "--out", str(tmp_path / "out")] + args)
    assert result.exit_code == 2, result.output
    assert "problem file error" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_rays_outputs(tmp_path):
    path = _write(tmp_path, SAMPLE)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["rays", "--spec", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "rays_report.json").read_text())
    validate_report(report)
    assert report["results"]["mu"] == 1
    assert (out / "rays_uc.csv").exists()
    assert (out / "sectors.csv").exists()


def test_cli_stokes_deterministic(tmp_path):
    path = _write(tmp_path, SAMPLE)
    outs = []
    for name in ("out_a", "out_b"):
        out = tmp_path / name
        result = CliRunner().invoke(
            main, ["stokes", "--spec", path, "--out", str(out), "--oracle", "off"]
        )
        assert result.exit_code == 0, result.output
        outs.append((out / "stokes_report.json").read_bytes())
    assert outs[0] == outs[1]  # bit-identical reports
    report = json.loads(outs[0])
    validate_report(report)
    assert report["results"]["formal"]["asymptotic_vs_recursion_max_diff"] < 1e-8
    S = report["results"]["stokes_formula"]["S_nu"]
    assert S[1][0] == [0.0, 0.0]  # triangular zero below the diagonal


def _stokes_report(tmp_path, name, *args):
    out = tmp_path / name
    spec = str(ROOT / "problems" / "sample2x2.json")
    result = CliRunner().invoke(main, ["stokes", "--spec", spec, "--out", str(out),
                                       "--oracle", "off", *args])
    return result, json.loads((out / "stokes_report.json").read_text())


def test_cli_stokes_gamma_applies_to_every_system(tmp_path):
    """sample2x2 needs no shift, and --gamma 0.3 still shifts it: the same pair, shifted."""
    result, shifted = _stokes_report(tmp_path, "shifted", "--gamma", "0.3")
    assert result.exit_code == 0, result.output
    _, plain = _stokes_report(tmp_path, "plain")
    assert shifted["results"]["gamma_shift_used"] is True
    assert shifted["results"]["connection"]["gamma"] == 0.3
    assert plain["results"]["gamma_shift_used"] is False
    pairs = [np.array([[[complex(*z) for z in row] for row in r["results"]["stokes_formula"][key]]
                       for key in ("S_nu", "S_nu_plus_mu")]) for r in (shifted, plain)]
    assert np.max(np.abs(pairs[0] - pairs[1])) < 1e-10


def test_cli_stokes_gamma_on_an_integer_is_a_failed_connection(tmp_path):
    """--gamma 0.5 puts lambda'_0 = 0.5 on the integer 0: BadGamma, exit 3."""
    result, report = _stokes_report(tmp_path, "out", "--gamma", "0.5")
    assert result.exit_code == 3
    [stage] = [s for s in report["stages"] if s["name"] == "connection"]
    assert stage["status"] == "failed" and stage["error"].startswith("BadGamma")


@pytest.mark.parametrize("a00", [200.0, 200.5, -200.0])
def test_cli_stokes_overflowing_exponent_is_a_typed_failure(tmp_path, a00):
    """f_k leaves the float range from about |lambda'_k| = 171: exit 3 with a report.

    The connection stage fails on the shifted exponent, formal_coefficients
    on the unshifted one; each names the error.
    """
    prob = json.loads(json.dumps(SAMPLE))
    prob["A"][0][0] = [a00, 0.0]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", _write(tmp_path, prob),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    stages = json.loads((out / "stokes_report.json").read_text())["stages"]
    failed = [s for s in stages if s["status"] == "failed"]
    assert [s["name"] for s in failed] == ["connection", "formal_coefficients"]
    for stage in failed:
        assert stage["error"].startswith("IllConditioned: leading factor f_k"), stage
        assert "lambda'_k" in stage["error"]


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
    names the pole and the first order past the float range.
    """
    from isomonodromy.cli import NUMERICAL_ERRORS

    prob = json.loads(json.dumps(SAMPLE))
    prob["A"][entry[0]][entry[1]] = [value, 0.0]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", _write(tmp_path, prob),
                                       "--oracle", "on", "--out", str(out)])
    assert result.exit_code == 3, result.output
    stages = json.loads((out / "stokes_report.json").read_text())["stages"]
    failed = {s["name"]: s["error"] for s in stages if s["status"] == "failed"}
    assert failed.keys() == errors.keys()
    names = {e.__name__ for e in NUMERICAL_ERRORS}
    for name, error in failed.items():
        assert error.startswith(errors[name]), error
        assert error.split(":")[0] in names


def test_cli_check_overflowing_commutators_is_a_typed_failure(tmp_path):
    """check with A_00 = 1e200: the residue commutators leave the float range, exit 3.

    The vanishing stage names IllConditioned, and no numpy overflow warning
    (an error under pytest) comes before it.
    """
    prob = json.loads(json.dumps(SAMPLE))
    prob["A"][0][0] = [1e200, 0.0]
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["check", "--spec", _write(tmp_path, prob),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    stages = json.loads((out / "check_report.json").read_text())["stages"]
    failed = {s["name"]: s["error"] for s in stages if s["status"] == "failed"}
    assert failed.keys() == {"integrability", "vanishing"}
    assert failed["integrability"].startswith("StepFailure")
    assert failed["vanishing"].startswith("IllConditioned: the residue commutators")


def test_cli_stokes_with_oracle(tmp_path):
    path = _write(tmp_path, SAMPLE)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["stokes", "--spec", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "stokes_report.json").read_text())
    assert report["results"]["formula_oracle_max_diff"] < 1e-6


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
    validate_report(report)  # partial report still schema-valid
    assert any(s["status"] == "failed" for s in report["stages"])



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

def test_cli_deform_has_no_oracle_option(tmp_path):
    """deform never ran the oracle: the option is gone and is a usage error."""
    prob = dict(SAMPLE)
    prob["paths"] = [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.05, 0.0]]]]
    path = _write(tmp_path, prob)
    result = CliRunner().invoke(
        main, ["deform", "--spec", path, "--out", str(tmp_path / "out"), "--oracle", "on"]
    )
    assert result.exit_code == 2
    assert "No such option '--oracle'" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd, option, value", [
    ("rays", "--tol", "1e-9"), ("rays", "--order", "30"), ("rays", "--gamma", "0.1"),
    ("levelt", "--tol", "1e-9"), ("levelt", "--gamma", "0.1"),
    ("check", "--order", "30"), ("check", "--gamma", "0.1"),
])
def test_cli_unread_override_is_a_usage_error(tmp_path, cmd, option, value):
    """Each command takes only the overrides it reads: rays none, levelt --order, check --tol."""
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
    result = CliRunner().invoke(
        main, ["stokes", "--spec", path, "--out", str(out), "--oracle", "off"]
    )
    assert result.exit_code == 3
    report = json.loads((out / "stokes_report.json").read_text())
    validate_report(report)
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


# A with a resonant position off the group {1, 2} of resonant_group's u_c: the merged
# residue's exponents are T = (-2, -1.37, 0), so T_3 - T_1 = 2
_FREE_A = {"2,3,1=0.5": [[[1.0, 0.0], [0.0, 0.0], [0.4, 0.0]],
                         [[0.0, 0.0], [0.37, 0.0], [-0.3, 0.0]],
                         [[0.6, 0.0], [0.7, 0.0], [0.25, 0.0]]]}


@pytest.mark.parametrize("item, code", [
    ("2,7,2=0.5", 2),  # index outside 1..n
    ("2,0,2=0.5", 2),  # index outside 1..n (0 is not 1-based)
    ("9,1,2=0.5", 2),  # A_22 - A_11 = 2, not 9
    ("2,1,2=0.5", 0),  # the one resonant position of resonant_group
    ("2,3,1=0.5", 0),  # the off-group position of _FREE_A, which levelt reports
])
def test_cli_levelt_free_items_are_checked(tmp_path, monkeypatch, item, code):
    """An item that names no position levelt reports as free is a problem-file error, before
    any stage; one that does is reported and its value lands in G."""
    from isomonodromy import cli

    prob = json.loads((ROOT / "problems" / "resonant_group.json").read_text())
    prob["A"] = _FREE_A.get(item, prob["A"])
    runs = []

    def levelt_at_confluence(*args, **kwargs):
        runs.append(cli_levelt(*args, **kwargs))
        return runs[-1]

    cli_levelt = cli.levelt_at_confluence
    monkeypatch.setattr(cli, "levelt_at_confluence", levelt_at_confluence)
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


def test_cli_stokes_on_the_locus_says_the_local_series_needs_distinct_poles(tmp_path):
    """resonant_group sits on the locus, where no local series exists at the merged pole."""
    spec = str(ROOT / "problems" / "resonant_group.json")
    result = CliRunner().invoke(main, ["stokes", "--spec", spec, "--out", str(tmp_path),
                                       "--oracle", "off"])
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
    assert report["results"]["vanishing"]["schlesinger_consistency"] < 1e-12


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
    assert vanishing["schlesinger_consistency"] < 1e-12


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


def _good_report():
    return {
        "schema_version": 1,
        "command": "rays",
        "metadata": {"tolerance": 1e-10, "series_order": 40, "seed": 0, "versions": {}},
        "stages": [{"name": "rays", "status": "ok"}, {"name": "x", "status": "skipped"}],
        "results": {},
    }


def _malformed_reports():
    """(label, report) pairs, each breaking one statement of REPORT_SCHEMA, or none."""
    cases = [("good", _good_report())]

    def variant(label, edit):
        report = json.loads(json.dumps(_good_report()))
        edit(report)
        cases.append((label, report))

    for key in ("schema_version", "command", "metadata", "stages", "results"):
        variant(f"missing {key}", lambda r, k=key: r.pop(k))
    for key in ("tolerance", "series_order", "seed", "versions"):
        variant(f"missing metadata.{key}", lambda r, k=key: r["metadata"].pop(k))
    variant("version 2", lambda r: r.update(schema_version=2))
    variant("version 1.0", lambda r: r.update(schema_version=1.0))
    variant("version true", lambda r: r.update(schema_version=True))
    variant("command not a string", lambda r: r.update(command=3))
    variant("metadata a list", lambda r: r.update(metadata=[]))
    variant("stages an object", lambda r: r.update(stages={}))
    variant("results a list", lambda r: r.update(results=[]))
    variant("stage not an object", lambda r: r["stages"].append("ok"))
    variant("stage without status", lambda r: r["stages"][0].pop("status"))
    variant("stage without name", lambda r: r["stages"][0].pop("name"))
    variant("stage status unknown", lambda r: r["stages"][0].update(status="done"))
    variant("failed stage with error", lambda r: r["stages"].append(
        {"name": "y", "status": "failed", "error": "StepFailure: x"}))
    variant("extra keys", lambda r: r.update(extra=1))
    work = {"solves": 1, "steps": 4, "nfev": 232, "piece_steps": 52}
    variant("stage with its work", lambda r: r["stages"][0].update(work=dict(work)))
    variant("stage work a list", lambda r: r["stages"][0].update(work=[]))
    for key in work:
        variant(f"stage work without {key}", lambda r, k=key: r["stages"][0].update(
            work={w: v for w, v in work.items() if w != k}))
    for route in ("stokes_formula", "stokes_oracle"):
        variant(f"{route} with its invariant",
                lambda r, k=route: r["results"].update({k: {"monodromy_invariant": 1e-12}}))
        variant(f"{route} without its invariant",
                lambda r, k=route: r["results"].update({k: {"method": "formula"}}))
        variant(f"{route} a list", lambda r, k=route: r["results"].update({k: []}))
    cases.append(("not an object", []))
    return cases


def test_validate_report_agrees_with_jsonschema():
    import jsonschema

    from isomonodromy.cli import REPORT_SCHEMA

    reference = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)
    verdicts = set()
    for label, report in _malformed_reports():
        try:
            validate_report(report)
            ok = True
        except ValueError:
            ok = False
        assert ok == reference.is_valid(report), label
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_validate_report_rejects_unsupported_schema_keywords(monkeypatch):
    import isomonodromy.cli as cli

    schema = dict(cli.REPORT_SCHEMA, minProperties=1)
    monkeypatch.setattr(cli, "REPORT_SCHEMA", schema)
    with pytest.raises(ValueError, match="unsupported"):
        validate_report(_good_report())


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
        validate_report(_strict_json(report.read_text()))


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
    validate_report(report)
    [stage] = [s for s in report["stages"] if s["name"] == "group_0"]
    assert stage["status"] == "failed" and stage["error"].startswith("SingularF1")


@pytest.mark.parametrize("step", ["0", "-1e-3"])
def test_cli_check_rejects_a_nonpositive_step(tmp_path, step):
    path = _write(tmp_path, SAMPLE)
    result = CliRunner().invoke(main, ["check", "--spec", path, "--out", str(tmp_path / "out"),
                                       "--step", step])
    assert result.exit_code == 2, result.output
    assert "--step must be finite and > 0" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_cli_check_rejects_a_nonfinite_step(tmp_path, step):
    """In a fresh process with a timeout: an integrator given a non-finite step never returns."""
    path = _write(tmp_path, SAMPLE)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "isomonodromy.cli", "check", "--spec", path,
                           "--out", str(tmp_path / "out"), "--step", step],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "--step must be finite and > 0" in proc.stderr


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
    _block("connection", ["C", "alpha", "eta", "gamma", "max_projection_residual", "method",
                          "provenance"])
    + _block("formal", ["F", "asymptotic_vs_recursion_max_diff", "free_positions", "method"])
    + ["formula_oracle_max_diff", "gamma_shift_used"] + _RAY_LABELS
    + _block("stokes_formula", _PAIR + ["monodromy_invariant", "structural_zero_pairs"])
    + _block("stokes_oracle", _PAIR + ["ladder_h0", "ladder_h1", "monodromy_invariant",
                                       "z_spread_h0", "z_spread_h1"]))
_SINGLETON = ["group", "note"]
_LEVELT = ["R_norms.2", "T_diagonal", "free_parameter_count", "free_parameters", "group",
           "kappa", "method", "partial_nonresonance"]
_INTEGRABILITY = _block("integrability", ["at_noise_floor", "method", "ratio", "residual",
                                          "residual_half_step", "step"])
_VANISHING = _block("vanishing", ["method", "schlesinger_consistency"])
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
        "c_max_variation", "diag_drift", "in_cell", "ingroup_stokes_max", "path", "samples",
        "spectrum_drift", "stokes_max_variation"])),
    ("deform", "resonant_group"): (2, None, None),
}


@pytest.mark.parametrize("cmd, problem", sorted(REPORT_SHAPES))
def test_report_shape_is_pinned(tmp_path, cmd, problem):
    """Exit code, ordered stage records and results key paths of each command on each
    shipped problem."""
    code, stages, keys = REPORT_SHAPES[cmd, problem]
    spec = str(ROOT / "problems" / f"{problem}.json")
    result = CliRunner().invoke(main, [cmd, "--spec", spec, "--out", str(tmp_path)])
    assert result.exit_code == code, result.output
    report = tmp_path / f"{cmd}_report.json"
    assert report.exists() == (stages is not None)
    if report.exists():
        report = json.loads(report.read_text())
        assert [(s["name"], s["status"]) for s in report["stages"]] == stages
        assert _key_paths(report["results"]) == keys
        # an ok stage, and only an ok one, records its work as ode.counting() counts it
        for s in report["stages"]:
            assert sorted(s.get("work", ())) == (
                ["nfev", "piece_steps", "solves", "steps"] if s["status"] == "ok" else []), s
            assert all(type(v) is int and v >= 0 for v in s.get("work", {}).values()), s


def test_cli_stokes_reports_the_depth_of_its_connection_stage(tmp_path):
    """sample2x2's connection is one carry of at most CUT_STEPS lockstep steps; the formula
    assembles it with no solve, and the oracle makes one carry of two passes over its runs,
    the second for the integrals, so of more than CUT_STEPS and at most 2 CUT_STEPS."""
    from isomonodromy.continuation import CUT_STEPS

    spec = str(ROOT / "problems" / "sample2x2.json")
    result = CliRunner().invoke(main, ["stokes", "--spec", spec, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "stokes_report.json").read_text())
    work = {s["name"]: s["work"] for s in report["stages"]}
    assert work["connection"]["solves"] == 1 and work["connection"]["steps"] <= CUT_STEPS
    assert work["stokes_formula"] == dict.fromkeys(work["connection"], 0)
    assert work["stokes_oracle"]["solves"] == 1
    assert CUT_STEPS < work["stokes_oracle"]["steps"] <= 2 * CUT_STEPS
