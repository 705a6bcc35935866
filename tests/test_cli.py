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

from isomonodromy.cli import ProblemSpec, SpecError, main, validate_report
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
    "order 0": (lambda p: {**p, "order": 0}, []),
    "order 2": (lambda p: {**p, "order": 2}, []),
    "formal_order 0": (lambda p: {**p, "formal_order": 0}, []),
    "tol negative": (lambda p: {**p, "tol": -1}, []),
    "not an object": (lambda p: [p], []),
    "--tol negative": (lambda p: p, ["--tol", "-1"]),
    "--order 2": (lambda p: p, ["--order", "2"]),
}


@pytest.mark.parametrize("cmd", ["rays", "stokes"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
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
