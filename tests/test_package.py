"""Package surface: lazy exports, the moved error classes, start-up imports, README sketch."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import isomonodromy
from isomonodromy import continuation, deformation, laplace, model, stokes

ROOT = Path(__file__).resolve().parents[1]
SCIPY_SOLVERS = ("scipy.integrate", "scipy.special", "scipy.optimize")

MOVED_ERRORS = {
    continuation: ("StepFailure", "BasisSingular", "IllConditioned"),
    deformation: ("DriftExceeded",),
    laplace: ("SingularF1", "QuadratureDivergence"),
    stokes: ("OverlapEmpty", "MatchingInconsistent"),
}


def _fresh(code):
    """Run ``code`` in a fresh interpreter from the repository root; return its last line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_exported_name_resolves():
    for name in isomonodromy.__all__:
        assert getattr(isomonodromy, name) is not None, name
    assert {"stokes_pipeline", "stokes_pair_direct"} <= set(isomonodromy.__all__)
    assert isomonodromy.stokes_pipeline is stokes.stokes_pipeline
    with pytest.raises(AttributeError):
        isomonodromy.no_such_name


def test_exports_are_not_cached_in_the_package(monkeypatch):
    """A function swapped on its submodule is what the package returns."""
    def replacement(*args, **kwargs):
        return None

    monkeypatch.setattr(deformation, "transport", replacement)
    assert isomonodromy.transport is replacement
    assert "transport" not in vars(isomonodromy)


def test_moved_errors_are_one_class():
    for module, names in MOVED_ERRORS.items():
        for name in names:
            assert getattr(module, name) is getattr(model, name), f"{module.__name__}.{name}"


def test_cli_catches_the_model_errors():
    from isomonodromy import cli

    for names in MOVED_ERRORS.values():
        for name in names:
            assert getattr(model, name) in cli.NUMERICAL_ERRORS


def test_cli_import_and_light_commands_load_no_scipy(tmp_path):
    code = f"""
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import isomonodromy.cli as cli
seen = {{"import": loaded()}}
for cmd, spec in (("rays", "sample2x2"), ("levelt", "resonant_group")):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(args=[cmd, "--spec", f"problems/{{spec}}.json",
                            "--out", {str(tmp_path)!r}], standalone_mode=False)
    seen[cmd] = loaded()
print(json.dumps(seen))
"""
    seen = _fresh(code)
    assert seen == {"import": [], "rays": [], "levelt": []}
    assert (tmp_path / "rays_report.json").is_file()
    assert (tmp_path / "levelt_report.json").is_file()


@pytest.mark.parametrize("module", ["isomonodromy.stokes", "isomonodromy.deformation"])
def test_solving_modules_load_scipy_integrate(module):
    code = f"""
import json, sys
import {module}
print(json.dumps([m for m in {SCIPY_SOLVERS!r} if m in sys.modules]))
"""
    assert "scipy.integrate" in _fresh(code)


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert float(out.getvalue().split()[-1]) < 1e-6
