"""Which lines of ``src/isomonodromy`` the package's own traffic reaches, per function.

Run from the root of a checkout:

    python3 tools/reach.py

The traffic is:

* the five commands (``rays``, ``stokes``, ``deform``, ``levelt``, ``check``)
  on every shipped problem in ``problems/``, in process, each into a
  temporary directory;
* perfbench's ``formula_sweep``, ``oracle_sweep`` and ``schlesinger_families``
  workloads at seeds 0, 1 and 2: every operation with its reference and its
  check;
* ``tests/test_acceptance.py`` under pytest.

Lines are traced with ``sys.settrace`` (standard library only).  The output
lists, per file and function, the first line of every statement that no event
reached.  A ``raise`` is not listed, nor is any statement of a block that ends
in one, nor an ``if`` without ``else`` whose block ends in one (the guards that
lead to it); docstrings and ``global`` statements run no code and are not
listed either.  A function that never ran is listed as
``not called``.  Nothing in the output depends on time or on the machine, so
two runs print the same lines.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "isomonodromy"
COMMANDS = ("rays", "stokes", "deform", "levelt", "check")
SEEDS = (0, 1, 2)

for path in (ROOT / "src", ROOT / "perfbench"):
    sys.path.insert(0, str(path))

_hits = set()
_files = {str(path) for path in PACKAGE.glob("*.py")}


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename in _files:
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def run_commands():
    from isomonodromy import cli

    for spec in sorted((ROOT / "problems").glob("*.json")):
        for cmd in COMMANDS:
            with tempfile.TemporaryDirectory() as out, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main.main(args=[cmd, "--spec", str(spec), "--out", out],
                                  standalone_mode=False)
                except SystemExit:
                    pass


def run_workloads():
    import workloads

    for wl in (workloads.Sweep("formula"), workloads.Sweep("oracle"), workloads.Families()):
        for seed in SEEDS:
            raw, _ = wl.generate(seed)
            for _, item in wl.prepare(raw):
                wl.check(item, wl.run(item), wl.reference(item))


def run_acceptance():
    import pytest

    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests" / "test_acceptance.py")])
    if code != 0:
        raise SystemExit(f"tests/test_acceptance.py failed (pytest exit {code})")


def _own_lines(stmt):
    """The lines of a statement outside the statements nested in it."""
    bodies = [getattr(stmt, name) for name in ("body", "orelse", "finalbody", "handlers")
              if isinstance(getattr(stmt, name, None), list)]
    nested = [s for body in bodies for s in body]
    end = min((s.lineno for s in nested), default=stmt.end_lineno + 1) - 1
    return range(stmt.lineno, max(end, stmt.lineno) + 1)


def _is_docstring(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _statements(body, out, nested=False):
    """Every statement of ``body`` that runs code, its nested blocks included, except a
    ``raise`` and every statement of a nested block that ends in one; the bodies of
    functions defined in it are kept apart."""
    if nested and body and isinstance(body[-1], ast.Raise):
        return
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(stmt)  # the def line runs here; its body is its own function
            continue
        guard = isinstance(stmt, ast.If) and isinstance(stmt.body[-1], ast.Raise) \
            and not stmt.orelse
        if not (guard or _is_docstring(stmt)
                or isinstance(stmt, (ast.Global, ast.Nonlocal, ast.Try, ast.Raise))):
            out.append(stmt)
        for name in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, name, None)
            if isinstance(inner, list):
                _statements(inner, out, True)
        for handler in getattr(stmt, "handlers", []):
            _statements(handler.body, out, True)


def _functions(tree):
    """``(qualified name, node)`` of every function in a module, nested ones included."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")

    visit(tree, "")
    return found


def report():
    lines = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        hit = {line for name, line in _hits if name == str(path)}
        for name, func in _functions(ast.parse("\n".join(source))):
            stmts = []
            _statements(func.body, stmts)
            if not stmts:
                continue
            missed = [s for s in stmts if not hit.intersection(_own_lines(s))]
            if len(missed) == len(stmts):
                lines.append(f"{path.stem}.{name}: not called")
            elif missed:
                lines.append(f"{path.stem}.{name}:")
                lines += [f"    {s.lineno}: {source[s.lineno - 1].strip()}" for s in missed]
    return lines


def main():
    os.chdir(ROOT)
    sys.settrace(_global)
    try:
        run_commands()
        run_workloads()
        run_acceptance()
    finally:
        sys.settrace(None)
    print("\n".join(report()) or "every statement was reached")


if __name__ == "__main__":
    main()
