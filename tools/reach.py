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

Lines are traced with ``sys.settrace`` (standard library only).  A statement
is unreached when no event reached any of its lines.  A ``raise`` is not
counted, nor is any statement of a block that ends in one, nor an ``if``
without ``else`` whose block ends in one (the guards that lead to it);
docstrings and ``global`` statements run no code and are not counted either.

An unreached statement that stays is listed in ``ALLOWED`` by its function and
its text (the first line of the statement, stripped), or as ``not called`` for
a function that never ran, with the reason it stays.  The output lists, per
file and function, the first line of every unreached statement that is not
allowed, and every entry of ``ALLOWED`` that matches no unreached statement as
stale; the exit status is 1 if it lists anything.  Nothing in the output
depends on time or on the machine, so two runs print the same lines.
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

# (reason, function, statement texts): the unreached statements that stay
ALLOWED = [
    ("the lazy `isomonodromy.<name>` export: the traffic imports submodules directly; a "
     "library user's path, reached by tier 1 (test_package.py, the README library sketch)",
     "__init__.__getattr__",
     ['return getattr(importlib.import_module(f"{__name__}.{module}"), name)']),
    ("the `levelt --free` items, an option the traffic does not pass: input-reachable, "
     "reached by tier 1 (test_cli_levelt_free_value_flag)",
     "cli._parse_free",
     ['pos, _, val = item.partition("=")', 'l, i, j = (int(x) for x in pos.split(","))',
      're_s, _, im_s = val.partition(":")', "value = complex(float(re_s), float(im_s or 0.0))",
      "out[(l, i - 1, j - 1)] = value"]),
    ("a first pass with no run to carry, where every leg fits one run (every sampled leg of "
     "the traffic spans several): reached by tier 1",
     "continuation.carry", ["continue"]),
    ("a system whose every row is degenerate or diagonal: a library path that tier 1 reaches "
     "(test_connection_without_projected_entries)",
     "continuation.continue_basis",
     ["return bases[:0], np.zeros((0, n, n), dtype=complex), np.zeros((0, n, n), dtype=complex)"]),
    ("a segment that starts on the coalescence locus (input-reachable through transport), "
     "and a finished segment leaving the lockstep (the traffic's stencils finish together): "
     "reached by tier 1 (test_a_finished_segment_leaves_the_lockstep)",
     "deformation._transport_stack",
     ["check_vanishing(A0, u0)  # SingularF1 for a start that violates the vanishing conditions",
      "done = t >= 1", "end[live[done]] = A[done]",
      "live, A, t, dgap, speed = (x[~done] for x in (live, A, t, dgap, speed))",
      "end[live] = A", "A = end"]),
    ("a norm of A whose sum of squares overflows: an input-reachable guard that tier 1 reaches "
     "(test_power_sum_drift_scales_a_norm_whose_square_overflows, check-norm of "
     "test_cli_edge_inputs_end_typed)",
     "deformation._power_sum_drift", ["scale = math.hypot(*np.abs(A0).ravel())"]),
    ("the step shortening and the term-buffer growth: an input-reachable guard that tier 1 "
     "reaches",
     "deformation._taylor_step",
     ["power = shorten[:, None] ** np.arange(hi + 1)",
      "power = np.stack([power * shorten[:, None], power], 1)  # W_k by c^(k+1), T_k by c^k",
      "side[:, :, :, :hi + 1] *= power[:, :, None, :, None]",
      "stack[:, :, K - hi:] *= power[:, :, ::-1, None, None]",
      "q = q * shorten[:, None, None]", "c *= shorten",
      "grown = min(MAX_ORDER, max(hi, 2 * K))",
      "new_side, new_stack = _term_buffers(P, n, grown)",
      "new_side[:, :, :, :K + 1] = side", "new_stack[:, :, grown - K:] = stack",
      "side, stack, K = new_side, new_stack, grown"]),
    ("the singular-solution test at rho >= 1: a library path that tier 1 calls on unshifted "
     "integer systems; the acceptance criteria reach only rho = 0, and the commands shift "
     "every integer exponent",
     "frobenius._has_singular_solution",
     ["seeds = _kernel_seeds(w)",
      "source = np.zeros((rho + 1, n, len(seeds) + 1), dtype=complex)",
      "source[rho, :, 0] = sol.b[0]", "starts = np.column_stack([np.zeros(n), seeds.T])",
      "obs = _chain(fs, _columns(fs, [k] * (len(seeds) + 1)), starts, rho, source)",
      "c0, L = obs[0], obs[1:]",
      "return not (float(np.max(np.abs(L))) < 1e-12 * max(1.0, abs(c0)) and abs(c0) > 1e-10)"]),
    ("the kernel seeds and the chain of the singular-solution test at rho >= 1: reached by "
     "tier 1, as above",
     "frobenius._kernel_seeds", ["not called"]),
    ("as above", "frobenius._chain", ["not called"]),
    ("the nan at a pole of Gamma: a guard that tier 1 reaches (test_cgamma_against_mpmath)",
     "frobenius.cgamma", ["return complex(math.nan, math.nan)"]),
    ("a Gamma past the float range, which leads to the IllConditioned below it: a guard that "
     "tier 1 reaches (test_leading_factor_out_of_range_is_typed)",
     "frobenius.leading_factor", ["pass"]),
    ("Psi_k at one point, a library call: both routes sum their batches by selected_values; "
     "tier 1 reaches it (test_selected_values_equal_selected_value_in_every_class)",
     "frobenius.LocalSolution.selected_value", ["not called"]),
    ("the non-zero gamma pick, for a diagonal entry of A within SHIFT_MARGIN of an integer: "
     "an input-reachable guard that tier 1 reaches",
     "frobenius.shift_exponents",
     ["fractions = np.sort(values.real % 1.0)",
      "gaps = np.diff(fractions, append=fractions[0] + 1.0)", "i = int(np.argmax(gaps))",
      "gamma = (fractions[i] + 0.5 * gaps[i]) % 1.0"]),
    ("the nudges off a window centre that a pole blocks, and their warning: an "
     "input-reachable guard that tier 1 reaches",
     "laplace._direction_for",
     ["d = lo + ((d - lo + step) % (hi - lo))", "tries += 1",
      'logger.warning("_direction_for: no direction in (%.10f, %.10f) clear of the "']),
    ("the constructor of a raised error, an artifact of the tool: it leaves out the raise, "
     "not the class",
     "model.NonAdmissibleError.__init__", ["not called"]),
    ("the turns of an angle outside its branch window: the traffic's phases lie in their "
     "windows already; a problem file's tau reaches them, as do tier 1's test_arg_from_*",
     "model.CutPlane.arg_from",
     ["a -= TWO_PI", "if a >= self.eta:",
      "a += TWO_PI * (math.ceil((self.eta - a) / TWO_PI) - 1)", "a += TWO_PI",
      "if a < self.eta - TWO_PI:"]),
]

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
    """The unreached statements that ``ALLOWED`` does not list, per function, and its stale
    entries."""
    allowed = {(func, text) for _, func, texts in ALLOWED for text in texts}
    used, lines = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        hit = {line for name, line in _hits if name == str(path)}
        for name, func in _functions(ast.parse("\n".join(source))):
            stmts = []
            _statements(func.body, stmts)
            missed = [(s.lineno, source[s.lineno - 1].strip()) for s in stmts
                      if not hit.intersection(_own_lines(s))]
            name = f"{path.stem}.{name}"
            if missed and len(missed) == len(stmts):
                missed = [(func.lineno, "not called")]
            used |= {(name, text) for _, text in missed}
            missed = [(line, text) for line, text in missed if (name, text) not in allowed]
            if missed:
                lines.append(f"{name}:")
                lines += [f"    {line}: {text}" for line, text in missed]
    lines += [f"stale: {func}: {text}" for func, text in sorted(allowed - used)]
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
    lines = report()
    if lines:
        print("\n".join(lines))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
