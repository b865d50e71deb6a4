"""The package's surface: its exported names, the modules a path loads, its one result
builder, the pole checks whose rounding every estimate counts, and its records."""

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import degamma

# Every public name of the package, by the submodule that defines it.  The
# first three load with the package; the last three, which import numpy, on
# first use.
_EXPORTS = {
    "classical": [
        "EULER_GAMMA", "LOG_OVERFLOW", "POLE_TOLERANCE", "LogGammaResult", "beta",
        "gamma", "log_beta", "log_gamma", "reflection_product", "sin_pi",
    ],
    "core": [
        "DegenerateParameter", "EvalMethod", "EvalResult", "EvalStatus",
        "IntegerGammaValue", "PoleFamily", "PoleInfo", "ShiftStep",
        "degenerate_beta", "degenerate_beta_classical", "degenerate_exp",
        "degenerate_gamma", "degenerate_gamma_integer", "degenerate_gamma_log",
        "degenerate_log", "difference_step", "falling_factorial",
        "falling_factorial_exact", "lambda_shift_recurrence", "pole_residue",
        "poles", "symmetry_partner",
    ],
    "errors": [
        "BranchPointError", "ConvergenceError", "DegammaError", "DomainError",
        "IntegerArgumentError", "ParameterRangeError", "PoleError",
        "SingularParameterError", "StripError",
    ],
    "quadrature": [
        "QuadratureSpec", "direct_integral_gamma", "hankel_gamma",
        "hankel_gamma_reflected",
    ],
    "representations": [
        "ProductSpec", "degenerate_beta_product", "euler_limit_gamma",
        "sine_product", "weierstrass_gamma",
    ],
    "verify": [
        "CHECK_ROSTER", "CheckReport", "GridSpec", "run_cross_path_scan",
        "run_identity_suite", "run_limit_checks",
    ],
}
_PUBLIC = set(_EXPORTS) | {name for names in _EXPORTS.values() for name in names}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in _EXPORTS.items() for name in names
])
def test_exported_name_is_the_submodules_object(module, name):
    assert getattr(degamma, name) is getattr(getattr(degamma, module), name)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from degamma import *", namespace)
    assert set(namespace) - {"__builtins__"} == _PUBLIC


def test_dir_lists_the_public_names():
    assert _PUBLIC <= set(dir(degamma))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        degamma.no_such_name
    with pytest.raises(ImportError):
        from degamma import no_such_name  # noqa: F401


def _eval_result_builders(node, where):
    """The enclosing function of each EvalResult(...) call under an AST node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _eval_result_builders(child, child.name)
            continue
        if isinstance(child, ast.Call) and "EvalResult" in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)):
            yield where
        yield from _eval_result_builders(child, where)


def test_only_the_finish_builds_an_eval_result():
    """core._finish owns every result rule, so it is the one EvalResult builder."""
    package = Path(degamma.__file__).resolve().parent
    builders = [
        (path.stem, where) for path in sorted(package.glob("*.py"))
        for where in _eval_result_builders(ast.parse(path.read_text()), "<module>")
    ]
    assert builders == [("core", "_finish")]


def _imports(node, where):
    """(imported module, enclosing function) of each absolute import under an AST node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports(child, child.name)
            continue
        if isinstance(child, ast.Import):
            yield from ((alias.name, where) for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield child.module, where
        yield from _imports(child, where)


def test_no_module_loads_dataclasses_or_fractions():
    """Importing the package pays for neither: dataclasses pulls in inspect, and
    fractions decimal, which only the exact-rational falling factorial needs."""
    package = Path(degamma.__file__).resolve().parent
    imports = [
        (path.stem, name.partition(".")[0], where) for path in sorted(package.glob("*.py"))
        for name, where in _imports(ast.parse(path.read_text()), "<module>")
    ]
    assert [i for i in imports if i[1] == "dataclasses"] == []
    assert [i for i in imports if i[1] == "fractions"] == [
        ("core", "fractions", "falling_factorial_exact")]


def _callee(node):
    """The name a call is made by, bare or through a module."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def _dropped_pole_roundings(node, where):
    """(function, callee) where a pole check's rounding is thrown away.

    A _check_argument(...) call as a statement of its own discards the
    rounding it returns, and _beta_guard's is discarded when unpacked into _.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _dropped_pole_roundings(child, child.name)
            continue
        if (isinstance(child, ast.Expr) and isinstance(child.value, ast.Call)
                and _callee(child.value) == "_check_argument"):
            yield where, "_check_argument"
        if (isinstance(child, ast.Assign) and isinstance(child.value, ast.Call)
                and _callee(child.value) == "_beta_guard"
                and any(getattr(e, "id", None) == "_"
                        for t in child.targets for e in getattr(t, "elts", ()))):
            yield where, "_beta_guard"
        yield from _dropped_pole_roundings(child, where)


def test_every_pole_check_counts_its_rounding():
    """The rounding a pole check returns reaches every estimate next to a pole.

    degenerate_gamma_log is the one caller that has no estimate to add it to.
    """
    package = Path(degamma.__file__).resolve().parent
    dropped = [
        (path.stem, *found) for path in sorted(package.glob("*.py"))
        for found in _dropped_pole_roundings(ast.parse(path.read_text()), "<module>")
    ]
    assert dropped == [("core", "degenerate_gamma_log", "_check_argument")]


_CONTOURS = """\
from degamma import quadrature as q
p = degamma.DegenerateParameter(0.3)
q.hankel_gamma(-0.5 + 1j, p)
q.hankel_gamma_reflected(-0.5 + 1j, p)
q._cc_rung(10)
"""

_CLOSED_FORM = """\
p = degamma.DegenerateParameter(0.3)
degamma.degenerate_gamma(0.5 + 1j, p)
degamma.degenerate_beta(0.5 + 1j, 0.7, p)
degamma.degenerate_beta_classical(0.5 + 1j, 0.7, p)
degamma.log_gamma(-2.5 + 1j)
degamma.pole_residue(degamma.PoleFamily.NON_POSITIVE, 1, p)
degamma.poles(p, 3)
degamma.degenerate_gamma_integer(3, p)
"""

_CLOSED_FORM_COMMANDS = [
    ["eval", "--lambda", "0.5", "--s", "1.5+0.5i"],
    ["table", "--lambda", "0.5", "--s-re=-1:1:0.5", "--format", "jsonl"],
    ["table", "--lambda", "0.5", "--s-re=-1:1:0.5", "--format", "csv"],
    ["table", "--lambda", "0.1:0.9:0.2", "--s", "0.5+1i", "--format", "jsonl"],
    ["table", "--lambda", "0.1:0.9:0.2", "--s", "0.5+1i", "--format", "csv"],
    ["poles", "--lambda", "0.5", "--n-max", "3"],
    ["beta", "--lambda", "0.5", "--alpha", "0.5", "--beta", "0.7+1i", "--method", "ratio"],
    ["beta", "--lambda", "0.5", "--alpha", "0.5", "--beta", "0.7+1i",
     "--method", "classical-mixed"],
]


def _cli_code(argv):
    return ("import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert degamma.cli.main({argv!r}) == 0\n")


_CLOSED_FORM_PATHS = [("closed-form", _CLOSED_FORM)] + [
    (" ".join(argv), _cli_code(argv)) for argv in _CLOSED_FORM_COMMANDS]


@pytest.mark.parametrize("code, module", [
    (_CONTOURS, "numpy.fft"),
] + [(code, "numpy") for _, code in _CLOSED_FORM_PATHS] + [
    (code, module) for module in ("dataclasses", "fractions") for _, code in _CLOSED_FORM_PATHS
], ids=["contours"] + [name for name, _ in _CLOSED_FORM_PATHS] + [
    f"{name}-{module}" for module in ("dataclasses", "fractions") for name, _ in _CLOSED_FORM_PATHS
])
def test_path_leaves_module_unloaded(code, module):
    """Run in a fresh interpreter, after which ``module`` must not be loaded."""
    script = (f"import sys, degamma, degamma.cli\n{code}"
              f"assert {module!r} not in sys.modules, '{module} imported'\n")
    src = Path(degamma.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr


def test_lazy_submodule_name_loads_the_module(monkeypatch):
    """``degamma.verify`` comes from the package's __getattr__ until an import binds
    it: in a fresh interpreter, and here once the binding is dropped."""
    script = ("import sys, degamma\n"
              "assert 'degamma.verify' not in sys.modules\n"
              "assert degamma.verify is sys.modules['degamma.verify']\n")
    src = Path(degamma.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    monkeypatch.delattr(degamma, "verify", raising=False)
    assert degamma.verify is importlib.import_module("degamma.verify")


def _records():
    """(id, record, its constructor's field names) for every public record type."""
    p = degamma.DegenerateParameter(0.3)
    report = degamma.CheckReport("demo", per_path={"closed-form": {"max_rel_err": 0.0}})
    report.record(0.5 + 1j, 0.3, "closed-form", 1 + 0j, 1 + 1e-9j, 1e-9, 1e-12)
    results = ("value", "abs_error_estimate", "method", "status", "pole", "log_value", "note")
    return [
        ("DegenerateParameter", p, ("lam",)),
        ("EvalResult-regular", degamma.degenerate_gamma(0.5 + 1j, p), results),
        ("EvalResult-pole", degamma.degenerate_gamma(0.0, p), results),
        ("EvalResult-overflow",
         degamma.degenerate_gamma(300.0, degamma.DegenerateParameter(0.001)), results),
        ("PoleInfo", degamma.poles(p, 1)[0], ("family", "index", "location", "residue")),
        ("LogGammaResult", degamma.log_gamma(-2.5 + 1j), ("log_abs", "arg")),
        ("IntegerGammaValue", degamma.degenerate_gamma_integer(3, p), ("k", "lam", "value")),
        ("ShiftStep", degamma.lambda_shift_recurrence(0.5 + 1j, 0, p),
         ("factor", "shifted_lambda", "shifted_arg")),
        ("QuadratureSpec", degamma.QuadratureSpec(rel_tolerance=1e-8, hankel_radius=0.2),
         ("rel_tolerance", "hankel_radius")),
        ("ProductSpec", degamma.ProductSpec(n_terms=10, use_tail_correction=True),
         ("n_terms", "use_tail_correction")),
        ("GridSpec", degamma.GridSpec(0.2, 1.8, 0.4), ("re_start", "re_stop", "re_step")),
        ("CheckReport", report, ("check_name", "sample_count", "max_rel_err", "failures",
                                 "passed", "per_path")),
    ]


_RECORDS = _records()


def _assert_same(copied, record):
    """Equal, or repr-equal where a NaN (a pole's or overflow's value) defeats ==."""
    assert type(copied) is type(record)
    assert repr(copied) == repr(record)
    assert copied == record or "nan" in repr(record)


def test_records_cover_every_result_status():
    statuses = {r.status for name, r, _ in _RECORDS if name.startswith("EvalResult")}
    assert statuses == {degamma.EvalStatus.REGULAR, degamma.EvalStatus.AT_POLE,
                        degamma.EvalStatus.OVERFLOW}


@pytest.mark.parametrize("record, fields", [r[1:] for r in _RECORDS],
                         ids=[r[0] for r in _RECORDS])
def test_record_round_trips(record, fields):
    """pickle, deepcopy and construction by keyword or position give the record back."""
    values = [getattr(record, name) for name in fields]
    _assert_same(pickle.loads(pickle.dumps(record)), record)
    _assert_same(copy.deepcopy(record), record)
    _assert_same(type(record)(**dict(zip(fields, values))), record)
    _assert_same(type(record)(*values), record)
    if isinstance(record, degamma.CheckReport):  # the one mutable record
        record.passed = record.passed
        return
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(record, fields[0])


@pytest.mark.parametrize("spec, field, bad", [
    (degamma.QuadratureSpec(), "rel_tolerance", 1e-15),
    (degamma.QuadratureSpec(), "hankel_radius", 1.0),
    (degamma.ProductSpec(), "n_terms", 0),
])
def test_spec_checks_hold_for_every_builder(spec, field, bad):
    """A spec built by keyword, by _make or by _replace is checked alike."""
    values = {**dict(zip(spec._fields, spec)), field: bad}
    for build in (lambda: type(spec)(**values), lambda: type(spec)._make(values.values()),
                  lambda: spec._replace(**{field: bad})):
        with pytest.raises(ValueError, match=field):
            build()
