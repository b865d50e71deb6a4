"""Tests for the command-line frontend: parsing, records, exit codes."""

import argparse
import collections
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degamma
import degamma.cli as cli_mod
from degamma import core
from degamma.cli import OutputRecord, main, parse_complex, parse_range
from degamma.core import GAMMA_METHODS, DegenerateParameter, EvalStatus, degenerate_gamma


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestParseComplex:
    @pytest.mark.parametrize("text,expected", [
        ("1", 1 + 0j),
        ("-0.5", -0.5 + 0j),
        ("2i", 2j),
        ("-1.5i", -1.5j),
        ("i", 1j),
        ("-i", -1j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("-1.5-0.5i", -1.5 - 0.5j),
        ("1e-3+2e-2i", 0.001 + 0.02j),
        ("0.5+10i", 0.5 + 10j),
    ])
    def test_valid(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", [
        "", "1 + 2i", "1+2j", "abc", "10.0.1", "2i+1", "--1", "1+2", "i2",
    ])
    def test_invalid(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(text)


class TestParseRange:
    def test_example_29(self):
        values = parse_range("0.1:2.9:0.1")
        assert len(values) == 29
        assert values[0] == pytest.approx(0.1)
        assert values[-1] == pytest.approx(2.9)

    def test_example_9(self):
        assert len(parse_range("0.1:0.9:0.1")) == 9

    def test_single_point(self):
        assert parse_range("1.0:1.0:0.5") == [1.0]

    def test_point_past_stop_dropped(self):
        assert parse_range("0:2.6:1") == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("text", ["1:2", "1:2:0", "2:1:0.5", "a:b:c", "0:inf:1",
                                      "-inf:0:1", "0:1e400:1", "0:1:inf", "0:nan:1",
                                      "0:1e300:1e-300", "0:1:1e-300", "0:1:1e-9"])
    def test_invalid(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_range(text)


class TestEval:
    def test_closed_form_value(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--lambda", "0.5", "--s", "1")
        assert code == 0
        rec = jsonl(out)[0]
        assert rec["value_re"] == pytest.approx(2.0, rel=1e-12)
        assert rec["method"] == "closed-form"
        assert rec["status"] == "regular"

    def test_direct_integral_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--lambda", "0.5", "--s", "1",
            "--method", "direct-integral",
        )
        assert code == 0
        rec = jsonl(out)[0]
        assert rec["value_re"] == pytest.approx(2.0, rel=1e-9)

    def test_pole_record_carries_residue(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--lambda", "0.5", "--s", "-1")
        assert code == 0
        rec = jsonl(out)[0]
        assert rec["status"] == "pole"
        assert rec["value_re"] is None
        assert rec["residue_re"] == pytest.approx(-1.0, rel=1e-13)

    def test_strip_violation_exit_2_names_condition(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--lambda", "0.5", "--s", "3.5",
            "--method", "direct-integral",
        )
        assert code == 2
        assert "strip" in err
        assert "1/lambda" in err

    @pytest.mark.parametrize("argv, fields", [
        # the closed form's OVERFLOW status carries no value and no estimate
        (("--lambda", "0.001", "--s", "900.5"),
         '"value_re": null, "value_im": null, "abs_error": null, "method": "closed-form", '
         '"status": "overflow"'),
        # one Euler-limit term is before the level gap bounds the error
        (("--method", "euler-limit", "--n-terms", "1", "--lambda", "0.5", "--s", "0.5"),
         '"abs_error": Infinity, "method": "euler-limit", "status": "regular"'),
    ])
    def test_record_without_a_finite_estimate(self, capsys, argv, fields):
        code, out, _ = run_cli(capsys, "eval", *argv)
        assert code == 0
        assert fields in out

    @pytest.mark.parametrize("method, name", [("hankel", "hankel_gamma"),
                                              ("hankel-reflected", "hankel_gamma_reflected")])
    def test_contour_overflow_exit_2(self, capsys, method, name):
        code, out, err = run_cli(capsys, "eval", "--method", method,
                                 "--lambda", "0.001", "--s", "990+1i")
        assert (code, out) == (2, "")
        assert err.startswith(f"degamma: {name}: ")
        assert err.rstrip().endswith(" overflows")

    def test_n_terms_past_the_largest_float_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--lambda", "0.5", "--s", "1.5+0.5i",
                                 "--method", "weierstrass", "--n-terms", "1" + "0" * 400)
        assert (code, out) == (2, "")
        assert err == "degamma: ProductSpec: n_terms is past the largest float\n"

    @pytest.mark.parametrize("method", ["hankel", "hankel-reflected"])
    def test_contour_prefactor_overflow_exit_2(self, capsys, method):
        # sin(pi s) is past double range at |Im s| = 226.5
        code, out, err = run_cli(capsys, "eval", "--method", method,
                                 "--lambda", "0.05", "--s", "9+226.5i")
        assert (code, out) == (2, "")
        assert " the values on the circle of radius 0.3 reach exp(" in err

    def test_usage_error_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--lambda", "0.5"])
        assert exc.value.code == 64

    def test_bad_complex_literal_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--lambda", "0.5", "--s", "1+2x"])
        assert exc.value.code == 64

    def test_json_round_trip_exact(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--lambda", "0.3", "--s", "0.7+0.2i")
        rec = jsonl(out)[0]
        assert set(rec) == set(OutputRecord.FIELDS)
        # 17 significant digits round-trip doubles exactly: rebuilding the
        # record from the parsed line and re-emitting reproduces it verbatim
        import degamma.cli as cli_mod

        rebuilt = OutputRecord(
            s_re=rec["s_re"], s_im=rec["s_im"], lam=rec["lambda"],
            value_re=rec["value_re"], value_im=rec["value_im"],
            abs_error=rec["abs_error"], method=rec["method"],
            status=rec["status"],
        )
        buf = io.StringIO()
        cli_mod._Emitter("jsonl", buf).emit(rebuilt)
        assert buf.getvalue() == out

    def test_env_default_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGAMMA_DEFAULT_TOL", "1e-6")
        code, out, _ = run_cli(
            capsys, "eval", "--lambda", "0.5", "--s", "0.8",
            "--method", "direct-integral",
        )
        assert code == 0

    def test_env_tolerance_validated(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGAMMA_DEFAULT_TOL", "bogus")
        code, out, err = run_cli(capsys, "eval", "--lambda", "0.5", "--s", "0.8")
        assert code == 2

    @pytest.mark.parametrize("tol", ["1e-20", "nan"])
    @pytest.mark.parametrize("argv", [
        ("eval", "--lambda", "0.5", "--s", "1"),
        ("table", "--lambda", "0.5", "--s-re", "0.5:1.5:0.5"),
    ])
    def test_flag_tolerance_validated(self, capsys, argv, tol):
        # even the closed form, which never reads it, rejects a bad --tol
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == 2
        assert out == ""
        assert "--tol must be >= 1e-14" in err

    def test_env_tolerance_ignored_without_tol_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGAMMA_DEFAULT_TOL", "bogus")
        code, out, _ = run_cli(capsys, "poles", "--lambda", "0.5", "--n-max", "1")
        assert code == 0
        assert len(jsonl(out)) == 4


class TestPoles:
    def test_n_max_zero(self, capsys):
        code, out, _ = run_cli(capsys, "poles", "--lambda", "0.5", "--n-max", "0")
        assert code == 0
        recs = jsonl(out)
        assert len(recs) == 2
        assert recs[0]["s_re"] == 0.0
        assert recs[0]["residue_re"] == 1.0
        assert recs[1]["s_re"] == 2.0
        assert recs[1]["residue_re"] == pytest.approx(-4.0, rel=1e-13)

    def test_locations(self, capsys):
        code, out, _ = run_cli(capsys, "poles", "--lambda", "0.25", "--n-max", "2")
        recs = jsonl(out)
        assert sorted(r["s_re"] for r in recs) == [-2.0, -1.0, 0.0, 4.0, 5.0, 6.0]

    def test_missing_lambda_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poles", "--n-max", "2"])
        assert exc.value.code == 64


class TestTable:
    def test_sweep_over_s(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--lambda", "0.3", "--s-re", "0.1:2.9:0.1"
        )
        assert code == 0
        recs = jsonl(out)
        assert len(recs) == 29
        assert all(r["status"] == "regular" for r in recs)

    def test_sweep_over_lambda(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--s", "0.5", "--lambda", "0.1:0.9:0.1"
        )
        recs = jsonl(out)
        assert len(recs) == 9
        assert all(r["status"] == "regular" for r in recs)

    def test_grid_crossing_pole(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--lambda", "0.4", "--s-re=-1.0:1.0:0.5"
        )
        recs = jsonl(out)
        by_s = {r["s_re"]: r for r in recs}
        assert by_s[0.0]["status"] == "pole"
        assert by_s[-1.0]["status"] == "pole"
        assert by_s[0.5]["status"] == "regular"

    def test_skipped_cells_for_integral_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--lambda", "0.5", "--s-re", "1.5:2.5:0.5",
            "--method", "direct-integral",
        )
        recs = jsonl(out)
        statuses = [r["status"] for r in recs]
        assert statuses == ["regular", "skipped", "skipped"]

    def test_two_ranges_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--lambda", "0.1:0.9:0.1", "--s-re", "0.1:0.9:0.1"])
        assert exc.value.code == 64

    def test_no_range_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--lambda", "0.4", "--s", "0.5"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("argv, message", [
        (("--lambda", "0.4", "--s", "0.5", "--s-re", "0:1:0.5"),
         "--s and --s-re are mutually exclusive"),
        (("--lambda", "0.1:0.3:0.1", "--s-re", "0:1:0.5"),
         "exactly one of --lambda and --s-re may be a range"),
        (("--lambda", "0.1:0.3:0.1"), "--s is required when --lambda is a range"),
        (("--lambda", "abc", "--s", "1"),
         "invalid value 'abc'; expected a number or start:stop:step"),
        (("--lambda", "0.5", "--s-re=0:inf:1"), "invalid range '0:inf:1'"),
        (("--lambda", "0.5", "--s-re=0:1:0.5", "--n-terms", "x"), "'x' is not an integer"),
    ])
    def test_conflicting_ranges_exit_64(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["table", *argv])
        assert exc.value.code == 64
        assert message in capsys.readouterr().err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--lambda", "0.4", "--s-re", "0.5:1.0:0.5",
            "--format", "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(OutputRecord.FIELDS)
        assert len(rows) == 3


class _CountingStream:
    """A stdout stand-in that keeps every write separately."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def _closed_form_row(s, lam):
    """The wire row for one table point, straight from degenerate_gamma."""
    r = degenerate_gamma(s, DegenerateParameter(lam))
    row = dict.fromkeys(OutputRecord.FIELDS)
    row.update({"s_re": s.real, "s_im": s.imag, "lambda": lam,
                "method": "closed-form"})
    if r.status is EvalStatus.AT_POLE:
        row.update(status="pole", residue_re=r.pole.residue.real,
                   residue_im=r.pole.residue.imag)
    elif r.status is EvalStatus.OVERFLOW:
        row.update(status="overflow")
    else:
        row.update(status=r.status.value, value_re=r.value.real,
                   value_im=r.value.imag, abs_error=r.abs_error_estimate)
    return row


def _parse_wire_row(text, fmt):
    """One written row back to a dict; numbers keep their sign of zero."""
    if fmt == "jsonl":
        return json.loads(text, parse_int=float)
    (raw,) = csv.reader(io.StringIO(text))
    return {
        k: None if v == "" else v if k in ("method", "status") else float(v)
        for k, v in zip(OutputRecord.FIELDS, raw)
    }


class TestTableContract:
    """Every table row is degenerate_gamma's result, written in one call."""

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("sweep", [
        ("--lambda=0.25", "--s-re=-2.5:5.5:0.125"),  # poles -2..0 and 4, 5
        ("--s=4", "--lambda=0.0625:0.9375:0.0078125"),  # poles at 1/4, 1/2
        ("--s=0.7-1.3i", "--lambda=0.05:0.95:0.01"),
    ], ids=["s-re", "lambda-real-s", "lambda-complex-s"])
    def test_rows_match_closed_form_one_write_each(self, sweep, fmt, monkeypatch):
        stream = _CountingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["table", *sweep, f"--format={fmt}"]) == 0
        fixed, grid = sweep
        if fixed.startswith("--lambda="):
            lam = float(fixed.split("=")[1])
            points = [(complex(x, 0.0), lam) for x in parse_range(grid.split("=")[1])]
        else:
            s = parse_complex(fixed.split("=")[1])
            points = [(s, lam) for lam in parse_range(grid.split("=")[1])]
        writes = stream.writes
        if fmt == "csv":
            assert writes[0] == ",".join(OutputRecord.FIELDS) + "\n"
            writes = writes[1:]
        assert len(writes) == len(points)
        statuses = set()
        for text, (s, lam) in zip(writes, points):
            got = _parse_wire_row(text, fmt)
            want = _closed_form_row(s, lam)
            assert list(got) == list(OutputRecord.FIELDS)
            assert {k: repr(v) for k, v in got.items()} == {
                k: repr(v) for k, v in want.items()
            }, (s, lam)
            statuses.add(want["status"])
        if not sweep[0].startswith("--s=0.7"):
            assert "pole" in statuses


_WORK_SWEEPS = {
    # sweep: (rows, distinct lambdas, record shapes)
    ("--lambda=0.25", "--s-re=-2.5:5.5:0.125"): (65, 1, 2),
    ("--s=4", "--lambda=0.0625:0.9375:0.0078125"): (113, 113, 2),
}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("sweep", list(_WORK_SWEEPS), ids=["s-re", "lambda"])
def test_table_does_one_evaluation_and_one_write_per_row(sweep, fmt, monkeypatch):
    # a work guard: one degenerate_gamma call and one write per row (and the
    # CSV header), one DegenerateParameter per distinct lambda and one
    # template per record shape; the counts repeat from run to run
    counts = collections.Counter()

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(core, "degenerate_gamma", counted("gamma", core.degenerate_gamma))
    monkeypatch.setattr(cli_mod, "DegenerateParameter",
                        counted("parameter", DegenerateParameter))
    monkeypatch.setattr(cli_mod._Emitter, "_format",
                        counted("template", cli_mod._Emitter._format))
    runs = []
    for _ in range(2):
        counts.clear()
        stream = _CountingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["table", *sweep, f"--format={fmt}"]) == 0
        runs.append((dict(counts), len(stream.writes)))
    rows, lambdas, shapes = _WORK_SWEEPS[sweep]
    header = fmt == "csv"
    assert runs[0] == runs[1] == (
        {"gamma": rows, "parameter": lambdas, "template": shapes}, rows + header)
    wire = [_parse_wire_row(text, fmt) for text in stream.writes[header:]]
    assert len(wire) == rows
    assert len({tuple(map(type, row.values())) for row in wire}) == shapes
    assert len({row["lambda"] for row in wire}) == lambdas


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("sweep", list(_WORK_SWEEPS), ids=["s-re", "lambda"])
def test_table_rows_hand_the_emitter_their_shape(sweep, fmt, monkeypatch):
    # every row passes the field types it has, and none runs OutputRecord's __new__
    emit, new, shapes, built = cli_mod._Emitter.emit, OutputRecord.__new__, [], []

    def spy(self, rec, *shape):
        shapes.append((shape, (tuple(map(type, rec)),)))
        return emit(self, rec, *shape)

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(cli_mod._Emitter, "emit", spy)
    monkeypatch.setattr(OutputRecord, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(sys, "stdout", _CountingStream())
    assert main(["table", *sweep, f"--format={fmt}"]) == 0
    assert len(shapes) == _WORK_SWEEPS[sweep][0] and built == []
    assert all(given == actual for given, actual in shapes)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("argv, status", [
    (("eval", "--lambda=0.5", "--s=1.5"), "regular"),
    (("eval", "--lambda=0.5", "--s=-1.00001"), "near-pole"),
    (("eval", "--lambda=0.5", "--s=-1"), "pole"),
    (("eval", "--lambda=0.001", "--s=900.5"), "overflow"),
    (("table", "--lambda=0.5", "--s-re=3.5:3.5:1", "--method=direct-integral"), "skipped"),
    (("poles", "--lambda=0.5", "--n-max=0"), "pole"),
], ids=["regular", "near-pole", "pole", "overflow", "skipped", "poles"])
def test_a_given_shape_writes_what_the_field_types_would(argv, status, fmt, monkeypatch,
                                                         capsys):
    emit, calls = cli_mod._Emitter.emit, []

    def spy(self, rec, *shape):
        calls.append((rec, shape))
        return emit(self, rec, *shape)

    monkeypatch.setattr(cli_mod._Emitter, "emit", spy)
    assert main([*argv, f"--format={fmt}"]) == 0
    out = capsys.readouterr().out
    assert {rec.status for rec, _ in calls} == {status}
    assert [shape for _, shape in calls] == [(tuple(map(type, rec)),) for rec, _ in calls]
    buf = io.StringIO()
    plain = cli_mod._Emitter(fmt, buf)
    for rec, _ in calls:
        emit(plain, rec)
    assert out == buf.getvalue()


class TestTableRefusesBeforeAnyRow:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("grid, last", [("0.5:1.5:0.5", "1.5"), ("0.2:1.0:0.4", "1.0")])
    def test_a_lambda_range_leaving_the_interval(self, capsys, grid, last, fmt):
        code, out, err = run_cli(capsys, "table", f"--lambda={grid}", "--s=1.5",
                                 f"--format={fmt}")
        assert (code, out) == (2, "")
        assert err == f"degamma: lambda must lie strictly inside (0, 1); got {last}\n"

    def test_an_in_range_lambda_sweep_is_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--lambda=0.1:0.9:0.2", "--s=1.5")
        assert code == 0
        rows = out.splitlines(keepends=True)
        assert len(rows) == 5
        for row, lam in zip(rows, parse_range("0.1:0.9:0.2")):
            assert run_cli(capsys, "eval", f"--lambda={lam!r}", "--s=1.5") == (0, row, "")


def test_a_pole_past_the_log_gamma_range_has_an_infinite_residue(capsys):
    code, out, _ = run_cli(capsys, "table", "--lambda=0.5", "--s-re=1e308:1.7e308:1e308")
    assert code == 0
    (rec,) = jsonl(out)
    assert (rec["status"], rec["residue_re"], rec["residue_im"]) == ("pole", -math.inf, 0.0)


class TestModuleEntryPoint:
    def test_python_dash_m_degamma(self):
        src = Path(degamma.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "degamma", "eval", "--lambda", "0.5", "--s", "1"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["value_re"] == 2.0


class TestNumpyPaths:
    """Methods whose modules load on first use print their function's result."""

    def _assert_record(self, out, result):
        rec = jsonl(out)[0]
        assert (rec["value_re"], rec["value_im"]) == (result.value.real, result.value.imag)
        assert rec["abs_error"] == result.abs_error_estimate
        assert rec["status"] == result.status.value

    def test_eval_hankel(self, capsys):
        from degamma.quadrature import QuadratureSpec, hankel_gamma

        code, out, _ = run_cli(capsys, "eval", "--lambda", "0.3", "--s=-0.5+1i",
                               "--method", "hankel", "--tol", "1e-9")
        assert code == 0
        self._assert_record(out, hankel_gamma(
            -0.5 + 1j, DegenerateParameter(0.3), QuadratureSpec(rel_tolerance=1e-9)))

    def test_beta_product(self, capsys):
        from degamma.representations import ProductSpec, degenerate_beta_product

        code, out, _ = run_cli(capsys, "beta", "--lambda", "0.3", "--alpha", "0.5",
                               "--beta", "0.7+1i", "--method", "product",
                               "--n-terms", "5000")
        assert code == 0
        self._assert_record(out, degenerate_beta_product(
            0.5, 0.7 + 1j, DegenerateParameter(0.3), ProductSpec(n_terms=5000)))


class TestBeta:
    def test_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "beta", "--lambda", "0.1", "--alpha", "2", "--beta", "1"
        )
        rec = jsonl(out)[0]
        assert rec["value_re"] == pytest.approx(0.3888888888888889, rel=1e-12)
        assert rec["beta_re"] == 1.0

    def test_methods_agree(self, capsys):
        values = {}
        for method in ("ratio", "classical-mixed", "product"):
            code, out, _ = run_cli(
                capsys, "beta", "--lambda", "0.25", "--alpha", "0.5",
                "--beta", "0.5", "--method", method, "--n-terms", "200000",
            )
            assert code == 0
            values[method] = jsonl(out)[0]["value_re"]
        assert values["ratio"] == pytest.approx(values["classical-mixed"], rel=1e-11)
        assert values["ratio"] == pytest.approx(values["product"], rel=1e-3)

    def test_pole_argument_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "beta", "--lambda", "0.25", "--alpha", "-1", "--beta", "1"
        )
        assert code == 2
        assert "alpha" in err

    def test_tol_flag_is_a_usage_error(self, capsys):
        # no beta method reads a tolerance, so the flag does not exist
        with pytest.raises(SystemExit) as exc:
            main(["beta", "--lambda", "0.1", "--alpha", "2", "--beta", "1",
                  "--method", "product", "--tol", "1e-3"])
        assert exc.value.code == 64


class TestVerifyCommand:
    def test_small_verify_passes(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "verify", "--seed", "0", "--samples", "3",
            "--report-path", str(report),
        )
        assert code == 0
        assert report.exists()
        payload = json.loads(report.read_text())
        assert all(entry["passed"] for entry in payload)
        names = [entry["check_name"] for entry in payload]
        assert names == sorted(names)

    def test_fault_injection_exits_1_and_names_check(self, capsys, tmp_path, perturb):
        report = tmp_path / "report.json"
        perturb("reflection-symmetry")
        code, out, err = run_cli(
            capsys, "verify", "--seed", "0", "--samples", "3",
            "--report-path", str(report),
        )
        assert code == 1
        assert "reflection-symmetry" in err
        assert "FAIL reflection-symmetry" in out

    def test_zero_samples_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--samples", "0"])
        assert exc.value.code == 64

    def test_fault_inject_flag_is_gone(self, capsys):
        # faults are injected through the tests' perturb fixture, not the CLI
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fault-inject", "reflection-symmetry"])
        assert exc.value.code == 64
        assert "--fault-inject" in capsys.readouterr().err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # in-process callers (the benchmark's table and verify loops) call main
    # repeatedly; each call after the first reuses the parser
    built = []
    init = cli_mod._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli_mod._Parser, "__init__", counting)
    cli_mod._build_parser.cache_clear()
    try:
        for _ in range(2):
            code, out, _ = run_cli(capsys, "eval", "--lambda", "0.5", "--s", "1.5")
            assert code == 0 and jsonl(out)[0]["status"] == "regular"
    finally:
        cli_mod._build_parser.cache_clear()
    assert built.count("degamma") == 1


class TestEmitterFormats:
    def test_csv_quoting_is_minimal_rfc4180(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--lambda", "0.5", "--s", "1", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0].startswith("s_re,s_im,lambda,")
        assert '"' not in lines[1]

    def test_csv_header_waits_for_the_first_row(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--lambda", "0.5", "--s", "3.5",
                               "--method", "direct-integral", "--format", "csv")
        assert (code, out) == (2, "")

    def test_nan_free_regular_record(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--lambda", "0.5", "--s", "0.5")
        rec = jsonl(out)[0]
        assert math.isfinite(rec["value_re"])
        assert math.isfinite(rec["abs_error"])


def test_eval_at_real_s_prints_a_zero_imaginary_part(capsys):
    code, out, _ = run_cli(capsys, "eval", "--lambda", "0.5", "--s", "-1.00001")
    assert code == 0
    rec = jsonl(out)[0]
    assert rec["status"] == "near-pole"
    assert rec["value_im"] == 0.0
    assert rec["value_re"] == pytest.approx(99999.80686755024, rel=1e-12)
    code, out, _ = run_cli(capsys, "eval", "--lambda", "0.3", "--s", "16.5",
                           "--format", "csv")
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert float(row["value_im"]) == 0.0
    assert float(row["value_re"]) == pytest.approx(517557719921.6783, rel=1e-12)


def _json_scalar(v) -> str:
    if isinstance(v, float):
        if math.isfinite(v):
            return format(v, ".17g")
        if math.isnan(v):
            return "NaN"
        return "Infinity" if v > 0 else "-Infinity"
    if v is None:
        return "null"
    return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _csv_scalar(v):
    return format(v, ".17g") if isinstance(v, float) else v


_JSON_ROW = "{{" + ", ".join(f'"{name}": {{}}' for name in OutputRecord.FIELDS) + "}}\n"


def _reference_text(records, fmt):
    """The records as the per-field formatter wrote them, one call per field."""
    buf = io.StringIO()
    if fmt == "jsonl":
        buf.writelines(_JSON_ROW.format(*map(_json_scalar, rec)) for rec in records)
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(OutputRecord.FIELDS)
        writer.writerows([_csv_scalar(v) for v in rec] for rec in records)
    return buf.getvalue()


def _method_choices(command):
    parser = cli_mod._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in sub.choices[command]._actions if a.dest == "method"]
    return tuple(action.choices)


_BETA_METHODS = _method_choices("beta")
_TAGS = (*GAMMA_METHODS, *_BETA_METHODS, "residue", "skipped",
         *(status.value for status in EvalStatus))
# A prime count of numbers: cycled over fewer fields a record, each field
# meets every number in as many records as there are numbers.
_NUMBERS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 0.1, -2.5,
            1.7976931348623157e308, 2.0**-1022, 123456789.01234567)


def _every_record_shape():
    """Each shape the CLI writes, with every number in every float field."""
    shapes = []
    for method in GAMMA_METHODS:
        for status in ("regular", "near-pole"):
            shapes.append(OutputRecord(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, method, status))
        shapes.append(OutputRecord(1.0, 1.0, 1.0, None, None, None, method, "overflow"))
        shapes.append(OutputRecord(1.0, 1.0, 1.0, None, None, None, method, "skipped"))
        shapes.append(OutputRecord(1.0, 1.0, 1.0, None, None, None, method, "pole",
                                   1.0, 1.0))
    shapes.append(OutputRecord(1.0, 1.0, 1.0, None, None, None, "residue", "pole",
                               1.0, 1.0))
    for method in _BETA_METHODS:
        shapes.append(OutputRecord(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, method, "regular",
                                   beta_re=1.0, beta_im=1.0))
        shapes.append(OutputRecord(1.0, 1.0, 1.0, None, None, None, method, "overflow",
                                   beta_re=1.0, beta_im=1.0))
    numbers = itertools.cycle(_NUMBERS)
    return [
        rec._make(next(numbers) if isinstance(v, float) else v for v in rec)
        for rec in shapes for _ in _NUMBERS
    ]


class TestEmitterBytes:
    """One %-template per record shape writes what the per-field formatter did."""

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_every_record_shape_matches_the_per_field_formatter(self, fmt):
        records = _every_record_shape()
        floats = {repr(v) for rec in records for v in rec if isinstance(v, float)}
        assert floats == set(map(repr, _NUMBERS))
        buf = io.StringIO()
        emitter = cli_mod._Emitter(fmt, buf)
        for rec in records:
            emitter.emit(rec)
        assert buf.getvalue() == _reference_text(records, fmt)

    def test_tags_need_no_quoting_escaping_or_respelling(self):
        assert _method_choices("eval") == _method_choices("table") == GAMMA_METHODS
        for tag in _TAGS:
            assert not set(tag) & set(',"\\\r\n'), tag
            assert "nan" not in tag and "inf" not in tag, tag
        for name in OutputRecord.FIELDS:
            assert "nan" not in name and "inf" not in name and "%" not in name


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_the_emitter_writes_records_with_no_or_one_value(fmt):
    # itemgetter picks no field only by raising, and one as a bare value
    records = [OutputRecord(*[None] * 8), OutputRecord(*[None] * 6, "closed-form", None),
               OutputRecord(-0.0, *[None] * 7), OutputRecord(math.nan, *[None] * 7)]
    buf = io.StringIO()
    emitter = cli_mod._Emitter(fmt, buf)
    for rec in records:
        emitter.emit(rec)
    assert buf.getvalue() == _reference_text(records, fmt)
