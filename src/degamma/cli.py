"""Command-line frontend: eval, poles, table, beta, verify.

Records stream to stdout as JSON lines (one object per evaluation) or
RFC-4180 CSV with ``--format csv``; one %-template per record shape writes
each row, doubles with 17 significant digits.  Exit codes: 0 success, 1
failed verification, 2 numeric/precondition errors, 64 usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache
from operator import itemgetter
from typing import NamedTuple

from . import core
from .core import DegenerateParameter, EvalResult, EvalStatus
from .errors import DegammaError, ParameterRangeError

__all__ = ["main", "OutputRecord", "parse_complex", "parse_range"]

USAGE_EXIT = 64
NUMERIC_EXIT = 2
_AT_POLE, _OVERFLOW = EvalStatus.AT_POLE, EvalStatus.OVERFLOW  # globals, cheaper than lookups


def _tolerance(tol: float | None) -> float:
    """The --tol value, else DEGAMMA_DEFAULT_TOL, else core.DEFAULT_TOLERANCE; must be >= 1e-14."""
    source = "--tol"
    if tol is None:
        raw = os.environ.get("DEGAMMA_DEFAULT_TOL")
        if raw is None:
            return core.DEFAULT_TOLERANCE
        source = "DEGAMMA_DEFAULT_TOL"
        try:
            tol = float(raw)
        except ValueError as exc:
            raise ParameterRangeError(
                f"DEGAMMA_DEFAULT_TOL={raw!r} is not a number"
            ) from exc
    if not tol >= 1e-14:
        raise ParameterRangeError(f"{source} must be >= 1e-14")
    return tol


_NUM = r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^(?:(?P<re>{_NUM})(?P<im>[-+](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?)i"
    rf"|(?P<imonly>{_NUM}|[-+]?)i"
    rf"|(?P<reonly>{_NUM}))$"
)


def parse_complex(text: str) -> complex:
    """Complex literal in the forms a, ai, a+bi, a-bi (no whitespace)."""
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise argparse.ArgumentTypeError(
            f"invalid complex literal {text!r}; expected forms: a, ai, a+bi, a-bi"
        )
    if m.group("reonly") is not None:
        return complex(float(m.group("reonly")), 0.0)
    part = m.group("imonly")
    if part is not None:  # a bare sign, or none, stands for 1
        return complex(0.0, float(part + "1" if part in ("", "+", "-") else part))
    return complex(float(m.group("re")), float(m.group("im")))


def parse_range(text: str) -> list[float]:
    """Inclusive grid literal start:stop:step."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"invalid range {text!r}; expected start:stop:step"
        )
    try:
        return core.inclusive_grid(*map(float, parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid range {text!r}; {exc}") from None


def _int_at_least(low: int):
    """The argparse type of an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"value must be >= {low}")
        return value
    return parse


class OutputRecord(NamedTuple):
    """One evaluation in the output stream, its fields in wire order.

    The record is its own row: the emitter writes its values as they come.
    FIELDS names them on the wire, where ``lam`` is ``lambda``.
    """

    s_re: float
    s_im: float
    lam: float
    value_re: float | None
    value_im: float | None
    abs_error: float | None
    method: str
    status: str
    residue_re: float | None = None
    residue_im: float | None = None
    beta_re: float | None = None
    beta_im: float | None = None

    FIELDS = (
        "s_re", "s_im", "lambda", "value_re", "value_im", "abs_error",
        "method", "status", "residue_re", "residue_im", "beta_re", "beta_im",
    )


class _Emitter:
    """Streams OutputRecords as JSON lines or CSV (header with the first row).

    Each record shape, the type of each field, has one %-template and one
    picker of its non-None fields, built on first use: a row is the template
    of the picked values, floats as %.17g, tags as they are (none needs
    quoting or escaping), None as null or an empty field.  JSON then respells
    nan and inf, which no finite %.17g output, key or tag contains.  Every
    row, and the CSV header, is one ``write`` call on the stream.
    """

    def __init__(self, fmt: str, stream):
        self.stream = stream
        self._json = fmt == "jsonl"
        self._header = None if self._json else ",".join(OutputRecord.FIELDS) + "\n"
        self._spelling = ({str: '"%s"', type(None): "null"} if self._json
                          else {str: "%s", type(None): ""})
        self._formats = {}

    def _format(self, shape: tuple) -> tuple:
        """Keeps and returns one record shape's template and picker of its non-None fields."""
        cells = [self._spelling.get(kind, "%.17g") for kind in shape]
        pairs = map('"{}": {}'.format, OutputRecord.FIELDS, cells)
        template = "{%s}\n" % ", ".join(pairs) if self._json else ",".join(cells) + "\n"
        kept = [i for i, kind in enumerate(shape) if kind is not type(None)]
        # itemgetter of one index returns a bare value, which % takes as well; of none it raises
        pick = itemgetter(*kept) if kept else lambda rec: ()
        return self._formats.setdefault(shape, (template, pick))

    def emit(self, rec: OutputRecord) -> None:
        shape = tuple(map(type, rec))
        template, pick = self._formats.get(shape) or self._format(shape)
        row = template % pick(rec)
        if self._json:
            row = row.replace("nan", "NaN").replace("inf", "Infinity")
        elif self._header is not None:
            self.stream.write(self._header)
            self._header = None
        self.stream.write(row)


def _record_from_result(
    s: complex, lam: float, method: str, result: EvalResult
) -> OutputRecord:
    """The record of one result; EvalStatus values are the wire's status strings."""
    status = result.status
    if status is _AT_POLE:
        residue = result.pole.residue
        return OutputRecord(s.real, s.imag, lam, None, None, None, method,
                            status._value_, residue.real, residue.imag)
    if status is _OVERFLOW:
        return OutputRecord(s.real, s.imag, lam, None, None, None, method, status._value_)
    value = result.value
    return OutputRecord(s.real, s.imag, lam, value.real, value.imag,
                        result.abs_error_estimate, method, status._value_)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _cmd_eval(args, parser, emitter) -> None:
    p = DegenerateParameter(args.lam)
    result = core.gamma_evaluator(args.method, args.tol, args.n_terms)(args.s, p)
    emitter.emit(_record_from_result(args.s, args.lam, args.method, result))


def _cmd_poles(args, parser, emitter) -> None:
    p = DegenerateParameter(args.lam)
    for info in core.poles(p, args.n_max):
        loc, res = info.location, info.residue
        emitter.emit(OutputRecord(loc.real, loc.imag, args.lam, None, None, None,
                                  "residue", "pole", res.real, res.imag))


def _cmd_table(args, parser, emitter) -> None:
    lam_is_range = isinstance(args.lam, list)
    s_is_range = args.s_re is not None
    if lam_is_range and s_is_range:
        parser.error("exactly one of --lambda and --s-re may be a range")
    if not lam_is_range and not s_is_range:
        parser.error("one of --lambda or --s-re must be a range start:stop:step")
    if s_is_range and args.s is not None:
        parser.error("--s and --s-re are mutually exclusive")
    if s_is_range:
        points = [(complex(re_part, 0.0), args.lam) for re_part in args.s_re]
    else:
        if args.s is None:
            parser.error("--s is required when --lambda is a range")
        points = [(args.s, lam) for lam in args.lam]
    # The first row's lambda is checked before the specs, as in eval, and the
    # last after them: the grid increases, so a refused range writes no row.
    p = DegenerateParameter(points[0][1])
    evaluate = core.gamma_evaluator(args.method, args.tol, args.n_terms)
    if points[-1][1] >= 1.0:
        DegenerateParameter(points[-1][1])
    emit, method = emitter.emit, args.method
    for s, lam in points:
        if lam != p.lam:
            p = DegenerateParameter(lam)
        try:
            result = evaluate(s, p)
        except DegammaError:
            emit(OutputRecord(s.real, s.imag, lam, None, None, None, method, "skipped"))
            continue
        emit(_record_from_result(s, lam, method, result))


def _cmd_beta(args, parser, emitter) -> None:
    p = DegenerateParameter(args.lam)
    if args.method == "ratio":
        result = core.degenerate_beta(args.alpha, args.beta, p)
    elif args.method == "classical-mixed":
        result = core.degenerate_beta_classical(args.alpha, args.beta, p)
    else:
        from . import representations
        result = representations.degenerate_beta_product(
            args.alpha, args.beta, p,
            representations.ProductSpec(n_terms=args.n_terms),
        )
    rec = _record_from_result(args.alpha, args.lam, args.method, result)
    emitter.emit(rec._replace(beta_re=args.beta.real, beta_im=args.beta.imag))


def _cmd_verify(args) -> int:
    from . import verify
    reports = verify.run_identity_suite(seed=args.seed, samples=args.samples)
    reports += verify.run_limit_checks()
    reports += [verify.run_cross_path_scan(
        verify.GridSpec(0.2, 1.8, 0.4), DegenerateParameter(0.5)
    )]
    reports.sort(key=lambda r: r.check_name)
    with open(args.report_path, "w") as fh:
        fh.write(verify.reports_to_json(reports))
        fh.write("\n")
    failed = []
    for rep in reports:
        flag = "PASS" if rep.passed else "FAIL"
        print(f"{flag} {rep.check_name} samples={rep.sample_count} "
              f"max_rel_err={rep.max_rel_err:.3e}")
        if not rep.passed:
            failed.append(rep.check_name)
    print(f"report written to {args.report_path}")
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


@cache  # one parser per process: in-process callers of main pay its build once
def _build_parser() -> _Parser:
    parser = _Parser(prog="degamma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_common(sp):
        sp.add_argument("--tol", type=float, default=None,
                        help="relative tolerance for integral paths "
                             f"(default {core.DEFAULT_TOLERANCE:g}, env DEGAMMA_DEFAULT_TOL)")
        sp.add_argument("--n-terms", type=_int_at_least(1), default=100_000,
                        help="truncation level for product paths")
        sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
        sp.add_argument("--method", choices=core.GAMMA_METHODS, default="closed-form")

    sp = sub.add_parser("eval", help="evaluate the degenerate gamma function")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--s", type=parse_complex, required=True,
                    help="complex literal: a, ai, a+bi, a-bi")
    add_common(sp)

    sp = sub.add_parser("poles", help="list poles and residues")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--n-max", type=_int_at_least(0), required=True)
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    sp = sub.add_parser("table", help="sweep s or lambda and emit a table")
    sp.add_argument("--lambda", dest="lam", type=_float_or_range, required=True,
                    help="single value or range start:stop:step")
    sp.add_argument("--s", type=parse_complex, default=None)
    sp.add_argument("--s-re", type=parse_range, default=None,
                    help="range start:stop:step over Re(s)")
    add_common(sp)

    sp = sub.add_parser("beta", help="evaluate the degenerate beta function")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--alpha", type=parse_complex, required=True)
    sp.add_argument("--beta", type=parse_complex, required=True)
    sp.add_argument("--method", choices=("ratio", "classical-mixed", "product"),
                    default="ratio")
    sp.add_argument("--n-terms", type=_int_at_least(1), default=100_000)
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    sp = sub.add_parser("verify", help="run the cross-representation suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=_int_at_least(1), default=100)
    sp.add_argument("--report-path", default="degamma-verify-report.json")

    return parser


def _float_or_range(text: str):
    if ":" in text:
        return parse_range(text)
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}; expected a number or start:stop:step"
        ) from None


_EMITTING_COMMANDS = {
    "eval": _cmd_eval, "poles": _cmd_poles, "table": _cmd_table, "beta": _cmd_beta,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "tol"):  # eval and table
            args.tol = _tolerance(args.tol)
        if args.command == "verify":
            return _cmd_verify(args)
        _EMITTING_COMMANDS[args.command](args, parser, _Emitter(args.format, sys.stdout))
        return 0
    except DegammaError as exc:
        print(f"degamma: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except OverflowError as exc:
        print(f"degamma: overflow: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
