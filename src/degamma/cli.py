"""Command-line frontend: eval, poles, table, beta, verify.

Records stream to stdout as JSON lines (one object per evaluation, doubles
with 17 significant digits) or RFC-4180 CSV with ``--format csv``.  Exit
codes: 0 success, 1 failed verification, 2 numeric/precondition errors,
64 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from dataclasses import dataclass

from . import core, quadrature, representations, verify
from .core import DegenerateParameter, EvalResult, EvalStatus
from .errors import DegammaError, ParameterRangeError

__all__ = ["main", "OutputRecord", "parse_complex", "parse_range"]

USAGE_EXIT = 64
NUMERIC_EXIT = 2

_DEFAULT_TOL = 1e-10


def _tolerance(tol: float | None) -> float:
    """The --tol value, else DEGAMMA_DEFAULT_TOL, else 1e-10; must be >= 1e-14."""
    source = "--tol"
    if tol is None:
        raw = os.environ.get("DEGAMMA_DEFAULT_TOL")
        if raw is None:
            return _DEFAULT_TOL
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
    if m.group("imonly") is not None:
        part = m.group("imonly")
        if part in ("", "+"):
            return complex(0.0, 1.0)
        if part == "-":
            return complex(0.0, -1.0)
        return complex(0.0, float(part))
    return complex(float(m.group("re")), float(m.group("im")))


def parse_range(text: str) -> list[float]:
    """Inclusive grid literal start:stop:step."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"invalid range {text!r}; expected start:stop:step"
        )
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid range {text!r}") from None
    if step <= 0.0 or stop < start:
        raise argparse.ArgumentTypeError(
            f"invalid range {text!r}; need step > 0 and stop >= start"
        )
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    values = [start + k * step for k in range(count)]
    if values and values[-1] > stop + 1e-9 * step:
        values.pop()
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("value must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("value must be >= 0")
    return value


@dataclass
class OutputRecord:
    """One evaluation in the output stream; field order is the wire order."""

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

    def values(self) -> list:
        return [
            self.s_re, self.s_im, self.lam, self.value_re, self.value_im,
            self.abs_error, self.method, self.status,
            self.residue_re, self.residue_im, self.beta_re, self.beta_im,
        ]


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, float):
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return format(v, ".17g")
    return str(v)


def _csv_scalar(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# One JSON object per row, keys in wire order; the values are preformatted.
_JSON_ROW = "{{" + ", ".join(f'"{name}": {{}}' for name in OutputRecord.FIELDS) + "}}\n"


class _Emitter:
    """Streams OutputRecords as JSON lines or CSV (header always emitted).

    Every row, and the CSV header, is one ``write`` call on the stream.
    """

    def __init__(self, fmt: str, stream):
        self.stream = stream
        self._csv = None
        if fmt == "csv":
            self._csv = csv.writer(
                stream, quoting=csv.QUOTE_MINIMAL, lineterminator="\n"
            )
        self._wrote_header = False

    def emit(self, rec: OutputRecord) -> None:
        if self._csv is None:
            self.stream.write(_JSON_ROW.format(*map(_json_scalar, rec.values())))
            return
        if not self._wrote_header:
            self._csv.writerow(OutputRecord.FIELDS)
            self._wrote_header = True
        self._csv.writerow([_csv_scalar(v) for v in rec.values()])


def _record_from_result(
    s: complex, lam: float, method: str, result: EvalResult
) -> OutputRecord:
    if result.status is EvalStatus.AT_POLE:
        return OutputRecord(
            s_re=s.real, s_im=s.imag, lam=lam,
            value_re=None, value_im=None, abs_error=None,
            method=method, status="pole",
            residue_re=result.pole.residue.real,
            residue_im=result.pole.residue.imag,
        )
    if result.status is EvalStatus.OVERFLOW:
        return OutputRecord(
            s_re=s.real, s_im=s.imag, lam=lam,
            value_re=None, value_im=None, abs_error=None,
            method=method, status="overflow",
        )
    status = "near-pole" if result.status is EvalStatus.NEAR_POLE else "regular"
    return OutputRecord(
        s_re=s.real, s_im=s.imag, lam=lam,
        value_re=result.value.real, value_im=result.value.imag,
        abs_error=result.abs_error_estimate, method=method, status=status,
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


_GAMMA_METHODS = (
    "closed-form", "direct-integral", "hankel", "hankel-reflected",
    "weierstrass", "euler-limit",
)


def _gamma_evaluator(method: str, tol: float, n_terms: int):
    """The function (s, p) -> EvalResult of one --method, its spec built once."""
    qspec = quadrature.QuadratureSpec(rel_tolerance=tol)
    pspec = representations.ProductSpec(n_terms=n_terms)
    if method == "closed-form":
        return core.degenerate_gamma
    fn, spec = {
        "direct-integral": (quadrature.direct_integral_gamma, qspec),
        "hankel": (quadrature.hankel_gamma, qspec),
        "hankel-reflected": (quadrature.hankel_gamma_reflected, qspec),
        "weierstrass": (representations.weierstrass_gamma, pspec),
        "euler-limit": (representations.euler_limit_gamma, pspec),
    }[method]
    return lambda s, p: fn(s, p, spec)


def _cmd_eval(args, emitter) -> int:
    p = DegenerateParameter(args.lam)
    result = _gamma_evaluator(args.method, args.tol, args.n_terms)(args.s, p)
    emitter.emit(_record_from_result(args.s, args.lam, args.method, result))
    return 0


def _cmd_poles(args, emitter) -> int:
    p = DegenerateParameter(args.lam)
    for info in core.poles(p, args.n_max):
        emitter.emit(OutputRecord(
            s_re=info.location.real, s_im=info.location.imag, lam=args.lam,
            value_re=None, value_im=None, abs_error=None,
            method="residue", status="pole",
            residue_re=info.residue.real, residue_im=info.residue.imag,
        ))
    return 0


def _cmd_table(args, parser, emitter) -> int:
    lam_is_range = isinstance(args.lam, list)
    s_is_range = args.s_re is not None
    if lam_is_range and s_is_range:
        parser.error("exactly one of --lambda and --s-re may be a range")
    if not lam_is_range and not s_is_range:
        parser.error("one of --lambda or --s-re must be a range start:stop:step")
    if s_is_range and args.s is not None:
        parser.error("--s and --s-re are mutually exclusive")
    if s_is_range:
        if not isinstance(args.lam, float):
            parser.error("--lambda must be a single value when --s-re is a range")
        points = [(complex(re_part, 0.0), args.lam) for re_part in args.s_re]
    else:
        if args.s is None:
            parser.error("--s is required when --lambda is a range")
        points = [(args.s, lam) for lam in args.lam]
    # The first row's lambda is checked before the specs, as in eval.
    p = DegenerateParameter(points[0][1])
    evaluate = _gamma_evaluator(args.method, args.tol, args.n_terms)
    for s, lam in points:
        if lam != p.lam:
            p = DegenerateParameter(lam)
        try:
            result = evaluate(s, p)
        except DegammaError:
            emitter.emit(OutputRecord(
                s_re=s.real, s_im=s.imag, lam=lam,
                value_re=None, value_im=None, abs_error=None,
                method=args.method, status="skipped",
            ))
            continue
        emitter.emit(_record_from_result(s, lam, args.method, result))
    return 0


def _cmd_beta(args, emitter) -> int:
    p = DegenerateParameter(args.lam)
    if args.method == "ratio":
        result = core.degenerate_beta(args.alpha, args.beta, p)
    elif args.method == "classical-mixed":
        result = core.degenerate_beta_classical(args.alpha, args.beta, p)
    else:
        result = representations.degenerate_beta_product(
            args.alpha, args.beta, p,
            representations.ProductSpec(n_terms=args.n_terms),
        )
    rec = _record_from_result(args.alpha, args.lam, args.method, result)
    rec.beta_re, rec.beta_im = args.beta.real, args.beta.imag
    emitter.emit(rec)
    return 0


def _cmd_verify(args) -> int:
    fault = args.fault_inject or os.environ.get("DEGAMMA_FAULT_INJECT")
    reports = verify.run_identity_suite(
        seed=args.seed, samples=args.samples, perturb_check=fault,
    )
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="degamma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    tol_default = None  # resolved lazily so the env var is honored

    def add_common(sp, with_method=True):
        sp.add_argument("--tol", type=float, default=tol_default,
                        help="relative tolerance for integral paths "
                             "(default 1e-10, env DEGAMMA_DEFAULT_TOL)")
        sp.add_argument("--n-terms", type=_positive_int, default=100_000,
                        help="truncation level for product paths")
        sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
        if with_method:
            sp.add_argument("--method", choices=_GAMMA_METHODS,
                            default="closed-form")

    sp = sub.add_parser("eval", help="evaluate the degenerate gamma function")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--s", type=parse_complex, required=True,
                    help="complex literal: a, ai, a+bi, a-bi")
    add_common(sp)

    sp = sub.add_parser("poles", help="list poles and residues")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--n-max", type=_nonnegative_int, required=True)
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
    sp.add_argument("--tol", type=float, default=tol_default)
    sp.add_argument("--n-terms", type=_positive_int, default=100_000)
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    sp = sub.add_parser("verify", help="run the cross-representation suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=_positive_int, default=100)
    sp.add_argument("--report-path", default="degamma-verify-report.json")
    sp.add_argument("--fault-inject", default=None, help=argparse.SUPPRESS)

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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "tol"):  # eval, table and beta
            args.tol = _tolerance(args.tol)
        if args.command == "verify":
            return _cmd_verify(args)
        emitter = _Emitter(args.format, sys.stdout)
        if args.command == "eval":
            return _cmd_eval(args, emitter)
        if args.command == "poles":
            return _cmd_poles(args, emitter)
        if args.command == "table":
            return _cmd_table(args, parser, emitter)
        if args.command == "beta":
            return _cmd_beta(args, emitter)
        parser.error(f"unknown command {args.command}")  # pragma: no cover
    except DegammaError as exc:
        print(f"degamma: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except OverflowError as exc:
        print(f"degamma: overflow: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    return 0  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
