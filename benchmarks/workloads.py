"""The benchmark's workloads: inputs from a seed, output checks, timed passes.

Every workload is a closed loop with one caller on one thread: the next call
is made only after the previous one has returned.  Inputs are generated from
the seed before any timing starts; a timed pass replays them in order, and a
run is a whole number of passes, so every count and every ratio derived from
the outputs repeats exactly at a fixed seed.

Functions are looked up as module attributes at call time (``core`` then
``degenerate_gamma``), so the traced run sees the wrappers that
``tracing.Tracer.install`` put in place.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import statistics
import time
from array import array
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

import oracle

# ------------------------------------------------------------------ results


@dataclass
class PassStats:
    """What the timed passes of one run measured."""

    ops: int = 0
    failed: int = 0
    passes: int = 0
    rows: int = 0
    mismatched: int = 0
    latency_samples: int = 0
    # op latencies of the current pass only, so that memory does not grow
    # with the number of ops a run completes
    latencies_s: array = field(default_factory=lambda: array("d"))
    # median and p99 op latency, and ops per CPU second, of each pass.  A
    # pass is short enough to sit in one phase of the shared host's drifting
    # speed; the run reports the median over passes, which a few slow phases
    # do not move.
    pass_p50_s: array = field(default_factory=lambda: array("d"))
    pass_p99_s: array = field(default_factory=lambda: array("d"))
    pass_rates: array = field(default_factory=lambda: array("d"))
    # the host's speed around each pass (hostspeed.sample, runs per second)
    pass_speed: array = field(default_factory=lambda: array("d"))

    def end_pass(self) -> None:
        """Summarise the pass's latencies and clear them for the next pass."""
        ordered = sorted(self.latencies_s)
        self.pass_p50_s.append(statistics.median(ordered))
        if p99_allowed(len(ordered)):
            self.pass_p99_s.append(percentile(ordered, 99))
        self.latency_samples += len(ordered)
        del self.latencies_s[:]
        self.passes += 1


@dataclass
class CheckResult:
    """The untimed check pass: deterministic quality figures, and every
    output check that did not hold (none, when the outputs are correct)."""

    problems: list[str]
    quality: dict[str, float]


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of sorted values; q in (0, 100)."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p99_allowed(n: int) -> bool:
    """p99 leaves at least ten samples beyond it only from 1000 samples on."""
    return n >= 1000


# ------------------------------------------------------ failure classification


def is_failure(pkg, outcome, expected: str | None) -> bool:
    """True when an outcome counts toward ``failed_ratio``.

    A failure is an exception other than the DegammaError subclass the
    input's region documents (``expected``), or a non-finite value reported
    with regular status.  Results without a status field (``log_gamma``,
    ``pole_residue``) count as regular.
    """
    if isinstance(outcome, BaseException):
        return expected is None or not isinstance(outcome, getattr(pkg.errors, expected))
    status = getattr(outcome, "status", None)
    if status is not None and status is not pkg.EvalStatus.REGULAR:
        return False
    if isinstance(outcome, pkg.LogGammaResult):
        value = outcome.as_complex()
    else:
        value = getattr(outcome, "value", outcome)
    return not cmath.isfinite(value)


def fingerprint(outcome) -> str:
    """A text form that is equal for bit-identical outcomes, NaN included."""
    if isinstance(outcome, BaseException):
        return f"{type(outcome).__name__}: {outcome}"
    return repr(outcome)


# ----------------------------------------------------------- scalar workloads


@dataclass(frozen=True)
class Call:
    """One scalar library call and what it is checked against."""

    module: str
    fn: str
    args: tuple
    region: str
    expected: str | None  # documented DegammaError subclass, if any
    ref: tuple  # oracle spec


# point-eval regions: (name, share of the input pool, why it is there)
POINT_REGIONS = (
    ("moderate", 0.36, "the strip and its neighbourhood, where most calls land"),
    ("far-left", 0.10, "Re s in (-150, -10): the reflection formula and tiny values"),
    ("near-pole", 0.10, "1e-8 to 1e-4 from a pole: cancellation and the inflated estimate"),
    ("at-pole", 0.08, "exactly on a pole: residue records, and PoleError from beta and log_gamma"),
    ("large-im", 0.12, "|Im s| in (50, 300): underflow of the value past |Im s| ~ 230"),
    ("small-lambda", 0.10, "lambda down to 1e-12: cancellation in the closed form"),
    ("lambda-near-1", 0.12, "lambda within 1e-2 to 1e-8 of 1: both pole families crowd the integers"),
    ("non-finite", 0.02, "NaN or infinite s: the documented error is DomainError, so a raw "
                         "ValueError or OverflowError, or a NaN reported as regular, is a failure"),
)
POINT_POOL = 2000

_POINT_FNS = (
    ("core", "degenerate_gamma", 0.45),
    ("core", "degenerate_beta", 0.20),
    ("core", "degenerate_beta_classical", 0.15),
    ("classical", "log_gamma", 0.20),
)
_AT_POLE_KINDS = (
    ("core", "degenerate_gamma", 0.40),
    ("core", "pole_residue", 0.30),
    ("core", "degenerate_beta", 0.15),
    ("classical", "log_gamma", 0.15),
)
_NON_FINITE = (
    complex(math.nan, 0.0),
    complex(math.inf, 0.0),
    complex(-math.inf, 0.0),
    complex(0.5, math.inf),
    complex(0.5, math.nan),
)


def exact_counts(n: int, weights) -> list[int]:
    """Split n into integer counts proportional to weights (largest remainder).

    The benchmark fixes how many inputs of each kind a pool holds, so that
    only values, never the mix, change with the seed.
    """
    raw = [n * w / sum(weights) for w in weights]
    counts = [int(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _pole_distance(s: complex, p) -> float:
    u = p.inv_lambda
    n1 = max(0, round(-s.real))
    n2 = max(0, round(s.real - u))
    return min(abs(s + n1), abs(s - (u + n2)))


def _draw_s(rng, p, re_range, im_range, min_dist=0.05) -> complex:
    while True:
        s = complex(rng.uniform(*re_range), rng.uniform(*im_range))
        if _pole_distance(s, p) >= min_dist:
            return s


def _dgamma_ref(s: complex, lam: float) -> tuple:
    return ("dgamma", s.real, s.imag, lam)


class ScalarWorkload:
    """Scalar library calls replayed in a closed loop (point-eval, integral-paths)."""

    needs_oracle = True

    def __init__(self, pkg):
        self.pkg = pkg

    def check(self, items: list[Call], refs: list) -> tuple[CheckResult, list]:
        """Call every input once, untimed, and measure accuracy and failures."""
        pkg = self.pkg
        self._calls = [(getattr(pkg, c.module), c.fn, c.args) for c in items]
        outcomes = []
        for mod, fn, args in self._calls:
            try:
                outcomes.append(getattr(mod, fn)(*args))
            except Exception as exc:
                outcomes.append(exc)
        problems: list[str] = []
        digits: list[float] = []
        judged = bad = failed = 0
        for call, out, ref in zip(items, outcomes, refs):
            if is_failure(pkg, out, call.expected):
                failed += 1
                continue
            if isinstance(out, BaseException) or ref[0] is None and ref[2] is None:
                continue
            if call.fn == "pole_residue" or getattr(out, "status", None) is pkg.EvalStatus.AT_POLE:
                residue = out if call.fn == "pole_residue" else out.pole.residue
                _, rel = oracle.value_error(residue, ref)
                if not rel <= Decimal("1e-10"):
                    problems.append(f"{call.fn}{call.args[:2]}: residue off by {rel:.3e}")
                continue
            rel, abs_err = self._error(out, ref)
            digits.append(16.0 if rel == 0 else min(16.0, -math.log10(rel)))
            estimate = getattr(out, "abs_error_estimate", None)
            if estimate is not None:
                judged += 1
                if abs_err is not None and not abs_err <= Decimal(estimate):
                    bad += 1
        digits_median = statistics.median(digits) if digits else 0.0
        if digits_median < self.min_digits_median:
            problems.append(f"digits_median {digits_median:.2f} is below "
                            f"{self.min_digits_median}")
        quality = {
            "check_failed_ratio": failed / len(items),
            "bad_estimate_ratio": bad / judged if judged else 0.0,
            "digits_median": digits_median,
        }
        return CheckResult(problems, quality), outcomes

    def _error(self, out, ref) -> tuple[float, Decimal | None]:
        """(relative error, absolute error or None) of one non-pole result."""
        pkg = self.pkg
        if isinstance(out, pkg.LogGammaResult):
            return float(oracle.log_error(out.as_complex(), ref)), None
        if out.status is pkg.EvalStatus.OVERFLOW or ref[0] is None:
            return float(oracle.log_error(out.log_value, ref)), None
        abs_err, rel = oracle.value_error(out.value, ref)
        return float(rel), abs_err

    def run_pass(self, items, stats: PassStats, outcomes: list, tracer=None) -> None:
        """One timed pass over every input; outcomes are classified afterwards."""
        clock = time.perf_counter
        lat = stats.latencies_s
        for i, (mod, fn, args) in enumerate(self._calls):
            if tracer is not None:
                tracer.op_id = stats.ops + i
            f = getattr(mod, fn)
            t0 = clock()
            try:
                out = f(*args)
            except Exception as exc:
                t1 = clock()
                out = exc
            else:
                t1 = clock()
            lat.append(t1 - t0)
            outcomes[i] = out
        pkg = self.pkg
        stats.failed += sum(
            is_failure(pkg, out, call.expected) for out, call in zip(outcomes, items)
        )
        stats.ops += len(items)
        stats.end_pass()


class PointEval(ScalarWorkload):
    name = "point-eval"
    # the closed form promises ~1e-13 away from its known weak regions
    min_digits_median = 10.0

    def inputs(self, seed: int) -> list[Call]:
        pkg = self.pkg
        rng = np.random.default_rng([seed, 1])
        items: list[Call] = []
        region_counts = exact_counts(POINT_POOL, [share for _, share, _ in POINT_REGIONS])
        for (region, _, _), count in zip(POINT_REGIONS, region_counts):
            if region == "at-pole":
                kinds = _AT_POLE_KINDS
            else:
                kinds = _POINT_FNS
            per_kind = exact_counts(count, [w for _, _, w in kinds])
            for (module, fn, _), n in zip(kinds, per_kind):
                for _ in range(n):
                    items.append(self._point(rng, pkg, region, module, fn))
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    def _point(self, rng, pkg, region, module, fn) -> Call:
        if region == "at-pole":
            return self._at_pole(rng, pkg, fn)
        if region == "small-lambda":
            lam = 10.0 ** rng.uniform(-12.0, -6.0)
        elif region == "lambda-near-1":
            lam = 1.0 - 10.0 ** rng.uniform(-8.0, -2.0)
        elif region == "moderate":
            lam = rng.uniform(0.05, 0.95)
        else:
            lam = rng.uniform(0.1, 0.9)
        p = pkg.DegenerateParameter(lam)
        u = p.inv_lambda
        if region == "moderate":
            s = _draw_s(rng, p, (-3.0, u + 3.0), (-5.0, 5.0))
        elif region == "far-left":
            s = _draw_s(rng, p, (-150.0, -10.0), (-3.0, 3.0))
        elif region == "near-pole":
            n = int(rng.integers(0, 6))
            loc = complex(-n, 0.0) if rng.random() < 0.5 else complex(u + n, 0.0)
            s = loc + 10.0 ** rng.uniform(-7.9, -4.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        elif region == "large-im":
            im = rng.uniform(50.0, 300.0) * (1 if rng.random() < 0.5 else -1)
            s = complex(rng.uniform(-2.0, u + 2.0), im)
        elif region == "small-lambda":
            s = _draw_s(rng, p, (-3.0, 5.0), (-5.0, 5.0))
        elif region == "lambda-near-1":
            s = _draw_s(rng, p, (-3.0, 4.0), (-3.0, 3.0))
        else:  # non-finite
            s = _NON_FINITE[int(rng.integers(0, len(_NON_FINITE)))]
        expected = "DomainError" if region == "non-finite" else None
        if fn == "log_gamma":
            ref = ("none",) if expected else ("loggamma", s.real, s.imag)
            return Call(module, fn, (s,), region, expected, ref)
        if fn == "degenerate_gamma":
            ref = ("none",) if expected else _dgamma_ref(s, lam)
            return Call(module, fn, (s, p), region, expected, ref)
        b = self._beta_partner(rng, p, s)
        ref = ("none",) if expected else ("beta", s.real, s.imag, b.real, b.imag, lam)
        return Call(module, fn, (s, b, p), region, expected, ref)

    @staticmethod
    def _beta_partner(rng, p, a: complex) -> complex:
        while True:
            b = _draw_s(rng, p, (0.2, 1.5), (-1.0, 1.0))
            if not cmath.isfinite(a) or _pole_distance(a + b, p) >= 0.05:
                return b

    def _at_pole(self, rng, pkg, fn) -> Call:
        lam = rng.uniform(0.1, 0.9)
        p = pkg.DegenerateParameter(lam)
        n = int(rng.integers(0, 6))
        # log Gamma has poles only in the non-positive family
        family = 0 if fn == "log_gamma" else int(rng.integers(0, 2))
        loc = complex(-n, 0.0) if family == 0 else complex(p.inv_lambda + n, 0.0)
        if fn == "degenerate_gamma":
            return Call("core", fn, (loc, p), "at-pole", None, ("residue", family, n, lam))
        if fn == "pole_residue":
            fam = (pkg.PoleFamily.NON_POSITIVE, pkg.PoleFamily.SHIFTED_BY_INV_LAMBDA)[family]
            return Call("core", fn, (fam, n, p), "at-pole", None, ("residue", family, n, lam))
        if fn == "degenerate_beta":
            b = self._beta_partner(rng, p, loc)
            return Call("core", fn, (loc, b, p), "at-pole", "PoleError", ("none",))
        return Call("classical", fn, (loc,), "at-pole", "PoleError", ("none",))


# 1000 calls a pass, so that each pass has a p99 with ten calls beyond it
INTEGRAL_POOL = 1000


class IntegralPaths(ScalarWorkload):
    name = "integral-paths"
    # the quadrature paths target 1e-10 (defining integral) and 1e-7 (contours)
    min_digits_median = 7.0

    def inputs(self, seed: int) -> list[Call]:
        pkg = self.pkg
        rng = np.random.default_rng([seed, 4])
        items = []
        fns = ("direct_integral_gamma", "hankel_gamma", "hankel_gamma_reflected")
        for k in range(INTEGRAL_POOL):
            fn = fns[k % 3]
            lam = rng.uniform(0.15, 0.85)
            p = pkg.DegenerateParameter(lam)
            u = p.inv_lambda
            if fn == "direct_integral_gamma":
                s = complex(rng.uniform(0.05, u - 0.05), rng.uniform(-5.0, 5.0))
                region = "strip"
            else:
                # inside the strip and left of it, away from the integers
                # where the contour's sine prefactor vanishes
                while True:
                    s = _draw_s(rng, p, (-3.0, u - 0.3), (-5.0, 5.0))
                    if abs(s - round(s.real)) >= 0.05:
                        break
                region = "strip" if s.real > 0 else "left-of-strip"
            items.append(Call("quadrature", fn, (s, p), region, None, _dgamma_ref(s, lam)))
        return items


# ---------------------------------------------------------------- table-sweep


class _Sink:
    """In-memory stdout that stamps the time of every write (one per row)."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps = array("d")

    def write(self, text: str) -> int:
        self.stamps.append(time.perf_counter())
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


@dataclass(frozen=True)
class Sweep:
    argv: tuple[str, ...]
    fmt: str
    points: tuple[tuple[complex, float], ...]


# The CLI's documented wire order, written out here so that a change to it
# fails the check instead of being followed by it.
_TABLE_FIELDS = (
    "s_re", "s_im", "lambda", "value_re", "value_im", "abs_error",
    "method", "status", "residue_re", "residue_im", "beta_re", "beta_im",
)


def _parse_rows(text: str, fmt: str) -> list[dict]:
    if fmt == "jsonl":
        return [json.loads(line) for line in text.splitlines()]
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = []
    for raw in reader:
        rows.append({
            k: (None if v == "" else v if k in ("method", "status") else float(v))
            for k, v in zip(header, raw)
        })
    return rows


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a == b or (a != a and b != b)


class TableSweep:
    """In-process ``degamma table`` sweeps over Re(s) and over lambda."""

    name = "table-sweep"
    needs_oracle = False

    def __init__(self, pkg):
        self.pkg = pkg
        self.reference_text: list[str] = []

    def inputs(self, seed: int) -> list[Sweep]:
        cli = self.pkg.cli
        rng = np.random.default_rng([seed, 2])
        sweeps = []
        for k in range(8):
            fmt = "jsonl" if k % 2 == 0 else "csv"
            if k < 4:
                # lambda = 1/m makes 1/lambda an exact integer, and the grid
                # step is a power of two, so both pole families land on rows
                lam = 1.0 / int(rng.choice([2, 4, 5, 8]))
                start = -int(rng.integers(2, 6))
                spec = f"{start}:{start + 12}:0.0078125"
                argv = ("table", f"--lambda={lam!r}", f"--s-re={spec}")
                points = tuple((complex(x, 0.0), lam) for x in cli.parse_range(spec))
            else:
                # integer s >= 2 meets the second pole family at lambda = 1/2
                # (and 1/4 from s = 4 on); the complex s rows are all regular
                s_text = (str(int(rng.integers(2, 7))) if k % 2 == 0 else
                          f"{rng.uniform(-3.0, 3.0):.3f}{rng.uniform(-3.0, 3.0):+.3f}i")
                spec = "0.05:0.95:0.0005"
                argv = ("table", f"--lambda={spec}", f"--s={s_text}")
                s = cli.parse_complex(s_text)
                points = tuple((s, lam) for lam in cli.parse_range(spec))
            sweeps.append(Sweep(argv + (f"--format={fmt}",), fmt, points))
        return sweeps

    def _invoke(self, sweep: Sweep) -> tuple[int, _Sink, float]:
        sink = _Sink()
        main = self.pkg.cli.main
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            rc = main(list(sweep.argv))
        return rc, sink, t0

    def _expected(self, s: complex, lam: float) -> dict:
        pkg = self.pkg
        r = pkg.degenerate_gamma(s, pkg.DegenerateParameter(lam))
        out = dict.fromkeys(_TABLE_FIELDS)
        out.update({"s_re": s.real, "s_im": s.imag, "lambda": lam, "method": "closed-form"})
        if r.status is pkg.EvalStatus.AT_POLE:
            out.update(status="pole", residue_re=r.pole.residue.real,
                       residue_im=r.pole.residue.imag)
        elif r.status is pkg.EvalStatus.OVERFLOW:
            out.update(status="overflow")
        else:
            out.update(status=r.status.value, value_re=r.value.real,
                       value_im=r.value.imag, abs_error=r.abs_error_estimate)
        return out

    def check(self, items: list[Sweep], refs) -> tuple[CheckResult, list]:
        """Run every sweep once, untimed; compare each row bit for bit."""
        problems: list[str] = []
        self.reference_text = []
        failed = rows_total = poles = 0
        for sweep in items:
            rc, sink, _ = self._invoke(sweep)
            text = sink.text()
            self.reference_text.append(text)
            rows_total += len(sweep.points)
            if rc != 0:
                failed += len(sweep.points)
                problems.append(f"{' '.join(sweep.argv)}: exit {rc}")
                continue
            rows = _parse_rows(text, sweep.fmt)
            if len(rows) != len(sweep.points):
                failed += len(sweep.points)
                problems.append(f"{' '.join(sweep.argv)}: {len(rows)} rows, "
                                f"expected {len(sweep.points)}")
                continue
            for row, (s, lam) in zip(rows, sweep.points):
                want = self._expected(s, lam)
                poles += want["status"] == "pole"
                if not all(_same(row.get(k), want[k]) for k in _TABLE_FIELDS):
                    failed += 1
                    if len(problems) < 5:
                        problems.append(f"row {row} differs from {want}")
        if poles == 0:
            problems.append("no sweep crossed a pole")
        quality = {"check_failed_ratio": failed / rows_total, "pole_rows": poles,
                   "rows_per_pass": rows_total}
        return CheckResult(problems, quality), []

    def run_pass(self, items: list[Sweep], stats: PassStats, outcomes: list,
                 tracer=None) -> None:
        lat = stats.latencies_s
        for k, sweep in enumerate(items):
            if tracer is not None:
                tracer.op_id = stats.passes * len(items) + k
            rc, sink, t0 = self._invoke(sweep)
            n = len(sweep.points)
            stats.ops += n
            stats.rows += n
            if rc != 0 or sink.text() != self.reference_text[k]:
                stats.failed += n
                stats.mismatched += 1
            # a row's latency is the time since the previous row was written;
            # the first row also carries argument parsing and the CSV header
            stamps = sink.stamps[1:] if sweep.fmt == "csv" else sink.stamps
            prev = t0
            for t in stamps:
                lat.append(t - prev)
                prev = t
        stats.end_pass()


# --------------------------------------------------------------- verify-suite

VERIFY_SAMPLES = 3
VERIFY_SEEDS = 3


class VerifySuite:
    """In-process ``degamma verify`` runs over a few seeds."""

    name = "verify-suite"
    needs_oracle = False

    def __init__(self, pkg, report_path):
        self.pkg = pkg
        self.report_path = str(report_path)
        self.reference_report: list[str] = []
        self.samples: list[int] = []

    def inputs(self, seed: int) -> list[tuple[str, ...]]:
        rng = np.random.default_rng([seed, 3])
        return [
            ("verify", "--seed", str(int(k)), "--samples", str(VERIFY_SAMPLES),
             "--report-path", self.report_path)
            for k in rng.integers(0, 2**31, size=VERIFY_SEEDS)
        ]

    def _invoke(self, argv) -> tuple[int, str, float]:
        """Exit code, stdout and CPU seconds of one in-process verify."""
        sink = io.StringIO()
        main = self.pkg.cli.main
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.process_time()
            rc = main(list(argv))
            t1 = time.process_time()
        return rc, sink.getvalue(), t1 - t0

    def _read_report(self) -> str:
        with open(self.report_path) as fh:
            return fh.read()

    def check(self, items, refs) -> tuple[CheckResult, list]:
        """Run each verify once, untimed: exit 0 and every check PASS."""
        problems: list[str] = []
        self.reference_report, self.samples = [], []
        failed = 0
        for argv in items:
            rc, out, _ = self._invoke(argv)
            report = self._read_report()
            checks = json.loads(report)
            count = sum(c["sample_count"] for c in checks)
            self.reference_report.append(report)
            self.samples.append(count)
            bad = [c for c in checks if not c["passed"]]
            if rc != 0 or bad or "FAIL " in out:
                failed += count
                problems.append(f"verify {' '.join(argv[1:3])}: exit {rc}, "
                                f"failing {[c['check_name'] for c in bad]}")
        quality = {"check_failed_ratio": failed / max(1, sum(self.samples)),
                   "samples_per_pass": sum(self.samples)}
        return CheckResult(problems, quality), []

    def run_pass(self, items, stats: PassStats, outcomes: list, tracer=None) -> None:
        for k, argv in enumerate(items):
            if tracer is not None:
                tracer.op_id = stats.passes * len(items) + k
            rc, out, elapsed = self._invoke(argv)
            count = self.samples[k]
            stats.ops += count
            # verify gives no per-sample timing, so an invocation's samples
            # share its time equally.  An invocation spans many scheduler
            # ticks, so it is timed in CPU time, like a pass: wall time would
            # count the host's other tenants.
            stats.latencies_s.append(elapsed / count)
            if rc != 0 or "FAIL " in out or self._read_report() != self.reference_report[k]:
                stats.failed += count
                stats.mismatched += 1
        stats.end_pass()


def make(name: str, pkg, out_dir):
    if name == "point-eval":
        return PointEval(pkg)
    if name == "integral-paths":
        return IntegralPaths(pkg)
    if name == "table-sweep":
        return TableSweep(pkg)
    if name == "verify-suite":
        return VerifySuite(pkg, out_dir / "verify-report.json")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("point-eval", "table-sweep", "verify-suite", "integral-paths")
