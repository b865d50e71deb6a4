"""Cross-representation consistency harness.

Samples the parameter space (deterministically, given a seed), runs every
evaluation path, checks each functional identity the library implements, and
emits machine-readable reports.  The closed form is the reference path; all
others are judged against it.

Each identity is one row of the table ``_CHECKS``: its name, the index of its
random stream (None for a fixed grid), whether it compares logs, and a
function that produces the samples, drawing lambda from a fixed range of its
own.  ``CHECK_ROSTER`` is the table's names, and :func:`run_identity_suite` is
one loop over it.  The perturb hook applies in that loop only, to each
sample's observed value: it multiplies the value by the factor, or for the
log-space check adds the factor's log.  Every report, the limit checks' and
the cross-path scan's too, is filled by ``CheckReport.record`` and ``fail``.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import classical, core, quadrature, representations
from .core import DegenerateParameter, EvalStatus, PoleFamily
from .errors import DegammaError

__all__ = [
    "CheckReport",
    "GridSpec",
    "CHECK_ROSTER",
    "run_identity_suite",
    "run_cross_path_scan",
    "run_limit_checks",
    "reports_to_json",
]

# Pole-avoidance radius used by every sampler.
REJECTION_RADIUS = 0.05

_TINY = 1e-300


@dataclass
class CheckReport:
    """Outcome of one identity check over its sample set."""

    check_name: str
    sample_count: int = 0
    max_rel_err: float = 0.0
    failures: list = field(default_factory=list)
    passed: bool = True
    per_path: dict | None = None

    def record(self, s, lam, path, observed, expected, err, tol) -> None:
        """Count one compared sample; it fails unless err <= tol."""
        self.sample_count += 1
        self.max_rel_err = max(self.max_rel_err, err)
        if not err <= tol:
            self.fail(s, lam, path, observed, expected, err, tol)

    def fail(self, s, lam, path, observed, expected, err, tol) -> None:
        """Add one failure, without counting a sample."""
        self.failures.append({
            "s_re": s.real, "s_im": s.imag, "lambda": lam, "path": path,
            "observed_re": observed.real, "observed_im": observed.imag,
            "expected_re": expected.real, "expected_im": expected.imag,
            "rel_err": err, "tol": tol,
        })
        self.passed = False

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.per_path is None:
            del out["per_path"]
        return out


@dataclass(frozen=True)
class GridSpec:
    """Rectangle + spacing for the cross-path scan."""

    re_start: float
    re_stop: float
    re_step: float

    def points(self) -> list[complex]:
        n = int(round((self.re_stop - self.re_start) / self.re_step)) + 1
        if n < 1:
            raise ValueError("GridSpec: empty grid")
        return [complex(self.re_start + k * self.re_step, 0.0) for k in range(n)]


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), _TINY)


def _log_space_gap(l1: complex, l2: complex) -> float:
    d = l1 - l2
    return math.hypot(d.real, math.remainder(d.imag, 2.0 * math.pi))


def _sample_complex(rng, re_range, im_range, reject, max_tries: int = 10_000) -> complex:
    """Draw until the rejection predicate clears; deterministic given rng."""
    for _ in range(max_tries):
        s = complex(rng.uniform(*re_range), rng.uniform(*im_range))
        if not reject(s):
            return s
    raise RuntimeError("sampler: rejection region covers the whole rectangle")


def _away_from_poles(s: complex, p: DegenerateParameter,
                     radius: float = REJECTION_RADIUS) -> bool:
    dist, _, _ = core.nearest_pole(s, p)
    return dist >= radius


def _value(s: complex, p: DegenerateParameter) -> complex:
    return core.degenerate_gamma(s, p).value


def _draw_pair(rng, shifted: bool = False):
    """lambda and s over the strip, s (and s + 1 when ``shifted``) off the poles."""
    p = DegenerateParameter(rng.uniform(0.1, 0.9))
    s = _sample_complex(
        rng, (-2.5, p.inv_lambda - 1.5), (-5.0, 5.0),
        lambda s: not _away_from_poles(s, p)
        or (shifted and not _away_from_poles(s + 1.0, p)),
    )
    return s, p


def _difference_equation(rng, pspec):
    # dgamma(s+1) = s/(1 - lam*(s+1)) * dgamma(s)
    s, p = _draw_pair(rng, shifted=True)
    return (s, p.lam, "difference-step", _value(s + 1.0, p),
            core.difference_step(s, p) * _value(s, p), 1e-10)


def _reflection_symmetry(rng, pspec):
    # lam^s dgamma(s) = lam^(u-s) dgamma(u-s), as the two logs
    s, p = _draw_pair(rng)
    partner = core.symmetry_partner(s, p)
    l1 = s * p.log_lambda + core.degenerate_gamma_log(s, p)
    l2 = partner * p.log_lambda + core.degenerate_gamma_log(partner, p)
    return s, p.lam, "symmetry", l1, l2, 1e-10


def _closed_form_beta_identity(rng, pspec):
    # closed form against the classical-beta grouping lam^{-s} B(s, u-s)
    s, p = _draw_pair(rng)
    return (s, p.lam, "beta-grouping", _value(s, p),
            cmath.exp(-s * p.log_lambda + classical.log_beta(s, p.inv_lambda - s)),
            1e-12)


def _lambda_shift(k: int):
    """The lambda-shift recurrence by k + 1 steps."""

    def check(rng, pspec):
        lam = rng.uniform(0.1, 1.0 / (k + 2) - 0.02)
        p = DegenerateParameter(lam)
        p_shift = DegenerateParameter(lam / (1.0 - (k + 1) * lam))
        s = _sample_complex(
            rng, (k + 0.1, min(p.inv_lambda - 1.0 - 0.1, k + 8.0)), (-3.0, 3.0),
            lambda s: (
                not _away_from_poles(s + 1.0, p)
                or not _away_from_poles(s - k, p_shift)
            ),
        )
        step = core.lambda_shift_recurrence(s, k, p)
        return (s, lam, f"shift-k{k}", _value(s + 1.0, p),
                step.factor * _value(step.shifted_arg, p_shift), 1e-10)

    return check


def _integer_values():
    # integer arguments against exact rational products
    for lam in (0.05, 0.09, 0.11, 0.3):
        p = DegenerateParameter(lam)
        for k in range(1, 11):
            exact = core.degenerate_gamma_integer(k, p).exact()
            yield (complex(k), lam, "integer-product", _value(complex(k), p),
                   complex(float(exact)), 1e-12)


def _product_domain(rng):
    p = DegenerateParameter(rng.uniform(0.45, 0.9))
    s = _sample_complex(
        rng, (0.2, 1.4), (-0.6, 0.6),
        lambda z: not _away_from_poles(z, p, 0.1),
    )
    return s, p


def _weierstrass_main(rng, pspec):
    s, p = _product_domain(rng)
    res = representations.weierstrass_gamma(s, p, pspec)
    expected = _value(s, p)
    tol = max(res.abs_error_estimate / max(abs(expected), _TINY), 5e-13)
    return s, p.lam, "weierstrass", res.value, expected, tol


def _weierstrass_paired(rng, pspec):
    # the directly summed product against the Euler-Maclaurin one
    s, p = _product_domain(rng)
    main = representations.weierstrass_gamma(s, p, pspec)
    paired = representations.weierstrass_gamma(
        s, p, pspec, euler_constant_form=True
    )
    return s, p.lam, "paired-form", paired.value, main.value, 1e-12


def _euler_limit(rng, pspec):
    s, p = _product_domain(rng)
    res = representations.euler_limit_gamma(s, p, pspec)
    expected = _value(s, p)
    tol = max(2.0 * res.abs_error_estimate / max(abs(expected), _TINY), 1e-12)
    return s, p.lam, "euler-limit", res.value, expected, tol


def _sine_product(rng, pspec):
    # sine product against pi z / sin(pi z)
    z = _sample_complex(
        rng, (-2.5, 2.5), (-1.5, 1.5),
        lambda w: abs(w.real - round(w.real)) < 0.1 and abs(w.imag) < 0.1,
    )
    terms = pspec.n_terms
    observed = representations.sine_product(z, terms)
    expected = math.pi * z / classical.sin_pi(z) if z != 0 else 1.0 + 0.0j
    tol = 3.0 * (abs(z) ** 2 + 1.0) / terms
    return z, math.nan, "sine-product", observed, expected, tol


def _beta_domain(rng):
    p = DegenerateParameter(rng.uniform(0.2, 0.8))

    def reject(w):
        return not _away_from_poles(w, p, 0.1)

    a = _sample_complex(rng, (0.15, 1.2), (-0.5, 0.5), reject)
    b = _sample_complex(
        rng, (0.15, 1.2), (-0.5, 0.5),
        lambda w: reject(w) or not _away_from_poles(a + w, p, 0.1),
    )
    return a, b, p


def _beta_classical_mixed(rng, pspec):
    a, b, p = _beta_domain(rng)
    return (a + b, p.lam, "classical-mixed", core.degenerate_beta(a, b, p).value,
            core.degenerate_beta_classical(a, b, p).value, 1e-11)


def _beta_product(rng, pspec):
    a, b, p = _beta_domain(rng)
    res = representations.degenerate_beta_product(a, b, p, pspec)
    expected = core.degenerate_beta(a, b, p).value
    tol = max(2.0 * res.abs_error_estimate / max(abs(expected), _TINY), 1e-12)
    return a + b, p.lam, "beta-product", res.value, expected, tol


def _beta_integer_formula():
    for lam in (0.07, 0.1, 0.16, 0.22):
        p = DegenerateParameter(lam)
        for m in range(1, 4):
            for n in range(1, 4):
                exact = (
                    core.falling_factorial_exact(1, m + n + 1, lam)
                    / (
                        core.falling_factorial_exact(1, m + 1, lam)
                        * core.falling_factorial_exact(1, n + 1, lam)
                    )
                    * Fraction(
                        math.factorial(m - 1) * math.factorial(n - 1),
                        math.factorial(m + n - 1),
                    )
                )
                yield (complex(m, n), lam, "integer-formula",
                       core.degenerate_beta(m, n, p).value,
                       complex(float(exact)), 1e-10)


def _residues(family: PoleFamily):
    """The residues of one pole family, by the four-angle limit."""

    def check():
        for lam in (0.3, 0.5, 0.7):
            p = DegenerateParameter(lam)
            for n in range(4):
                info = core._pole_info(family, n, p)
                yield (info.location, lam, "four-angle-limit",
                       _residue_limit(info.location, p), info.residue, 1e-6)

    return check


def _hankel_domain(rng):
    p = DegenerateParameter(rng.uniform(0.2, 0.8))
    s = _sample_complex(
        rng, (0.15, p.inv_lambda - 0.5), (-1.5, 1.5),
        lambda w: (
            not _away_from_poles(w, p, 0.1)
            or abs(w.real - round(w.real)) + abs(w.imag) < 0.1
        ),
    )
    return s, p


def _hankel_contour(rng, pspec):
    s, p = _hankel_domain(rng)
    return (s, p.lam, "hankel", quadrature.hankel_gamma(s, p).value,
            _value(s, p), 1e-7)


def _hankel_contour_reflected(rng, pspec):
    s, p = _hankel_domain(rng)
    return (s, p.lam, "hankel-reflected",
            quadrature.hankel_gamma_reflected(s, p).value,
            quadrature.hankel_gamma(s, p).value, 1e-10)


# The identity checks: (name, random stream, compares logs, check).  A check
# with a stream index draws from default_rng([seed, index]) and maps
# (rng, product spec) to one sample (s, lambda, path, observed,
# expected, tol); one with stream None walks a fixed grid and yields them all.
_CHECKS = (
    ("difference-equation", 0, False, _difference_equation),
    ("reflection-symmetry", 1, True, _reflection_symmetry),
    ("closed-form-beta-identity", 2, False, _closed_form_beta_identity),
    ("lambda-shift-k0", 3, False, _lambda_shift(0)),
    ("lambda-shift-k1", 4, False, _lambda_shift(1)),
    ("lambda-shift-k2", 5, False, _lambda_shift(2)),
    ("integer-values", None, False, _integer_values),
    ("weierstrass-product-main", 6, False, _weierstrass_main),
    ("weierstrass-product-paired", 7, False, _weierstrass_paired),
    ("euler-limit", 8, False, _euler_limit),
    ("sine-product", 9, False, _sine_product),
    ("beta-classical-mixed", 10, False, _beta_classical_mixed),
    ("beta-product", 11, False, _beta_product),
    ("beta-integer-formula", None, False, _beta_integer_formula),
    ("residues-nonpositive", None, False, _residues(PoleFamily.NON_POSITIVE)),
    ("residues-shifted", None, False, _residues(PoleFamily.SHIFTED_BY_INV_LAMBDA)),
    ("hankel-contour", 12, False, _hankel_contour),
    ("hankel-contour-reflected", 13, False, _hankel_contour_reflected),
)

# Every identity the harness covers, by what each check does.
CHECK_ROSTER = tuple(sorted(row[0] for row in _CHECKS))


def run_identity_suite(
    seed: int,
    samples: int,
    perturb_check: str | None = None,
    perturb_factor: float = 1.0 + 1e-6,
    product_terms: int = 100_000,
) -> list[CheckReport]:
    """Run every identity check; deterministic given (seed, samples).

    ``perturb_check`` multiplies the observed path of the named check by
    ``perturb_factor`` so the harness's sensitivity itself can be tested.
    Reports come back sorted by check_name.
    """
    if samples < 1:
        raise ValueError("run_identity_suite: samples must be >= 1")
    pspec = representations.ProductSpec(n_terms=product_terms)
    reports = []
    for name, stream, log_space, check in _CHECKS:
        if stream is None:
            rows = check()
        else:
            rng = np.random.default_rng([seed, stream])
            rows = (check(rng, pspec) for _ in range(samples))
        # the perturb hook: scaling one path by a known factor proves that
        # the harness detects disagreement
        factor = perturb_factor if name == perturb_check else 1.0
        report = CheckReport(name)
        for s, lam, path, observed, expected, tol in rows:
            if log_space:
                if factor != 1.0:
                    observed += cmath.log(factor)
                err = _log_space_gap(observed, expected)
                observed, expected = cmath.exp(observed - expected), 1.0 + 0.0j
            else:
                observed *= factor
                err = _rel(observed, expected)
            report.record(s, lam, path, observed, expected, err, tol)
        reports.append(report)
    reports.sort(key=lambda r: r.check_name)
    return reports


def _residue_limit(location: complex, p: DegenerateParameter,
                   radius: float = 1e-4) -> complex:
    """Mean of (s - s0) * dgamma(s) over four symmetric angles around s0.

    The symmetric average cancels the first three Laurent corrections, so the
    radius-1e-4 circle already determines the residue to ~1e-12.
    """
    total = 0.0 + 0.0j
    for k in range(4):
        offset = radius * cmath.exp(0.5j * math.pi * k)
        s = location + offset
        total += offset * core.degenerate_gamma(s, p).value
    return total / 4.0


# Tolerances for the cross-path scan, per method tag.  The product-path
# figures assume the default truncation (1e5 terms) and are relaxed
# proportionally when the caller coarsens it.
_SCAN_TOLERANCES = {
    "direct-integral": 1e-10,
    "hankel": 1e-7,
    "weierstrass": 1e-4,
    "euler-limit": 1e-4,
}
_DEFAULT_SCAN_TERMS = 100_000


def _scan_tolerance(path: str, product_terms: int) -> float:
    tol = _SCAN_TOLERANCES[path]
    if path in ("weierstrass", "euler-limit"):
        tol *= max(1.0, _DEFAULT_SCAN_TERMS / product_terms)
    return tol


def run_cross_path_scan(grid: GridSpec, p: DegenerateParameter,
                        product_terms: int = 100_000) -> CheckReport:
    """Evaluate every path over a grid and compare against the closed form.

    Each path runs only where its preconditions hold; precondition rejections
    are counted as skipped cells, and a path whose validity region misses the
    grid entirely is marked not applicable.
    """
    points = grid.points()
    pspec = representations.ProductSpec(n_terms=product_terms)
    qspec = quadrature.QuadratureSpec()
    paths = {
        "direct-integral": lambda s: quadrature.direct_integral_gamma(s, p, qspec),
        "hankel": lambda s: quadrature.hankel_gamma(s, p, qspec),
        "weierstrass": lambda s: representations.weierstrass_gamma(s, p, pspec),
        "euler-limit": lambda s: representations.euler_limit_gamma(s, p, pspec),
    }
    per_path = {
        name: {"max_rel_err": 0.0, "evaluated": 0, "skipped": 0, "applicable": True}
        for name in paths
    }
    report = CheckReport("cross-path-scan", per_path=per_path)
    for s in points:
        ref = core.degenerate_gamma(s, p)
        if ref.status in (EvalStatus.AT_POLE, EvalStatus.OVERFLOW):
            for stats in per_path.values():
                stats["skipped"] += 1
            continue
        for name, fn in paths.items():
            stats = per_path[name]
            try:
                res = fn(s)
            except DegammaError:
                stats["skipped"] += 1
                continue
            stats["evaluated"] += 1
            err = _rel(res.value, ref.value)
            stats["max_rel_err"] = max(stats["max_rel_err"], err)
            report.record(s, p.lam, name, res.value, ref.value,
                          err, _scan_tolerance(name, product_terms))
    for stats in per_path.values():
        stats["applicable"] = stats["evaluated"] > 0
    report.sample_count = len(points)
    return report


# The degeneration limits: (name, path, arguments, reference function,
# lambda at step eps, tolerance at the last step eps = 1e-6).
_LIMITS = (
    ("limit-lambda-to-zero", "gamma-limit", (0.5, 1.5, 2.5, 1.0 + 1.0j),
     lambda s: classical.gamma(s), lambda eps: eps, 1e-4),
    ("limit-lambda-to-one", "sine-limit", (0.3, 0.5 + 0.5j),
     lambda z: math.pi / classical.sin_pi(z), lambda eps: 1.0 - eps, 1e-3),
)


def run_limit_checks() -> list[CheckReport]:
    """Degeneration limits: lambda -> 0 recovers Gamma, lambda -> 1 the sine form.

    Checks both the final closeness and that the error decreases along each
    lambda sequence.
    """
    reports = []
    for name, path, points, reference, lam_at, final_tol in _LIMITS:
        report = CheckReport(name)
        for s in points:
            devs = []
            for eps in (1e-2, 1e-4, 1e-6):
                lam = lam_at(eps)
                val = core.degenerate_gamma(s, DegenerateParameter(lam)).value
                ref = reference(s)
                devs.append(_rel(val, ref))
                tol = final_tol if eps == 1e-6 else math.inf
                report.record(complex(s), lam, path, val, ref, devs[-1], tol)
            if not (devs[0] > devs[1] > devs[2]):
                report.fail(complex(s), lam, f"{path}-monotone",
                            complex(devs[0], devs[1]), complex(devs[2], 0.0),
                            max(devs), 0.0)
        reports.append(report)
    reports.sort(key=lambda r: r.check_name)
    return reports


def reports_to_json(reports: list[CheckReport]) -> str:
    """Serialize reports (sorted by check_name) as deterministic JSON."""
    ordered = sorted(reports, key=lambda r: r.check_name)
    return json.dumps([r.to_dict() for r in ordered], indent=2, sort_keys=True)
