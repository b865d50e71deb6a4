"""Cross-representation consistency harness.

Samples the parameter space (deterministically, given a seed), runs every
evaluation path, checks each functional identity the library implements, and
emits machine-readable reports.  The closed form is the reference path; all
others are judged against it.

Each identity is one row of the table ``_CHECKS``: its name, the index of its
random stream (None for a fixed grid), and a function that produces the
samples, drawing lambda from a fixed range of its own, most through one
sampler, ``_draw`` (lambda, then s off the poles).  A draw over (lo, hi) is
lo + (hi - lo) * u for the stream's next double u, read in blocks: that is
``Generator.uniform``.  ``CHECK_ROSTER`` is the table's names, and
:func:`run_identity_suite` is one loop over it that judges every sample by its
relative error: an exact identity within ``EXACT_TOL``, an approximate path
within its own estimate.  The residues, the
sine product and the degeneration limits measure a limit or a truncation and
keep bounds of their own.  A row that judges one approximate gamma path
against the closed form is ``_estimated(tag, domain)``, which runs the path
through ``core.gamma_evaluator`` by its method tag, built once a run.
``CheckReport.record`` and ``fail`` fill every report, the limit checks' too.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np

from . import classical, core, quadrature, representations
from .core import DegenerateParameter, PoleFamily

__all__ = [
    "CheckReport",
    "CHECK_ROSTER",
    "run_identity_suite",
    "run_limit_checks",
    "reports_to_json",
]

# Pole-avoidance radius used by every sampler.
REJECTION_RADIUS = 0.05

_TINY = 1e-300

# An exact identity (the two loop realizations too) is held to EXACT_TOL, an
# approximate path to its own relative estimate, but at least ESTIMATE_FLOOR.
EXACT_TOL = 1e-12
ESTIMATE_FLOOR = 5e-13


class CheckReport(SimpleNamespace):
    """Outcome of one identity check over its sample set; mutable, equal by value."""

    def __init__(self, check_name: str, sample_count: int = 0, max_rel_err: float = 0.0,
                 failures: list | None = None, passed: bool = True):
        super().__init__(check_name=check_name, sample_count=sample_count,
                         max_rel_err=max_rel_err, failures=[] if failures is None else failures,
                         passed=passed)

    def __reduce__(self):
        # SimpleNamespace's own would call CheckReport() without its check_name
        return type(self), tuple(vars(self).values())

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
        # a copy of every dict a caller could mutate; the values are scalars
        return {**vars(self), "failures": [dict(f) for f in self.failures]}


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), _TINY)


_BLOCK = 64


def _stream(rng) -> SimpleNamespace:
    """One row's generator, read _BLOCK doubles at a time.  uniform(lo, hi) is
    lo + (hi - lo) * u over its successive doubles u: Generator.uniform's own
    formula, one double a draw, so the row draws what the generator would."""
    doubles = itertools.chain.from_iterable(iter(lambda: rng.random(_BLOCK).tolist(), None))
    return SimpleNamespace(uniform=lambda lo, hi: lo + (hi - lo) * next(doubles))


def _sample_complex(rng, re_range, im_range, reject) -> complex:
    """Draw until the rejection predicate clears; deterministic given rng."""
    for _ in range(10_000):
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


def _draw(rng, lams, re_range, im_range, radius=REJECTION_RADIUS, reject=None):
    """lambda from lams, then s over re_range(1/lambda) x im_range, off the
    poles by radius and, when given, clear of reject(s, p)."""
    p = DegenerateParameter(rng.uniform(*lams))
    s = _sample_complex(
        rng, re_range(p.inv_lambda), im_range,
        lambda w: not _away_from_poles(w, p, radius) or (reject is not None and reject(w, p)),
    )
    return s, p


def _draw_pair(rng, shifted: bool = False):
    """lambda and s over the strip, s (and s + 1 when ``shifted``) off the poles."""
    return _draw(rng, (0.1, 0.9), lambda u: (-2.5, u - 1.5), (-5.0, 5.0),
                 reject=lambda w, p: shifted and not _away_from_poles(w + 1.0, p))


def _difference_equation(rng, run):
    # dgamma(s+1) = s/(1 - lam*(s+1)) * dgamma(s)
    s, p = _draw_pair(rng, shifted=True)
    return (s, p.lam, "difference-step", _value(s + 1.0, p),
            core.difference_step(s, p) * _value(s, p), EXACT_TOL)


def _reflection_symmetry(rng, run):
    # lam^s dgamma(s) = lam^(u-s) dgamma(u-s), as the ratio of the two sides
    # from their logs; exp absorbs the logs' 2 pi i branch offsets
    s, p = _draw_pair(rng)
    partner = core.symmetry_partner(s, p)
    l1 = s * p.log_lambda + core.degenerate_gamma_log(s, p)
    l2 = partner * p.log_lambda + core.degenerate_gamma_log(partner, p)
    return s, p.lam, "symmetry", cmath.exp(l1 - l2), 1.0 + 0.0j, EXACT_TOL


def _closed_form_beta_identity(rng, run):
    # closed form against the classical-beta grouping lam^{-s} B(s, u-s)
    s, p = _draw_pair(rng)
    return (s, p.lam, "beta-grouping", _value(s, p),
            cmath.exp(-s * p.log_lambda + classical.log_beta(s, p.inv_lambda - s)),
            EXACT_TOL)


def _lambda_shift(k: int):
    """The lambda-shift recurrence by k + 1 steps, to the shifted parameter q."""
    lams = (0.1, 1.0 / (k + 2) - 0.02)

    def check(rng, run):
        p = DegenerateParameter(rng.uniform(*lams))
        q = DegenerateParameter(p.lam / (1.0 - (k + 1) * p.lam))
        s = _sample_complex(
            rng, (k + 0.1, min(p.inv_lambda - 1.0 - 0.1, k + 8.0)), (-3.0, 3.0),
            lambda w: not (_away_from_poles(w, p) and _away_from_poles(w + 1.0, p)
                           and _away_from_poles(w - k, q)))
        step = core.lambda_shift_recurrence(s, k, p)
        return (s, p.lam, f"shift-k{k}", _value(s + 1.0, p),
                step.factor * _value(step.shifted_arg, q), EXACT_TOL)

    return check


def _integer_ratios(lam: float, count: int):
    """IntegerGammaValue.exact(), Gamma(k) / (1)_{k+1,lambda} for k = 1 ... count,
    as unreduced integer ratios, one int / int division rounding each as float()
    does.  With lambda = b/e, (1)_{k+1,lambda} = prod_{j<=k} (e - j b) / e**(k+1)."""
    b, e = lam.as_integer_ratio()
    num, fact = e, 1
    for k in range(1, count + 1):
        num *= e - k * b
        yield fact * e ** (k + 1), num
        fact *= k


def _integer_values():
    # integer arguments against exact rational products
    for lam in (0.05, 0.09, 0.11, 0.3):
        p = DegenerateParameter(lam)
        for k, (a, b) in enumerate(_integer_ratios(lam, 10), 1):
            yield (complex(k), lam, "integer-product", _value(complex(k), p),
                   complex(a / b), EXACT_TOL)


def _product_domain(rng):
    return _draw(rng, (0.45, 0.9), lambda u: (0.2, 1.4), (-0.6, 0.6), 0.1)


def _estimated_sample(s, lam, res, expected):
    """A path's sample, tagged by the result's own method and held to its own
    relative estimate, at least ESTIMATE_FLOOR."""
    tol = max(res.abs_error_estimate / max(abs(expected), _TINY), ESTIMATE_FLOOR)
    return s, lam, res.method.value, res.value, expected, tol


def _estimated(tag: str, domain):
    """The check of the gamma path ``tag`` on domain(rng) against the closed form."""

    def check(rng, run):
        s, p = domain(rng)
        return _estimated_sample(s, p.lam, run.path(tag)(s, p), _value(s, p))

    return check


# The paired row's cap on N, as its direct sum costs O(N).  At 1e4 it still sees
# a naive complex log1p(c/t) in place of _log1p_real; at 2000 or 4000 it does not.
PAIRED_TERMS = 10**4


def _weierstrass_paired(rng, run):
    # the directly summed product against the Euler-Maclaurin one, at N <= PAIRED_TERMS
    s, p = _product_domain(rng)
    pspec = run.pspec._replace(n_terms=min(run.pspec.n_terms, PAIRED_TERMS))
    main = representations.weierstrass_gamma(s, p, pspec)
    paired = representations.weierstrass_gamma(
        s, p, pspec, euler_constant_form=True
    )
    return s, p.lam, "paired-form", paired.value, main.value, EXACT_TOL


def _sine_product(rng, run):
    # sine product against pi z / sin(pi z)
    z = _sample_complex(
        rng, (-2.5, 2.5), (-1.5, 1.5),
        lambda w: abs(w.real - round(w.real)) < 0.1 and abs(w.imag) < 0.1,
    )
    terms = run.pspec.n_terms
    observed = representations.sine_product(z, terms)
    expected = math.pi * z / classical.sin_pi(z) if z != 0 else 1.0 + 0.0j
    tol = 3.0 * (abs(z) ** 2 + 1.0) / terms
    return z, math.nan, "sine-product", observed, expected, tol


def _beta_domain(rng):
    a, p = _draw(rng, (0.2, 0.8), lambda u: (0.15, 1.2), (-0.5, 0.5), 0.1)
    b = _sample_complex(
        rng, (0.15, 1.2), (-0.5, 0.5),
        lambda w: not _away_from_poles(w, p, 0.1) or not _away_from_poles(a + w, p, 0.1),
    )
    return a, b, p


def _beta_classical_mixed(rng, run):
    a, b, p = _beta_domain(rng)
    return (a + b, p.lam, "classical-mixed", core.degenerate_beta(a, b, p).value,
            core.degenerate_beta_classical(a, b, p).value, EXACT_TOL)


def _beta_product(rng, run):
    a, b, p = _beta_domain(rng)
    return _estimated_sample(a + b, p.lam,
                             representations.degenerate_beta_product(a, b, p, run.pspec),
                             core.degenerate_beta(a, b, p).value)


def _beta_integer_formula():
    # the exact (m-1)!(n-1)!/(m+n-1)! * (1)_{m+n+1} / ((1)_{m+1} (1)_{n+1}),
    # the ratio of the exact integer values Gamma(k) / (1)_{k+1}
    for lam in (0.07, 0.1, 0.16, 0.22):
        p = DegenerateParameter(lam)
        exact = dict(enumerate(_integer_ratios(lam, 6), 1))
        for m in range(1, 4):
            for n in range(1, 4):
                (a, b), (c, d), (e, f) = exact[m], exact[n], exact[m + n]
                yield (complex(m, n), lam, "integer-formula",
                       core.degenerate_beta(m, n, p).value,
                       complex(a * c * f / (b * d * e)), EXACT_TOL)


def _residues(family: PoleFamily):
    """The residues of one pole family, by the four-angle limit."""

    def check():
        for lam in (0.3, 0.5, 0.7):
            p = DegenerateParameter(lam)
            for n in range(4):
                info = core._pole_info(family, n, p)
                yield (info.location, lam, "four-angle-limit",
                       _residue_limit(info.location, p), info.residue, 1e-10)

    return check


def _hankel_domain(rng):
    return _draw(rng, (0.2, 0.8), lambda u: (-3.0, u - 0.5), (-1.5, 1.5), 0.1,
                 lambda w, p: abs(w.real - round(w.real)) + abs(w.imag) < 0.1)


def _strip_domain(rng):
    return _draw(rng, (0.15, 0.85), lambda u: (0.05, u - 0.05), (-1.5, 1.5))


def _hankel_contour_reflected(rng, run):
    s, p = _hankel_domain(rng)
    return (s, p.lam, "hankel-reflected",
            quadrature.hankel_gamma_reflected(s, p).value,
            quadrature.hankel_gamma(s, p).value, EXACT_TOL)


# The identity checks: (name, random stream, check).  A check with a stream
# index maps (rng, run) to one sample (s, lambda, path, observed, expected,
# tol): rng.uniform(lo, hi) is lo + (hi - lo) * u over the successive doubles u
# of default_rng([seed, index]), which is Generator.uniform, and run holds the
# run's product spec and path evaluators.  One with stream None walks a fixed
# grid and yields them all.  A sample passes when its relative error is within
# tol: EXACT_TOL for an exact identity, its own estimate for an approximate path.
_CHECKS = (
    ("difference-equation", 0, _difference_equation),
    ("reflection-symmetry", 1, _reflection_symmetry),
    ("closed-form-beta-identity", 2, _closed_form_beta_identity),
    ("lambda-shift-k0", 3, _lambda_shift(0)),
    ("lambda-shift-k1", 4, _lambda_shift(1)),
    ("lambda-shift-k2", 5, _lambda_shift(2)),
    ("integer-values", None, _integer_values),
    ("weierstrass-product-main", 6, _estimated("weierstrass", _product_domain)),
    ("weierstrass-product-paired", 7, _weierstrass_paired),
    ("euler-limit", 8, _estimated("euler-limit", _product_domain)),
    ("sine-product", 9, _sine_product),
    ("beta-classical-mixed", 10, _beta_classical_mixed),
    ("beta-product", 11, _beta_product),
    ("beta-integer-formula", None, _beta_integer_formula),
    ("residues-nonpositive", None, _residues(PoleFamily.NON_POSITIVE)),
    ("residues-shifted", None, _residues(PoleFamily.SHIFTED_BY_INV_LAMBDA)),
    ("hankel-contour", 12, _estimated("hankel", _hankel_domain)),
    ("hankel-contour-reflected", 13, _hankel_contour_reflected),
    ("direct-integral", 14, _estimated("direct-integral", _strip_domain)),
)

# Every identity the harness covers, by what each check does.
CHECK_ROSTER = tuple(sorted(row[0] for row in _CHECKS))


def run_identity_suite(seed: int, samples: int, product_terms: int = 10**12) -> list[CheckReport]:
    """Run every identity check; deterministic given (seed, samples).

    Every sample is judged by its relative error.  The Weierstrass, Euler-limit,
    beta and sine products run at N = ``product_terms``, which does not change
    their cost; ``weierstrass-product-paired`` runs at min(N, PAIRED_TERMS),
    1e4, since its paired form sums every term.  Reports come back sorted by
    check_name.
    """
    if samples < 1:
        raise ValueError("run_identity_suite: samples must be >= 1")
    pspec = representations.ProductSpec(n_terms=product_terms)
    # each approximate path's evaluator by method tag, built once a run
    run = SimpleNamespace(pspec=pspec, path=functools.cache(
        lambda tag: core.gamma_evaluator(tag, core.DEFAULT_TOLERANCE, product_terms)))
    reports = []
    for name, stream, check in _CHECKS:
        if stream is None:
            rows = check()
        else:
            rng = _stream(np.random.default_rng([seed, stream]))
            rows = (check(rng, run) for _ in range(samples))
        report = CheckReport(name)
        for s, lam, path, observed, expected, tol in rows:
            report.record(s, lam, path, observed, expected, _rel(observed, expected), tol)
        reports.append(report)
    reports.sort(key=lambda r: r.check_name)
    return reports


_RESIDUE_OFFSETS = tuple(1e-4 * cmath.exp(0.5j * math.pi * k) for k in range(4))


def _residue_limit(location: complex, p: DegenerateParameter) -> complex:
    """Mean of (s - s0) * dgamma(s) over four symmetric angles around s0.

    The symmetric average cancels the first three Laurent corrections, so the
    radius-1e-4 circle already determines the residue to ~1e-12.
    """
    total = 0.0 + 0.0j
    for offset in _RESIDUE_OFFSETS:
        total += offset * core.degenerate_gamma(location + offset, p).value
    return total / 4.0


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
        steps = [(DegenerateParameter(lam_at(eps)), final_tol if eps == 1e-6 else math.inf)
                 for eps in (1e-2, 1e-4, 1e-6)]
        for s in points:
            ref = reference(s)
            devs = []
            for p, tol in steps:
                val = core.degenerate_gamma(s, p).value
                devs.append(_rel(val, ref))
                report.record(complex(s), p.lam, path, val, ref, devs[-1], tol)
            if not (devs[0] > devs[1] > devs[2]):
                report.fail(complex(s), p.lam, f"{path}-monotone",
                            complex(devs[0], devs[1]), complex(devs[2], 0.0),
                            max(devs), 0.0)
        reports.append(report)
    reports.sort(key=lambda r: r.check_name)
    return reports


def reports_to_json(reports: list[CheckReport]) -> str:
    """Serialize reports (sorted by check_name) as deterministic JSON."""
    ordered = sorted(reports, key=lambda r: r.check_name)
    return json.dumps([r.to_dict() for r in ordered], indent=2, sort_keys=True)
