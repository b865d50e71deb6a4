"""Degenerate gamma and beta functions via the closed form.

The central identity: for lambda in (0,1) and u = 1/lambda,

    dgamma_lambda(s) = lambda**(-s) * Gamma(s) * Gamma(u - s) / Gamma(u),

which continues the defining integral to a meromorphic function with simple
poles at s = 0, -1, -2, ... and s = u, u+1, u+2, ....  All evaluation is in
log space end to end; exponentiation happens once at the EvalResult boundary.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import NamedTuple

from .classical import POLE_TOLERANCE, LOG_OVERFLOW, _log_gamma_off_pole
from .errors import (
    BranchPointError,
    DomainError,
    ParameterRangeError,
    PoleError,
    SingularParameterError,
)

__all__ = [
    "DegenerateParameter",
    "PoleFamily",
    "PoleInfo",
    "EvalMethod",
    "EvalStatus",
    "EvalResult",
    "IntegerGammaValue",
    "ShiftStep",
    "degenerate_exp",
    "degenerate_log",
    "falling_factorial",
    "falling_factorial_exact",
    "degenerate_gamma",
    "degenerate_gamma_log",
    "degenerate_gamma_integer",
    "difference_step",
    "lambda_shift_recurrence",
    "poles",
    "pole_residue",
    "symmetry_partner",
    "degenerate_beta",
    "degenerate_beta_classical",
]

# Distance band [POLE_TOLERANCE, NEAR_POLE_RADIUS) marks a result as near-pole
# and scales its error estimate by NEAR_POLE_RADIUS/distance: the closed form
# loses digits to cancellation there and the estimate should say so.
NEAR_POLE_RADIUS = 1e-4


class DegenerateParameter:
    """A validated deformation parameter lambda in the open interval (0,1).

    Caches 1/lambda, log(lambda) and log Gamma(1/lambda), the derived
    quantities every evaluation path needs; the closed form divides by
    Gamma(1/lambda) at every s, so it is taken once here.  Immutable: its
    fields are slots that refuse assignment.  Equality and repr see only
    ``lam``, and the hash is that of (lam, inv_lambda, log_lambda).  Lambda
    so small that 1/lambda overflows is rejected; below about 3.9e-306,
    reading ``log_gamma_inv_lambda`` raises ParameterRangeError.
    """

    __slots__ = ("lam", "inv_lambda", "log_lambda", "_log_gamma_u")

    def __init__(self, lam: float):
        lam = float(lam)
        if not (0.0 < lam < 1.0):
            raise ParameterRangeError(
                f"lambda must lie strictly inside (0, 1); got {lam!r}"
            )
        inv_lambda = 1.0 / lam
        if not math.isfinite(inv_lambda):
            raise ParameterRangeError(
                f"lambda = {lam!r} is so small that 1/lambda overflows"
            )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "inv_lambda", inv_lambda)
        object.__setattr__(self, "log_lambda", math.log(lam))
        object.__setattr__(self, "_log_gamma_u", _log_gamma_off_pole(inv_lambda).real)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.lam == other.lam if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.lam, self.inv_lambda, self.log_lambda))

    def __repr__(self):
        return f"{type(self).__qualname__}(lam={self.lam!r})"

    def __reduce__(self):
        # the default for slots would restore each field by the refusing __setattr__
        return type(self), (self.lam,)

    @property
    def log_gamma_inv_lambda(self) -> float:
        """log Gamma(1/lambda); ParameterRangeError where it overflows."""
        if self._log_gamma_u == math.inf:
            raise ParameterRangeError(
                f"lambda = {self.lam!r} is so small that log Gamma(1/lambda) overflows"
            )
        return self._log_gamma_u


class PoleFamily(enum.Enum):
    NON_POSITIVE = "non-positive"
    SHIFTED_BY_INV_LAMBDA = "shifted-by-inv-lambda"


_NON_POSITIVE, _SHIFTED = PoleFamily  # globals, cheaper than the enum lookups


class PoleInfo(NamedTuple):
    """One simple pole: its family, index n, location, and residue."""

    family: PoleFamily
    index: int
    location: complex
    residue: complex


class EvalMethod(enum.Enum):
    CLOSED_FORM = "closed-form"
    DIRECT_INTEGRAL = "direct-integral"
    HANKEL = "hankel"
    HANKEL_REFLECTED = "hankel-reflected"
    WEIERSTRASS_PRODUCT = "weierstrass"
    EULER_LIMIT = "euler-limit"
    BETA_PRODUCT = "beta-product"
    CLASSICAL_MIXED = "classical-mixed"


class EvalStatus(enum.Enum):
    REGULAR = "regular"
    NEAR_POLE = "near-pole"
    AT_POLE = "pole"
    OVERFLOW = "overflow"


# The integral paths' relative tolerance, unless the caller or --tol sets one.
DEFAULT_TOLERANCE = 1e-10

# The tags of the gamma paths, which gamma_evaluator maps to their functions.
GAMMA_METHODS = (
    "closed-form", "direct-integral", "hankel", "hankel-reflected",
    "weierstrass", "euler-limit",
)


def gamma_evaluator(method: str, tol: float, n_terms: int):
    """The function (s, p) -> EvalResult of one of GAMMA_METHODS, its spec built once."""
    if method == "closed-form":
        return degenerate_gamma
    from . import quadrature, representations  # these import numpy
    qspec = quadrature.QuadratureSpec(rel_tolerance=tol)
    pspec = representations.ProductSpec(n_terms=n_terms)
    fn, spec = {
        "direct-integral": (quadrature.direct_integral_gamma, qspec),
        "hankel": (quadrature.hankel_gamma, qspec),
        "hankel-reflected": (quadrature.hankel_gamma_reflected, qspec),
        "weierstrass": (representations.weierstrass_gamma, pspec),
        "euler-limit": (representations.euler_limit_gamma, pspec),
    }[method]
    return lambda s, p: fn(s, p, spec)


# The most points an inclusive grid may have: 1,000 times a 10k-point table.
MAX_GRID_POINTS = 10**7


def inclusive_grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop, which the last point may pass by 1e-9 step.

    ValueError unless the numbers are finite, step > 0, stop >= start and the
    grid has at most MAX_GRID_POINTS points.
    """
    # a NaN or infinite start or stop leaves span NaN or infinite
    span = (stop - start) / step if 0.0 < step < math.inf else math.nan
    if not (stop >= start and span + 0.5 < MAX_GRID_POINTS):
        raise ValueError(f"need finite numbers, step > 0, stop >= start "
                         f"and at most {MAX_GRID_POINTS} points")
    values = [start + k * step for k in range(math.floor(span + 0.5) + 1)]
    if values[-1] > stop + 1e-9 * step:
        values.pop()
    return values


class EvalResult(NamedTuple):
    """A function value with an absolute error estimate and provenance.

    ``abs_error_estimate`` bounds |value - exact|; it is at least
    math.ulp(0.0), and inf where ``value`` is NaN-encoded: at status AT_POLE
    (the PoleInfo carries the residue) and OVERFLOW (``log_value`` still
    holds the finite log-space result).  ``log_value`` is None where there
    is no finite nonzero value.  ``_finish`` builds every result.
    """

    value: complex
    abs_error_estimate: float
    method: EvalMethod
    status: EvalStatus
    pole: PoleInfo | None = None
    log_value: complex | None = None
    note: str | None = None


_NAN = complex(math.nan, math.nan)
_ESTIMATE_FLOOR = math.ulp(0.0)
_CLOSED_FORM = EvalMethod.CLOSED_FORM  # a global, cheaper than the enum lookup


def _finish(method: EvalMethod, log_val: complex | None = None, rel_est: float = 0.0,
            real: bool = False, status: EvalStatus = EvalStatus.REGULAR,
            pole: PoleInfo | None = None, value: complex = _NAN, abs_est: float = 0.0,
            note: str | None = None) -> EvalResult:
    """The EvalResult of a value computed in log space (``log_val``) or linear space.

    Exponentiates ``log_val`` once; past LOG_OVERFLOW the value is
    NaN-encoded, the status OVERFLOW and only ``log_value`` carries the
    result.  A linear ``value`` (NaN at a pole) gets log(value) if finite
    and nonzero.  A ``real`` value keeps only its real part, which rounding
    (of Im log, a multiple of pi, or of a linear sum) would leave nonzero.
    The estimate is ``abs_est`` plus |value| (e**rel_est - 1), ``rel_est``
    bounding the log's error; the term is skipped at rel_est = 0, is inf
    from 709 on, and the estimate is at least math.ulp(0.0).
    """
    if log_val is None:
        if real:
            value = value.real + 0j
        log_val = cmath.log(value) if value and cmath.isfinite(value) else None
    elif log_val.real > LOG_OVERFLOW:
        value, abs_est, rel_est, status = _NAN, math.inf, 0.0, EvalStatus.OVERFLOW
    else:
        value = cmath.exp(log_val)
        if real:
            value = value.real + 0j
    if rel_est:
        # expm1 overflows past 709.78, and inf * 0 would be NaN at an underflowed value
        abs_est += abs(value) * math.expm1(rel_est) if rel_est < 709.0 else math.inf
    abs_est = _ESTIMATE_FLOOR if abs_est < _ESTIMATE_FLOOR else abs_est  # NaN stays NaN
    return EvalResult(value, abs_est, method, status, pole, log_val, note)


def degenerate_exp(x: complex, t: complex, lam: float) -> complex:
    """(1 + lambda*t)**(x/lambda) on the principal branch.

    Defined for any nonzero real lambda (the gamma-side machinery is stricter
    and requires lambda in (0,1)).  Recovers exp(x*t) as lambda -> 0.
    """
    lam = float(lam)
    if lam == 0.0 or not math.isfinite(lam):
        raise ParameterRangeError("degenerate_exp: lambda must be a nonzero real")
    x, t = complex(x), complex(t)
    w = lam * t
    if abs(1.0 + w) < POLE_TOLERANCE:
        raise BranchPointError(
            f"degenerate_exp: 1 + lambda*t = {1.0 + w} is at the branch point"
        )
    return cmath.exp((x / lam) * _clog1p(w))


def degenerate_log(t: complex, lam: float) -> complex:
    """(t**lambda - 1)/lambda on the principal branch; inverse of degenerate_exp."""
    lam = float(lam)
    if lam == 0.0 or not math.isfinite(lam):
        raise ParameterRangeError("degenerate_log: lambda must be a nonzero real")
    t = complex(t)
    if t == 0.0:
        raise DomainError("degenerate_log: t = 0 is outside the domain")
    return _cexpm1(lam * cmath.log(t)) / lam


def _clog1p(w: complex) -> complex:
    """log(1 + w) for complex w, accurate for small |w|."""
    u = 1.0 + w
    if u == 1.0:
        return w
    if abs(w) > 0.5:
        return cmath.log(u)
    return cmath.log(u) * (w / (u - 1.0))


def _cexpm1(w: complex) -> complex:
    """exp(w) - 1 for complex w, accurate for small |w|."""
    u = cmath.exp(w)
    if u == 1.0:
        return w
    if abs(u - 1.0) > 0.5:
        return u - 1.0
    return (u - 1.0) * (w / cmath.log(u))


def falling_factorial(x: complex, n: int, lam: float) -> complex:
    """Generalized falling factorial x(x-lam)(x-2*lam)...(x-(n-1)*lam); 1 for n=0."""
    if n < 0:
        raise ValueError("falling_factorial: n must be a non-negative integer")
    out = 1.0 + 0.0j
    x = complex(x)
    for j in range(n):
        out *= x - j * lam
    return out


def _falling_factorial_ratio(x, n: int, lam) -> tuple[int, int]:
    """The exact falling factorial as an unreduced (numerator, denominator).

    With x = a/d and lambda = b/e (ints, floats or Fractions), each factor is
    (a e - j b d) / (d e): the integer numerators are multiplied.
    """
    xn, xd = x.as_integer_ratio()
    ln, ld = lam.as_integer_ratio()
    a, b = xn * ld, ln * xd
    num = 1
    for j in range(n):
        num *= a - j * b
    return num, (xd * ld) ** n


def falling_factorial_exact(x, n: int, lam) -> Fraction:
    """Exact-rational falling factorial; floats convert exactly to Fractions."""
    from fractions import Fraction  # only the exact paths pay its import
    if n < 0:
        raise ValueError("falling_factorial_exact: n must be non-negative")
    return Fraction(*_falling_factorial_ratio(Fraction(x), n, Fraction(lam)))


def pole_residue(family: PoleFamily, n: int, p: DegenerateParameter) -> complex:
    """Residue of the degenerate gamma function at the n-th pole of a family.

    Computed in log space, so Gamma(1/lambda + n) never has to be
    representable.  At the pole s = 0 the residue is exactly 1.
    """
    if n < 0:
        raise ValueError("pole_residue: n must be non-negative")
    log_mag, sign = _log_residue(family, n, p)
    if log_mag > LOG_OVERFLOW:
        return complex(math.copysign(math.inf, sign), 0.0)
    return complex(sign * math.exp(log_mag), 0.0)


def _log_residue(family: PoleFamily, n: int, p: DegenerateParameter) -> tuple[float, float]:
    """log |residue| and the residue's sign at the n-th pole of a family."""
    log_mag = -p.log_gamma_inv_lambda  # first: below lambda ~ 3.9e-306 it raises
    log_un = _log_gamma_off_pole(p.inv_lambda + n).real
    if log_un < math.inf:
        log_mag += log_un - _log_gamma_off_pole(n + 1.0).real
    else:  # past lgamma's range (2.56e305), where n |log lambda| > 1e289 leaves 0 or inf
        log_mag += min((p.inv_lambda - 1.0) * math.log(n), 1e308)  # the leading term, finite
    if family is _NON_POSITIVE:
        return log_mag + n * p.log_lambda, (-1.0 if n % 2 else 1.0)
    return log_mag + (-n - p.inv_lambda) * p.log_lambda, (1.0 if n % 2 else -1.0)


def _pole_info(family: PoleFamily, n: int, p: DegenerateParameter) -> PoleInfo:
    location = complex(-n if family is _NON_POSITIVE else p.inv_lambda + n, 0.0)
    return PoleInfo(family, n, location, pole_residue(family, n, p))


def poles(p: DegenerateParameter, n_max: int) -> list[PoleInfo]:
    """The 2*(n_max+1) poles {-n} and {1/lambda + n}, n = 0..n_max, with residues."""
    if n_max < 0:
        raise ValueError("poles: n_max must be non-negative")
    return [_pole_info(family, n, p) for family in PoleFamily for n in range(n_max + 1)]


def nearest_pole(s: complex, p: DegenerateParameter) -> tuple[float, PoleFamily, int]:
    """Distance from s to the nearest pole, found analytically per family.

    Raises DomainError if s is not finite.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"argument {s} is not finite")
    n1 = round(-s.real) if s.real < 0.5 else 0
    d1 = abs(s + n1)
    n2 = round(s.real - p.inv_lambda) if s.real > p.inv_lambda else 0
    d2 = abs(s - (p.inv_lambda + n2))
    if d1 <= d2:
        return d1, _NON_POSITIVE, n1
    return d2, _SHIFTED, n2


def _closed_form_log(s: complex, p: DegenerateParameter,
                     name: str = "s") -> tuple[complex, float]:
    """The closed form's log value at s and the magnitude sum of its terms.

    s must already be cleared by ``nearest_pole``: Gamma(s)'s poles are the
    non-positive family and Gamma(u - s)'s the shifted one, so neither term
    is tested again.  DomainError names argument ``name`` if the terms overflow.
    """
    term_s = _log_gamma_off_pole(s)
    term_us = _log_gamma_off_pole(p.inv_lambda - s)
    term_u = p.log_gamma_inv_lambda
    log_val = (-s) * p.log_lambda + term_s + term_us - term_u
    if not cmath.isfinite(log_val):
        raise DomainError(f"argument {name} = {s} is too large in modulus: "
                          "the closed form's log-gamma terms overflow")
    mag_sum = (
        abs(term_s) + abs(term_us) + abs(term_u) + abs(s) * abs(p.log_lambda)
    )
    return log_val, mag_sum


def degenerate_gamma_log(s: complex, p: DegenerateParameter) -> complex:
    """log of the degenerate gamma function (closed form), as one complex number.

    Raises PoleError within POLE_TOLERANCE of either pole family, the one
    ``nearest_pole`` finds; its ``location`` is that pole and its
    ``argument_name`` is "s".
    """
    s = complex(s)
    _check_argument("s", s, p)
    return _closed_form_log(s, p)[0]


def degenerate_gamma(s: complex, p: DegenerateParameter) -> EvalResult:
    """Degenerate gamma at s via the closed form, with pole handling in status.

    Away from poles the relative accuracy is at the 1e-13 level (the error
    estimate is derived from the magnitudes of the log-gamma terms).  For
    real s the value is real: its imaginary part is exactly 0.  Within
    POLE_TOLERANCE of a pole the status is AT_POLE and the PoleInfo carries
    the residue; in the band up to NEAR_POLE_RADIUS the status is NEAR_POLE
    and the estimate is inflated to reflect cancellation.
    """
    s = complex(s)
    dist, family, n = nearest_pole(s, p)
    if dist < POLE_TOLERANCE:
        return _finish(_CLOSED_FORM, status=EvalStatus.AT_POLE,
                       pole=_pole_info(family, n, p), abs_est=math.inf)
    log_val, mag_sum = _closed_form_log(s, p)
    if family is _SHIFTED:  # u's rounding (_check_argument's docstring); mag_sum covers the other
        mag_sum += (p.inv_lambda + abs(s)) / dist
    rel_est = 1e-14 + 8e-16 * mag_sum
    if dist < NEAR_POLE_RADIUS:
        rel_est *= NEAR_POLE_RADIUS / dist
        return _finish(_CLOSED_FORM, log_val, rel_est, not s.imag,
                       EvalStatus.NEAR_POLE, _pole_info(family, n, p))
    return _finish(_CLOSED_FORM, log_val, rel_est, not s.imag)


class IntegerGammaValue(NamedTuple):
    """Exact value at a positive integer: Gamma(k) / (1)_{k+1,lambda}."""

    k: int
    lam: float
    value: complex

    def exact(self) -> Fraction:
        """The same quantity in exact rational arithmetic (lambda as a binary rational)."""
        return math.factorial(self.k - 1) / falling_factorial_exact(
            1, self.k + 1, self.lam
        )


def degenerate_gamma_integer(k: int, p: DegenerateParameter) -> IntegerGammaValue:
    """Degenerate gamma at a positive integer k as the exact product formula.

    Raises SingularParameterError when lambda collides with 1/j for some
    2 <= j <= k (the product (1)_{k+1,lambda} vanishes there; the closed form
    correctly reports those points as poles instead), and OverflowError when
    the value exceeds double range.
    """
    k = int(k)
    if k < 1:
        raise ValueError("degenerate_gamma_integer: k must be a positive integer")
    for j in range(2, k + 1):
        if abs(p.lam - 1.0 / j) < POLE_TOLERANCE:
            raise SingularParameterError(
                f"lambda = {p.lam} collides with 1/{j}; the integer-argument "
                f"product (1)_(k+1,lambda) vanishes for k = {k}"
            )
    if k <= 170:
        value = complex(math.factorial(k - 1)) / falling_factorial(1.0, k + 1, p.lam)
    if k > 170 or not cmath.isfinite(value):
        # log-space route for factorials or values beyond double range; the
        # product enters as its factors' logs, as it may itself overflow
        factors = [1.0 - j * p.lam for j in range(1, k + 1)]
        log_val = _log_gamma_off_pole(float(k)).real - math.fsum(
            math.log(abs(f)) for f in factors)
        if log_val > LOG_OVERFLOW:
            raise OverflowError(
                f"degenerate_gamma_integer: |dgamma({k})| = "
                f"exp({log_val:.6g}) overflows double precision"
            )
        value = complex((-1) ** sum(f < 0.0 for f in factors) * math.exp(log_val))
    return IntegerGammaValue(k=k, lam=p.lam, value=value)


def difference_step(s: complex, p: DegenerateParameter) -> complex:
    """The factor s / (1 - lambda*(s+1)) in dgamma(s+1) = factor * dgamma(s)."""
    s = complex(s)
    den = 1.0 - p.lam * (s + 1.0)
    if abs(den) < POLE_TOLERANCE:
        raise PoleError(
            f"difference_step: 1 - lambda*(s+1) = {den} vanishes "
            f"(s + 1 = 1/lambda is a pole)",
            location=complex(p.inv_lambda - 1.0, 0.0),
        )
    return s / den


class ShiftStep(NamedTuple):
    """Multiplicative step of the lambda-shift recurrence.

    dgamma_{lam}(s+1) = factor * dgamma_{shifted_lambda}(shifted_arg)
    with shifted_lambda = lam / (1 - (k+1)*lam) and shifted_arg = s - k.
    """

    factor: complex
    shifted_lambda: float
    shifted_arg: complex


def lambda_shift_recurrence(
    s: complex, k: int, p: DegenerateParameter
) -> ShiftStep:
    """Shift both the argument and the parameter by k+1 recurrence steps.

    Valid for lambda in (0, 1/(k+1)) and s inside the strip
    k < Re(s) < (1-lambda)/lambda; both bounds are enforced.  For k = 0 this
    is the single-step rule dgamma(s+1) = s*(1-lambda)**(-s-1) *
    dgamma_{lambda/(1-lambda)}(s).
    """
    k = int(k)
    if k < 0:
        raise ValueError("lambda_shift_recurrence: k must be non-negative")
    s = complex(s)
    lam = p.lam
    if lam >= 1.0 / (k + 1):
        raise ParameterRangeError(
            f"lambda = {lam} is outside (0, 1/{k + 1}) required for a k = {k} shift"
        )
    upper = (1.0 - lam) / lam
    if not (k < s.real < upper):
        raise ParameterRangeError(
            f"Re(s) = {s.real} is outside the validity strip "
            f"{k} < Re(s) < (1 - lambda)/lambda = {upper:.6g}"
        )
    shrink = 1.0 - (k + 1) * lam  # positive by the range check
    numerator = falling_factorial(s, k + 1, 1.0)
    log_den = 0.0
    for j in range(1, k + 1):
        log_den += math.log1p(-j * lam)
    factor = numerator * cmath.exp(-log_den - (s - k + 1.0) * math.log(shrink))
    return ShiftStep(
        factor=factor,
        shifted_lambda=lam / shrink,
        shifted_arg=s - k,
    )


def symmetry_partner(s: complex, p: DegenerateParameter) -> complex:
    """The reflected argument 1/lambda - s of the symmetry identity
    lambda**s * dgamma(s) = lambda**(1/lambda - s) * dgamma(1/lambda - s)."""
    return p.inv_lambda - complex(s)


def _count(value, least: int, message: str) -> int:
    """value as an int; ValueError(message) unless it is a whole number >= least (NaN is not)."""
    if not (value >= least and value % 1 == 0):
        raise ValueError(message)
    return int(value)


def _check_argument(name: str, w: complex, p: DegenerateParameter) -> float:
    """Raise PoleError if argument ``name`` = w sits at a pole; else the rounding w feels.

    The error's ``location`` is the pole itself.  Next to a shifted pole, log
    Gamma(u - w) feels u = 1/lambda's rounding as (u + |w|)/dist eps; else 0.
    """
    dist, family, n = nearest_pole(w, p)
    if dist < POLE_TOLERANCE:
        location = _pole_info(family, n, p).location
        raise PoleError(
            f"argument {name} = {w} sits at the pole {location} "
            f"of the degenerate gamma function",
            location=location,
            argument_name=name,
        )
    return (p.inv_lambda + abs(w)) / dist if family is _SHIFTED else 0.0


def _beta_guard(a: complex, b: complex, p: DegenerateParameter,
                method: EvalMethod) -> tuple[EvalResult | None, float]:
    """Argument checks shared by every degenerate-beta path.

    Raises PoleError when alpha or beta sits at a pole.  Returns the exact-zero
    result when alpha+beta does (the ratio vanishes in the limit), else None,
    and the rounding felt next to the poles: alpha's and beta's from
    _check_argument, and alpha + beta's, whose float sum adds eps (|a| + |b|).
    The zero's estimate is |dgamma(alpha) dgamma(beta) / Res| times the exact
    alpha + beta's distance from the pole, at most dist + eps*(|a| + |b| + u).
    """
    u = p.inv_lambda
    felt_a, felt_b = _check_argument("alpha", a, p), _check_argument("beta", b, p)
    dist, family, n = nearest_pole(a + b, p)
    if dist >= POLE_TOLERANCE:
        return None, ((abs(a) + abs(b) + (u if family is _SHIFTED else 0.0)) / dist
                      + felt_a + felt_b)
    log_est = ((_closed_form_log(a, p, "alpha")[0] + _closed_form_log(b, p, "beta")[0]).real
               - _log_residue(family, n, p)[0]
               + math.log(dist + math.ulp(1.0) * (abs(a) + abs(b) + u)))
    return _finish(method, value=0j,
                   abs_est=math.exp(log_est) if log_est <= LOG_OVERFLOW else math.inf,
                   note="alpha+beta sits at a pole of the degenerate gamma function; "
                        "the ratio vanishes in the limit, so 0 is returned"), 0.0


def degenerate_beta(a: complex, b: complex, p: DegenerateParameter) -> EvalResult:
    """Degenerate beta as the ratio dgamma(a) dgamma(b) / dgamma(a+b).

    Evaluated as one exponential of a sum of closed-form logs.  When a+b sits
    at a pole while a and b are regular, the ratio tends to zero; the result
    is 0 with an explanatory note.  Real a and b give a real value.
    """
    a, b = complex(a), complex(b)
    zero, felt = _beta_guard(a, b, p, _CLOSED_FORM)
    if zero is not None:
        return zero
    la, ma = _closed_form_log(a, p, "alpha")
    lb, mb = _closed_form_log(b, p, "beta")
    lab, mab = _closed_form_log(a + b, p, "alpha+beta")
    log_val = la + lb - lab
    rel_est = 1e-14 + 8e-16 * (ma + mb + mab + felt)
    return _finish(_CLOSED_FORM, log_val, rel_est, not (a.imag or b.imag))


def degenerate_beta_classical(
    a: complex, b: complex, p: DegenerateParameter
) -> EvalResult:
    """Degenerate beta through the classical-kernel grouping.

    B_lam(a,b) = B(a,b) * Gamma(u-a) Gamma(u-b) / (Gamma(u) Gamma(u-a-b)),
    u = 1/lambda; an independent regrouping of the same closed form, used as
    a cross-check path.
    """
    a, b = complex(a), complex(b)
    zero, felt = _beta_guard(a, b, p, EvalMethod.CLASSICAL_MIXED)
    if zero is not None:
        return zero
    u = p.inv_lambda
    terms = [
        _log_gamma_off_pole(a) + _log_gamma_off_pole(b) - _log_gamma_off_pole(a + b),
        _log_gamma_off_pole(u - a),
        _log_gamma_off_pole(u - b),
        -_log_gamma_off_pole(u - a - b),
        -p.log_gamma_inv_lambda,
    ]
    log_val = sum(terms)
    if not cmath.isfinite(log_val):
        raise DomainError(f"arguments alpha = {a}, beta = {b} are too large in "
                          "modulus: the closed form's log-gamma terms overflow")
    rel_est = 1e-14 + 8e-16 * (sum(abs(t) for t in terms) + felt)
    return _finish(EvalMethod.CLASSICAL_MIXED, log_val, rel_est, not (a.imag or b.imag))
