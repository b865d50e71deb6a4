"""Numerical-integration paths: the defining integral and the Hankel contour.

The engine is a double-exponential (tanh-sinh) rule on (0, 1) with level
doubling and node reuse.  Integrands receive both the node x and the distance
1-x computed without cancellation, so algebraic singularities at either
endpoint keep full relative accuracy.  The convergence test cannot pass before
level 3, so ``QuadratureSpec`` requires ``max_level >= 3``; levels 0-3 (195
nodes) are evaluated in one integrand call on cached concatenated nodes, and
each level's sum is taken from its slice; deeper levels are then added one at
a time.

The Hankel path realizes the loop around the origin as two straight edges
along the negative axis (phases exp(+-i*pi*s)) plus a circle of radius delta,
the circle by a doubling trapezoid rule; together with the 1/(2i sin(pi s))
prefactor this continues the degenerate gamma function left of the validity
strip.  The edges are truncated at the radius R where the analytic tail bound
meets the tolerance.  The circle's geometry does not depend on s or lambda:
for each realization and radius, the nodes of the trapezoid ladder up to 1024
intervals and log(1 -+ delta e^{it}) at them are kept in an LRU cache of the
last eight (realization, radius) pairs used; deeper rows are formed per call.
The nodes up to 256 intervals (257), before which the ladder hardly ever
converges, are evaluated in one integrand call; the Romberg test still runs
row by row and stops at the first converged row.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import classical
from .classical import POLE_TOLERANCE
from .core import DegenerateParameter, EvalMethod, EvalResult, EvalStatus
from .errors import ConvergenceError, DomainError, IntegerArgumentError, StripError

__all__ = [
    "QuadratureSpec",
    "de_quadrature",
    "direct_integral_gamma",
    "hankel_gamma",
    "hankel_gamma_reflected",
]

# Margin kept from both strip edges before the defining integral is attempted.
STRIP_MARGIN = 0.01
# Margin below 1/lambda required by the contour tail bound.
HANKEL_MARGIN = 0.1

_T_MAX = 6.1  # |t| beyond this, double-exponential weights underflow usefully
_BASE_STEP = 0.5
# The convergence test in de_quadrature cannot pass before this level.
_FIRST_TEST_LEVEL = 3


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and contour geometry for the integral paths.

    ``max_level`` is the deepest tanh-sinh level tried; it must be at least 3,
    the first level at which the convergence test can pass.  The contour's
    truncation radius R is not set here: it is chosen so that the analytic
    tail bound R**(Re s - 1/lambda)/(1/lambda - Re s) meets the tolerance.
    """

    rel_tolerance: float = 1e-10
    max_level: int = 10
    hankel_radius: float = 0.3

    def __post_init__(self):
        if not self.rel_tolerance >= 1e-14:
            raise ValueError("QuadratureSpec: rel_tolerance must be >= 1e-14")
        if not 0.0 < self.hankel_radius < 1.0:
            raise ValueError("QuadratureSpec: hankel_radius must be in (0, 1)")
        if self.max_level < _FIRST_TEST_LEVEL:
            raise ValueError("QuadratureSpec: max_level must be >= 3")


@functools.cache
def _nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, 1-x, weight) for the new nodes introduced at a refinement level.

    Level 0 holds every node of the base step; level m > 0 holds only the odd
    multiples of the halved step, so a running sum can reuse earlier levels.
    """
    h = _BASE_STEP / (1 << level) if level else _BASE_STEP
    if level == 0:
        k = np.arange(-int(_T_MAX / h), int(_T_MAX / h) + 1)
        t = k * h
    else:
        k = np.arange(1, int(_T_MAX / h) + 1, 2)
        t = np.concatenate([-k[::-1], k]) * h
    u = 0.5 * math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * u))
    one_minus_x = 1.0 / (1.0 + np.exp(2.0 * u))
    w = 0.5 * math.pi * np.cosh(t) / (2.0 * np.cosh(u) ** 2)
    keep = (w > 0.0) & (x > 0.0) & (one_minus_x > 0.0)
    return x[keep], one_minus_x[keep], w[keep]


@functools.cache
def _head_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Levels 0..3 concatenated as (x, 1-x, weight, end index of each level)."""
    levels = [_nodes(level) for level in range(_FIRST_TEST_LEVEL + 1)]
    ends = np.cumsum([len(x) for x, _, _ in levels]).tolist()
    return tuple(np.concatenate(parts) for parts in zip(*levels)) + (ends,)


def de_quadrature(f, spec: QuadratureSpec | None = None) -> tuple[complex, float]:
    """Integrate f over (0, 1) by the tanh-sinh rule with level doubling.

    ``f(x, one_minus_x)`` must accept numpy arrays and return an array of
    pointwise values; the second argument is the distance to the right
    endpoint, supplied separately so integrands singular at 1 do not lose
    digits to cancellation.  Levels up to 3 are evaluated in one call of f.

    Returns (value, err) where err is the last inter-level difference.

    Raises
    ------
    ConvergenceError
        If max_level refinements do not bring successive levels within
        rel_tolerance of each other.
    """
    spec = spec or QuadratureSpec()
    x, omx, w, ends = _head_nodes()
    head = f(x, omx) * w
    h = _BASE_STEP
    total = complex(head[: ends[0]].sum()) * h
    prev = total
    err = math.inf
    for level in range(1, spec.max_level + 1):
        h *= 0.5
        if level <= _FIRST_TEST_LEVEL:
            terms = head[ends[level - 1] : ends[level]]
        else:
            x, omx, w = _nodes(level)
            terms = f(x, omx) * w
        total = 0.5 * prev + complex(terms.sum()) * h
        err = abs(total - prev)
        converged = err <= spec.rel_tolerance * max(abs(total), 1e-300)
        if level >= _FIRST_TEST_LEVEL and converged:
            return total, err
        prev = total
    raise ConvergenceError(
        f"de_quadrature: inter-level difference {err:.3g} still above "
        f"rel_tolerance {spec.rel_tolerance:.3g} after {spec.max_level} levels"
    )


# Exponent used to soften endpoint singularities: integrating g(v) = f(v**K)
# keeps the transformed exponents far enough from -1 that the node offsets
# representable in double precision already capture the full tail.
_POWER_K = 4


def direct_integral_gamma(
    s: complex, p: DegenerateParameter, spec: QuadratureSpec | None = None
) -> EvalResult:
    """Degenerate gamma on the validity strip via its defining integral.

    integral_0^inf (1 + lambda*t)**(-1/lambda) t**(s-1) dt, split at t = 1;
    the tail is folded onto (0, 1] by t -> 1/u, giving the integrand
    u**(1/lambda - s - 1) (u + lambda)**(-1/lambda).  Both pieces get an
    additional v**K power substitution before the tanh-sinh rule.

    Raises DomainError if s is not finite, and StripError unless
    0 < Re(s) < 1/lambda with margin 0.01.
    """
    spec = spec or QuadratureSpec()
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"direct_integral_gamma: s = {s} is not finite")
    u_max = p.inv_lambda
    if not (STRIP_MARGIN <= s.real <= u_max - STRIP_MARGIN):
        raise StripError(
            f"direct_integral_gamma: Re(s) = {s.real} is outside the validity "
            f"strip 0 < Re(s) < 1/lambda = {u_max:.6g} (margin {STRIP_MARGIN})"
        )
    lam = p.lam
    K = _POWER_K

    def near_piece(v, _):
        # t = v**K on [0, 1]
        return K * np.exp((K * s - 1.0) * np.log(v)) * np.power(
            1.0 + lam * v**K, -u_max
        )

    def far_piece(v, _):
        # u = v**K on (0, 1], from t -> 1/u on [1, inf)
        return K * np.exp((K * (u_max - s) - 1.0) * np.log(v)) * np.power(
            v**K + lam, -u_max
        )

    with np.errstate(under="ignore"):
        v1, e1 = de_quadrature(near_piece, spec)
        v2, e2 = de_quadrature(far_piece, spec)
    value = v1 + v2
    err = e1 + e2 + abs(value) * 1e-15
    return EvalResult(
        value=value,
        abs_error_estimate=err,
        method=EvalMethod.DIRECT_INTEGRAL,
        status=EvalStatus.REGULAR,
        log_value=cmath.log(value) if value != 0 else None,
    )


def _hankel_edges(
    s: complex, p: DegenerateParameter, spec: QuadratureSpec, name: str
) -> tuple[complex, float, float]:
    """Checks and edge integral shared by both loop realizations.

    Returns (edge, edge_err, tail): edge = integral_delta^R t**(s-1)
    (1+t)**(-1/lambda) dt, taken in y = log t, and the analytic bound on the
    part beyond the cutoff R, R**(Re s - 1/lambda)/(1/lambda - Re s).
    """
    # raises DomainError for a non-finite s before the strip test sees it
    dist, nearest = classical._integer_distance(name, "s", s)
    if dist < POLE_TOLERANCE:
        raise IntegerArgumentError(
            f"{name}: s = {s} is within {POLE_TOLERANCE} of the integer "
            f"{nearest}, where the sine prefactor vanishes"
        )
    u_max = p.inv_lambda
    if s.real >= u_max - HANKEL_MARGIN:
        raise StripError(
            f"{name}: Re(s) = {s.real} must stay below 1/lambda - "
            f"{HANKEL_MARGIN} = {u_max - HANKEL_MARGIN:.6g} for the "
            f"contour tail to converge"
        )
    gap = u_max - s.real
    cutoff = max(10.0, (spec.rel_tolerance * gap) ** (-1.0 / gap))
    tail = cutoff ** (-gap) / gap

    a = math.log(spec.hankel_radius)
    span = math.log(cutoff) - a

    def integrand(x, _):
        y = a + span * x
        return span * np.exp(s * y - u_max * np.logaddexp(0.0, y))

    with np.errstate(under="ignore"):
        edge, edge_err = de_quadrature(integrand, spec)
    return edge, edge_err, tail


def _hankel_result(
    s: complex, p: DegenerateParameter, total: complex, err: float,
    method: EvalMethod,
) -> EvalResult:
    """lambda**(-s) times a loop realization's total and error."""
    lam_pow = cmath.exp(-s * p.log_lambda)
    value = lam_pow * total
    return EvalResult(
        value=value,
        abs_error_estimate=abs(lam_pow) * err,
        method=method,
        status=EvalStatus.REGULAR,
        log_value=cmath.log(value) if value != 0 else None,
    )


# The circle's trapezoid ladder starts from the rule with _CIRCLE_N0
# intervals; each further row adds the midpoints that halve the step.  The
# first _CIRCLE_HEAD nodes (256 intervals), which the ladder almost always
# reaches, go to the integrand in one call.  The nodes up to
# _CIRCLE_CACHED_INTERVALS and the circle's log term at them are kept in an
# LRU cache of the last _CIRCLE_CACHE_SIZE (realization, radius) pairs;
# deeper rows are formed per call.
_CIRCLE_N0 = 16
_CIRCLE_HEAD = 257
_CIRCLE_CACHED_INTERVALS = 1024
_CIRCLE_CACHE_SIZE = 8


def _loop_circle_log(theta, delta):
    """log(1 - delta e^{i theta}) on hankel_gamma's circle, theta in [-pi, pi]."""
    return np.log(1.0 - delta * np.exp(1j * theta))


def _reflected_circle_log(phi, delta):
    """log(1 + delta e^{i phi}) on hankel_gamma_reflected's circle, phi in [0, 2pi]."""
    return np.log(1.0 + delta * np.exp(1j * phi))


@functools.lru_cache(maxsize=_CIRCLE_CACHE_SIZE)
def _circle_geometry(
    circle_log, a: float, b: float, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ladder nodes on [a, b] in row order, and circle_log(t, delta) at them."""
    n = _CIRCLE_N0
    h = (b - a) / n
    parts = [np.array([a, b]), a + h * np.arange(1, n)]
    while n < _CIRCLE_CACHED_INTERVALS:
        parts.append(a + 0.5 * h + h * np.arange(n))
        h *= 0.5
        n *= 2
    t = np.concatenate(parts)
    return t, circle_log(t, delta)


def _circle_trapezoid(
    g, circle_log, a: float, b: float, delta: float, tol: float
) -> tuple[complex, float]:
    """Trapezoid rule on [a, b], step-doubled with Romberg extrapolation.

    g(t, log_t) takes numpy arrays of parameter values and of
    circle_log(t, delta) at them.  The circle integrand is analytic but not
    periodic (the e^{i s theta} factor), so the raw trapezoid ladder is only
    second order; the Romberg columns restore fast convergence while the 2^m
    doubling remains the control loop.
    """
    t, log_t = _circle_geometry(circle_log, a, b, delta)
    head_vals = g(t[:_CIRCLE_HEAD], log_t[:_CIRCLE_HEAD])
    n = _CIRCLE_N0
    h = (b - a) / n
    end_vals = head_vals[:2]
    interior = head_vals[2 : n + 1]
    total = h * (complex(end_vals.sum()) * 0.5 + complex(interior.sum()))
    abs_mass = h * float(np.abs(end_vals).sum() * 0.5 + np.abs(interior).sum())
    start = n + 1
    rows = [[total]]
    err = math.inf
    for _ in range(14):  # up to ~260k nodes
        stop = start + n
        if stop <= _CIRCLE_HEAD:
            mid_vals = head_vals[start:stop]
        elif stop <= len(t):
            mid_vals = g(t[start:stop], log_t[start:stop])
        else:
            mids = a + 0.5 * h + h * np.arange(n)
            mid_vals = g(mids, circle_log(mids, delta))
        start = stop
        total = 0.5 * rows[-1][0] + 0.5 * h * complex(mid_vals.sum())
        abs_mass = 0.5 * abs_mass + 0.5 * h * float(np.abs(mid_vals).sum())
        row = [total]
        for j in range(1, min(len(rows[-1]) + 1, 7)):
            weight = 4.0**j
            row.append((weight * row[j - 1] - rows[-1][j - 1]) / (weight - 1.0))
        err = abs(row[-1] - rows[-1][-1])
        rows = [rows[-1], row]  # only the last two ladder rows matter
        h *= 0.5
        n *= 2
        best = row[-1]
        # the rounding floor of the running sums bounds what refinement can resolve
        if err <= max(tol * abs(best), 1e-14 * abs_mass, 1e-300):
            return best, err
    raise ConvergenceError(
        f"circle integral: trapezoid doubling stalled at difference {err:.3g}"
    )


def hankel_gamma(
    s: complex, p: DegenerateParameter, spec: QuadratureSpec | None = None
) -> EvalResult:
    """Degenerate gamma via the loop integral around the origin.

    The loop decomposes into the two edges along the negative axis, whose
    phases exp(-+i*pi*s) combine into 2i sin(pi s) * integral_delta^R
    t**(s-1)(1+t)**(-1/lambda) dt, plus the circle term
    integral_{-pi}^{pi} i delta**s e^{i s theta} (1 - delta e^{i theta})**(-1/lambda) dtheta.
    Dividing by 2i sin(pi s) and by lambda**s recovers the function; the
    result is independent of delta and, unlike the defining integral, valid
    for Re(s) <= 0 away from the integers.

    Raises DomainError if s is not finite.
    """
    spec = spec or QuadratureSpec()
    s = complex(s)
    edge, edge_err, tail = _hankel_edges(s, p, spec, "hankel_gamma")
    delta = spec.hankel_radius
    delta_pow = cmath.exp(s * math.log(delta))
    u_max = p.inv_lambda

    def circle(theta, log_circle):
        return 1j * delta_pow * np.exp(1j * s * theta - u_max * log_circle)

    circle_val, circle_err = _circle_trapezoid(
        circle, _loop_circle_log, -math.pi, math.pi, delta,
        min(spec.rel_tolerance, 1e-11),
    )
    two_i_sin = 2j * classical.sin_pi(s)
    return _hankel_result(
        s, p, edge + circle_val / two_i_sin,
        edge_err + circle_err / abs(two_i_sin) + tail, EvalMethod.HANKEL,
    )


def hankel_gamma_reflected(
    s: complex, p: DegenerateParameter, spec: QuadratureSpec | None = None
) -> EvalResult:
    """The z -> -z realization of the loop integral (loop from +infinity).

    Edges carry phases exp(-+i*pi*(s-1)) and the circle is walked in
    phi = theta + pi; with the i/(2 sin(pi s)) prefactor this is algebraically
    identical to :func:`hankel_gamma` and serves as an independent
    parametrization check.

    Raises DomainError if s is not finite.
    """
    spec = spec or QuadratureSpec()
    s = complex(s)
    edge, edge_err, tail = _hankel_edges(s, p, spec, "hankel_gamma_reflected")
    # (-w)**(s-1) phases on the two passes along the positive axis
    phase_diff = cmath.exp(1j * math.pi * (s - 1.0)) - cmath.exp(-1j * math.pi * (s - 1.0))
    edge_part = phase_diff * edge

    delta = spec.hankel_radius
    delta_pow = cmath.exp((s - 1.0) * math.log(delta))
    u_max = p.inv_lambda

    def circle(phi, log_circle):
        return (
            1j * delta * delta_pow
            * np.exp(1j * (s - 1.0) * (phi - math.pi) + 1j * phi
                     - u_max * log_circle)
        )

    circle_val, circle_err = _circle_trapezoid(
        circle, _reflected_circle_log, 0.0, 2.0 * math.pi, delta,
        min(spec.rel_tolerance, 1e-11),
    )
    prefactor = 1j / (2.0 * classical.sin_pi(s))
    return _hankel_result(
        s, p, prefactor * (edge_part + circle_val),
        abs(prefactor) * (abs(phase_diff) * edge_err + circle_err) + tail,
        EvalMethod.HANKEL_REFLECTED,
    )
