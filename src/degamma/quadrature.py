"""Numerical-integration paths: the defining integral and the Hankel contour.

The engine is a double-exponential (tanh-sinh) rule on (0, 1) with level
doubling and node reuse.  Integrands receive both the node x and the distance
1-x computed without cancellation, so algebraic singularities at either
endpoint keep full relative accuracy.

The Hankel path realizes the loop around the origin as two straight edges
along the negative axis (phases exp(+-i*pi*s)) plus a circle of radius delta,
the circle by a doubling trapezoid rule; together with the 1/(2i sin(pi s))
prefactor this continues the degenerate gamma function left of the validity
strip.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import classical
from .classical import POLE_TOLERANCE
from .core import DegenerateParameter, EvalMethod, EvalResult, EvalStatus
from .errors import ConvergenceError, IntegerArgumentError, StripError

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and contour geometry for the integral paths.

    ``hankel_cutoff`` of None selects the truncation radius R automatically
    from the analytic tail bound R**(Re s - 1/lambda)/(1/lambda - Re s).
    """

    rel_tolerance: float = 1e-10
    max_level: int = 10
    hankel_radius: float = 0.3
    hankel_cutoff: float | None = None

    def __post_init__(self):
        if not self.rel_tolerance >= 1e-14:
            raise ValueError("QuadratureSpec: rel_tolerance must be >= 1e-14")
        if not 0.0 < self.hankel_radius < 1.0:
            raise ValueError("QuadratureSpec: hankel_radius must be in (0, 1)")
        if self.max_level < 1:
            raise ValueError("QuadratureSpec: max_level must be >= 1")
        if self.hankel_cutoff is not None and self.hankel_cutoff <= 1.0:
            raise ValueError("QuadratureSpec: hankel_cutoff must exceed 1")


_node_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, 1-x, weight) for the new nodes introduced at a refinement level.

    Level 0 holds every node of the base step; level m > 0 holds only the odd
    multiples of the halved step, so a running sum can reuse earlier levels.
    """
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
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
    entry = (x[keep], one_minus_x[keep], w[keep])
    _node_cache[level] = entry
    return entry


def de_quadrature(f, spec: QuadratureSpec | None = None) -> tuple[complex, float]:
    """Integrate f over (0, 1) by the tanh-sinh rule with level doubling.

    ``f(x, one_minus_x)`` must accept numpy arrays and return an array; the
    second argument is the distance to the right endpoint, supplied separately
    so integrands singular at 1 do not lose digits to cancellation.

    Returns (value, err) where err is the last inter-level difference.

    Raises
    ------
    ConvergenceError
        If max_level refinements do not bring successive levels within
        rel_tolerance of each other.
    """
    spec = spec or QuadratureSpec()
    x, omx, w = _nodes(0)
    h = _BASE_STEP
    total = complex(np.sum(f(x, omx) * w)) * h
    prev = total
    err = math.inf
    for level in range(1, spec.max_level + 1):
        h *= 0.5
        x, omx, w = _nodes(level)
        total = 0.5 * prev + complex(np.sum(f(x, omx) * w)) * h
        err = abs(total - prev)
        if level >= 3 and err <= spec.rel_tolerance * max(abs(total), 1e-300):
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

    Raises StripError unless 0 < Re(s) < 1/lambda with margin 0.01.
    """
    spec = spec or QuadratureSpec()
    s = complex(s)
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


def _auto_cutoff(s: complex, p: DegenerateParameter, spec: QuadratureSpec) -> float:
    if spec.hankel_cutoff is not None:
        return spec.hankel_cutoff
    gap = p.inv_lambda - s.real
    return max(10.0, (spec.rel_tolerance * gap) ** (-1.0 / gap))


def _edge_integral(
    s: complex, p: DegenerateParameter, delta: float, cutoff: float,
    spec: QuadratureSpec,
) -> tuple[complex, float]:
    """integral_delta^R t**(s-1) (1+t)**(-1/lambda) dt via y = log t."""
    a = math.log(delta)
    b = math.log(cutoff)
    span = b - a
    u_max = p.inv_lambda

    def integrand(x, _):
        y = a + span * x
        return span * np.exp(s * y - u_max * np.logaddexp(0.0, y))

    with np.errstate(under="ignore"):
        return de_quadrature(integrand, spec)


def _circle_trapezoid(g, a: float, b: float, tol: float) -> tuple[complex, float]:
    """Trapezoid rule on [a, b], step-doubled with Romberg extrapolation.

    g takes a numpy array of parameter values.  The circle integrand is
    analytic but not periodic (the e^{i s theta} factor), so the raw
    trapezoid ladder is only second order; the Romberg columns restore fast
    convergence while the 2^m doubling remains the control loop.
    """
    n = 16
    h = (b - a) / n
    end_vals = g(np.array([a, b]))
    interior = g(a + h * np.arange(1, n))
    total = h * (complex(np.sum(end_vals)) * 0.5 + complex(np.sum(interior)))
    abs_mass = h * float(np.sum(np.abs(end_vals)) * 0.5 + np.sum(np.abs(interior)))
    rows = [[total]]
    err = math.inf
    for _ in range(14):  # up to ~260k nodes
        mid_vals = g(a + 0.5 * h + h * np.arange(n))
        total = 0.5 * rows[-1][0] + 0.5 * h * complex(np.sum(mid_vals))
        abs_mass = 0.5 * abs_mass + 0.5 * h * float(np.sum(np.abs(mid_vals)))
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


def _hankel_preconditions(s: complex, p: DegenerateParameter) -> None:
    nearest = round(s.real)
    if math.hypot(s.real - nearest, s.imag) < POLE_TOLERANCE:
        raise IntegerArgumentError(
            f"hankel_gamma: s = {s} is within {POLE_TOLERANCE} of the integer "
            f"{nearest}, where the sine prefactor vanishes"
        )
    if s.real >= p.inv_lambda - HANKEL_MARGIN:
        raise StripError(
            f"hankel_gamma: Re(s) = {s.real} must stay below 1/lambda - "
            f"{HANKEL_MARGIN} = {p.inv_lambda - HANKEL_MARGIN:.6g} for the "
            f"contour tail to converge"
        )


def _hankel_result(
    s: complex, p: DegenerateParameter, edge: complex, edge_err: float,
    circle_over_sin: complex, circle_err: float, tail: float,
) -> EvalResult:
    lam_pow = cmath.exp(-s * p.log_lambda)
    value = lam_pow * (edge + circle_over_sin)
    err = abs(lam_pow) * (edge_err + circle_err + tail)
    return EvalResult(
        value=value,
        abs_error_estimate=err,
        method=EvalMethod.HANKEL,
        status=EvalStatus.REGULAR,
        log_value=cmath.log(value) if value != 0 else None,
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
    """
    spec = spec or QuadratureSpec()
    s = complex(s)
    _hankel_preconditions(s, p)
    delta = spec.hankel_radius
    cutoff = _auto_cutoff(s, p, spec)
    gap = p.inv_lambda - s.real
    tail = cutoff ** (-gap) / gap

    edge, edge_err = _edge_integral(s, p, delta, cutoff, spec)

    delta_pow = cmath.exp(s * math.log(delta))
    u_max = p.inv_lambda

    def circle(theta):
        zc = delta * np.exp(1j * theta)
        return 1j * delta_pow * np.exp(1j * s * theta - u_max * np.log(1.0 - zc))

    circle_val, circle_err = _circle_trapezoid(
        circle, -math.pi, math.pi, min(spec.rel_tolerance, 1e-11)
    )
    two_i_sin = 2j * classical.sin_pi(s)
    return _hankel_result(
        s, p, edge, edge_err,
        circle_val / two_i_sin, circle_err / abs(two_i_sin), tail,
    )


def hankel_gamma_reflected(
    s: complex, p: DegenerateParameter, spec: QuadratureSpec | None = None
) -> EvalResult:
    """The z -> -z realization of the loop integral (loop from +infinity).

    Edges carry phases exp(-+i*pi*(s-1)) and the circle is walked in
    phi = theta + pi; with the i/(2 sin(pi s)) prefactor this is algebraically
    identical to :func:`hankel_gamma` and serves as an independent
    parametrization check.
    """
    spec = spec or QuadratureSpec()
    s = complex(s)
    _hankel_preconditions(s, p)
    delta = spec.hankel_radius
    cutoff = _auto_cutoff(s, p, spec)
    gap = p.inv_lambda - s.real
    tail = cutoff ** (-gap) / gap

    edge, edge_err = _edge_integral(s, p, delta, cutoff, spec)
    # (-w)**(s-1) phases on the two passes along the positive axis
    phase_diff = cmath.exp(1j * math.pi * (s - 1.0)) - cmath.exp(-1j * math.pi * (s - 1.0))
    edge_part = phase_diff * edge

    delta_pow = cmath.exp((s - 1.0) * math.log(delta))
    u_max = p.inv_lambda

    def circle(phi):
        wc = delta * np.exp(1j * phi)
        return (
            1j * delta * delta_pow
            * np.exp(1j * (s - 1.0) * (phi - math.pi) + 1j * phi
                     - u_max * np.log(1.0 + wc))
        )

    circle_val, circle_err = _circle_trapezoid(
        circle, 0.0, 2.0 * math.pi, min(spec.rel_tolerance, 1e-11)
    )
    prefactor = 1j / (2.0 * classical.sin_pi(s))
    total = prefactor * (edge_part + circle_val)
    lam_pow = cmath.exp(-s * p.log_lambda)
    value = lam_pow * total
    err = abs(lam_pow) * (
        abs(prefactor) * (abs(phase_diff) * edge_err + circle_err) + tail
    )
    return EvalResult(
        value=value,
        abs_error_estimate=err,
        method=EvalMethod.HANKEL_REFLECTED,
        status=EvalStatus.REGULAR,
        log_value=cmath.log(value) if value != 0 else None,
    )
