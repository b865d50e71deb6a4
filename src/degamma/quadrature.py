"""Numerical-integration paths: the defining integral and the Hankel contour.

The defining integral runs on a double-exponential (tanh-sinh) rule on (0, 1)
with level doubling and node reuse.  Integrands receive both the node x and
the distance 1-x computed without cancellation, so algebraic singularities at
either endpoint keep full relative accuracy.  Levels 0-3 (195 nodes), before
which the convergence test cannot pass, go to the integrand in one call.

The Hankel path realizes the loop around the origin as two straight edges
along the negative axis (phases exp(+-i*pi*s)) plus a circle of radius delta;
together with the 1/(2i sin(pi s)) prefactor this continues the degenerate
gamma function left of the validity strip.  The edges are truncated at the
radius R where the analytic tail bound meets the tolerance.  Both integrands
are analytic on finite intervals, so both run on one nested Clenshaw-Curtis
ladder: its first three rungs (65 nodes) go to the integrand in one call and
each deeper rung evaluates only its new nodes.  The circle's geometry does
not depend on s or lambda, so its nodes and log(1 -+ delta e^{it}) at them
are cached per (realization, radius).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import classical
from .classical import LOG_OVERFLOW, POLE_TOLERANCE
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
_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and contour geometry for the integral paths.

    ``max_level`` bounds both ladders: the defining integral's deepest
    tanh-sinh level, and the contour's deepest Clenshaw-Curtis rung, which
    has 16 * 2**max_level intervals.  It must be at least 3, the first
    tanh-sinh level at which the convergence test can pass.  The contour's
    circle is held to min(rel_tolerance, 1e-11).  The contour's truncation
    radius R is not set here: it is chosen so that the analytic tail bound
    R**(Re s - 1/lambda)/(1/lambda - Re s) meets the tolerance.
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


def _linear_result(value: complex, err: float, method: EvalMethod) -> EvalResult:
    """The EvalResult of a value computed in linear space."""
    return EvalResult(
        value=value,
        abs_error_estimate=err,
        method=method,
        status=EvalStatus.REGULAR,
        log_value=cmath.log(value) if value != 0 else None,
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
    # Rounding floor: eps times integral_0^inf |integrand|, which is the
    # function at Re(s), a positive real closed form; twice for the
    # roundings of each node's value, and u/|u - s| more for the rounding
    # of u = 1/lambda, which the value feels near the strip's upper edge.
    sigma = s.real
    log_mass = (math.lgamma(sigma) + math.lgamma(u_max - sigma)
                - p.log_gamma_inv_lambda - sigma * p.log_lambda)
    floor = _EPS * (2.0 + u_max / abs(u_max - s)) * math.exp(min(log_mass, LOG_OVERFLOW))
    err = e1 + e2 + abs(value) * 1e-15 + floor
    return _linear_result(value, err, EvalMethod.DIRECT_INTEGRAL)


# The Clenshaw-Curtis ladder on [-1, 1]: rung m has n = _CC_N0 * 2**m
# intervals.  Nodes are kept in ladder order (rung 0's, then each deeper
# rung's new odd-index nodes), so every rung's nodes are the first n + 1 of
# each deeper rung's.  Rungs 0.._CC_HEAD_RUNG go to the integrand in one call.
_CC_N0 = 16
_CC_HEAD_RUNG = 2


def _dft(d: np.ndarray) -> np.ndarray:
    """Radix-2 discrete Fourier transform; numpy.fft is not imported."""
    y = d.reshape(1, -1).astype(complex)
    while y.shape[1] > 1:
        m, half = y.shape[0], y.shape[1] // 2
        odd = np.exp(-1j * np.pi / m * np.arange(m))[:, None] * y[:, half:]
        y = np.vstack([y[:, :half] + odd, y[:, :half] - odd])
    return y.ravel()


@functools.cache
def _cc_rung(rung: int) -> tuple[np.ndarray, np.ndarray]:
    """A rung's nodes and weights on [-1, 1], in ladder order.

    Node j is cos(j pi / n), taken as sin(pi (n - 2j) / 2n): exactly odd,
    and bit for bit the same in every deeper rung.  Its weight is
    (c_j / n) (1 - sum_{k=1}^{n/2} b_k cos(2 k j pi / n) / (4k^2 - 1)),
    c_j = 1 at the ends and 2 inside, b_k = 1 at k = n/2 and 2 below; the
    sum is one length-n transform (Waldvogel, BIT 2006).
    """
    n = _CC_N0 << rung
    # rung 0's nodes, then each rung r's new ones: odd multiples of n / n_r
    j = np.concatenate([np.arange(0, n + 1, n // _CC_N0)] + [
        np.arange(step, n, 2 * step)
        for step in (n // (_CC_N0 << r) for r in range(1, rung + 1))
    ])
    k = np.arange(n // 2 + 1)
    d = 1.0 / (4.0 * k * k - 1.0)
    d[0] = 0.0
    v = 1.0 - _dft(np.concatenate([d, d[-2:0:-1]])).real[: n // 2 + 1]
    v[0] *= 0.5
    w = 2.0 / n * np.concatenate([v, v[-2::-1]])
    return np.sin(np.pi * (n - 2 * j) / (2 * n)), w[j]


@functools.cache
def _cc_head_weights() -> np.ndarray:
    """Rungs 0.._CC_HEAD_RUNG's weights over the head's nodes, one row each."""
    size = (_CC_N0 << _CC_HEAD_RUNG) + 1
    return np.array([np.pad(_cc_rung(rung)[1], (0, size - (_CC_N0 << rung) - 1))
                     for rung in range(_CC_HEAD_RUNG + 1)])


def _cc_ladder(f, tol: float, max_level: int) -> tuple[complex, float]:
    """Integrate over [-1, 1] on the nested Clenshaw-Curtis ladder.

    f(x, lo) returns the integrand at the ladder's nodes x, which start at
    ladder position lo.  The ladder stops at the first rung whose sum Q is
    within max(tol |Q|, 1e-14 M) of the rung before, where the rung's
    M = sum |w_i f(x_i)| sets the rounding floor, and returns Q and that
    difference plus eps M.  Raises ConvergenceError if rung max_level does
    not.
    """
    vals = f(_cc_rung(_CC_HEAD_RUNG)[0], 0)
    terms = _cc_head_weights() * vals
    sums, masses = terms.sum(axis=1).tolist(), np.abs(terms).sum(axis=1).tolist()
    err = math.inf
    for rung in range(1, max_level + 1):
        if rung > _CC_HEAD_RUNG:
            lo = (_CC_N0 << (rung - 1)) + 1
            x, w = _cc_rung(rung)
            vals = np.concatenate([vals, f(x[lo:], lo)])
            terms = w * vals
            sums.append(complex(terms.sum()))
            masses.append(float(np.abs(terms).sum()))
        total, mass = sums[rung], masses[rung]
        err = abs(total - sums[rung - 1])
        if err <= max(tol * abs(total), 1e-14 * mass, 1e-300):
            return total, err + _EPS * mass
    raise ConvergenceError(
        f"Clenshaw-Curtis ladder: difference {err:.3g} still above tolerance "
        f"{tol:.3g} at {_CC_N0 << max_level} intervals"
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
    half = 0.5 * (math.log(cutoff) - a)
    mid = a + half

    def integrand(x, _):
        y = mid + half * x
        return half * np.exp(s * y - u_max * np.logaddexp(0.0, y))

    with np.errstate(under="ignore"):
        edge, edge_err = _cc_ladder(integrand, spec.rel_tolerance, spec.max_level)
    return edge, edge_err, tail


def _hankel_result(
    s: complex, p: DegenerateParameter, total: complex, err: float,
    method: EvalMethod,
) -> EvalResult:
    """lambda**(-s) times a loop realization's total and error."""
    lam_pow = cmath.exp(-s * p.log_lambda)
    return _linear_result(lam_pow * total, abs(lam_pow) * err, method)


# The circle's ladder nodes up to _CIRCLE_CACHED_RUNG (1024 intervals) and
# the circle's log term at them are kept in an LRU cache of the last
# _CIRCLE_CACHE_SIZE (realization, radius) pairs; deeper rungs are formed
# per call.
_CIRCLE_CACHED_RUNG = 6
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
    """Ladder nodes on [a, b] in ladder order, and circle_log(t, delta) at them."""
    t = 0.5 * (a + b) + 0.5 * (b - a) * _cc_rung(_CIRCLE_CACHED_RUNG)[0]
    return t, circle_log(t, delta)


def _circle_integral(
    g, circle_log, a: float, b: float, delta: float, spec: QuadratureSpec
) -> tuple[complex, float]:
    """Integral of g over [a, b] on the Clenshaw-Curtis ladder.

    g(t, log_t) takes numpy arrays of parameter values and of
    circle_log(t, delta) at them.  The circle integrand is analytic but not
    periodic (the e^{i s theta} factor), which a Chebyshev rule does not need.
    """
    t, log_t = _circle_geometry(circle_log, a, b, delta)
    half = 0.5 * (b - a)

    def values(x, lo):
        if lo + len(x) <= len(t):
            return g(t[lo : lo + len(x)], log_t[lo : lo + len(x)])
        x = 0.5 * (a + b) + half * x
        return g(x, circle_log(x, delta))

    total, err = _cc_ladder(values, min(spec.rel_tolerance, 1e-11), spec.max_level)
    return half * total, half * err


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

    circle_val, circle_err = _circle_integral(
        circle, _loop_circle_log, -math.pi, math.pi, delta, spec
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

    circle_val, circle_err = _circle_integral(
        circle, _reflected_circle_log, 0.0, 2.0 * math.pi, delta, spec
    )
    prefactor = 1j / (2.0 * classical.sin_pi(s))
    return _hankel_result(
        s, p, prefactor * (edge_part + circle_val),
        abs(prefactor) * (abs(phase_diff) * edge_err + circle_err) + tail,
        EvalMethod.HANKEL_REFLECTED,
    )
