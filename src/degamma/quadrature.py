"""Numerical-integration paths: the defining integral and the Hankel contour.

Every integral here runs on one nested Clenshaw-Curtis ladder on [-1, 1]
with rungs of 16, 32, 64, ... intervals: its first three rungs (65 nodes) go
to the integrand in one call and each deeper rung evaluates only its new
nodes.

The defining integral is split at t = 1 and its tail folded onto (0, 1] by
t -> 1/w; both pieces take a further v**8 substitution and run on the ladder
as one integrand.  Where an endpoint exponent is near -1 (Re s < 1 at t = 0,
1/lambda - Re s < 1 at t = inf) the leading power is subtracted and its
integral added back, so that the ladder sees pieces that vanish at v = 0.

The Hankel path realizes the loop around the origin as two straight edges
along the negative axis (phases exp(+-i*pi*s)) plus a circle of radius delta;
together with the 1/(2i sin(pi s)) prefactor this continues the degenerate
gamma function left of the validity strip.  The edges are truncated at the
radius R where the analytic tail bound meets the tolerance.  Both loop
realizations run one body and pass in only their circle integrand, circle
geometry and interval, and how edge and circle combine.

Node geometry that depends on neither s nor lambda (log v and v**8 on the
defining integral's interval, the circle's nodes and log(1 -+ delta e^{it})
at them) is cached per (geometry, interval, radius).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import classical
from .classical import LOG_OVERFLOW
from .core import DegenerateParameter, EvalMethod, EvalResult, EvalStatus
from .errors import (ConvergenceError, DomainError, IntegerArgumentError,
                     ParameterRangeError, StripError)

__all__ = [
    "QuadratureSpec",
    "direct_integral_gamma",
    "hankel_gamma",
    "hankel_gamma_reflected",
]

# Margin kept from both strip edges before the defining integral is attempted.
STRIP_MARGIN = 0.01
# Margin below 1/lambda required by the contour tail bound.
HANKEL_MARGIN = 0.1

_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and contour geometry for the integral paths.

    ``max_level`` is the deepest Clenshaw-Curtis rung, which has
    16 * 2**max_level intervals.  It must be at least 3: the first integrand
    call already evaluates rungs 0-2, so a lower cap would save no integrand
    evaluation and only forbid the next rung.  The contour's circle is held
    to min(rel_tolerance, 1e-11).  The contour's truncation radius R is not
    set here: it is chosen so that the analytic tail bound
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
        if self.max_level < 3:
            raise ValueError("QuadratureSpec: max_level must be >= 3")


def _linear_result(value: complex, err: float, method: EvalMethod) -> EvalResult:
    """The EvalResult of a value computed in linear space."""
    return EvalResult(
        value=value,
        abs_error_estimate=err,
        method=method,
        status=EvalStatus.REGULAR,
        log_value=cmath.log(value) if value != 0 else None,
    )


# Power of the substitution t = v**K (w = v**K).  The pieces vanish at v = 0
# like a power of v that grows with K, and the ladder converges faster for
# it: K = 8 takes about half the nodes of K = 4 at lambda in (0.15, 0.85).
_POWER_K = 8


def _power_geometry(v):
    """Rows log v, v**K and K at nodes v > 0, and 0, 1 and 0 at v = 0.

    Every defining-integral piece vanishes at v = 0; its last row, the
    piece's factor K, makes it exactly 0 there from finite values.
    """
    live = v > 0.0
    log_v = np.log(np.where(live, v, 1.0))
    return np.array([log_v, np.exp(_POWER_K * log_v), _POWER_K * live])


def direct_integral_gamma(
    s: complex, p: DegenerateParameter, spec: QuadratureSpec | None = None
) -> EvalResult:
    """Degenerate gamma on the validity strip via its defining integral.

    integral_0^inf (1 + lambda*t)**(-1/lambda) t**(s-1) dt, split at t = 1;
    the tail is folded onto (0, 1] by t -> 1/w, giving the integrand
    w**(-s-1) (1 + lambda/w)**(-1/lambda).  Both pieces get an additional
    v**K power substitution, and the Clenshaw-Curtis ladder integrates their
    sum over v in [0, 1].  Where Re(s) < 1, the near piece runs less
    t**(s-1) and adds back 1/s; where 1/lambda - Re(s) < 1, the far piece
    runs less lambda**(-1/lambda) w**(1/lambda-s-1) and adds back
    lambda**(-1/lambda)/(1/lambda - s).  The ladder stops on rel_tolerance
    relative to the value, add-backs included.

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
    # Rounding floor, taken first to refuse a lambda whose log Gamma(1/lambda)
    # overflows before the quadrature: eps times integral |integrand| (the closed
    # form at Re(s)), twice for node roundings, u/|u - s| more for u's rounding,
    # and once more each added-back term.
    sigma, gap = s.real, u_max - s.real
    log_gamma_u = p.log_gamma_inv_lambda
    if gap < 10.0:
        ratio = math.lgamma(gap) - log_gamma_u + sigma * math.log(u_max)
    else:
        # log Gamma(u - sigma) - log Gamma(u) + sigma log u by Stirling, whose
        # terms stay small where the two log Gammas would cancel at small lambda
        ratio = (gap - 0.5) * math.log1p(-sigma / u_max) + sigma + sigma / (12.0 * u_max * gap)
    log_mass = math.lgamma(sigma) + ratio - sigma * math.log(p.lam * u_max)
    # log lambda**(-u): huge at small lambda, where subtracting its power
    # would cancel, so the far piece subtracts only where u - Re(s) < 1
    near_cut, far_cut = sigma < 1.0, gap < 1.0
    far_log = -u_max * p.log_lambda
    log_scale = max(log_mass, far_log) if far_cut else log_mass
    if log_scale > LOG_OVERFLOW:
        raise ConvergenceError(
            f"direct_integral_gamma: at s = {s}, lambda = {p.lam:.6g} the "
            f"integrand reaches exp({log_scale:.6g}) and overflows"
        )
    near_back = 1.0 / s if near_cut else 0.0
    far_back = math.exp(far_log) / (u_max - s) if far_cut else 0.0
    added = near_back + far_back
    floor = _EPS * ((2.0 + u_max / abs(u_max - s)) * math.exp(log_mass)
                    + abs(near_back) + abs(far_back))
    lam = p.lam
    K = _POWER_K

    def pieces(_, geometry):
        # near: t = v**K on [0, 1]; far: w = v**K on (0, 1], from t -> 1/w on [1, inf)
        log_v, v_k, scale = geometry
        damp = -u_max * np.log1p(lam * v_k)
        if near_cut:
            near = np.exp((K * s - 1.0) * log_v) * np.expm1(damp)
        else:
            near = np.exp((K * s - 1.0) * log_v + damp)
        if far_cut:
            far = np.exp(far_log + (K * (u_max - s) - 1.0) * log_v) * np.expm1(
                -u_max * np.log1p(v_k / lam))
        else:
            far = np.exp(-(K * s + 1.0) * log_v - u_max * np.log1p(lam / v_k))
        # the added-back integrals ride along as a constant, so that the
        # ladder's test is relative to the value and not to what cancels it
        return scale * (near + far) + added

    with np.errstate(under="ignore"):
        value, quad_err = _mapped_integral(pieces, _power_geometry, 0.0, 1.0, (),
                                           spec.rel_tolerance, spec.max_level)
    err = quad_err + abs(value) * 1e-15 + floor
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


def _cc_ladder(
    f, tol: float, max_level: int, rounding: float = _EPS
) -> tuple[complex, float]:
    """Integrate over [-1, 1] on the nested Clenshaw-Curtis ladder.

    f(x, lo) returns the integrand at the ladder's nodes x, which start at
    ladder position lo.  The ladder stops at the first rung whose sum Q is
    within max(tol |Q|, 1e-14 M) of the rung before, where the rung's
    M = sum |w_i f(x_i)| sets the rounding floor, and returns Q and that
    difference plus rounding M, rounding being the relative rounding of f's
    values (eps unless f amplifies it).  Raises ConvergenceError if rung
    max_level does not.
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
            return total, err + rounding * mass
    raise ConvergenceError(
        f"Clenshaw-Curtis ladder: difference {err:.3g} still above tolerance "
        f"{tol:.3g} at {_CC_N0 << max_level} intervals"
    )


# Node geometry that depends on neither s nor lambda is kept at the ladder's
# nodes up to _CACHED_RUNG (1024 intervals) in an LRU cache of the last
# _GEOMETRY_CACHE_SIZE (geometry, interval, radius) keys; deeper rungs form
# it per call.
_CACHED_RUNG = 6
_GEOMETRY_CACHE_SIZE = 8


def _loop_circle_log(theta, delta):
    """log(1 - delta e^{i theta}) on hankel_gamma's circle, theta in [-pi, pi]."""
    return np.log(1.0 - delta * np.exp(1j * theta))


def _reflected_circle_log(phi, delta):
    """log(1 + delta e^{i phi}) on hankel_gamma_reflected's circle, phi in [0, 2pi]."""
    return np.log(1.0 + delta * np.exp(1j * phi))


@functools.lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _ladder_geometry(geometry, a: float, b: float, *args) -> tuple[np.ndarray, np.ndarray]:
    """Ladder nodes on [a, b] in ladder order, and geometry(t, *args) at them."""
    t = 0.5 * (a + b) + 0.5 * (b - a) * _cc_rung(_CACHED_RUNG)[0]
    return t, geometry(t, *args)


def _mapped_integral(
    g, geometry, a: float, b: float, args: tuple, tol: float, max_level: int,
    rounding: float = _EPS,
) -> tuple[complex, float]:
    """Integral of g over [a, b] on the Clenshaw-Curtis ladder.

    g(t, geo) takes numpy arrays of parameter values and of geometry(t, *args)
    at them, whose last axis runs over t; rounding is as in _cc_ladder.  The
    circle integrands are analytic but not periodic (the e^{i s theta}
    factor), which a Chebyshev rule does not need.
    """
    t, geo = _ladder_geometry(geometry, a, b, *args)
    half = 0.5 * (b - a)

    def values(x, lo):
        if lo + len(x) <= len(t):
            return g(t[lo : lo + len(x)], geo[..., lo : lo + len(x)])
        x = 0.5 * (a + b) + half * x
        return g(x, geometry(x, *args))

    total, err = _cc_ladder(values, tol, max_level, rounding)
    return half * total, half * err


def _loop_gamma(
    s: complex, p: DegenerateParameter, spec: QuadratureSpec | None, name: str,
    method: EvalMethod, circle, geometry, interval: tuple[float, float], combine,
) -> EvalResult:
    """The body of both loop realizations: refusals, edge, circle, lambda**(-s).

    The edge integral_delta^R t**(s-1) (1+t)**(-1/lambda) dt is taken in
    y = log t, and R**(Re s - 1/lambda)/(1/lambda - Re s) bounds the part
    beyond the cutoff R.  circle(delta, 1/lambda, t, geometry(t, delta)) is
    integrated over interval, and combine(edge, edge_err, circle, circle_err)
    returns the realization's total and error.
    """
    spec = spec or QuadratureSpec()
    # raises DomainError for a non-finite s before the strip test sees it
    classical._refuse_integer(name, "s", s, "where the sine prefactor vanishes",
                              error=IntegerArgumentError)
    u_max = p.inv_lambda
    if s.real >= u_max - HANKEL_MARGIN:
        raise StripError(
            f"{name}: Re(s) = {s.real} must stay below 1/lambda - "
            f"{HANKEL_MARGIN} = {u_max - HANKEL_MARGIN:.6g} for the "
            f"contour tail to converge"
        )
    # The circle's values reach (1 - delta)**(-1/lambda) delta**Re(s)
    # e^(pi |Im s|) and carry the rounding of their exponent, at most
    # 1/lambda |log(1 - delta)| + pi (|s| + 3) in size.  Each factor is
    # formed on its own (the reflected circle's delta**Re(s) as delta times
    # delta**(s - 1)), and sin(pi s) in the prefactors reaches e^(pi |Im s|)
    # too, so the bound adds the logs of the factors, each at least 0.
    delta = spec.hankel_radius
    log_peak = -u_max * math.log1p(-delta)
    log_max = log_peak + math.pi * abs(s.imag) + max((s.real - 1.0) * math.log(delta), 0.0)
    if log_max > LOG_OVERFLOW:
        raise ParameterRangeError(
            f"{name}: at lambda = {p.lam:.6g} and s = {s} the values on the "
            f"circle of radius {delta} reach exp({log_max:.6g}) and overflow"
        )
    rounding = _EPS * (1.0 + log_peak + math.pi * (abs(s) + 3.0))
    gap = u_max - s.real
    cutoff = max(10.0, (spec.rel_tolerance * gap) ** (-1.0 / gap))
    tail = cutoff ** (-gap) / gap

    a = math.log(delta)
    half = 0.5 * (math.log(cutoff) - a)
    mid = a + half

    def edge_integrand(x, _):
        y = mid + half * x
        return half * np.exp(s * y - u_max * np.logaddexp(0.0, y))

    with np.errstate(under="ignore"):
        edge, edge_err = _cc_ladder(edge_integrand, spec.rel_tolerance, spec.max_level)
    circle_val, circle_err = _mapped_integral(
        functools.partial(circle, delta, u_max), geometry, *interval, (delta,),
        min(spec.rel_tolerance, 1e-11), spec.max_level, rounding,
    )
    total, err = combine(edge, edge_err, circle_val, circle_err)
    # refused where lambda**(-s), or the value, would pass exp(LOG_OVERFLOW)
    log_pow = -s * p.log_lambda
    lam_pow = cmath.exp(log_pow) if log_pow.real <= LOG_OVERFLOW else math.inf
    if not abs(lam_pow * total) <= math.exp(LOG_OVERFLOW):
        raise ConvergenceError(
            f"{name}: at s = {s}, lambda = {p.lam:.6g} lambda**(-s) = exp("
            f"{log_pow.real:.6g}) times the loop integral {abs(total):.3g} overflows")
    return _linear_result(lam_pow * total, abs(lam_pow) * (err + tail), method)


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
    s = complex(s)

    def circle(delta, u, theta, log_circle):
        return 1j * cmath.exp(s * math.log(delta)) * np.exp(1j * s * theta - u * log_circle)

    def combine(edge, edge_err, circle_val, circle_err):
        two_i_sin = 2j * classical.sin_pi(s)
        return edge + circle_val / two_i_sin, edge_err + circle_err / abs(two_i_sin)

    return _loop_gamma(s, p, spec, "hankel_gamma", EvalMethod.HANKEL, circle,
                       _loop_circle_log, (-math.pi, math.pi), combine)


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
    s = complex(s)

    def circle(delta, u, phi, log_circle):
        return (1j * delta * cmath.exp((s - 1.0) * math.log(delta))
                * np.exp(1j * (s - 1.0) * (phi - math.pi) + 1j * phi - u * log_circle))

    def combine(edge, edge_err, circle_val, circle_err):
        # (-w)**(s-1) phases on the two passes along the positive axis
        phase_diff = cmath.exp(1j * math.pi * (s - 1.0)) - cmath.exp(-1j * math.pi * (s - 1.0))
        prefactor = 1j / (2.0 * classical.sin_pi(s))
        return (prefactor * (phase_diff * edge + circle_val),
                abs(prefactor) * (abs(phase_diff) * edge_err + circle_err))

    return _loop_gamma(s, p, spec, "hankel_gamma_reflected", EvalMethod.HANKEL_REFLECTED,
                       circle, _reflected_circle_log, (0.0, 2.0 * math.pi), combine)
