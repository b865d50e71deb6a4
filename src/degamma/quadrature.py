"""Numerical-integration paths: the defining integral and the Hankel contour.

Every integral here runs on one nested Clenshaw-Curtis ladder on [-1, 1]
with rungs of 16, 32, 64, ... intervals: the first four (129 nodes) in one
integrand call, each deeper rung on only its new nodes.

The defining integral is split at t = 1 and its far piece
integral_1^inf t**(s-1) (1 + c t)**(-1/lambda) dt, at c = lambda, folded
onto (0, 1] by t -> 1/w; both pieces take a further v**8 substitution and
run on the ladder as one integrand.  Where an endpoint exponent is near -1
the leading power is subtracted and its integral added back.

The Hankel path realizes the loop around the origin as two edges along the
negative axis plus a circle of radius delta; with the 1/(2i sin(pi s))
prefactor this continues the function left of the validity strip.  The edge
integral_delta^inf tau**(s-1) (1 + tau)**(-1/lambda) dtau is delta**s times
the far piece at c = delta, so it runs to infinity.  Both realizations run
one body, which refuses first; each passes in its coefficients and its
circle's sign and center.  Each contour integrand is one exp of a product of
complex coefficients with cached node rows, and the circle's constant
prefactor multiplies the ladder's value and error, not every node.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

import numpy as np

from . import classical, core
from .classical import LOG_OVERFLOW
from .core import DEFAULT_TOLERANCE, DegenerateParameter, EvalMethod, EvalResult, _finish
from .errors import ConvergenceError, IntegerArgumentError, ParameterRangeError, StripError

__all__ = [
    "QuadratureSpec",
    "direct_integral_gamma",
    "hankel_gamma",
    "hankel_gamma_reflected",
]

# Margin kept from the strip's edges (by the contour, from the right one).
STRIP_MARGIN = 0.01

_EPS = math.ulp(1.0)


class QuadratureSpec(namedtuple("QuadratureSpec", "rel_tolerance hankel_radius",
                                defaults=(DEFAULT_TOLERANCE, 0.3))):
    """Tolerances and contour geometry for the integral paths, as a checked named tuple.

    The contour's edge is held to rel_tolerance and its circle, of radius
    ``hankel_radius``, to 1e-11 or less.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.rel_tolerance >= 1e-14:
            raise ValueError("QuadratureSpec: rel_tolerance must be >= 1e-14")
        if not 0.0 < self.hankel_radius < 1.0:
            raise ValueError("QuadratureSpec: hankel_radius must be in (0, 1)")
        return self


_DEFAULT_SPEC = QuadratureSpec()


# Power of the substitution t = v**K (w = v**K).  The pieces vanish at v = 0
# like a power of v that grows with K, and the ladder converges faster for
# it: K = 8 takes about half the nodes of K = 4 at lambda in (0.15, 0.85).
_POWER_K = 8


def _power_geometry(v, *delta):
    """Rows log v, v**K and K at nodes v > 0, and 0, 1 and 0 at v = 0.

    Every far or near piece vanishes at v = 0; the row K, the piece's factor,
    makes it exactly 0 there from finite values.  Given a radius delta, a
    fourth row holds log1p(delta / v**K) for the contour edge's far piece,
    and the rows are complex, so that its exponent is one complex product.
    """
    live = v > 0.0
    log_v = np.log(np.where(live, v, 1.0))
    v_k = np.exp(_POWER_K * log_v)
    return np.array([log_v, v_k, _POWER_K * live] + [np.log1p(d / v_k) for d in delta],
                    dtype=complex if delta else float)


def _far_piece(s: complex, u: float, c: float, log_pre: complex = 0.0):
    """exp(log_pre) integral_1^inf t**(s-1) (1 + c t)**(-u) dt as K v**(-Ks-1) (1 + c/v**K)**(-u).

    Where u - Re(s) < 1 the integrand runs less its endpoint power c**(-u)
    v**(K(u-s-1)) and adds back c**(-u)/(u - s); elsewhere c**(-u) may be
    huge.  log_pre rides in the exponent, where a prefactor and an integral
    that overflow apart stay in range.  Returns far(geometry) over
    _power_geometry's rows (log1p(c / v**K) from the fourth, if there), the
    add-back (inf past exp(LOG_OVERFLOW)) and log|add-back (u - s)|.
    """
    gap = u - s
    if gap.real < 1.0:
        log_back = log_pre - u * math.log(c)

        def far(geometry):
            return (np.exp(log_back + (_POWER_K * gap - 1.0) * geometry[0])
                    * np.expm1(-u * np.log1p(geometry[1].real / c)))

        back = cmath.exp(log_back) / gap if log_back.real <= LOG_OVERFLOW else math.inf
        return far, back, log_back.real

    coefficients = np.array([-(_POWER_K * s + 1.0), -u])

    def far(geometry):
        # the exponent is one product with the rows log v and log1p(c / v**K)
        rows = geometry[::3] if len(geometry) > 3 else (geometry[0], np.log1p(c / geometry[1]))
        return np.exp(log_pre + coefficients @ rows)

    return far, 0.0, -math.inf


def direct_integral_gamma(
    s: complex, p: DegenerateParameter, spec: QuadratureSpec | None = None
) -> EvalResult:
    """Degenerate gamma on the validity strip via its defining integral.

    integral_0^inf (1 + lambda*t)**(-1/lambda) t**(s-1) dt, split at t = 1
    into a near piece and _far_piece at c = lambda.  The near piece gets the
    same v**K power substitution, and the Clenshaw-Curtis ladder integrates
    both pieces' sum over v in [0, 1].  Where Re(s) < 1, the near piece runs
    less t**(s-1) and adds back 1/s; where 1/lambda - Re(s) < 1, the far
    piece subtracts its endpoint power.  The ladder stops on rel_tolerance
    relative to the value, add-backs included.

    Raises DomainError if s is not finite, and StripError unless
    0 < Re(s) < 1/lambda with margin 0.01.
    """
    spec = spec or _DEFAULT_SPEC
    s = complex(s)
    classical._refuse_non_finite("direct_integral_gamma", "s", s)
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
    far, far_back, far_log = _far_piece(s, u_max, p.lam)
    log_scale = max(log_mass, far_log)
    if log_scale > LOG_OVERFLOW:
        raise ConvergenceError(
            f"direct_integral_gamma: at s = {s}, lambda = {p.lam:.6g} the "
            f"integrand reaches exp({log_scale:.6g}) and overflows"
        )
    near_cut = sigma < 1.0
    near_back = 1.0 / s if near_cut else 0.0
    added = near_back + far_back
    floor = _EPS * ((2.0 + u_max / abs(u_max - s)) * math.exp(log_mass)
                    + abs(near_back) + abs(far_back))
    near_power = _POWER_K * s - 1.0

    def pieces(geometry):
        # near: t = v**K on [0, 1]; far: w = v**K on (0, 1], from t -> 1/w on [1, inf)
        log_v, v_k, scale = geometry
        damp = -u_max * np.log1p(p.lam * v_k)
        if near_cut:
            near = np.exp(near_power * log_v) * np.expm1(damp)
        else:
            near = np.exp(near_power * log_v + damp)
        # the added-back integrals ride along as a constant, so that the
        # ladder's test is relative to the value and not to what cancels it
        return scale * (near + far(geometry)) + added

    with np.errstate(under="ignore"):
        value, quad_err = _mapped_integral(pieces, _power_geometry, 0.0, 1.0, (),
                                           spec.rel_tolerance)
    return _finish(EvalMethod.DIRECT_INTEGRAL, value=value,
                   abs_est=quad_err + abs(value) * 1e-15 + floor)


# The Clenshaw-Curtis ladder on [-1, 1]: rung m has n = _CC_N0 * 2**m
# intervals.  Nodes are kept in ladder order (rung 0's, then each deeper
# rung's new odd-index nodes), so every rung's nodes are the first n + 1 of
# each deeper rung's.  Rungs 0.._CC_HEAD_RUNG go to the integrand in one call.
_CC_N0 = 16
_CC_HEAD_RUNG = 3
_CC_MAX_RUNG = 10  # the integral paths' deepest rung: 16,384 intervals


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
def _cc_head_weights() -> tuple[np.ndarray, np.ndarray]:
    """Rungs 0.._CC_HEAD_RUNG's weights over the head's nodes, one row each, and a complex copy."""
    size = (_CC_N0 << _CC_HEAD_RUNG) + 1
    weights = np.array([np.pad(_cc_rung(rung)[1], (0, size - (_CC_N0 << rung) - 1))
                        for rung in range(_CC_HEAD_RUNG + 1)])
    return weights, weights.astype(complex)


def _cc_ladder(f, tol: float, max_level: int, rounding: float = _EPS) -> tuple[complex, float]:
    """Integrate over [-1, 1] on the nested Clenshaw-Curtis ladder.

    f(x, lo) returns the integrand at the ladder's nodes x, which start at
    ladder position lo.  A rung's sum Q and its M = sum |w_i f(x_i)| are
    products of its weights with f's values and their moduli, M as every
    weight is positive.  The ladder stops at the first rung whose Q is within
    max(tol |Q|, 1e-14 M) of the rung before and returns Q and that
    difference plus rounding M, rounding being the relative rounding of f's
    values (eps unless f amplifies it).  Raises ConvergenceError if rung
    max_level does not.
    """
    vals = f(_cc_rung(_CC_HEAD_RUNG)[0], 0)
    weights, complex_weights = _cc_head_weights()
    sums, masses = (complex_weights @ vals).tolist(), (weights @ np.abs(vals)).tolist()
    for rung in range(1, max_level + 1):
        if rung > _CC_HEAD_RUNG:
            lo = (_CC_N0 << (rung - 1)) + 1
            x, w = _cc_rung(rung)
            vals = np.concatenate([vals, f(x[lo:], lo)])
            sums.append(complex(w @ vals))
            masses.append(float(w @ np.abs(vals)))
        total, mass = sums[rung], masses[rung]
        err = abs(total - sums[rung - 1])
        bound = max(tol * abs(total), 1e-14 * mass, 1e-300)
        if err <= bound:
            return total, err + rounding * mass
    raise ConvergenceError(f"Clenshaw-Curtis ladder: difference {err:.3g} above max(tol |Q|, "
                           f"1e-14 M) = {bound:.3g} at {_CC_N0 << max_level} intervals")


# Node geometry that depends on neither s nor lambda (_power_geometry's rows,
# the circle's rows) is kept at the ladder's nodes up to _CACHED_RUNG (1024
# intervals) in an LRU cache of the last _GEOMETRY_CACHE_SIZE (geometry,
# interval, radius) keys; deeper rungs form it per call.
_CACHED_RUNG = 6
_GEOMETRY_CACHE_SIZE = 8


def _circle_rows(theta, delta, sign, center):
    """Rows theta - center and log(1 + sign delta e^{i theta}) on a loop realization's circle."""
    return np.array([theta - center, np.log(1.0 + sign * delta * np.exp(1j * theta))])


@functools.lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _ladder_geometry(geometry, a: float, b: float, *args) -> np.ndarray:
    """geometry(t, *args) at the ladder's nodes t on [a, b], in ladder order."""
    return geometry(0.5 * (a + b) + 0.5 * (b - a) * _cc_rung(_CACHED_RUNG)[0], *args)


def _mapped_integral(
    g, geometry, a: float, b: float, args: tuple, tol: float, rounding: float = _EPS,
) -> tuple[complex, float]:
    """Integral over [a, b] on the Clenshaw-Curtis ladder, to rung _CC_MAX_RUNG.

    g(geo) takes a numpy array of geometry(t, *args) at parameter values t,
    whose last axis runs over t; rounding is as in _cc_ladder.  The
    circle integrands are analytic but not periodic (the e^{i s theta}
    factor), which a Chebyshev rule does not need.
    """
    geo = _ladder_geometry(geometry, a, b, *args)
    half = 0.5 * (b - a)

    def values(x, lo):
        if lo + len(x) <= geo.shape[-1]:
            return g(geo[..., lo : lo + len(x)])
        return g(geometry(0.5 * (a + b) + half * x, *args))

    total, err = _cc_ladder(values, tol, _CC_MAX_RUNG, rounding)
    return half * total, half * err


def _loop_gamma(
    s: complex, p: DegenerateParameter, spec: QuadratureSpec | None, name: str,
    method: EvalMethod, coefficients, sign: float, center: float,
) -> EvalResult:
    """Both loop realizations: the refusals, then edge, circle, lambda**(-s).

    Refuses integer s, s at or past the strip's right edge less 0.01 and a
    circle whose values overflow, before the sine prefactor, which
    coefficients(s, sin(pi s), delta) turns into (edge_c, circle_c).  The edge
    integral_delta^inf tau**(s-1) (1+tau)**(-1/lambda) dtau is delta**s times
    _far_piece at c = delta, with s log delta in its exponent, as delta**s may
    underflow where the far piece overflows.  The circle's values over
    t in center -+ pi are exp(i s (t - center) - u log(1 + sign delta e^{it})),
    one product with _circle_rows; circle_c holds its prefactor.  The loop
    integral is edge_c * edge + circle_c * circle.
    A value past exp(LOG_OVERFLOW) raises ConvergenceError, not OVERFLOW:
    the ladder can stop falsely on such a circle, so its log would be
    wrong.  The estimate adds u's rounding; _check_argument cannot raise here.
    """
    s, spec = complex(s), spec or _DEFAULT_SPEC
    # raises DomainError for a non-finite s before the strip test sees it
    classical._refuse_integer(name, "s", s, "where the sine prefactor vanishes",
                              error=IntegerArgumentError)
    u, delta = p.inv_lambda, spec.hankel_radius
    if s.real > u - STRIP_MARGIN:
        raise StripError(
            f"{name}: Re(s) = {s.real} must stay below 1/lambda - "
            f"{STRIP_MARGIN} = {u - STRIP_MARGIN:.6g} for the edge to converge"
        )
    # The circle's values reach (1 - delta)**(-1/lambda) delta**Re(s)
    # e^(pi |Im s|).  Each factor is formed on its own (the reflected
    # circle's delta**Re(s) as delta times delta**(s - 1)), and sin(pi s) in
    # the prefactors reaches e^(pi |Im s|) too, so the bound adds the logs of
    # the factors, each at least 0.
    log_peak = -u * math.log1p(-delta)
    log_max = log_peak + math.pi * abs(s.imag) + max((s.real - 1.0) * math.log(delta), 0.0)
    if log_max > LOG_OVERFLOW:
        raise ParameterRangeError(
            f"{name}: at lambda = {p.lam:.6g} and s = {s} the values on the "
            f"circle of radius {delta} reach exp({log_max:.6g}) and overflow"
        )
    edge_c, circle_c = coefficients(s, classical.sin_pi(s), delta)
    # Each ladder's values carry the rounding of their exponent, at most
    # u |log(1 - delta)| + pi (|s| + 3) in size on the circle, and on the edge, where
    # tau <= 1 holds most of its mass, |s log delta| + |s + 1/K| |log delta| + u log 2.
    edge_rounding = _EPS * (1.0 - 2.0 * abs(s) * math.log(delta) + u * math.log(2.0))
    circle_rounding = _EPS * (1.0 - u * math.log1p(-delta) + math.pi * (abs(s) + 3.0))
    far, back, _ = _far_piece(s, u, delta, s * math.log(delta))
    with np.errstate(under="ignore"):
        edge, edge_err = _mapped_integral(lambda geo: geo[2] * far(geo) + back, _power_geometry,
                                          0.0, 1.0, (delta,), spec.rel_tolerance, edge_rounding)
    circle_exponent = np.array([1j * s, -u])
    circle_val, circle_err = _mapped_integral(
        lambda rows: np.exp(circle_exponent @ rows), _circle_rows, center - math.pi,
        center + math.pi, (delta, sign, center), min(spec.rel_tolerance, 1e-11), circle_rounding)
    total = edge_c * edge + circle_c * circle_val
    # refused where lambda**(-s), or the value, would pass exp(LOG_OVERFLOW)
    log_pow = -s * p.log_lambda
    lam_pow = cmath.exp(log_pow) if log_pow.real <= LOG_OVERFLOW else math.inf
    value = lam_pow * total
    if not abs(value) <= math.exp(LOG_OVERFLOW):
        raise ConvergenceError(
            f"{name}: at s = {s}, lambda = {p.lam:.6g} lambda**(-s) = exp("
            f"{log_pow.real:.6g}) times the loop integral {abs(total):.3g} overflows")
    err = abs(lam_pow) * (abs(edge_c) * edge_err + abs(circle_c) * circle_err)
    # a few ulps of the value for the coefficient products, log_pow's and u's rounding
    felt = core._check_argument("s", s, p)
    return _finish(method, value=value, real=not s.imag,
                   abs_est=err + abs(value) * _EPS * (4.0 + abs(log_pow) + felt))


def hankel_gamma(
    s: complex, p: DegenerateParameter, spec: QuadratureSpec | None = None
) -> EvalResult:
    """Degenerate gamma via the loop integral around the origin.

    The loop decomposes into the two edges along the negative axis, whose
    phases exp(-+i*pi*s) combine into 2i sin(pi s) * integral_delta^inf
    t**(s-1)(1+t)**(-1/lambda) dt, plus the circle term
    integral_{-pi}^{pi} i delta**s e^{i s theta} (1 - delta e^{i theta})**(-1/lambda) dtheta.
    Dividing by 2i sin(pi s) and by lambda**s recovers the function; the
    result is independent of delta and, unlike the defining integral, valid
    for Re(s) <= 0 away from the integers.

    Raises DomainError if s is not finite.
    """
    return _loop_gamma(s, p, spec, "hankel_gamma", EvalMethod.HANKEL,  # i delta**s / 2i sin(pi s)
                       lambda s, sine, delta: (1.0, cmath.exp(s * math.log(delta)) / (2.0 * sine)),
                       -1.0, 0.0)


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
    def coefficients(s, sine, delta):
        # (-w)**(s-1) phases on the two passes along the positive axis; the
        # circle's i delta delta**(s-1) e^{i(s-1)(phi-pi) + i phi} is
        # -i delta delta**(s-1) e^{is(phi-pi)}, whose -i cancels the prefactor's i
        phase_diff = cmath.exp(1j * math.pi * (s - 1.0)) - cmath.exp(-1j * math.pi * (s - 1.0))
        return (1j * phase_diff / (2.0 * sine),
                delta * cmath.exp((s - 1.0) * math.log(delta)) / (2.0 * sine))

    return _loop_gamma(s, p, spec, "hankel_gamma_reflected", EvalMethod.HANKEL_REFLECTED,
                       coefficients, 1.0, math.pi)
