"""Product and limit representations of the degenerate gamma and beta functions.

These are the alternative evaluation paths: truncated infinite products with
explicit truncation control, converging first-order (log-error ~ C/N) to the
closed form.  Every product is accumulated as sums of logs and exponentiated
once, and all four share one kernel, :func:`_paired_log_sum`, which sums
log((1 + x/n)(1 + (u - x)/n)) over n:

* Head, n <= n0 = ceil(2 max(|x|, |u - x|, 1)): the principal log of each
  factor, in complex arithmetic.  Near a pole one factor is close to 0, and
  fusing it with its partner would cancel in |1 + t|**2 - 1.
* Tail, n0 < n < M = max(32, ceil(8 max(|x|, |u - x|, 1))): both factors lie
  within 1/2 of 1, so the pair is fused into log1p(t), t = tr + i*ti =
  u/n + q/n**2 with q = x(u - x), evaluated in real float64 arithmetic as
  0.5*log1p(tr(2 + tr) + ti**2) + i*arctan2(ti, 1 + tr).  Each factor's
  argument is below pi/6 in size, so the principal log of the product equals
  the sum of the two principal logs: the fused tail keeps the branch of the
  unfused sum.
* Far tail, n >= M, in closed form by Euler-Maclaurin (Abramowitz & Stegun
  23.1.30): the integral of f(t) = log((1 + x/t)(1 + y/t)), y = u - x, whose
  antiderivative is u log t + sum_{c = x, y} (t + c) log1p(c/t); the endpoint
  terms (f(M) - f(hi))/2; and the six Bernoulli terms B_2..B_12 times the odd
  derivatives (2k-2)! ((t + x)**(1-2k) + (t + y)**(1-2k) - 2 t**(1-2k)).
  Since |c/t| <= 1/8 there, |f^(12)(t)| <= 11! * 12 / t**12, and the
  remainder is below 0.03 M**-11 < 1e-18.  The log1p(c/t) are taken in the
  same real arithmetic as the tail: complex log1p of arguments near 1e-5 is
  off by about 1e-11 relative, and the antiderivative multiplies that by t.

Where M <= _SHORT + 1 = 257, as in every product ``degamma verify`` runs,
the head's principal logs take every term below M in one log1p pass over a
cached table of n, since there numpy calls, not terms, set the cost; the
fused tail serves longer stretches and ``direct=True``.

A product therefore costs O(max(|x|, |u - x|, 1)) terms whatever its
truncation level.  The head and tail terms are summed with numpy's pairwise
summation over chunks; reassociation stays at the 1 ulp level.  The Euler
limit at level n is the Weierstrass sum at N = n - 1, with its own level-gap
estimate.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

import numpy as np

from .classical import EULER_GAMMA, POLE_TOLERANCE, _refuse_integer
from .core import (
    DegenerateParameter,
    EvalMethod,
    EvalResult,
    _beta_guard,
    _check_argument,
    _finish,
)
from .errors import DomainError, ParameterRangeError

__all__ = [
    "ProductSpec",
    "weierstrass_gamma",
    "euler_limit_gamma",
    "sine_product",
    "degenerate_beta_product",
]

# Chunk length of the summed stretches of the paired sum (long only for large
# |x| or direct summation): the few float64 work arrays of a chunk stay in
# cache and come from the allocator's free list.  At 1 << 20 every fresh
# array pays its page faults, and each term cost about three times as much.
_CHUNK = 1 << 13

# A stretch below the Euler-Maclaurin start M <= _SHORT + 1 is summed in one
# pass over this table of n = 1.._SHORT: the head and fused tail's 20 numpy
# calls on arrays of a few dozen terms cost more than the terms themselves.
_SHORT = 256
_N_TABLE = np.arange(1.0, _SHORT + 1.0)


def _count(n_terms, name: str) -> int:
    """n_terms as an int for ``name``: ParameterRangeError past the largest float,
    ValueError unless it is a whole number >= 1 (NaN is not)."""
    if n_terms > sys.float_info.max:
        raise ParameterRangeError(f"{name}: n_terms is past the largest float")
    if not (n_terms >= 1 and n_terms % 1 == 0):
        raise ValueError(f"{name}: n_terms must be >= 1 and whole")
    return int(n_terms)


class ProductSpec(namedtuple("ProductSpec", "n_terms use_tail_correction",
                             defaults=(100_000, False))):
    """Truncation control for the product representations, as a checked named tuple.

    Parameters
    ----------
    n_terms : int
        Truncation level N (default 1e5, which targets ~1e-4 relative error
        for moderate arguments).  It sets the accuracy, not the cost: the far
        tail of every product is summed in closed form, so a call costs
        O(|z| + 1/lambda) terms for any N.  ParameterRangeError past the
        largest float, about 1.8e308; ValueError for NaN or a fraction.  A
        whole float such as 1e5 is kept as an int.
    use_tail_correction : bool
        Add the second- and third-order analytic tail of the log-product,
        upgrading the O(1/N) truncation error to roughly O(1/N**3).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n_terms = _count(self.n_terms, "ProductSpec")
        return self if type(self.n_terms) is int else self._replace(n_terms=n_terms)


def _tail_sums(n_terms: int) -> tuple[float, float]:
    # sum_{n>N} 1/n^2 and 1/n^3 by their Euler-Maclaurin expansions, in powers
    # of r = 1/N, which underflow rather than overflow at large N
    r = 1.0 / n_terms
    r2 = r * r
    s2 = r - r2 / 2.0 + r2 * r / 6.0
    s3 = r2 / 2.0 - r2 * r / 2.0 + r2 * r2 / 4.0
    return s2, s3


def _log1p_real(c: complex, t: float) -> complex:
    """Principal log1p(c/t) for |c/t| <= 1/2, in real float64 arithmetic."""
    a = c.real / t
    b = c.imag / t
    return complex(0.5 * math.log1p(a * (2.0 + a) + b * b), math.atan2(b, 1.0 + a))


# Euler-Maclaurin weights B_2k / ((2k)(2k - 1)), k = 1..6: the Bernoulli
# number over (2k)!, times the (2k - 2)! of the (2k - 1)-th derivative
_EM_WEIGHTS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _em_primitive(x: complex, y: complex, u: float, t: float) -> complex:
    """E(t) with sum_{a <= n < b} f(n) = E(b) - E(a) + R, for t >= 8 max(|x|, |y|).

    f(t) = log((1 + x/t)(1 + y/t)), u = x + y.  E(t) is the antiderivative
    u log t + sum_c (t + c) log1p(c/t), less f(t)/2, plus the six Bernoulli
    terms w_k ((t + x)**(1-2k) + (t + y)**(1-2k) - 2 t**(1-2k)).
    """
    lx = _log1p_real(x, t)
    ly = _log1p_real(y, t)
    value = u * math.log(t) + (t + x - 0.5) * lx + (t + y - 0.5) * ly
    rx, ry, r = 1.0 / (t + x), 1.0 / (t + y), 1.0 / t
    sx, sy, s = rx * rx, ry * ry, r * r
    for w in _EM_WEIGHTS:
        value += w * (rx + ry - 2.0 * r)
        rx *= sx
        ry *= sy
        r *= s
    return value


def _paired_log_sum(x: complex, u: float, lo: int, hi: int,
                    direct: bool = False) -> complex:
    """sum_{lo <= n < hi} log((1 + x/n)(1 + (u - x)/n)), for lo >= 1.

    Head, fused tail and Euler-Maclaurin stretch as in the module docstring;
    the head bound n0 is the one :func:`_tail_bound` uses.  Below M <= _SHORT + 1
    every term takes the head's principal logs, in one pass; longer stretches the tail.
    ``direct=True`` sums every term up to hi instead, at a cost of O(hi - lo):
    the reference the Euler-Maclaurin stretch is checked against.
    """
    y = u - x
    q = x * y
    m = max(abs(x), abs(y), 1.0)
    if not 8.0 * m < math.inf:  # the term counts below take ceil(8 m)
        raise DomainError(f"x = {x} or u - x = {y} is too large in modulus for the products")
    split = max(lo, min(hi, math.ceil(2.0 * m) + 1))
    em_start = hi if direct else max(split, min(hi, max(32, math.ceil(8.0 * m))))
    if not direct and em_start <= _SHORT + 1:
        n = _N_TABLE[lo - 1 : em_start - 1]
        total = complex(np.log1p(np.divide.outer((x, y), n)).sum())
    else:
        head = 0.0 + 0.0j
        for a in range(lo, split, _CHUNK):
            n = np.arange(a, min(a + _CHUNK, split), dtype=np.float64)
            head += np.sum(np.log1p(x / n) + np.log1p(y / n))
        re_sum = im_sum = 0.0
        for a in range(split, em_start, _CHUNK):
            r = np.arange(a, min(a + _CHUNK, em_start), dtype=np.float64)
            np.reciprocal(r, out=r)
            tr = q.real * r
            tr += u
            tr *= r  # Re t = u/n + Re(q)/n^2
            ti = np.multiply(r, r, out=r)
            ti *= q.imag  # Im t = Im(q)/n^2
            v = tr + 2.0
            v *= tr
            v += ti * ti  # |1 + t|^2 - 1
            re_sum += np.log1p(v, out=v).sum()
            tr += 1.0
            im_sum += np.arctan2(ti, tr, out=ti).sum()
        total = complex(head) + complex(0.5 * re_sum, im_sum)  # Python, not numpy, scalars
    if em_start < hi:
        total += _em_primitive(x, y, u, float(hi)) - _em_primitive(
            x, y, u, float(em_start)
        )
    return total


def _harmonic_less_gamma(n: int) -> float:
    """H_n - gamma, with H_n = 1 + 1/2 + ... + 1/n and gamma Euler's constant."""
    if n < 100:
        return math.fsum(1.0 / k for k in range(1, n + 1)) - EULER_GAMMA
    # asymptotic series; the first omitted term is below 1/(240 n**8) < 1e-18
    inv2 = 1.0 / (float(n) * n)  # in floats, which overflow to inf, not raise
    return (
        math.log(n) + 0.5 / n
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0))
    )


def _before_head(args: tuple[complex, ...], n_terms: int) -> bool:
    """N < 2 max(|a|, 1) over the factors' arguments a: no tail bound holds yet."""
    return n_terms < 2.0 * max(*(abs(a) for a in args), 1.0)


def _tail_bound(args: tuple[complex, ...], u: float, n_terms: int, power: int) -> float:
    """(sum |a|**power + u) / N**(power - 1) over the factors' arguments a.

    Inf before the head; past it, |log factor_n| <= (sum |a|**2 + u)/n**2.
    N is taken at most 2**256, so that N**3 stays a float; a smaller N only
    raises the bound.
    """
    if _before_head(args, n_terms):
        return math.inf
    return (sum(abs(a) ** power for a in args) + u) / min(n_terms, 2**256) ** (power - 1)


def _log_estimate(rel_est: float, magnitude: float) -> float:
    """rel_est plus a few ulps of the terms' ``magnitude``."""
    return rel_est + 4e-16 * magnitude


def _gamma_product_base(z: complex, p: DegenerateParameter) -> tuple[complex, float]:
    """log(lam**(-z) / (Gamma(u) z (u - z))), u = 1/lam, and z's rounding next to a pole."""
    # z = 0 and z = u, the prefactor's poles, are poles of the families
    felt = _check_argument("z", z, p)
    return (-z * p.log_lambda - cmath.log(z) - cmath.log(p.inv_lambda - z)
            - p.log_gamma_inv_lambda), felt


def _gamma_product_log(base: complex, u: float, m: float, log_sum: complex,
                       correction: complex = 0.0) -> tuple[complex, float]:
    """base + u log(m) - log_sum + correction, base from ``_gamma_product_base``.

    log_sum is the paired sum over 1 <= n < m; the terms' magnitude comes second.
    """
    log_growth = u * math.log(m)
    log_val = base + (log_growth - log_sum + correction)
    return log_val, abs(base) + log_growth + abs(log_sum)


def weierstrass_gamma(
    z: complex,
    p: DegenerateParameter,
    spec: ProductSpec | None = None,
    euler_constant_form: bool = False,
) -> EvalResult:
    """Degenerate gamma via the paired Weierstrass-type product.

    value = lam**(-z) / (z*(u-z)*Gamma(u)) * prod_{n=1}^{N}
            (1 + 1/n)**u * (1 + z/n)**(-1) * (1 + (u-z)/n)**(-1),   u = 1/lam.

    ``euler_constant_form=True`` names the equivalent grouping with
    exp(-gamma/lam) * prod exp(1/(n*lam)) (...), taken with the truncated
    Euler constant H_N - log(N+1).  Both groupings reduce exactly to
    u*log(N+1) - sum_n log((1 + z/n)(1 + (u-z)/n)), since the factors
    (1 + 1/n) telescope to N + 1.  The default form sums the far tail of
    that sum by Euler-Maclaurin; this one sums every term directly, at a
    cost proportional to N, so the two check each other.

    The error estimate comes from the analytic O(1/N) tail bound of the
    log-product (or its O(1/N**3) remainder with ``use_tail_correction``),
    plus a rounding floor of a few ulps of the magnitudes the log carries.
    """
    spec = spec or ProductSpec()
    z = complex(z)
    base, felt = _gamma_product_base(z, p)
    N = spec.n_terms
    u = p.inv_lambda
    w = u - z
    log_sum = _paired_log_sum(z, u, 1, N + 1, direct=euler_constant_form)
    if spec.use_tail_correction:
        # second- and third-order tail; the fourth is bounded with a factor 2
        s2, s3 = _tail_sums(N)
        correction = (z**2 + w**2 - u) / 2.0 * s2 + (u - z**3 - w**3) / 3.0 * s3
        rel_est = 0.5 * _tail_bound((z, w), u, N, 4)
    else:
        correction, rel_est = 0.0, _tail_bound((z, w), u, N, 2)
    log_val, magnitude = _gamma_product_log(base, u, N + 1.0, log_sum, correction)
    rel_est = _log_estimate(rel_est, magnitude + felt)
    return _finish(EvalMethod.WEIERSTRASS_PRODUCT, log_val, rel_est, not z.imag)


def euler_limit_gamma(
    z: complex, p: DegenerateParameter, spec: ProductSpec | None = None
) -> EvalResult:
    """Degenerate gamma via the rational limit representation at level n.

    value_n = lam**(-z)/Gamma(u) * n**u * ((n-1)!)**2
              / (z(1+z)...(n-1+z) * (u-z)(1+u-z)...(n-1+u-z)),   u = 1/lam.

    Writing z + j = j(1 + z/j) cancels the ((n-1)!)**2 against the
    denominators, so the log value is log(lam**(-z)/(Gamma(u) z (u-z))) +
    u*log(n) minus the paired sum over 1 <= j < n: the Weierstrass sum at
    N = n - 1, taken in two pieces.  What differs is the error estimate: the
    observed difference between the level-n and level-n/2 values
    (first-order convergence makes that an honest proxy for the remaining
    error), plus a rounding floor.  Before the head, n - 1 < 2 max(|z|,
    |u - z|, 1), convergence is not yet first order and the estimate is inf.
    """
    spec = spec or ProductSpec()
    z = complex(z)
    base, felt = _gamma_product_base(z, p)
    n = spec.n_terms
    u = p.inv_lambda
    half = max(n // 2, 1)
    sum_half = _paired_log_sum(z, u, 1, half)
    sum_full = sum_half + _paired_log_sum(z, u, half, n)
    log_val, magnitude = _gamma_product_log(base, u, n, sum_full)
    # first-order convergence makes the level gap equal the remaining
    # error asymptotically; the 1.25 cushion covers the next order
    log_half = _gamma_product_log(base, u, half, sum_half)[0]
    rel_est = (math.inf if _before_head((z, u - z), n - 1)
               else 1.25 * abs(log_val - log_half))
    rel_est = _log_estimate(rel_est, magnitude + felt)
    return _finish(EvalMethod.EULER_LIMIT, log_val, rel_est, not z.imag)


def sine_product(z: complex, n_terms: int) -> complex:
    """Truncated product for pi*z/sin(pi*z) = prod (1 - z^2/n^2)**(-1).

    z = 0 is fine (every factor is 1); nonzero integers are poles.
    """
    n_terms = _count(n_terms, "sine_product")
    z = complex(z)
    if not abs(z) < POLE_TOLERANCE:  # true also for a non-finite z
        _refuse_integer("sine_product", "z", z, "where a factor vanishes")
    # (1 - z^2/n^2) = (1 + z/n)(1 + (0 - z)/n): the paired sum with u = 0
    return cmath.exp(-_paired_log_sum(z, 0.0, 1, n_terms + 1))


def degenerate_beta_product(
    a: complex,
    b: complex,
    p: DegenerateParameter,
    spec: ProductSpec | None = None,
) -> EvalResult:
    """Degenerate beta via its paired infinite product.

    value = e^{-gamma/lam} (a+b)(u-a-b) / (Gamma(u) a b (u-a)(u-b)) *
            prod_n e^{1/(n lam)} (1+(a+b)/n)(1+(u-a-b)/n)
                   / ((1+a/n)(1+(u-a)/n)(1+b/n)(1+(u-b)/n)),   u = 1/lam.

    The grouped log-terms are O(1/n^2), so the full Euler constant can be used
    directly in the prefactor; the exponential factors combine to
    exp(u*(H_N - gamma)) and the rest is three paired sums.  When a+b sits at
    a pole the product contains a vanishing numerator factor and the value is
    exactly 0 (with a note), in agreement with the ratio path's limit.  The
    estimate is the O(1/N) tail bound plus a rounding floor.
    """
    spec = spec or ProductSpec()
    a, b = complex(a), complex(b)
    zero, felt = _beta_guard(a, b, p, EvalMethod.BETA_PRODUCT)
    if zero is not None:
        return zero
    u = p.inv_lambda
    ab = a + b
    uab = u - ab
    # exp(-gamma*u) * prod_n exp(u/n) = exp(u*(H_N - gamma))
    log_pre = (
        u * _harmonic_less_gamma(spec.n_terms)
        + cmath.log(ab)
        + cmath.log(uab)
        - p.log_gamma_inv_lambda
        - cmath.log(a)
        - cmath.log(b)
        - cmath.log(u - a)
        - cmath.log(u - b)
    )
    end = spec.n_terms + 1
    sum_ab, sum_a, sum_b = (_paired_log_sum(x, u, 1, end) for x in (ab, a, b))
    rel_est = _log_estimate(_tail_bound((ab, uab, a, u - a, b, u - b), 0.0, spec.n_terms, 2),
                            abs(log_pre) + abs(sum_ab) + abs(sum_a) + abs(sum_b) + felt)
    return _finish(EvalMethod.BETA_PRODUCT, log_pre + (sum_ab - sum_a - sum_b), rel_est,
                   not (a.imag or b.imag))
