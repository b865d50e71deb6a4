"""Tests for the product and limit representations."""

import cmath
import collections
import math
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from degamma import representations, verify
from degamma.classical import sin_pi
from degamma.core import DegenerateParameter, degenerate_beta, degenerate_gamma
from degamma.core import degenerate_beta_classical
from degamma.errors import DomainError, ParameterRangeError, PoleError
from degamma.representations import (
    ProductSpec,
    _paired_log_sum,
    degenerate_beta_product,
    euler_limit_gamma,
    sine_product,
    weierstrass_gamma,
)
from helpers import mp_dgamma, sample_regular


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def closed(s, p):
    return degenerate_gamma(s, p).value


class TestWeierstrass:
    def test_unit_argument(self):
        p = DegenerateParameter(0.5)
        res = weierstrass_gamma(1.0, p, ProductSpec(n_terms=10**6))
        assert abs(res.value - 2.0) <= 1e-5

    def test_half_argument(self):
        p = DegenerateParameter(0.5)
        res = weierstrass_gamma(0.5, p, ProductSpec(n_terms=10**6))
        assert abs(res.value - math.sqrt(2.0) * math.pi / 2.0) <= 1e-5

    def test_complex_argument_tail_corrected(self):
        p = DegenerateParameter(0.3)
        z = 1.0 + 2.0j
        res = weierstrass_gamma(
            z, p, ProductSpec(n_terms=10**5, use_tail_correction=True)
        )
        assert rel(res.value, closed(z, p)) <= 1e-6

    def test_both_forms_agree(self):
        p = DegenerateParameter(0.3)
        spec = ProductSpec(n_terms=10**4)
        for z in (0.7, 1.0 + 2.0j, 0.5 - 0.25j):
            main = weierstrass_gamma(z, p, spec)
            paired = weierstrass_gamma(z, p, spec, euler_constant_form=True)
            assert rel(main.value, paired.value) <= 1e-12

    def test_pole_rejected(self):
        p = DegenerateParameter(0.5)
        with pytest.raises(PoleError):
            weierstrass_gamma(0.0, p, ProductSpec(n_terms=100))
        with pytest.raises(PoleError):
            weierstrass_gamma(2.0, p, ProductSpec(n_terms=100))

    def test_truncation_monotonic_with_slope(self):
        p = DegenerateParameter(0.4)
        z = 0.8 + 0.3j
        target = closed(z, p)
        ns = [10**3, 10**4, 10**5, 10**6]
        errors = [
            rel(weierstrass_gamma(z, p, ProductSpec(n_terms=n)).value, target)
            for n in ns
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        slope = np.polyfit(np.log10(ns), np.log10(errors), 1)[0]
        assert -1.3 <= slope <= -0.7

    def test_tail_correction_improves(self):
        p = DegenerateParameter(0.4)
        z = 0.8 + 0.3j
        target = closed(z, p)
        raw = weierstrass_gamma(z, p, ProductSpec(n_terms=10**4))
        fixed = weierstrass_gamma(
            z, p, ProductSpec(n_terms=10**4, use_tail_correction=True)
        )
        assert rel(fixed.value, target) < 1e-2 * rel(raw.value, target)


class TestEulerLimit:
    def test_unit_argument(self):
        p = DegenerateParameter(0.5)
        res = euler_limit_gamma(1.0, p, ProductSpec(n_terms=10**5))
        assert abs(res.value - 2.0) <= 1e-4

    def test_two_quarter(self):
        p = DegenerateParameter(0.25)
        res = euler_limit_gamma(2.0, p, ProductSpec(n_terms=10**5))
        assert abs(res.value - 8.0 / 3.0) <= 1e-3

    def test_cauchy_self_consistency(self):
        p = DegenerateParameter(0.5)
        z = 0.5 + 1.0j
        v1 = euler_limit_gamma(z, p, ProductSpec(n_terms=5 * 10**4)).value
        v2 = euler_limit_gamma(z, p, ProductSpec(n_terms=10**5)).value
        v4 = euler_limit_gamma(z, p, ProductSpec(n_terms=2 * 10**5)).value
        assert rel(v2, v4) < rel(v1, v2) * 1.2
        assert rel(v2, v4) <= 2e-5

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            euler_limit_gamma(-2.0, DegenerateParameter(0.3))


class TestPathAgreementHonesty:
    def test_estimates_cover_actual_error(self):
        rng = np.random.default_rng(77)
        spec = ProductSpec(n_terms=10**4)
        dishonest = 0
        total = 0
        for _ in range(100):
            lam = rng.uniform(0.45, 0.9)
            p = DegenerateParameter(lam)
            z = sample_regular(rng, p, (0.2, 1.4), 0.6, min_dist=0.1)
            target = closed(z, p)
            for res in (
                weierstrass_gamma(z, p, spec),
                euler_limit_gamma(z, p, spec),
            ):
                total += 1
                if abs(res.value - target) > res.abs_error_estimate:
                    dishonest += 1
        assert dishonest <= 0.05 * total


class TestSineProduct:
    def test_half(self):
        assert abs(sine_product(0.5, 10**6) - math.pi / 2.0) <= 1e-5

    def test_zero(self):
        assert sine_product(0.0, 100) == 1.0

    def test_quarter(self):
        expected = math.pi * math.sqrt(2.0) / 4.0
        assert abs(sine_product(0.25, 10**6) - expected) <= 1e-5

    def test_integer_pole(self):
        with pytest.raises(PoleError):
            sine_product(3.0, 100)
        with pytest.raises(PoleError):
            sine_product(-1.0, 100)

    def test_error_constant_stable_across_truncations(self):
        z = 0.6 + 0.2j
        target = math.pi * z / sin_pi(z)
        cs = []
        for n in (10**4, 10**5, 10**6):
            cs.append(abs(sine_product(z, n) - target) * n)
        assert max(cs) / min(cs) <= 1.5

    def test_general_z(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            if abs(z.real - round(z.real)) < 0.2 and abs(z.imag) < 0.2:
                continue
            target = math.pi * z / sin_pi(z)
            n = 10**5
            assert rel(sine_product(z, n), target) <= 3 * (abs(z) ** 2 + 1) / n

    @pytest.mark.parametrize(
        "z",
        [complex(math.nan, 0.0), complex(math.inf, 0.0),
         complex(0.0, math.nan), complex(0.5, math.inf)],
    )
    def test_non_finite_raises_domain_error(self, z):
        with pytest.raises(DomainError):
            sine_product(z, 100)


@pytest.mark.parametrize("evaluate", [
    lambda z, p: weierstrass_gamma(z, p),
    lambda z, p: euler_limit_gamma(z, p),
    lambda z, p: degenerate_beta_product(z, 0.3, p),
    lambda z, p: sine_product(z, 100),
], ids=["weierstrass_gamma", "euler_limit_gamma", "degenerate_beta_product", "sine_product"])
def test_products_refuse_a_huge_argument(evaluate):
    # the term count 8 max(|z|, |u - z|) passes the largest float; this raised
    # a raw OverflowError from math.ceil, where the closed form refuses the point
    with pytest.raises(DomainError, match="too large in modulus"):
        evaluate(1e308 + 1j, DegenerateParameter(0.5))


class TestHugeTruncation:
    """N = 1e12: the far tail is summed in closed form, so this is cheap."""

    N = 10**12

    @pytest.mark.parametrize("lam", [0.4, 0.7])
    @pytest.mark.parametrize("z", [0.8 + 0.3j, -2.5 + 0.5j])
    def test_gamma_products_within_estimate(self, z, lam):
        p = DegenerateParameter(lam)
        target = closed(z, p)
        spec = ProductSpec(n_terms=self.N)
        for res in (weierstrass_gamma(z, p, spec), euler_limit_gamma(z, p, spec)):
            assert abs(res.value - target) <= res.abs_error_estimate, res.method

    def test_sine_half(self):
        assert abs(sine_product(0.5, self.N) - math.pi / 2.0) <= 1e-11


class TestWeierstrassRoundingFloor:
    """The estimate keeps a rounding floor once the tail bound falls below it."""

    @pytest.mark.parametrize("n_terms", [10**6, 10**12])
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("lam,z", [(0.4, 0.8 + 0.3j), (0.7, -2.5 + 0.5j)])
    def test_estimate_covers_true_error(self, lam, z, corrected, n_terms):
        p = DegenerateParameter(lam)
        spec = ProductSpec(n_terms=n_terms, use_tail_correction=corrected)
        res = weierstrass_gamma(z, p, spec)
        assert abs(res.value - closed(z, p)) <= res.abs_error_estimate


class TestUnderflowedValueEstimate:
    def test_infinite_relative_estimate_stays_infinite(self):
        # the value underflows to 0 and one term leaves the tail bound infinite
        p = DegenerateParameter(0.19015)
        spec = ProductSpec(n_terms=1, use_tail_correction=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = weierstrass_gamma(54.9 - 0.21j, p, spec)
        assert res.value == 0.0
        assert res.abs_error_estimate == math.inf


class TestBetaProduct:
    def test_unit_arguments(self):
        p = DegenerateParameter(0.25)
        res = degenerate_beta_product(1, 1, p, ProductSpec(n_terms=10**6))
        assert abs(res.value - 2.0 / 3.0) <= 1e-4

    def test_integer_case(self):
        p = DegenerateParameter(0.1)
        res = degenerate_beta_product(2, 1, p, ProductSpec(n_terms=10**6))
        target = degenerate_beta(2, 1, p).value  # 7/18 up to rounding of 0.1
        assert abs(res.value - target) <= 1e-4

    def test_half_arguments_cross_path(self):
        p = DegenerateParameter(0.25)
        res = degenerate_beta_product(0.5, 0.5, p, ProductSpec(n_terms=10**6))
        target = degenerate_beta(0.5, 0.5, p).value
        assert rel(res.value, target) <= 1e-4

    def test_sum_at_pole_gives_zero(self):
        p = DegenerateParameter(0.5)
        res = degenerate_beta_product(1, 1, p, ProductSpec(n_terms=100))
        assert res.value == 0.0
        assert res.note is not None

    def test_pole_rejected(self):
        p = DegenerateParameter(0.25)
        with pytest.raises(PoleError):
            degenerate_beta_product(-1.0, 1.0, p, ProductSpec(n_terms=100))


class TestBetaProductRoundingFloor:
    """At N = 1e18 the truncation bound is far below rounding; the floor is not."""

    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize(
        "a,b", [(0.7 + 0.3j, 1.2 - 0.5j), (0.4 + 0.8j, 0.9 + 0.2j), (2.5 + 1j, 1.5 - 0.7j)]
    )
    def test_estimates_cover_the_gap_to_the_ratio(self, a, b, lam):
        p = DegenerateParameter(lam)
        res = degenerate_beta_product(a, b, p, ProductSpec(n_terms=10**18))
        ref = degenerate_beta(a, b, p)
        gap = abs(res.value - ref.value)
        assert gap <= res.abs_error_estimate + ref.abs_error_estimate


class TestPoleErrorsNameThePole:
    """Every argument check reports the pole itself and the argument's name."""

    LAM = 0.25  # poles at 0, -1, -2, ... and 4, 5, 6, ...

    @pytest.mark.parametrize("pole", [0.0, -2.0, 4.0, 5.0])
    @pytest.mark.parametrize("offset", [1e-9, -1e-9, 1e-9j])
    @pytest.mark.parametrize("evaluate,name", [
        (lambda w, p: degenerate_beta(w, 0.5, p), "alpha"),
        (lambda w, p: degenerate_beta_classical(0.5, w, p), "beta"),
        (lambda w, p: degenerate_beta_product(w, 0.5, p, ProductSpec(100)), "alpha"),
        (lambda w, p: degenerate_beta_product(0.5, w, p, ProductSpec(100)), "beta"),
        (lambda w, p: weierstrass_gamma(w, p, ProductSpec(100)), "z"),
        (lambda w, p: euler_limit_gamma(w, p, ProductSpec(100)), "z"),
    ])
    def test_location_is_the_pole(self, evaluate, name, pole, offset):
        p = DegenerateParameter(self.LAM)
        with pytest.raises(PoleError) as exc:
            evaluate(pole + offset, p)
        assert exc.value.location == complex(pole, 0.0)
        assert exc.value.argument_name == name


_HUGE_N_PATHS = {
    "weierstrass": lambda p, n: weierstrass_gamma(1.5 + 0.5j, p, ProductSpec(n)),
    "weierstrass-tail": lambda p, n: weierstrass_gamma(
        1.5 + 0.5j, p, ProductSpec(n, use_tail_correction=True)),
    "euler-limit": lambda p, n: euler_limit_gamma(1.5 + 0.5j, p, ProductSpec(n)),
    "beta-product": lambda p, n: degenerate_beta_product(1.5 + 0.5j, 0.3, p, ProductSpec(n)),
}


class TestHugeN:
    """N runs up to the largest float, and is refused past it."""

    @pytest.mark.parametrize("n_terms", [10**200, int(sys.float_info.max)],
                             ids=["1e200", "float-max"])
    @pytest.mark.parametrize("path", _HUGE_N_PATHS, ids=str)
    def test_within_estimate_of_the_closed_form(self, path, n_terms):
        p = DegenerateParameter(0.5)
        res = _HUGE_N_PATHS[path](p, n_terms)
        ref = (degenerate_beta(1.5 + 0.5j, 0.3, p) if path == "beta-product"
               else degenerate_gamma(1.5 + 0.5j, p))
        assert abs(res.value - ref.value) <= res.abs_error_estimate + ref.abs_error_estimate

    def test_sine_product(self):
        assert abs(sine_product(0.5, 10**200) - math.pi / 2.0) <= 1e-14

    @pytest.mark.parametrize("path", _HUGE_N_PATHS, ids=str)
    def test_past_the_largest_float_refused(self, path):
        with pytest.raises(ParameterRangeError, match="^ProductSpec: n_terms is past "):
            _HUGE_N_PATHS[path](DegenerateParameter(0.5), 10**400)

    def test_refused_by_every_builder(self):
        with pytest.raises(ParameterRangeError):
            ProductSpec(10)._replace(n_terms=10**400)
        with pytest.raises(ParameterRangeError, match="^sine_product: n_terms is past "):
            sine_product(0.5, 10**400)


class TestProductSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProductSpec(n_terms=0)

    @pytest.mark.parametrize("n_terms", [math.nan, 2.5, 10.5, 1e5 + 0.5])
    def test_fractional_or_nan_count_is_refused(self, n_terms):
        # NaN gave nan+nanj with status regular, a fraction a raw TypeError
        with pytest.raises(ValueError, match="^ProductSpec: n_terms must be >= 1 and whole$"):
            ProductSpec(n_terms=n_terms)
        with pytest.raises(ValueError, match="n_terms"):
            ProductSpec()._replace(n_terms=n_terms)
        with pytest.raises(ValueError, match="^sine_product: n_terms must be >= 1 and whole$"):
            sine_product(0.5 + 0.25j, n_terms)

    @pytest.mark.parametrize("n_terms", [10, 10**5])
    def test_whole_float_count_serves_every_product(self, n_terms):
        # a whole float is kept as an int; euler_limit_gamma and the beta
        # product took only ints, weierstrass_gamma's direct form too
        spec, int_spec = ProductSpec(n_terms=float(n_terms)), ProductSpec(n_terms=n_terms)
        assert type(spec.n_terms) is int and spec == int_spec
        p = DegenerateParameter(0.5)
        z = 0.7 + 0.2j
        for path in (weierstrass_gamma, euler_limit_gamma):
            assert path(z, p, spec) == path(z, p, int_spec)
        assert weierstrass_gamma(z, p, spec, True) == weierstrass_gamma(z, p, int_spec, True)
        assert (degenerate_beta_product(0.7, 0.4, p, spec)
                == degenerate_beta_product(0.7, 0.4, p, int_spec))
        assert sine_product(z, float(n_terms)) == sine_product(z, n_terms)


def _mp_paired_log_sum(mp, x, u, n_terms):
    """40-digit sum_{n=1}^{N} log((1 + x/n)(1 + (u - x)/n)), up to 2*pi*i.

    prod_{n=1}^{N} (1 + x/n) = Gamma(N + 1 + x) / (Gamma(1 + x) N!).
    """
    x, u = mp.mpc(x), mp.mpf(u)
    return sum(
        mp.loggamma(n_terms + 1 + t) - mp.loggamma(1 + t) - mp.loggamma(n_terms + 1)
        for t in (x, u - x)
    )


def _log_gap(got, ref):
    """|got - ref| for logs, with the imaginary gap reduced mod 2*pi."""
    d = complex(got) - complex(ref)
    return abs(complex(d.real, math.remainder(d.imag, 2.0 * math.pi)))


class TestValueBoundFromLogBound:
    """|error| <= abs_error_estimate against 40-digit mpmath just past the head.

    A log error of at most eps moves the value by up to (e**eps - 1) |value|,
    well above eps |value| where eps is of order 1.
    """

    @pytest.mark.parametrize("path, z, lam, n", [
        (weierstrass_gamma, -5.6, 0.9, 14),
        (euler_limit_gamma, -7.3 + 2j, 0.45, 21),
        (euler_limit_gamma, -7.3 + 2j, 0.45, 64),
        (euler_limit_gamma, -3.001, 0.85, 10),
    ])
    def test_estimate_bounds_the_error(self, mp, path, z, lam, n):
        res = path(z, DegenerateParameter(lam), ProductSpec(n_terms=n))
        assert abs(res.value - complex(mp_dgamma(mp, z, lam))) <= res.abs_error_estimate


class TestPairedSumPrecision:
    """The paired log-sum kernel against 40-digit truncated products."""

    N = 2000
    LAM = 0.3

    def arguments(self, u):
        return [
            -2.0 + 1e-6, -3.0 + 1e-6j, u + 1.0 + 1e-6, u + 1.0 - 1e-6j,
            -0.5, -7.3, -40.25,
            0.5 + 20.0j, 1.0 - 20.0j, 3.0 + 7.0j,
        ]

    def test_weierstrass(self, mp):
        p = DegenerateParameter(self.LAM)
        u = p.inv_lambda
        for z in self.arguments(u):
            z = complex(z)
            res = weierstrass_gamma(z, p, ProductSpec(n_terms=self.N))
            zz = mp.mpc(z)
            ref = (
                -zz * mp.log(mp.mpf(p.lam)) - mp.log(zz) - mp.log(u - zz)
                - mp.loggamma(mp.mpf(u)) + u * mp.log(self.N + 1)
                - _mp_paired_log_sum(mp, z, u, self.N)
            )
            assert _log_gap(res.log_value, ref) <= 1e-13, z

    def test_sine(self, mp):
        for z in self.arguments(0.0)[:-3] + [0.5 + 6.0j, 0.25 - 6.5j]:
            z = complex(z)
            ref = -_mp_paired_log_sum(mp, z, 0.0, self.N)
            assert _log_gap(cmath.log(sine_product(z, self.N)), ref) <= 1e-13, z

    # 50 takes H_N as a direct sum, 2000 from its asymptotic series
    @pytest.mark.parametrize("n_terms", [50, 2000])
    def test_beta(self, mp, n_terms):
        p = DegenerateParameter(self.LAM)
        u = p.inv_lambda
        pairs = [
            (-2.0 + 1e-6, 0.4 + 0.2j), (-3.0 + 1e-6j, 1.5), (u + 1.0 + 1e-6, 0.3),
            (-3.5, 1.25), (-7.3, -0.4), (0.3 + 20.0j, 0.2 - 5.0j),
        ]
        for a, b in pairs:
            a, b = complex(a), complex(b)
            res = degenerate_beta_product(a, b, p, ProductSpec(n_terms=n_terms))
            ma, mb, mu = mp.mpc(a), mp.mpc(b), mp.mpf(u)
            ref = (
                mu * (mp.harmonic(n_terms) - mp.euler)
                + mp.log(ma + mb) + mp.log(mu - ma - mb) - mp.loggamma(mu)
                - mp.log(ma) - mp.log(mb) - mp.log(mu - ma) - mp.log(mu - mb)
                + _mp_paired_log_sum(mp, a + b, u, n_terms)
                - _mp_paired_log_sum(mp, a, u, n_terms)
                - _mp_paired_log_sum(mp, b, u, n_terms)
            )
            assert _log_gap(res.log_value, ref) <= 1e-13, (a, b)

    def test_euler_limit_level_value_and_estimate(self, mp):
        n = 3000
        for lam, z in ((0.3, 0.7 + 0.4j), (0.45, -2.5 + 0.5j), (0.7, 1.1 - 3.0j)):
            p = DegenerateParameter(lam)
            res = euler_limit_gamma(z, p, ProductSpec(n_terms=n))
            zz, mu, ml = mp.mpc(z), mp.mpf(p.inv_lambda), mp.mpf(p.lam)
            ww = mu - zz
            # lam**(-z)/Gamma(u) * n**u * ((n-1)!)**2 * Gamma(z) Gamma(w)
            #   / (Gamma(z + n) Gamma(w + n))
            level = mp.exp(
                -zz * mp.log(ml) - mp.loggamma(mu) + mu * mp.log(n)
                + 2 * mp.loggamma(n) + mp.loggamma(zz) + mp.loggamma(ww)
                - mp.loggamma(zz + n) - mp.loggamma(ww + n)
            )
            assert abs(res.value - complex(level)) <= 1e-13 * abs(level), z
            limit = complex(
                ml ** (-zz) * mp.gamma(zz) * mp.gamma(ww) / mp.gamma(mu)
            )
            assert abs(res.value - limit) <= res.abs_error_estimate, z


class TestEulerLimitBeforeHead:
    """Before n - 1 >= 2 max(|z|, |u - z|, 1) the level gap bounds nothing."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_levels_report_inf(self, mp, n):
        # The gap said 0.050 and 0.097 here, against errors near 832.
        p = DegenerateParameter(0.85)
        z = -3.001
        res = euler_limit_gamma(z, p, ProductSpec(n_terms=n))
        zz, mu, ml = mp.mpf(z), mp.mpf(p.inv_lambda), mp.mpf(p.lam)
        limit = complex(ml ** (-zz) * mp.gamma(zz) * mp.gamma(mu - zz) / mp.gamma(mu))
        assert abs(res.value - limit) <= res.abs_error_estimate
        assert res.abs_error_estimate == math.inf

    def test_head_level_uses_the_gap(self):
        p = DegenerateParameter(0.85)
        z = -3.001
        head = math.ceil(2.0 * abs(p.inv_lambda - z)) + 1  # n - 1 = 2 |u - z|
        before = euler_limit_gamma(z, p, ProductSpec(n_terms=head - 1))
        at = euler_limit_gamma(z, p, ProductSpec(n_terms=head))
        assert before.abs_error_estimate == math.inf
        assert math.isfinite(at.abs_error_estimate)


class TestEulerMaclaurinTail:
    """The paired sum's closed-form far tail against 40-digit truncated sums.

    hi runs through M - 1, M and M + 1, where M is the first n the
    Euler-Maclaurin stretch takes, and on to N + 1 for N = 1e5 and 1e6.
    """

    @pytest.mark.parametrize("u", [0.0, 1.0 / 0.3, 100.0])
    def test_against_truncated_sums(self, mp, u):
        eps = np.finfo(float).eps
        for x in (-2.0 + 1e-6, u + 1.0 - 1e-6j, -150.5 + 3.0j, 0.5 + 250.0j):
            x = complex(x)
            m = max(32, math.ceil(8.0 * max(abs(x), abs(u - x), 1.0)))
            for hi in (m - 1, m, m + 1, 10**5 + 1, 10**6 + 1):
                n_terms = hi - 1
                got = _paired_log_sum(x, u, 1, hi)
                ref = _mp_paired_log_sum(mp, x, u, n_terms)
                bound = 8 * eps * max(1.0, abs(complex(ref)), u * math.log(n_terms))
                assert _log_gap(got, ref) <= bound, (x, hi)
                # same branch as summing every term
                direct = _paired_log_sum(x, u, 1, hi, direct=True)
                assert abs(got.imag - direct.imag) < 1.0, (x, hi)


def _reference_paired_sum(x, u, lo, hi):
    """sum_{lo <= n < hi} of the paired terms, by the elementwise formulas the one pass replaced.

    Terms n <= n0 = ceil(2 max(|x|, |u - x|, 1)) take np.log1p of each factor
    (c / n in numpy's complex division, as there), the others the fused real
    log1p and arctan2 of the pair; the parts are added by math.fsum.  Returns
    the sum and the magnitude sum of the factors' logs, which the one pass adds.
    """
    y = u - x
    q = x * y
    split = max(lo, min(hi, math.ceil(2.0 * max(abs(x), abs(y), 1.0)) + 1))
    terms, size = [], 0.0
    for n in range(lo, hi):
        factors = [complex(np.log1p(np.complex128(c) / n)) for c in (x, y)]
        size += abs(factors[0]) + abs(factors[1])
        if n < split:
            terms += factors
        else:
            r = 1.0 / n
            tr = (u + q.real * r) * r
            ti = q.imag * r * r
            terms.append(complex(0.5 * math.log1p(tr * (2.0 + tr) + ti * ti),
                                 math.atan2(ti, 1.0 + tr)))
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)), size


def _short_stretch_draws(seed, count):
    """(x, u, kind) with the Euler-Maclaurin start M at most _SHORT + 1.

    Two thirds are regular, over the products' arguments at lambda in
    (0.1, 0.9) and one u = 0 in ten (the sine product); a third put one
    factor 1e-6 to 1e-2 from a pole, x or u - x next to -k, k = 1..10.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(count):
        u = 0.0 if i % 10 == 0 else 1.0 / rng.uniform(0.1, 0.9)
        if i % 3:
            draws.append((complex(rng.uniform(-2.5, 2.5), rng.uniform(-1.0, 1.0)), u, "regular"))
            continue
        w = -float(rng.integers(1, 11)) + 10.0 ** rng.uniform(-6.0, -2.0) * cmath.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi))
        draws.append((w if rng.random() < 0.5 else u - w, u, "pole"))
    return draws


def _em_start(x, u):
    return max(32, math.ceil(8.0 * max(abs(x), abs(u - x), 1.0)))


class TestOnePassStretch:
    """Every term below the Euler-Maclaurin start M <= _SHORT + 1 is one log1p pass."""

    def test_matches_the_elementwise_sum(self):
        # the one pass reassociates the head's and the fused tail's terms; 64
        # eps of the terms' magnitude sum bounds what that may move
        tol = 64 * np.finfo(float).eps
        rng = np.random.default_rng(29)
        for x, u, _ in _short_stretch_draws(28, 240):
            m = _em_start(x, u)
            assert m <= representations._SHORT + 1
            for lo in (1, int(rng.integers(1, m + 1))):
                want, size = _reference_paired_sum(x, u, lo, m)
                assert abs(_paired_log_sum(x, u, lo, m) - want) <= tol * size, (x, u, lo)

    def test_against_mpmath(self, mp):
        # 1e-14 on regular draws; next to a pole the input's conditioning sets
        # the error, and the one pass adds no more than its reassociation
        tol = 64 * np.finfo(float).eps
        for x, u, kind in _short_stretch_draws(31, 210):
            m = _em_start(x, u)
            ref = _mp_paired_log_sum(mp, x, u, m - 1)
            err = _log_gap(_paired_log_sum(x, u, 1, m), ref)
            if kind == "regular":
                assert err <= 1e-14, (x, u, err)
            else:
                want, size = _reference_paired_sum(x, u, 1, m)
                assert err <= _log_gap(want, ref) + tol * size, (x, u, err)


def test_paired_sum_over_the_product_domain_is_one_log1p_pass(monkeypatch):
    # at N = 1e12 over the domain verify's product rows draw from, each sum
    # is one np.log1p pass and the Euler-Maclaurin stretch; the fused tail's
    # np.arctan2 never runs
    calls = collections.Counter()

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return getattr(np, name)(*args, **kwargs)
        return call

    monkeypatch.setattr(representations, "np", SimpleNamespace(
        **{**vars(np), "log1p": counted("log1p"), "arctan2": counted("arctan2")}))
    rng = np.random.default_rng(14)
    for _ in range(40):
        s, p = verify._product_domain(rng)
        _paired_log_sum(s, p.inv_lambda, 1, 10**12 + 1)
    assert calls == {"log1p": 40}
