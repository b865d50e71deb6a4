"""Tests for the product and limit representations."""

import cmath
import math

import numpy as np
import pytest

from degamma.classical import sin_pi
from degamma.core import DegenerateParameter, degenerate_beta, degenerate_gamma
from degamma.core import degenerate_beta_classical
from degamma.errors import ConvergenceError, DomainError, PoleError
from degamma.representations import (
    ProductSpec,
    _paired_log_sum,
    degenerate_beta_product,
    euler_limit_gamma,
    sine_product,
    weierstrass_gamma,
)
from test_core import sample_regular


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

    def test_convergence_error_when_tolerance_unreachable(self):
        p = DegenerateParameter(0.5)
        with pytest.raises(ConvergenceError):
            weierstrass_gamma(
                0.7, p, ProductSpec(n_terms=100, tolerance=1e-12)
            )

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


class TestProductSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProductSpec(n_terms=0)
        with pytest.raises(ValueError):
            ProductSpec(n_terms=10, tolerance=-1.0)


@pytest.fixture
def mp():
    """mpmath at 40 digits; the tests using it skip when it is missing."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


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
