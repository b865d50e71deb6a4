"""The truncated gamma products' shared log and tail bound, and real values
at real arguments on the product and beta paths."""

import cmath
import math

import pytest

from degamma.core import DegenerateParameter, degenerate_beta, degenerate_beta_classical
from degamma.representations import (
    ProductSpec,
    _tail_bound,
    _tail_sums,
    degenerate_beta_product,
    euler_limit_gamma,
    weierstrass_gamma,
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestEulerLimitIsTheWeierstrassSum:
    """euler_limit_gamma at level n is weierstrass_gamma at N = n - 1."""

    @pytest.mark.parametrize("lam", [0.3, 0.7])
    @pytest.mark.parametrize("n", [2, 3, 10, 10**3, 10**6, 10**12])
    def test_levels_agree(self, lam, n):
        p = DegenerateParameter(lam)
        for z in (0.8 + 0.3j, -2.5 + 0.5j, -2 + 1e-6, p.inv_lambda + 1 + 1e-6):
            euler = euler_limit_gamma(z, p, ProductSpec(n_terms=n)).value
            weier = weierstrass_gamma(z, p, ProductSpec(n_terms=n - 1)).value
            assert rel(euler, weier) <= 1e-13, z


class TestTailBound:
    """_tail_bound against the three separate bounds it replaced, bit for bit."""

    @staticmethod
    def weierstrass(z, w, p, n_terms):
        n0 = 2.0 * max(abs(z), abs(w), 1.0)
        if n_terms < n0:
            return math.inf
        return (abs(z) ** 2 + abs(w) ** 2 + p.inv_lambda) / n_terms

    @staticmethod
    def corrected(z, w, p, n_terms):
        n0 = 2.0 * max(abs(z), abs(w), 1.0)
        if n_terms < n0:
            return math.inf
        bound4 = (abs(z) ** 4 + abs(w) ** 4 + p.inv_lambda) / (4.0 * n_terms**3)
        return 2.0 * bound4

    @staticmethod
    def beta(a, b, u, n_terms):
        ab, uab = a + b, u - a - b
        sq = (
            abs(ab) ** 2
            + abs(uab) ** 2
            + abs(a) ** 2
            + abs(u - a) ** 2
            + abs(b) ** 2
            + abs(u - b) ** 2
        )
        n0 = 2.0 * max(abs(ab), abs(uab), abs(a), abs(b), abs(u - a), abs(u - b), 1.0)
        return sq / n_terms if n_terms >= n0 else math.inf

    @staticmethod
    def levels(n0):
        # one below the head bound (inf there), at it, and above it
        return (n0 - 1, n0, n0 + 1, 10 * n0, 10**6, 10**12)

    @pytest.mark.parametrize("lam", [0.5, 0.3])
    def test_gamma_products(self, lam):
        p = DegenerateParameter(lam)
        u = p.inv_lambda
        for z in (3 + 4j, -4.5 + 0.0j, u + 6.0):
            w = u - z
            n0 = 2.0 * max(abs(z), abs(w), 1.0)
            for n_terms in self.levels(math.ceil(n0)):
                got = _tail_bound((z, w), u, n_terms, 2)
                assert got == self.weierstrass(z, w, p, n_terms), (z, n_terms)
                got = 0.5 * _tail_bound((z, w), u, n_terms, 4)
                assert got == self.corrected(z, w, p, n_terms), (z, n_terms)
                assert math.isinf(got) == (n_terms < n0)

    def test_beta_product(self):
        u = 2.0
        for a, b in ((-3.5 + 0j, 0.25 + 0j), (3 + 4j, 0.5 - 0.5j)):
            ab = a + b
            n0 = 2.0 * max(abs(ab), abs(u - ab), abs(a), abs(b), abs(u - a),
                           abs(u - b), 1.0)
            for n_terms in self.levels(math.ceil(n0)):
                got = _tail_bound((ab, u - ab, a, u - a, b, u - b), 0.0, n_terms, 2)
                assert got == self.beta(a, b, u, n_terms), (a, b, n_terms)
                assert math.isinf(got) == (n_terms < n0)

    def test_correction_is_the_analytic_tail(self):
        # the corrected form adds c2 s2 + c3 s3 to the plain form's log value
        p = DegenerateParameter(0.3)
        u = p.inv_lambda
        for z in (0.8 + 0.3j, -2.5 + 0.5j):
            w = u - z
            s2, s3 = _tail_sums(1000)
            c2 = (z**2 + w**2 - u) / 2.0
            c3 = (u - z**3 - w**3) / 3.0
            spec = ProductSpec(n_terms=1000)
            plain = weierstrass_gamma(z, p, spec).log_value
            spec = ProductSpec(n_terms=1000, use_tail_correction=True)
            corrected = weierstrass_gamma(z, p, spec).log_value
            assert abs(corrected - plain - (c2 * s2 + c3 * s3)) <= 1e-14 * abs(plain)


class TestRealArgumentsGiveRealValues:
    """Real arguments give real values, on both sides of both pole families."""

    LAM = 0.3

    @staticmethod
    def check(res):
        assert res.value.imag == 0.0
        log = res.log_value
        assert res.value.real == math.copysign(math.exp(log.real), math.cos(log.imag))

    def gamma_points(self):
        u = 1.0 / self.LAM
        for x in (0.6, -0.5, -1.3, -0.8, -2 + 1e-6, -2 - 1e-6,
                  u - 0.5, u + 0.7, u + 1.3, u + 1 + 1e-6, u + 1 - 1e-6):
            yield x
            yield complex(x, -0.0)

    def beta_points(self):
        u = 1.0 / self.LAM
        return ((-1.3, 0.6), (0.6, u + 0.7), (-0.5, -1.7), (u + 0.4, u + 1.3),
                (2.2, -0.8), (-2 - 1e-6, 0.3), (complex(-1.3, -0.0), 0.6))

    def test_gamma_products(self):
        p = DegenerateParameter(self.LAM)
        for z in self.gamma_points():
            for path in (weierstrass_gamma, euler_limit_gamma):
                self.check(path(z, p))

    @pytest.mark.parametrize(
        "path", [degenerate_beta, degenerate_beta_classical, degenerate_beta_product]
    )
    def test_beta_paths(self, path):
        p = DegenerateParameter(self.LAM)
        for a, b in self.beta_points():
            self.check(path(a, b, p))

    def test_reported_point(self):
        p = DegenerateParameter(self.LAM)
        for res in (degenerate_beta(-1.3, 0.6, p), weierstrass_gamma(-1.3, p)):
            assert res.value.imag == 0.0
            assert res.value.real == cmath.exp(res.log_value).real
