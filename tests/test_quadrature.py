"""Tests for the quadrature spec, the defining integral, and the Hankel loop."""

import cmath
import math
import sys
import threading

import numpy as np
import pytest

from degamma import quadrature
from degamma.core import DegenerateParameter, EvalStatus, degenerate_gamma, nearest_pole
from degamma.errors import (
    ConvergenceError,
    DomainError,
    IntegerArgumentError,
    ParameterRangeError,
    StripError,
)
from degamma.quadrature import (
    QuadratureSpec,
    direct_integral_gamma,
    hankel_gamma,
    hankel_gamma_reflected,
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def closed(s, p):
    return degenerate_gamma(s, p).value


class TestEngine:
    """QuadratureSpec, which sets the Clenshaw-Curtis ladder's tolerance and depth."""

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tolerance=1e-15)
        with pytest.raises(ValueError):
            QuadratureSpec(hankel_radius=1.5)


class TestDirectIntegral:
    def test_unit(self):
        p = DegenerateParameter(0.5)
        res = direct_integral_gamma(1.0, p)
        assert rel(res.value, 2.0) <= 1e-12

    def test_half(self):
        p = DegenerateParameter(0.5)
        res = direct_integral_gamma(0.5, p)
        assert rel(res.value, math.sqrt(2.0) * math.pi / 2.0) <= 1e-11

    def test_mid_strip(self):
        p = DegenerateParameter(0.25)
        res = direct_integral_gamma(2.5, p)
        assert rel(res.value, closed(2.5, p)) <= 1e-10

    def test_strip_error(self):
        p = DegenerateParameter(0.5)
        with pytest.raises(StripError):
            direct_integral_gamma(-0.5, p)
        with pytest.raises(StripError):
            direct_integral_gamma(2.5, p)

    def test_strip_agreement_sampled(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            lam = rng.uniform(0.1, 0.9)
            p = DegenerateParameter(lam)
            s = complex(
                rng.uniform(0.1, p.inv_lambda - 0.1), rng.uniform(-2.0, 2.0)
            )
            res = direct_integral_gamma(s, p)
            target = closed(s, p)
            assert abs(res.value - target) <= max(
                1e-10 * abs(target), 10.0 * res.abs_error_estimate
            )


class TestHankel:
    def test_half_half(self):
        p = DegenerateParameter(0.5)
        res = hankel_gamma(0.5, p)
        assert rel(res.value, math.sqrt(2.0) * math.pi / 2.0) <= 1e-11

    def test_three_halves_quarter(self):
        p = DegenerateParameter(0.25)
        res = hankel_gamma(1.5, p)
        assert rel(res.value, closed(1.5, p)) <= 1e-11

    def test_integer_rejected(self):
        p = DegenerateParameter(0.3)
        for s in (1.0, 2.0, 0.0, -1.0):
            with pytest.raises(IntegerArgumentError):
                hankel_gamma(s, p)
            with pytest.raises(IntegerArgumentError):
                hankel_gamma_reflected(s, p)

    def test_above_strip_rejected(self):
        p = DegenerateParameter(0.5)
        with pytest.raises(StripError):
            hankel_gamma(2.5, p)

    def test_reflected_agrees(self):
        p = DegenerateParameter(0.5)
        a = hankel_gamma(0.5, p).value
        b = hankel_gamma_reflected(0.5, p).value
        assert rel(a, b) <= 1e-12

    def test_reflected_complex_point(self):
        p = DegenerateParameter(0.3)
        s = 0.5 + 0.5j
        res = hankel_gamma_reflected(s, p)
        assert rel(res.value, closed(s, p)) <= 1e-11

    def test_delta_independence(self):
        p = DegenerateParameter(0.3)
        s = 0.7 - 0.4j
        values = [
            hankel_gamma(s, p, QuadratureSpec(hankel_radius=d)).value
            for d in (0.1, 0.3, 0.5)
        ]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert rel(values[i], values[j]) <= 1e-12

    def test_continuation_left_of_strip(self):
        # the loop realization continues the function to Re(s) <= 0
        rng = np.random.default_rng(23)
        for _ in range(10):
            lam = rng.uniform(0.25, 0.75)
            p = DegenerateParameter(lam)
            while True:
                s = complex(rng.uniform(-1.9, -0.1), rng.uniform(-1.0, 1.0))
                d, _, _ = nearest_pole(s, p)
                if d >= 0.1 and abs(s.real - round(s.real)) >= 0.1:
                    break
            res = hankel_gamma(s, p)
            assert rel(res.value, closed(s, p)) <= 1e-11

    def test_sampled_strip_agreement(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            lam = rng.uniform(0.2, 0.8)
            p = DegenerateParameter(lam)
            while True:
                s = complex(
                    rng.uniform(0.1, p.inv_lambda - 0.5), rng.uniform(-2, 2)
                )
                d, _, _ = nearest_pole(s, p)
                if d >= 0.1 and math.hypot(s.real - round(s.real), s.imag) >= 0.1:
                    break
            assert rel(hankel_gamma(s, p).value, closed(s, p)) <= 1e-11

    def test_error_estimate_covers_actual(self):
        p = DegenerateParameter(0.4)
        s = 0.9 + 0.3j
        res = hankel_gamma(s, p)
        assert abs(res.value - closed(s, p)) <= max(
            res.abs_error_estimate, 1e-12 * abs(res.value)
        )


@pytest.mark.parametrize("s", [-2.7, -1.5, 0.4, 1.7, 2.2])
def test_real_argument_gives_a_real_value(s):
    p = DegenerateParameter(0.3)
    paths = [hankel_gamma, hankel_gamma_reflected]
    if 0.0 < s < p.inv_lambda:
        paths.append(direct_integral_gamma)
    for path in paths:
        res = path(s, p)
        assert res.value.imag == 0.0, path.__name__
        assert abs(res.value - closed(s, p)) <= res.abs_error_estimate, path.__name__


@pytest.mark.parametrize("s, error", [(1.0, IntegerArgumentError),
                                      (3.5, StripError)])
def test_reflected_loop_errors_name_their_caller(s, error):
    # 1/lambda = 3.33: s = 1 zeroes the sine prefactor, s = 3.5 is past the strip
    with pytest.raises(error, match=r"^hankel_gamma_reflected:"):
        hankel_gamma_reflected(s, DegenerateParameter(0.3))


NON_FINITE = [
    complex(math.nan, 0.0),
    complex(math.inf, 0.0),
    complex(-math.inf, 0.0),
    complex(0.5, math.inf),
    complex(0.5, math.nan),
]


@pytest.mark.parametrize("s", NON_FINITE, ids=repr)
@pytest.mark.parametrize(
    "path", [direct_integral_gamma, hankel_gamma, hankel_gamma_reflected],
    ids=lambda f: f.__name__,
)
def test_non_finite_argument_raises_domain_error(path, s, monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran on a non-finite argument")

    monkeypatch.setattr(quadrature, "_cc_ladder", no_quadrature)
    with pytest.raises(DomainError):
        path(s, DegenerateParameter(0.4))


class TestCircleCache:
    S = 0.7 - 0.4j
    P = DegenerateParameter(0.3)

    def _fresh(self, path, delta):
        quadrature._ladder_geometry.cache_clear()
        return path(self.S, self.P, QuadratureSpec(hankel_radius=delta)).value

    def test_keyed_by_radius_and_realization(self):
        deltas = (0.1, 0.3, 0.5, 0.1)
        paths = (hankel_gamma, hankel_gamma_reflected)
        expected = [[self._fresh(path, d) for path in paths] for d in deltas]
        quadrature._ladder_geometry.cache_clear()
        got = [
            [path(self.S, self.P, QuadratureSpec(hankel_radius=d)).value
             for path in paths]
            for d in deltas
        ]
        assert got == expected

    def test_bounded(self):
        for delta in np.linspace(0.05, 0.6, 50):
            hankel_gamma(self.S, self.P, QuadratureSpec(hankel_radius=float(delta)))
        assert 0 < quadrature._ladder_geometry.cache_info().currsize <= quadrature._GEOMETRY_CACHE_SIZE

    def test_concurrent_calls_under_eviction(self):
        # more radii than the cache holds, so threads evict each other's rows
        deltas = [0.1 + 0.04 * k for k in range(quadrature._GEOMETRY_CACHE_SIZE + 3)]
        expected = {d: self._fresh(hankel_gamma, d) for d in deltas}
        mismatches = []

        def worker(offset):
            for k in range(2 * len(deltas)):
                d = deltas[(k + offset) % len(deltas)]
                spec = QuadratureSpec(hankel_radius=d)
                if hankel_gamma(self.S, self.P, spec).value != expected[d]:
                    mismatches.append(d)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []
        assert quadrature._ladder_geometry.cache_info().currsize <= quadrature._GEOMETRY_CACHE_SIZE


class TestClenshawCurtisLadder:
    """The nested Clenshaw-Curtis ladder behind the loop contour."""

    @staticmethod
    def ladder(g, tol=1e-13, max_level=10):
        return quadrature._cc_ladder(lambda x, lo: g(x), tol, max_level)

    @pytest.mark.parametrize("rung", range(6))
    def test_rung_integrates_polynomials_up_to_its_degree(self, rung):
        x, w = quadrature._cc_rung(rung)
        n = 16 << rung
        assert len(x) == len(w) == n + 1
        assert np.all(w > 0.0)
        for degree in range(n + 1):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            assert abs(w @ x**degree - exact) <= 1e-14

    def test_rungs_are_nested_in_ladder_order(self):
        for rung in range(1, 9):
            coarse, _ = quadrature._cc_rung(rung - 1)
            fine, _ = quadrature._cc_rung(rung)
            assert np.array_equal(fine[: len(coarse)], coarse)
            assert len(np.unique(fine)) == len(fine)

    @pytest.mark.parametrize("degree", [0, 3, 8, 16])
    def test_low_degree_polynomial_is_exact_in_one_call(self, degree):
        calls = []

        def g(x, lo):
            calls.append((lo, len(x)))
            return (1.0 + 0.5j) * x**degree + x

        value, err = quadrature._cc_ladder(g, 1e-13, 10)
        exact = (1.0 + 0.5j) * (2.0 / (degree + 1) if degree % 2 == 0 else 0.0)
        assert abs(value - exact) <= 1e-15
        assert err <= 1e-14
        assert calls == [(0, (quadrature._CC_N0 << quadrature._CC_HEAD_RUNG) + 1)]

    @pytest.mark.parametrize("g, exact", [
        (np.exp, math.e - 1.0 / math.e),
        (lambda x: 1.0 / (1.0 + x * x), math.pi / 2.0),
        (lambda x: np.cos(40.0 * x), math.sin(40.0) / 20.0),
        (lambda x: np.exp(3j * x), 2.0 * math.sin(3.0) / 3.0),
        (lambda x: 1.0 / (1.02 - x), math.log(2.02 / 0.02)),
    ], ids=["exp", "runge", "cos40", "exp3i", "near-pole"])
    def test_matches_closed_form_integrals(self, g, exact):
        value, err = self.ladder(g)
        assert abs(value - exact) <= max(err, 1e-14 * abs(exact))
        assert abs(value - exact) <= 1e-12 * abs(exact)

    def test_deeper_rungs_evaluate_only_new_nodes(self):
        calls = []

        def g(x, lo):
            calls.append((lo, len(x)))
            return np.exp(1j * 90.0 * x)

        value, _ = quadrature._cc_ladder(g, 1e-12, 10)
        assert value == pytest.approx(2.0 * math.sin(90.0) / 90.0, abs=1e-13)
        assert calls[0] == (0, (quadrature._CC_N0 << quadrature._CC_HEAD_RUNG) + 1)
        for (lo, count), (prev_lo, prev_count) in zip(calls[1:], calls):
            assert lo == prev_lo + prev_count
            assert count == lo - 1

    def test_convergence_error_at_cap(self):
        # 128 intervals cannot resolve 160 oscillations
        with pytest.raises(ConvergenceError):
            self.ladder(lambda x: np.exp(1000j * x), max_level=3)
        value, _ = self.ladder(lambda x: np.exp(1000j * x), max_level=8)
        assert value == pytest.approx(2.0 * math.sin(1000.0) / 1000.0, abs=1e-12)

    def test_convergence_error_names_the_bound_it_tested(self):
        # the mass floor 1e-14 M = 2e-9 is the bound here, not tol |Q| = 1.9e-10
        with pytest.raises(ConvergenceError, match=r"^Clenshaw-Curtis ladder: difference \S+ "
                           r"above max\(tol \|Q\|, 1e-14 M\) = 2e-09 at 128 intervals$"):
            self.ladder(lambda x: 1e5 * np.exp(1000j * x), max_level=3)

    def test_weights_are_positive_to_the_default_depth(self):
        # the ladder takes its mass sum |w_i f_i| as sum w_i |f_i|
        for rung in range(quadrature._CC_MAX_RUNG + 1):
            assert np.all(quadrature._cc_rung(rung)[1] > 0.0), rung

    @pytest.mark.parametrize("g, rung", [
        (lambda x: 3.0 - 2.0 * x + 0.5 * x**5 - x**8, 1),
        (lambda x: np.exp(3j * x), 1),
        (lambda x: 1.0 / (1.02 - x), 4),
    ], ids=["polynomial", "exp3i", "near-pole"])
    def test_sums_and_masses_match_an_exact_reference(self, g, rung):
        # each rung's sum and mass summed exactly from its terms, and the ladder's
        # stopping rule applied to them
        sums = []
        for level in range(rung + 1):
            x, w = quadrature._cc_rung(level)
            vals = np.asarray(g(x), dtype=complex)
            sums.append(complex(math.fsum(w * vals.real), math.fsum(w * vals.imag)))
            mass = math.fsum(w * np.abs(vals))
            bound = max(1e-13 * abs(sums[-1]), 1e-14 * mass)
            assert (level > 0 and abs(sums[-1] - sums[-2]) <= bound) == (level == rung)
        calls = []

        def f(x, lo):
            calls.append(len(x))
            return g(x)

        value, err = quadrature._cc_ladder(f, 1e-13, 10)
        head = (quadrature._CC_N0 << quadrature._CC_HEAD_RUNG) + 1
        assert sum(calls) == max(head, (quadrature._CC_N0 << rung) + 1)
        ulp = math.ulp(1.0)
        assert abs(value - sums[-1]) <= 4 * ulp * mass
        assert abs(err - (abs(sums[-1] - sums[-2]) + ulp * mass)) <= 4 * ulp * mass

    def test_max_level_bounds_the_contour(self):
        # 0.5 from the strip's edge, the edge needs 256 intervals
        p = DegenerateParameter(0.2)
        s = 4.5 + 5.0j
        res = hankel_gamma(s, p)
        assert abs(res.value - closed(s, p)) <= res.abs_error_estimate


@pytest.fixture
def mp():
    """mpmath at 40 digits; the tests using it skip when it is missing."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def _mp_dgamma(mp, s, lam):
    """lambda**(-s) B(s, 1/lambda - s), with a digit more for each of 1/lambda's."""
    with mp.workdps(mp.mp.dps + max(0, int(math.log10(1.0 / lam)))):
        s, lam = mp.mpc(s), mp.mpf(lam)
        u = 1 / lam
        return complex(mp.exp(-s * mp.log(lam) + mp.loggamma(s)
                              + mp.loggamma(u - s) - mp.loggamma(u)))


def _contour_points(seed, count):
    """(s, p) inside the strip and left of it, |Im s| <= 5, off the integers."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        p = DegenerateParameter(rng.uniform(0.15, 0.85))
        s = complex(rng.uniform(-3.0, p.inv_lambda - 0.3), rng.uniform(-5.0, 5.0))
        if nearest_pole(s, p)[0] >= 0.05 and abs(s - round(s.real)) >= 0.05:
            points.append((s, p))
    return points


@pytest.mark.parametrize("path", [hankel_gamma, hankel_gamma_reflected],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("region", ["strip", "left-of-strip"])
def test_contour_estimate_bounds_the_oracle_error(mp, path, region):
    points = [
        (s, p) for s, p in _contour_points(41, 160)
        if (s.real > 0.0) == (region == "strip")
    ][:30]
    assert len(points) == 30
    for s, p in points:
        res = path(s, p)
        err = abs(res.value - _mp_dgamma(mp, s, p.lam))
        assert err <= res.abs_error_estimate, (s, p.lam, err, res.abs_error_estimate)


@pytest.mark.parametrize("s", [-2.5 + 5j, 4.5 + 5j])
def test_contour_keeps_its_digits_at_small_values(mp, s):
    # small against the edge: a tolerance on the edge in absolute terms, not
    # relative to the value, leaves them about 6e-7 and 3e-7 off
    res = hankel_gamma(s, DegenerateParameter(0.2))
    expected = _mp_dgamma(mp, s, 0.2)
    assert abs(res.value - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("path", [hankel_gamma, hankel_gamma_reflected],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("gap", [quadrature.STRIP_MARGIN, 0.02, 0.05, 0.5, 0.99, 1.01])
@pytest.mark.parametrize("lam", [0.15, 0.5, 0.85])
def test_contour_at_the_strip_right_edge(mp, lam, gap, path):
    # below u - Re(s) = 1 the edge runs less its endpoint power
    p = DegenerateParameter(lam)
    for im in (0.0, 0.7, 3.0):
        s = complex(p.inv_lambda - gap, im)
        res = path(s, p)
        err = abs(res.value - _mp_dgamma(mp, s, lam))
        assert err <= res.abs_error_estimate, (im, err, res.abs_error_estimate)


@pytest.mark.parametrize("s, lam", [
    (6.005 - 0.034j, 0.165),  # 1/lambda's rounding, 0.057 from the strip edge
    (5.043888015458267 + 4.720892606595033j, 0.15114685114809284),
    (2.4726594255840473 + 4.324272593866187j, 0.17905071891232313),
])
def test_direct_integral_estimate_has_a_rounding_floor(mp, s, lam):
    res = direct_integral_gamma(s, DegenerateParameter(lam))
    err = abs(res.value - _mp_dgamma(mp, s, lam))
    assert err <= res.abs_error_estimate
    assert res.abs_error_estimate <= 1e-10 * abs(res.value)


def test_direct_integral_estimate_bounds_the_oracle_error(mp):
    rng = np.random.default_rng(43)
    for _ in range(40):
        p = DegenerateParameter(rng.uniform(0.15, 0.85))
        s = complex(rng.uniform(0.05, p.inv_lambda - 0.05), rng.uniform(-5.0, 5.0))
        res = direct_integral_gamma(s, p)
        err = abs(res.value - _mp_dgamma(mp, s, p.lam))
        assert err <= res.abs_error_estimate, (s, p.lam, err, res.abs_error_estimate)


@pytest.mark.parametrize("im", [0.0, 3.0, 5.0, 20.0])
@pytest.mark.parametrize("edge", ["left", "right"])
@pytest.mark.parametrize("lam", [0.15, 0.5, 0.85])
def test_direct_integral_at_the_strip_margins(mp, lam, edge, im):
    # the endpoint power at either margin, t**-0.99, is what the ladder cannot
    # resolve without its subtraction
    p = DegenerateParameter(lam)
    margin = quadrature.STRIP_MARGIN
    s = complex(margin if edge == "left" else p.inv_lambda - margin, im)
    res = direct_integral_gamma(s, p)
    err = abs(res.value - _mp_dgamma(mp, s, lam))
    assert err <= res.abs_error_estimate, (err, res.abs_error_estimate)


SMALL_LAMBDAS = [1e-2, 1e-3, 1e-5, 1e-30, 1e-300]


@pytest.mark.parametrize("lam", SMALL_LAMBDAS)
def test_direct_integral_at_small_lambda(mp, lam):
    # (v**K + lambda)**(-1/lambda) overflowed from lambda = 1e-3 down
    s = 1.5 + 0.5j
    res = direct_integral_gamma(s, DegenerateParameter(lam))
    err = abs(res.value - _mp_dgamma(mp, s, lam))
    assert err <= res.abs_error_estimate <= 1e-12


@pytest.mark.parametrize("lam", SMALL_LAMBDAS)
@pytest.mark.parametrize("path", [hankel_gamma, hankel_gamma_reflected],
                         ids=lambda f: f.__name__)
def test_contour_at_small_lambda(mp, monkeypatch, path, lam):
    # at delta = 0.3 the circle's (1 - delta)**(-1/lambda) passes
    # exp(LOG_OVERFLOW) between lambda = 1e-3 and 1e-5
    s, p = 1.5 + 0.5j, DegenerateParameter(lam)
    if lam > 1e-4:
        res = path(s, p)
        assert abs(res.value - _mp_dgamma(mp, s, lam)) <= res.abs_error_estimate
        return

    def no_quadrature(*args):
        raise AssertionError("quadrature ran for a lambda the circle cannot take")

    monkeypatch.setattr(quadrature, "_cc_ladder", no_quadrature)
    with pytest.raises(ParameterRangeError, match=rf"^{path.__name__}: at lambda = {lam:.6g} "):
        path(s, p)


@pytest.mark.parametrize("s, lam", [(200.0, 0.002), (999.5, 0.001)])
def test_direct_integral_refuses_an_overflowing_integrand(s, lam):
    # |value| is about exp(905) and exp(6900), beyond double range
    with pytest.raises(ConvergenceError, match=r"^direct_integral_gamma: .* overflows$"):
        direct_integral_gamma(s, DegenerateParameter(lam))


@pytest.mark.parametrize("s, lam", [(990 + 1j, 1e-3), (200 + 3j, 1e-3)])
@pytest.mark.parametrize("path", [hankel_gamma, hankel_gamma_reflected],
                         ids=lambda f: f.__name__)
def test_contour_refuses_an_overflowing_value(path, s, lam):
    # lambda**(-s) is about exp(6838) and exp(1381); the closed form flags overflow
    p = DegenerateParameter(lam)
    assert degenerate_gamma(s, p).status is EvalStatus.OVERFLOW
    with pytest.raises(ConvergenceError, match=rf"^{path.__name__}: .* overflows$"):
        path(s, p)


@pytest.mark.parametrize("s, lam", [
    (9 + 226.5j, 0.05),  # sin(pi s) passes double range
    (18 + 230j, 0.05),  # the circle's values overflow to NaN
    (-588.54 + 0.0001j, 0.99),  # the reflected circle's delta**(s - 1) overflows
])
@pytest.mark.parametrize("path", [hankel_gamma, hankel_gamma_reflected],
                         ids=lambda f: f.__name__)
def test_contour_refuses_a_factor_past_range(monkeypatch, path, s, lam):
    # each factor of the circle and of the sine prefactor is bounded, not
    # only their product, and the refusal comes before any quadrature
    def no_quadrature(*args):
        raise AssertionError("quadrature ran for a point the contour cannot take")

    monkeypatch.setattr(quadrature, "_cc_ladder", no_quadrature)
    with pytest.raises(ParameterRangeError, match=rf"^{path.__name__}: at lambda = {lam:.6g} "):
        path(s, DegenerateParameter(lam))


@pytest.mark.parametrize("s, lam, refused", [(1.5 + 0.5j, 0.3, False), (990 + 1j, 1e-3, True)])
@pytest.mark.parametrize("path", [hankel_gamma, hankel_gamma_reflected],
                         ids=lambda f: f.__name__)
def test_contour_with_a_zero_loop_integral(monkeypatch, path, s, lam, refused):
    # a zero loop integral gives the value 0, unless lambda**(-s) itself overflows
    monkeypatch.setattr(quadrature, "_cc_ladder", lambda *args: (0j, 0.0))
    if refused:
        with pytest.raises(ConvergenceError, match=rf"^{path.__name__}: .* overflows$"):
            path(s, DegenerateParameter(lam))
    else:
        assert path(s, DegenerateParameter(lam)).value == 0


def test_integrand_calls_stay_within_the_measured_count(monkeypatch):
    # a lost head or an extra rung shows as more integrand calls (111 in all),
    # and the counts repeat exactly; a 65-node head takes 38, 69 and 65
    limits = {direct_integral_gamma: 27, hankel_gamma: 43, hankel_gamma_reflected: 41}
    rng = np.random.default_rng(60)
    ladder, calls = quadrature._cc_ladder, []

    def counted(f, *args):
        def g(x, lo):
            calls.append(len(x))
            return f(x, lo)
        return ladder(g, *args)

    monkeypatch.setattr(quadrature, "_cc_ladder", counted)
    counts = {}
    for path in limits:
        calls.clear()
        done = 0
        while done < 20:
            p = DegenerateParameter(rng.uniform(0.15, 0.85))
            lo = 0.05 if path is direct_integral_gamma else -3.0
            s = complex(rng.uniform(lo, p.inv_lambda - 0.05), rng.uniform(-5.0, 5.0))
            if nearest_pole(s, p)[0] >= 0.05 and abs(s - round(s.real)) >= 0.05:
                path(s, p)
                done += 1
        counts[path] = len(calls)
    assert all(counts[path] <= limits[path] for path in limits), counts


def _integrands(monkeypatch, path, s, p):
    """The integrands f(x, lo) that one contour call hands to the ladder: edge, then circle."""
    ladder, captured = quadrature._cc_ladder, []

    def capture(f, *args):
        captured.append(f)
        return ladder(f, *args)

    monkeypatch.setattr(quadrature, "_cc_ladder", capture)
    path(s, p)
    assert len(captured) == 2
    return captured


def _edge_reference(s, u, delta, v):
    """The edge's integrand at node v, as the elementwise formula it replaced.

    Returns the value and the size of what it is formed from: the exponent's
    terms times the exponential, plus the added-back term.
    """
    k = quadrature._POWER_K
    log_v = math.log(v) if v > 0.0 else 0.0
    v_k = math.exp(k * log_v)
    log_pre = s * math.log(delta)
    gap = u - s
    if gap.real < 1.0:
        log_back = log_pre - u * math.log(delta)
        damp = -u * math.log1p(v_k / delta)
        far = cmath.exp(log_back + (k * gap - 1.0) * log_v) * math.expm1(damp)
        size = abs(log_back) + abs(k * gap - 1.0) * abs(log_v) + abs(damp)
        back = cmath.exp(log_back) / gap
    else:
        damp = -u * math.log1p(delta / v_k)
        far = cmath.exp(log_pre - (k * s + 1.0) * log_v + damp)
        size = abs(log_pre) + abs(k * s + 1.0) * abs(log_v) + abs(damp)
        back = 0.0
    scale = k if v > 0.0 else 0.0
    return scale * far + back, (1.0 + size) * abs(scale * far) + abs(back)


def _circle_reference(path, s, u, delta, x):
    """A circle's integrand at ladder node x, as the elementwise formula it replaced.

    Returns the value, its constant prefactor, now taken outside the ladder,
    and the size of what the value is formed from.
    """
    if path is hankel_gamma:
        theta = math.pi * x
        exponent = 1j * s * theta - u * cmath.log(1.0 - delta * cmath.exp(1j * theta))
        prefactor = 1j * cmath.exp(s * math.log(delta))
        size = abs(s) * abs(theta) + abs(exponent) + abs(s * math.log(delta))
        return prefactor * cmath.exp(exponent), prefactor, size
    phi = math.pi + math.pi * x
    exponent = (1j * (s - 1.0) * (phi - math.pi) + 1j * phi
                - u * cmath.log(1.0 + delta * cmath.exp(1j * phi)))
    # i delta**(s-1) e^{i(s-1)(phi-pi) + i phi} = -i delta**(s-1) e^{is(phi-pi)}
    log_power = (s - 1.0) * math.log(delta)
    prefactor = -1j * delta * cmath.exp(log_power)
    size = abs(s - 1.0) * abs(phi - math.pi) + abs(phi) + abs(exponent) + abs(log_power)
    return 1j * delta * cmath.exp(log_power) * cmath.exp(exponent), prefactor, size


def _reference_points():
    """Contour points left of and inside the strip, and within 1 of its right edge."""
    points = _contour_points(47, 24)
    for lam, gap, im in ((0.3, 0.5, 0.7), (0.5, 0.02, -3.0), (0.85, 0.99, 1.5), (0.15, 0.2, 0.0)):
        p = DegenerateParameter(lam)
        points.append((complex(p.inv_lambda - gap, im), p))
    return points


@pytest.mark.parametrize("path", [hankel_gamma, hankel_gamma_reflected],
                         ids=lambda f: f.__name__)
def test_contour_integrands_match_the_elementwise_formulas(monkeypatch, path):
    # the edge's and the circle's one-product exponents against the per-node
    # formulas they replaced, at the head's 129 nodes, within 64 eps times the
    # size of what each value is formed from
    x = quadrature._cc_rung(quadrature._CC_HEAD_RUNG)[0]
    delta = QuadratureSpec().hankel_radius
    tol = 64 * np.finfo(float).eps
    for s, p in _reference_points():
        edge, circle = (f(x, 0) for f in _integrands(monkeypatch, path, s, p))
        u = p.inv_lambda
        for xi, got in zip(x.tolist(), edge.tolist()):
            want, size = _edge_reference(s, u, delta, 0.5 + 0.5 * xi)
            assert abs(got - want) <= tol * size, (s, p.lam, xi, got, want)
        for xi, got in zip(x.tolist(), circle.tolist()):
            want, prefactor, size = _circle_reference(path, s, u, delta, xi)
            assert abs(prefactor * got - want) <= tol * (1.0 + size) * abs(want), (s, p.lam, xi)
