"""Tests for the degenerate gamma/beta core: closed form, poles, recurrences."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degamma import core
from degamma.classical import LOG_OVERFLOW, gamma, log_gamma, reflection_product, sin_pi
from degamma.cli import parse_range
from degamma.core import (
    DEFAULT_TOLERANCE,
    GAMMA_METHODS,
    DegenerateParameter,
    EvalStatus,
    PoleFamily,
    degenerate_beta,
    degenerate_beta_classical,
    degenerate_exp,
    degenerate_gamma,
    degenerate_gamma_integer,
    degenerate_gamma_log,
    degenerate_log,
    difference_step,
    falling_factorial,
    falling_factorial_exact,
    gamma_evaluator,
    lambda_shift_recurrence,
    nearest_pole,
    pole_residue,
    poles,
    symmetry_partner,
)
from degamma.errors import (
    BranchPointError,
    DegammaError,
    DomainError,
    ParameterRangeError,
    PoleError,
    SingularParameterError,
)
from degamma.representations import (
    ProductSpec,
    degenerate_beta_product,
    euler_limit_gamma,
    sine_product,
    weierstrass_gamma,
)
from degamma.quadrature import (
    QuadratureSpec,
    direct_integral_gamma,
    hankel_gamma,
    hankel_gamma_reflected,
)
from degamma.verify import GridSpec


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def sample_regular(rng, p, re_range, im_max, min_dist=0.05, shifted_too=False):
    while True:
        s = complex(rng.uniform(*re_range), rng.uniform(-im_max, im_max))
        d, _, _ = nearest_pole(s, p)
        if d < min_dist:
            continue
        if shifted_too:
            d1, _, _ = nearest_pole(s + 1.0, p)
            if d1 < min_dist:
                continue
        return s


class TestDegenerateParameter:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ParameterRangeError):
            DegenerateParameter(bad)

    def test_caches_derived_quantities(self):
        p = DegenerateParameter(0.3)
        assert p.inv_lambda * p.lam == pytest.approx(1.0, abs=1e-16)
        assert p.log_lambda == math.log(0.3)
        assert p.log_gamma_inv_lambda == log_gamma(p.inv_lambda).log_abs

    @pytest.mark.parametrize("tiny", [1e-310, 5e-324])
    def test_rejects_lambda_whose_reciprocal_overflows(self, tiny):
        with pytest.raises(ParameterRangeError):
            DegenerateParameter(tiny)

    def test_smallest_lambda_with_finite_reciprocal_is_accepted(self):
        p = DegenerateParameter(5.6e-309)
        assert math.isfinite(p.inv_lambda)

    # Every path that divides by Gamma(1/lambda), at one regular point each.
    _LOG_GAMMA_U_PATHS = [
        lambda p: degenerate_gamma(1.5, p),
        lambda p: degenerate_gamma(1.5 + 0.5j, p),
        lambda p: degenerate_gamma_log(1.5, p),
        lambda p: degenerate_beta(0.5, 0.7, p),
        lambda p: degenerate_beta_classical(0.5, 0.7, p),
        lambda p: pole_residue(PoleFamily.NON_POSITIVE, 1, p),
        lambda p: pole_residue(PoleFamily.SHIFTED_BY_INV_LAMBDA, 0, p),
        lambda p: weierstrass_gamma(1.5, p),
        lambda p: euler_limit_gamma(1.5, p),
        lambda p: degenerate_beta_product(0.5, 0.7, p),
    ]

    # log Gamma(1/lambda) overflows below about 3.9e-306
    @pytest.mark.parametrize("tiny", [3e-306, 1e-306, 5.6e-309])
    def test_lambda_whose_log_gamma_overflows_raises_on_every_path(self, tiny):
        p = DegenerateParameter(tiny)
        for path in self._LOG_GAMMA_U_PATHS:
            with pytest.raises(ParameterRangeError, match=repr(tiny)):
                path(p)

    # The defining integral is refused before its quadrature runs, which
    # would overflow at such lambda (and warn, an error in this suite).
    @pytest.mark.parametrize("tiny", [3e-306, 1e-306, 5.6e-309])
    def test_direct_integral_refuses_such_lambda_before_quadrature(self, tiny):
        with pytest.raises(ParameterRangeError, match=repr(tiny)):
            direct_integral_gamma(1.5 + 0.5j, DegenerateParameter(tiny))

    def test_lambda_just_above_that_still_evaluates(self):
        p = DegenerateParameter(1e-305)
        for path in self._LOG_GAMMA_U_PATHS:
            path(p)

    def test_cached_log_gamma_stays_out_of_eq_hash_repr(self):
        p, q = DegenerateParameter(0.25), DegenerateParameter(0.25)
        assert p == q and p != DegenerateParameter(0.5)
        assert hash(p) == hash((p.lam, p.inv_lambda, p.log_lambda)) == hash(q)
        assert repr(p) == "DegenerateParameter(lam=0.25)"


_NON_FINITE = [
    complex(math.nan, 0.0),
    complex(math.inf, 0.0),
    complex(-math.inf, 0.0),
    complex(0.5, math.inf),
    complex(0.5, -math.inf),
    complex(0.5, math.nan),
]


@pytest.mark.parametrize("s", _NON_FINITE)
@pytest.mark.parametrize(
    "evaluate",
    [
        degenerate_gamma,
        lambda s, p: degenerate_beta(s, 0.5, p),
        lambda s, p: degenerate_beta(0.5, s, p),
        lambda s, p: log_gamma(s),
        weierstrass_gamma,
        lambda s, p: reflection_product(s),
    ],
    ids=["degenerate_gamma", "degenerate_beta_a", "degenerate_beta_b",
         "log_gamma", "weierstrass_gamma", "reflection_product"],
)
def test_non_finite_argument_raises_domain_error(evaluate, s):
    with pytest.raises(DomainError):
        evaluate(s, DegenerateParameter(0.3))


@pytest.mark.parametrize("s, lam", [
    (-1e308 + 1j, 1e-308),  # s.real - 1/lambda overflows
    (1e308 + 1j, 0.5),  # the log-gamma terms overflow
    (-1e308 + 1j, 0.5),
])
@pytest.mark.parametrize(
    "evaluate, name",
    [
        (degenerate_gamma, "s"),
        (degenerate_gamma_log, "s"),
        (lambda s, p: degenerate_beta(0.5, s, p), "beta"),
        (lambda s, p: degenerate_beta_classical(0.5, s, p), "beta"),
    ],
    ids=["degenerate_gamma", "degenerate_gamma_log", "degenerate_beta",
         "degenerate_beta_classical"],
)
def test_huge_argument_is_flagged_or_refused(evaluate, name, s, lam):
    """A flagged overflow with a finite log, or a DegammaError naming the culprit."""
    try:
        res = evaluate(s, DegenerateParameter(lam))
    except DegammaError as exc:
        assert f"{'lambda' if lam < 1e-300 else name} = " in str(exc)
        return
    log_value = res if isinstance(res, complex) else res.log_value
    assert cmath.isfinite(log_value)
    if not isinstance(res, complex):
        assert res.status is EvalStatus.OVERFLOW and log_value.real > LOG_OVERFLOW


class TestDegenerateExpLog:
    def test_unit_case(self):
        assert degenerate_exp(1, 1, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_power_case(self):
        assert degenerate_exp(2, 3, 0.5) == pytest.approx(39.0625, rel=1e-14)

    def test_limit_recovers_exp(self):
        assert rel(degenerate_exp(1, 1, 1e-8), math.e) <= 1e-6

    def test_step_lost_to_rounding(self):
        # w = lambda*t = 1e-17 leaves 1 + w == 1; log(1 + w) is then w, not 0/0
        assert degenerate_exp(1.0, 0.1, 1e-16) == cmath.exp(0.1)

    def test_branch_point(self):
        with pytest.raises(BranchPointError):
            degenerate_exp(1, -2.0, 0.5)

    def test_log_at_one(self):
        for lam in (0.3, 0.9, -1.5, 2.0):
            assert degenerate_log(1.0, lam) == pytest.approx(0.0, abs=1e-16)

    def test_log_unit_lambda(self):
        assert degenerate_log(2.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_log_limit(self):
        assert rel(degenerate_log(math.e, 1e-8), 1.0) <= 1e-6

    def test_log_domain(self):
        with pytest.raises(DomainError):
            degenerate_log(0.0, 0.5)

    def test_zero_lambda_rejected(self):
        with pytest.raises(ParameterRangeError):
            degenerate_exp(1, 1, 0.0)

    @given(st.floats(0.2, 3.0), st.floats(-2.0, 2.0), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_exp_log_composition(self, tr, ti, lam):
        t = complex(tr, ti)
        # t = log_lam(e_lam(t)) whenever both stay on the principal branch
        e = degenerate_exp(1, t, lam)
        back = degenerate_log(e, lam)
        assert abs(back - t) <= 1e-10 * max(1.0, abs(t))


class TestFallingFactorial:
    def test_examples(self):
        assert falling_factorial(1, 0, 0.3) == 1.0
        assert falling_factorial(1, 3, 0.25) == pytest.approx(0.375, rel=1e-15)
        assert falling_factorial(1, 4, 0.25) == pytest.approx(0.09375, rel=1e-15)

    @given(st.integers(0, 12), st.floats(-2.0, 2.0), st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_recursion(self, n, x, lam):
        full = falling_factorial(x, n + 1, lam)
        step = falling_factorial(x, n, lam) * (x - n * lam)
        assert abs(full - step) <= 1e-12 * max(1.0, abs(full))

    def test_exact_matches_float(self):
        f = falling_factorial_exact(1, 5, 0.125)  # dyadic lambda: exact floats
        assert float(f) == falling_factorial(1, 5, 0.125).real


class TestClosedForm:
    def test_value_at_one(self):
        for lam in (0.1, 0.25, 0.5, 0.9):
            p = DegenerateParameter(lam)
            assert rel(degenerate_gamma(1, p).value, 1.0 / (1.0 - lam)) <= 1e-13

    def test_half_half(self):
        p = DegenerateParameter(0.5)
        expected = math.sqrt(2.0) * math.pi / 2.0
        assert rel(degenerate_gamma(0.5, p).value, expected) <= 1e-13

    def test_three_quarter(self):
        p = DegenerateParameter(0.25)
        assert rel(degenerate_gamma(3, p).value, 64.0 / 3.0) <= 1e-13

    def test_pole_reports_residue(self):
        p = DegenerateParameter(0.5)
        res = degenerate_gamma(-1, p)
        assert res.status is EvalStatus.AT_POLE
        assert math.isnan(res.value.real)
        assert res.pole.family is PoleFamily.NON_POSITIVE
        assert res.pole.index == 1
        assert rel(res.pole.residue, -1.0) <= 1e-14

    def test_near_pole_band_inflates_estimate(self):
        p = DegenerateParameter(0.5)
        far = degenerate_gamma(complex(-1.0 + 0.01, 0.0), p)
        near = degenerate_gamma(complex(-1.0 + 1e-6, 0.0), p)
        assert far.status is EvalStatus.REGULAR
        assert near.status is EvalStatus.NEAR_POLE
        assert near.pole is not None
        rel_far = far.abs_error_estimate / abs(far.value)
        rel_near = near.abs_error_estimate / abs(near.value)
        assert rel_near > 50.0 * rel_far

    def test_small_lambda_uses_log_space(self):
        # Gamma(1/lambda) alone overflows here; the ratio must not
        p = DegenerateParameter(1.0 / 2000.0)
        res = degenerate_gamma(0.75, p)
        assert res.status is EvalStatus.REGULAR
        assert rel(res.value, gamma(0.75)) <= 1e-3

    def test_conjugate_symmetry(self):
        p = DegenerateParameter(0.37)
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = sample_regular(rng, p, (-2.0, 2.2), 3.0)
            a = degenerate_gamma(s, p).value
            b = degenerate_gamma(s.conjugate(), p).value
            assert abs(b.conjugate() - a) <= 4.0 * np.spacing(abs(a))

    def test_estimate_within_promised_bound(self):
        # away from poles the reported estimate stays below 1e-12*|value|
        rng = np.random.default_rng(99)
        for _ in range(200):
            lam = rng.uniform(0.05, 0.95)
            p = DegenerateParameter(lam)
            s = sample_regular(rng, p, (-2.5, p.inv_lambda - 1.5), 5.0,
                               min_dist=1e-4)
            res = degenerate_gamma(s, p)
            assert res.abs_error_estimate <= 1e-12 * abs(res.value)

    def test_log_form_matches_value(self):
        p = DegenerateParameter(0.3)
        s = complex(0.8, 0.6)
        assert rel(
            cmath.exp(degenerate_gamma_log(s, p)), degenerate_gamma(s, p).value
        ) <= 1e-14


class TestSinglePoleDecision:
    """degenerate_gamma and degenerate_gamma_log make one pole decision.

    Real s is swept over 81 ulps around both edges of the 1e-8 band of each
    pole, where two differently rounded distance tests could disagree.
    """

    @pytest.mark.parametrize("family", list(PoleFamily))
    @pytest.mark.parametrize("lam", [0.3, 0.7, 0.19015])
    def test_log_raises_exactly_at_pole_status(self, lam, family):
        p = DegenerateParameter(lam)
        seen = set()
        for n in range(20):
            if family is PoleFamily.NON_POSITIVE:
                pole = float(-n)
            else:
                pole = p.inv_lambda + n
            for edge in (pole - 1e-8, pole + 1e-8):
                for k in range(-40, 41):
                    s = complex(edge + k * math.ulp(edge), 0.0)
                    res = degenerate_gamma(s, p)
                    seen.add(res.status)
                    if res.status is not EvalStatus.AT_POLE:
                        degenerate_gamma_log(s, p)
                        continue
                    with pytest.raises(PoleError) as exc:
                        degenerate_gamma_log(s, p)
                    assert exc.value.location == res.pole.location
                    assert exc.value.argument_name == "s"
        assert seen == {EvalStatus.AT_POLE, EvalStatus.NEAR_POLE}


class TestIntegerValues:
    def test_k1(self):
        assert rel(
            degenerate_gamma_integer(1, DegenerateParameter(0.5)).value, 2.0
        ) <= 1e-15

    def test_k3(self):
        assert rel(
            degenerate_gamma_integer(3, DegenerateParameter(0.25)).value,
            64.0 / 3.0,
        ) <= 1e-14

    def test_k2_tenth(self):
        assert rel(
            degenerate_gamma_integer(2, DegenerateParameter(0.1)).value,
            1.0 / (0.9 * 0.8),
        ) <= 1e-14

    def test_singular_lambda(self):
        with pytest.raises(SingularParameterError):
            degenerate_gamma_integer(2, DegenerateParameter(0.5))
        with pytest.raises(SingularParameterError):
            degenerate_gamma_integer(5, DegenerateParameter(1.0 / 3.0))

    @pytest.mark.parametrize("k", [171, 200, 400])
    def test_log_space_overflow_is_reported(self, k):
        with pytest.raises(OverflowError, match="overflows double precision"):
            degenerate_gamma_integer(k, DegenerateParameter(1e-3))

    @pytest.mark.parametrize("k, lam", [(171, 0.3), (200, 0.37)])
    def test_log_route_finite_value(self, k, lam):
        # k > 170 takes the log route even where the value is finite
        v = degenerate_gamma_integer(k, DegenerateParameter(lam))
        assert rel(v.value, float(v.exact())) <= 1e-13

    @pytest.mark.parametrize("k, lam", [(228, 0.3), (400, 0.3), (207, 0.45), (188, 0.7)])
    def test_log_route_past_the_product_range(self, k, lam):
        # (1)_{k+1} itself overflows here, while the value stays in range
        p = DegenerateParameter(lam)
        v = degenerate_gamma_integer(k, p)
        assert cmath.isfinite(v.value) and v.value.imag == 0.0
        assert abs(v.value.real - float(v.exact())) <= degenerate_gamma(k, p).abs_error_estimate

    def test_closed_form_marks_singular_cases_as_poles(self):
        res = degenerate_gamma(2, DegenerateParameter(0.5))
        assert res.status is EvalStatus.AT_POLE

    def test_exact_rational_descriptor(self):
        v = degenerate_gamma_integer(2, DegenerateParameter(0.1))
        exact = v.exact()
        assert rel(v.value.real, float(exact)) <= 1e-15

    def test_agreement_with_closed_form(self):
        for lam in (0.05, 0.09, 0.11, 0.3):
            p = DegenerateParameter(lam)
            for k in range(1, 11):
                exact = degenerate_gamma_integer(k, p)
                closed = degenerate_gamma(k, p).value
                assert rel(closed, exact.value) <= 1e-12


class TestDifferenceStep:
    def test_factor(self):
        assert difference_step(1, DegenerateParameter(0.25)) == pytest.approx(
            2.0, rel=1e-15
        )

    def test_pole(self):
        with pytest.raises(PoleError):
            difference_step(1, DegenerateParameter(0.5))

    def test_consistency_with_integer_values(self):
        p = DegenerateParameter(0.25)
        factor = difference_step(2, p)
        assert factor == pytest.approx(8.0, rel=1e-15)
        lhs = degenerate_gamma(3, p).value
        rhs = factor * degenerate_gamma(2, p).value
        assert rel(lhs, rhs) <= 1e-13

    def test_equation_sampled(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            lam = rng.uniform(0.05, 0.95)
            p = DegenerateParameter(lam)
            s = sample_regular(
                rng, p, (-2.5, p.inv_lambda - 1.5), 5.0, shifted_too=True
            )
            lhs = degenerate_gamma(s + 1, p).value
            rhs = difference_step(s, p) * degenerate_gamma(s, p).value
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


class TestLambdaShift:
    def test_exact_rational_case(self):
        p = DegenerateParameter(0.25)
        step = lambda_shift_recurrence(1.0, 0, p)
        assert step.factor == pytest.approx(16.0 / 9.0, rel=1e-14)
        assert step.shifted_lambda == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert step.shifted_arg == 1.0
        lhs = degenerate_gamma(2, p).value
        rhs = step.factor * degenerate_gamma(
            step.shifted_arg, DegenerateParameter(step.shifted_lambda)
        ).value
        assert rel(lhs, rhs) <= 1e-13
        assert rel(lhs, 8.0 / 3.0) <= 1e-13

    def test_half_argument(self):
        p = DegenerateParameter(0.25)
        step = lambda_shift_recurrence(0.5, 0, p)
        assert step.factor == pytest.approx(0.5 / 0.75**1.5, rel=1e-14)
        lhs = degenerate_gamma(1.5, p).value
        rhs = step.factor * degenerate_gamma(
            0.5, DegenerateParameter(step.shifted_lambda)
        ).value
        assert rel(lhs, rhs) <= 1e-11

    def test_parameter_range(self):
        with pytest.raises(ParameterRangeError):
            lambda_shift_recurrence(2.0, 1, DegenerateParameter(0.4))

    def test_strip_enforced(self):
        with pytest.raises(ParameterRangeError):
            lambda_shift_recurrence(0.5, 1, DegenerateParameter(0.2))

    def test_k0_invariant_sampled(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            lam = rng.uniform(0.02, 0.48)
            p = DegenerateParameter(lam)
            p_shift = DegenerateParameter(lam / (1.0 - lam))
            while True:
                s = sample_regular(
                    rng, p, (0.1, min(p.inv_lambda - 1.1, 8.0)), 3.0,
                    shifted_too=True,
                )
                d, _, _ = nearest_pole(s, p_shift)
                if d >= 0.05:
                    break
            step = lambda_shift_recurrence(s, 0, p)
            lhs = degenerate_gamma(s + 1, p).value
            rhs = step.factor * degenerate_gamma(s, p_shift).value
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


class TestPoles:
    def test_residue_at_zero_exact(self):
        for lam in (0.3, 0.5, 0.7, 0.123):
            assert pole_residue(PoleFamily.NON_POSITIVE, 0,
                                DegenerateParameter(lam)) == 1.0

    def test_residue_nonpositive_one(self):
        assert rel(
            pole_residue(PoleFamily.NON_POSITIVE, 1, DegenerateParameter(0.5)),
            -1.0,
        ) <= 1e-14

    def test_residue_shifted_zero(self):
        assert rel(
            pole_residue(
                PoleFamily.SHIFTED_BY_INV_LAMBDA, 0, DegenerateParameter(0.5)
            ),
            -4.0,
        ) <= 1e-14

    def test_pole_listing(self):
        p = DegenerateParameter(0.25)
        infos = poles(p, 2)
        assert len(infos) == 6
        locations = sorted(i.location.real for i in infos)
        assert locations == [-2.0, -1.0, 0.0, 4.0, 5.0, 6.0]
        for info in infos:
            if info.family is PoleFamily.NON_POSITIVE:
                assert info.location == complex(-info.index, 0.0)
            else:
                expected = p.inv_lambda + info.index
                assert abs(info.location - expected) <= np.spacing(expected)

    def test_four_angle_limit_matches_residue(self):
        for lam in (0.3, 0.5, 0.7):
            p = DegenerateParameter(lam)
            for info in poles(p, 3):
                total = 0.0 + 0.0j
                for k in range(4):
                    off = 1e-4 * cmath.exp(0.5j * math.pi * k)
                    total += off * degenerate_gamma(info.location + off, p).value
                assert rel(total / 4.0, info.residue) <= 1e-6


# 3.91e-306: (u - 1) log n alone overflows at n = 1e306
@pytest.mark.parametrize("lam", [0.3, 0.5, 1.0 - 1e-9, 3.91e-306])
def test_residues_past_the_log_gamma_range_are_zero_or_infinite_by_parity(lam):
    # past math.lgamma's range (about 2.56e305) both log-gamma terms of a
    # residue are inf; n |log lambda| > 1e289 leaves 0 or an infinity, never NaN
    p = DegenerateParameter(lam)
    for n in (10**306, 10**306 + 1):
        sign = -1.0 if n % 2 else 1.0
        res = pole_residue(PoleFamily.NON_POSITIVE, n, p)
        assert (res.real, math.copysign(1.0, res.real), res.imag) == (0.0, sign, 0.0)
        assert pole_residue(PoleFamily.SHIFTED_BY_INV_LAMBDA, n, p) == complex(
            -sign * math.inf, 0.0)
    for s, family in ((3e305, PoleFamily.SHIFTED_BY_INV_LAMBDA),
                      (-3e305, PoleFamily.NON_POSITIVE)):
        res = degenerate_gamma(s, p)
        assert res.status is EvalStatus.AT_POLE and res.pole.family is family
        assert res.pole.residue == pole_residue(family, res.pole.index, p)
        assert not cmath.isnan(res.pole.residue)


def test_a_residue_whose_u_plus_n_alone_passes_the_log_gamma_range():
    # at lambda = 4e-306, u + n passes math.lgamma's range while n + 1 does not;
    # 40-digit mpmath gives log |residue| -6.99e306 and -7.01e307 at s = -n
    p = DegenerateParameter(4e-306)
    for n in (10**304, 10**305):
        assert pole_residue(PoleFamily.NON_POSITIVE, n, p) == 0.0
        assert pole_residue(PoleFamily.SHIFTED_BY_INV_LAMBDA, n, p) == complex(-math.inf, 0.0)


class TestSymmetry:
    def test_partner(self):
        p = DegenerateParameter(0.5)
        assert symmetry_partner(1.0, p) == 1.0
        assert symmetry_partner(0.5, p) == 1.5

    def test_identity_at_fixed_point_adjacent_case(self):
        p = DegenerateParameter(0.5)
        lhs = 0.5 * degenerate_gamma(1, p).value
        rhs = 0.5 * degenerate_gamma(symmetry_partner(1, p), p).value
        assert rel(lhs, rhs) <= 1e-14

    def test_identity_sampled_log_space(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            lam = rng.uniform(0.05, 0.95)
            p = DegenerateParameter(lam)
            s = sample_regular(rng, p, (-2.5, p.inv_lambda - 1.5), 5.0)
            partner = symmetry_partner(s, p)
            l1 = s * p.log_lambda + degenerate_gamma_log(s, p)
            l2 = partner * p.log_lambda + degenerate_gamma_log(partner, p)
            diff = l1 - l2
            gap = math.hypot(diff.real, math.remainder(diff.imag, 2 * math.pi))
            assert gap <= 1e-10


class TestLimits:
    def test_lambda_to_zero(self):
        p = DegenerateParameter(1e-6)
        for s in (0.5, 1.5, 2.5, 1 + 1j):
            assert rel(degenerate_gamma(s, p).value, gamma(s)) <= 1e-4

    def test_lambda_to_one(self):
        p = DegenerateParameter(1.0 - 1e-6)
        for z in (0.3, 0.5 + 0.5j):
            expected = math.pi / sin_pi(z)
            assert rel(degenerate_gamma(z, p).value, expected) <= 1e-3


class TestDegenerateBeta:
    def test_quarter_ones(self):
        res = degenerate_beta(1, 1, DegenerateParameter(0.25))
        assert rel(res.value, 2.0 / 3.0) <= 1e-13

    def test_sum_at_pole_returns_zero_with_note(self):
        res = degenerate_beta(1, 1, DegenerateParameter(0.5))
        assert res.value == 0.0
        assert res.note is not None

    def test_integer_formula_example(self):
        # B_lam(2,1) at lambda = 0.1 equals the exact product
        # (1)_{4,lam} / ((1)_{3,lam} (1)_{2,lam}) * B(2,1)
        lam = 0.1
        exact = (
            falling_factorial_exact(1, 4, lam)
            / (falling_factorial_exact(1, 3, lam) * falling_factorial_exact(1, 2, lam))
            * Fraction(1, 2)
        )
        res = degenerate_beta(2, 1, DegenerateParameter(lam))
        assert rel(res.value, float(exact)) <= 1e-12
        # and the exact product is 7/18 up to the binary rounding of 0.1
        assert abs(float(exact) - 7.0 / 18.0) < 1e-15

    def test_ratio_vs_classical_mixed(self):
        p = DegenerateParameter(0.25)
        a = degenerate_beta(0.5, 0.5, p).value
        b = degenerate_beta_classical(0.5, 0.5, p).value
        assert rel(a, b) <= 1e-11

    def test_pole_error_names_argument(self):
        p = DegenerateParameter(0.25)
        with pytest.raises(PoleError) as exc:
            degenerate_beta(-1.0, 0.5, p)
        assert exc.value.argument_name == "alpha"
        with pytest.raises(PoleError) as exc:
            degenerate_beta(0.5, 4.0, p)  # 4 = 1/lambda
        assert exc.value.argument_name == "beta"

    def test_mixed_path_sampled(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            lam = rng.uniform(0.2, 0.8)
            p = DegenerateParameter(lam)
            a = sample_regular(rng, p, (0.15, 1.2), 0.5, min_dist=0.1)
            while True:
                b = sample_regular(rng, p, (0.15, 1.2), 0.5, min_dist=0.1)
                d, _, _ = nearest_pole(a + b, p)
                if d >= 0.1:
                    break
            assert rel(
                degenerate_beta(a, b, p).value,
                degenerate_beta_classical(a, b, p).value,
            ) <= 1e-11


@pytest.mark.parametrize("k", range(160, 171))
def test_integer_values_below_171_overflow_as_described(k):
    # lambda = 1e-3: the direct route's k!/(1)_{k+1} overflows from k = 169 on
    p = DegenerateParameter(1e-3)
    closed = degenerate_gamma(k, p)
    if closed.status is EvalStatus.OVERFLOW:
        with pytest.raises(OverflowError, match=rf"\|dgamma\({k}\)\| = exp"):
            degenerate_gamma_integer(k, p)
    else:
        value = degenerate_gamma_integer(k, p).value
        assert cmath.isfinite(value)
        assert abs(value - closed.value) <= closed.abs_error_estimate
    assert k < 169 or closed.status is EvalStatus.OVERFLOW


def _stepwise_falling_exact(x, n, lam):
    out = Fraction(1)
    for j in range(n):
        out *= Fraction(x) - j * Fraction(lam)
    return out


@pytest.mark.parametrize("x, n, lam", [
    (1, 0, 0.3), (1, 11, 0.07), (1, 7, 0.1), (-2.5, 9, 0.3),
    (0.1, 13, 1.0 / 3.0), (Fraction(7, 3), 6, Fraction(1, 5)), (3, 5, 0.75),
])
def test_falling_factorial_exact_is_the_stepwise_product(x, n, lam):
    got = falling_factorial_exact(x, n, lam)
    want = _stepwise_falling_exact(x, n, lam)
    assert isinstance(got, Fraction)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize("s, lam", [
    (16.5, 0.3),  # right of the shifted poles, the parent's value had -8.9e-4i
    (-1.00001, 0.5),  # near-pole band, next to s = -1
    (-2.7, 0.3), (0.4, 0.3), (2.9, 0.3), (4.2, 0.3), (1e-7, 0.5), (-0.5, 0.9),
])
def test_real_argument_gives_a_real_value(s, lam):
    p = DegenerateParameter(lam)
    for arg in (s, complex(s, 0.0), complex(s, -0.0)):
        res = degenerate_gamma(arg, p)
        assert res.value.imag == 0.0
        reference = cmath.exp(res.log_value)
        assert abs(res.value.real - reference.real) <= 1e-14 * abs(reference)
        assert res.abs_error_estimate <= 1e-9 * abs(res.value)


def test_real_value_matches_the_real_closed_form():
    # lambda**(-s) Gamma(s) Gamma(u-s) / Gamma(u) with math.gamma, signs included
    for lam in (0.3, 0.5, 0.7):
        p = DegenerateParameter(lam)
        for s in np.linspace(-3.95, 1.0 / lam + 3.95, 57):
            if nearest_pole(s, p)[0] < 0.02:
                continue
            u = p.inv_lambda
            want = lam ** (-s) * math.gamma(s) * math.gamma(u - s) / math.gamma(u)
            got = degenerate_gamma(float(s), p).value
            assert got.imag == 0.0
            assert rel(got.real, want) <= 1e-12


_BETA_PATHS = {
    "ratio": degenerate_beta,
    "classical-mixed": degenerate_beta_classical,
    "product": lambda a, b, p: degenerate_beta_product(a, b, p, ProductSpec(n_terms=2000)),
}


@pytest.mark.parametrize("method", [*GAMMA_METHODS, *_BETA_PATHS])
def test_results_hold_python_scalars(method):
    # the CLI keys its row templates by each field's type, and repr shows
    # a numpy scalar as np.float64(...)
    p = DegenerateParameter(0.3)
    if method in _BETA_PATHS:
        results = [_BETA_PATHS[method](a, b, p)
                   for a, b in ((0.5, 0.7 + 1j), (0.5, 0.5), (0.5, -0.5))]
    else:
        evaluate = gamma_evaluator(method, DEFAULT_TOLERANCE, 2000)
        points = [0.5 + 1j, 0.5, 1.7 - 0.2j]
        if method == "closed-form":
            points += [0.0, -1.00001]  # pole and near-pole
        results = [evaluate(s, p) for s in points]
    for res in results:
        assert type(res.value) is complex
        assert type(res.abs_error_estimate) is float
        assert res.log_value is None or type(res.log_value) is complex


@pytest.fixture
def mp():
    """mpmath at 40 digits; the tests using it skip when it is missing."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def _mp_dgamma(mp, s, lam):
    """40-digit closed form; s as a float or an exact mpmath sum, never rounded."""
    lam, s = mp.mpf(lam), mp.mpc(s)
    u = 1 / lam
    return lam ** (-s) * mp.gamma(s) * mp.gamma(u - s) / mp.gamma(u)


def _mp_beta(mp, a, b, lam):
    a, b = mp.mpc(a), mp.mpc(b)
    return _mp_dgamma(mp, a, lam) * _mp_dgamma(mp, b, lam) / _mp_dgamma(mp, a + b, lam)


def _near_shifted_poles(seed, k):
    """Real s within 1e-2 of a shifted-family pole u + n, over random lambda."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        lam = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(0, 16))
        d = float(rng.choice([1e-6, -1e-6, 3e-5, -3e-5, 1e-3, -1e-2, 1e-2]))
        out.append((lam, 1.0 / lam + n + d))
    return out


class TestEstimateNearPoles:
    """|error| <= abs_error_estimate against 40-digit mpmath near the poles.

    There u = 1/lambda and the sums that form the arguments are rounded, and
    log Gamma feels that rounding divided by the distance to the pole.
    """

    @pytest.mark.parametrize("lam, s", [
        (0.21420600547186064, 4.6784031934453205),
        (0.06057393961117849, 23.51874957810169),
        (0.14410602272693862, 7.949335227472514),
        (0.16263578315163651, 7.158708363076724),
    ] + _near_shifted_poles(31, 40))
    def test_gamma(self, mp, lam, s):
        res = degenerate_gamma(s, DegenerateParameter(lam))
        assert abs(res.value - complex(_mp_dgamma(mp, s, lam))) <= res.abs_error_estimate

    @pytest.mark.parametrize("lam, a, b", [
        (0.15, 6.666665666666667, -3.4949495396202357),
        (0.7278529119981143, 15.383903962621764, -13.976855133087883),
        (0.787470038645188, 10.279889584269721, -7.63),
        (0.30859264876672843, 11.250517893075026, -8.2),
        (0.34060074842390053, -3e-05, 10.945988850956466),
        (0.8892755191238633, 15.041130727873583, 1.1244808838543372),
        # alpha + beta within 3e-5 of a non-positive pole: the sum is rounded
        (0.6139870346958366, -11.00003, -0.999999),
        (0.12168183420602573, -2.000001, -9.00003),
        (1e-3, -11.2, -4.63),
        (1e-3, 92.95417007833517, -3.00003),
        # the float alpha + beta is exactly the pole u + 6, the exact sum is not
        (0.08736834979150115, 25.445762468169935, -7.99997),
    ] + [(lam, s, -0.35) for lam, s in _near_shifted_poles(32, 20)])
    @pytest.mark.parametrize("path", [degenerate_beta, degenerate_beta_classical])
    def test_beta(self, mp, path, lam, a, b):
        res = path(a, b, DegenerateParameter(lam))
        assert abs(res.value - complex(_mp_beta(mp, a, b, lam))) <= res.abs_error_estimate

    @pytest.mark.parametrize("lam, z, b", [
        (lam, 1.0 / lam + 1e-7, 0.37) for lam in (0.45, 0.7)
    ] + [(lam, z, -0.35) for lam, z in _near_shifted_poles(33, 40)])
    @pytest.mark.parametrize("path", [weierstrass_gamma, euler_limit_gamma,
                                      degenerate_beta_product])
    def test_products(self, mp, path, lam, z, b):
        # at N = 1e12 the truncation is far below the rounding next to the pole;
        # b is the beta product's second argument
        p, spec = DegenerateParameter(lam), ProductSpec(n_terms=10**12)
        if path is degenerate_beta_product:
            res, want = path(z, b, p, spec), _mp_beta(mp, z, b, lam)
        else:
            res, want = path(z, p, spec), _mp_dgamma(mp, z, lam)
        assert abs(res.value - complex(want)) <= res.abs_error_estimate

    @pytest.mark.parametrize("lam, s, tol", [
        (0.45, 1.0 / 0.45 - 0.0101, DEFAULT_TOLERANCE),
        (0.7, 1.0 / 0.7 - 0.0101, DEFAULT_TOLERANCE),
        (0.2, 4.9899, 1e-13),
    ])
    @pytest.mark.parametrize("path", [hankel_gamma, hankel_gamma_reflected])
    def test_contours(self, mp, path, lam, s, tol):
        res = path(s, DegenerateParameter(lam), QuadratureSpec(rel_tolerance=tol))
        assert abs(res.value - complex(_mp_dgamma(mp, s, lam))) <= res.abs_error_estimate


class TestRecordsWithoutValue:
    """The records that carry no value: NaN with estimate inf, or the beta zero."""

    @pytest.mark.parametrize("s, family, n", [
        (-2.0, PoleFamily.NON_POSITIVE, 2), (3.0, PoleFamily.SHIFTED_BY_INV_LAMBDA, 1),
    ])
    def test_pole(self, s, family, n):
        p = DegenerateParameter(0.5)
        res = degenerate_gamma(s, p)
        assert res.status is EvalStatus.AT_POLE
        assert math.isnan(res.value.real) and math.isnan(res.value.imag)
        assert res.abs_error_estimate == math.inf
        assert res.log_value is None
        assert res.pole.residue == pole_residue(family, n, p)

    @pytest.mark.parametrize("s", [900.5, 900.5 + 1j])
    def test_overflow(self, s):
        res = degenerate_gamma(s, DegenerateParameter(0.001))
        assert res.status is EvalStatus.OVERFLOW
        assert math.isnan(res.value.real) and math.isnan(res.value.imag)
        assert res.abs_error_estimate == math.inf
        assert cmath.isfinite(res.log_value) and res.log_value.real > LOG_OVERFLOW

    @pytest.mark.parametrize("path", _BETA_PATHS.values(), ids=_BETA_PATHS)
    def test_beta_zero(self, path):
        res = path(1, 1, DegenerateParameter(0.5))
        assert res.value == 0j and type(res.value) is complex
        assert res.status is EvalStatus.REGULAR
        assert math.ulp(0.0) <= res.abs_error_estimate < math.inf
        assert res.note.startswith("alpha+beta sits at a pole")
        assert res.log_value is None


class TestSubnormalFloor:
    """Every estimate is at least one subnormal ulp, the error of a value rounded there."""

    @pytest.mark.parametrize("s", [0.5 + 234j, 0.5 + 240j])
    def test_estimate_bounds_the_error(self, mp, s):
        res = degenerate_gamma(s, DegenerateParameter(0.5))
        assert abs(mp.mpc(res.value) - _mp_dgamma(mp, s, 0.5)) <= res.abs_error_estimate


@pytest.mark.parametrize("call, error, message", [
    (lambda p: falling_factorial(1, -1, 0.3), ValueError, "^falling_factorial: "),
    (lambda p: falling_factorial_exact(1, -1, 0.3), ValueError, "^falling_factorial_exact: "),
    (lambda p: pole_residue(PoleFamily.NON_POSITIVE, -1, p), ValueError, "^pole_residue: "),
    (lambda p: poles(p, -1), ValueError, "^poles: "),
    (lambda p: degenerate_gamma_integer(0, p), ValueError, "^degenerate_gamma_integer: "),
    (lambda p: lambda_shift_recurrence(1.5, -1, p), ValueError, "^lambda_shift_recurrence: "),
    (lambda p: sine_product(0.5, 0), ValueError, "^sine_product: "),
    (lambda p: lambda_shift_recurrence(1.5, 3, p), ParameterRangeError, "k = 3 shift$"),
    (lambda p: degenerate_log(2.0, 0.0), ParameterRangeError, "^degenerate_log: "),
    (lambda p: GridSpec(1, 0, 1).points(), ValueError, "^GridSpec: empty grid$"),
    (lambda p: GridSpec(0, 1, 0).points(), ValueError, "^need finite numbers, step > 0"),
    (lambda p: GridSpec(0, math.inf, 1).points(), ValueError, "^need finite numbers"),
    (lambda p: GridSpec(0, math.nan, 1).points(), ValueError, "^need finite numbers"),
    (lambda p: GridSpec(0, 1, 1e-300).points(), ValueError, "at most 10000000 points$"),
], ids=[
    "falling_factorial", "falling_factorial_exact", "pole_residue", "poles",
    "degenerate_gamma_integer", "lambda_shift_recurrence-k", "sine_product",
    "lambda_shift_recurrence-lambda", "degenerate_log", "GridSpec",
    "GridSpec-step-0", "GridSpec-inf", "GridSpec-nan", "GridSpec-tiny-step",
])
def test_argument_refused(call, error, message):
    with pytest.raises(error, match=message):
        call(DegenerateParameter(0.3))


@pytest.mark.parametrize("start, stop, step, expected", [
    (0.0, 1.0, 0.6, [0.0, 0.6]),
    (0.0, 2.6, 1.0, [0.0, 1.0, 2.0]),
    (0.2, 1.8, 0.4, [0.2 + k * 0.4 for k in range(5)]),
    (2.0, 2.0, 1.0, [2.0]),
])
def test_grid_spec_ends_at_its_stop(start, stop, step, expected):
    """GridSpec and the CLI's ranges share one rule: no point past the stop."""
    assert GridSpec(start, stop, step).points() == [complex(x, 0.0) for x in expected]
    assert parse_range(f"{start!r}:{stop!r}:{step!r}") == expected


def test_closed_form_kernel_calls_match_the_measured_count(monkeypatch):
    # two log-gamma kernel calls per closed-form value or residue, six per
    # beta (the zero at a pole sum too); a second pole test or a term taken
    # twice shows as more calls, and the counts repeat exactly
    rng = np.random.default_rng(14)
    params = [DegenerateParameter(lam) for lam in rng.uniform(0.05, 0.95, 12)]
    kernel, calls = core._log_gamma_off_pole, []

    def counted(z):
        calls.append(z)
        return kernel(z)

    monkeypatch.setattr(core, "_log_gamma_off_pole", counted)  # after log Gamma(u)
    counts = dict.fromkeys(("gamma", "gamma-at-pole", "beta", "beta-zero",
                            "beta-classical", "gamma-log"), 0)

    def count(key, f, *args):
        calls.clear()
        f(*args)
        counts[key] += len(calls)

    for p in params:
        u = p.inv_lambda
        s = sample_regular(rng, p, (-3.0, u + 3.0), 5.0)
        x = sample_regular(rng, p, (-3.0, u + 3.0), 0.0).real
        while True:
            a, b = (sample_regular(rng, p, (-3.0, u + 3.0), 5.0) for _ in range(2))
            if nearest_pole(a + b, p)[0] >= 0.05:
                break
        n = int(rng.integers(0, 4))
        for w in (s, x):
            count("gamma", degenerate_gamma, w, p)
            count("gamma-log", degenerate_gamma_log, w, p)
        for pole in (-n, u + n):
            count("gamma-at-pole", degenerate_gamma, pole, p)
        count("beta", degenerate_beta, a, b, p)
        count("beta-zero", degenerate_beta, a, -n - a, p)
        count("beta-classical", degenerate_beta_classical, a, b, p)
    assert counts == {"gamma": 48, "gamma-at-pole": 48, "beta": 72, "beta-zero": 72,
                      "beta-classical": 72, "gamma-log": 48}
