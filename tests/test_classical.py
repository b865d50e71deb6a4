"""Tests for the classical complex-plane kernel."""

import cmath
import math
import os
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degamma import classical, core
from degamma.classical import (
    EULER_GAMMA,
    beta,
    gamma,
    log_beta,
    log_gamma,
    reflection_product,
    sin_pi,
)
from degamma.errors import DomainError, PoleError

mp.mp.dps = 40


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestLogGamma:
    def test_at_one_is_exactly_zero(self):
        res = log_gamma(1.0)
        assert res.log_abs == 0.0
        assert res.arg == 0.0

    def test_at_two_is_exactly_zero(self):
        # math.lgamma returns both zeros of log Gamma exactly, so Gamma(1)
        # and Gamma(2) stay exactly 1 without a shortcut of their own.
        res = log_gamma(2.0)
        assert res.log_abs == 0.0
        assert res.arg == 0.0
        assert gamma(1.0) == gamma(2.0) == 1.0

    def test_half(self):
        res = log_gamma(0.5)
        assert res.log_abs == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert res.arg == 0.0

    def test_five(self):
        assert log_gamma(5.0).log_abs == pytest.approx(math.log(24.0), rel=1e-14)

    def test_negative_half_takes_positive_arg(self):
        # Gamma(-0.5) = -2 sqrt(pi): negative value encoded with arg = +pi
        res = log_gamma(-0.5)
        assert res.log_abs == pytest.approx(math.log(2.0 * math.sqrt(math.pi)),
                                            rel=1e-14)
        assert res.arg == pytest.approx(math.pi, abs=1e-14)

    def test_pole_error_at_nonpositive_integers(self):
        for z in (0.0, -1.0, -2.0, -7.0, complex(-3.0, 0.5e-8)):
            with pytest.raises(PoleError):
                log_gamma(z)

    def test_just_outside_pole_tolerance_is_fine(self):
        log_gamma(complex(-3.0, 2e-8))

    @pytest.mark.parametrize("z", [
        0.5, 1.0, 2.0, 5.5, 20.0, 169.5, 170.0,
        complex(0.5, 10.0), complex(10.0, -10.0), complex(-5.3, 2.2),
        complex(-0.5, -120.0), complex(100.0, 100.0), complex(-120.3, 17.0),
        complex(3.7, -160.0), complex(-33.5, 0.25),
    ])
    def test_against_high_precision(self, z):
        zz = complex(z)
        ref = mp.loggamma(mp.mpc(zz.real, zz.imag))
        res = log_gamma(zz)
        assert abs(res.log_abs - float(ref.real)) <= 1e-13 * max(
            1.0, abs(float(ref.real))
        )
        # arg must agree with the analytic continuation (not just mod 2 pi)
        if zz.imag != 0.0 or zz.real > 0:
            assert abs(res.arg - float(ref.imag)) <= 1e-12 * max(
                1.0, abs(float(ref.imag))
            )

    def test_dense_random_accuracy(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            z = complex(rng.uniform(-170, 170), rng.uniform(-170, 170))
            if abs(z.imag) < 0.1 and z.real < 0.5:
                continue  # pole rows, covered elsewhere
            ref = mp.loggamma(mp.mpc(z.real, z.imag))
            mine = log_gamma(z).as_complex()
            err = abs(mine - complex(ref))
            assert err <= 1e-13 * max(1.0, abs(complex(ref))), z


def _lanczos_log_reference(z):
    """The complex Lanczos sum written out term by term, shift inside the loop."""
    acc = classical._LANCZOS_C[0] + 0.0j
    for k in range(1, len(classical._LANCZOS_C)):
        acc += classical._LANCZOS_C[k] / (z - 1.0 + k)
    t = z - 0.5 + classical._LANCZOS_G
    return (classical._HALF_LOG_TWO_PI + (z - 0.5) * cmath.log(t) - t
            + cmath.log(acc))


def _complex_path(z):
    """log Gamma(z) in complex arithmetic throughout: Lanczos or reflection."""
    if z.real >= 0.5:
        return _lanczos_log_reference(z)
    unwind = math.copysign(2.0 * math.pi, z.imag) * math.floor(0.5 * z.real + 0.25)
    return (complex(classical._LOG_PI, unwind)
            - classical._log_sin_pi(z)
            - _lanczos_log_reference(1.0 - z))


# Real arguments: the reflection boundary, negative half-integers (sin(pi x)
# = +-1 and cos(pi x) a signed zero), 1e-7 from a pole, the zeros of log
# Gamma at 1 and 2, points where cmath's log1p band [0.71, 1.73] once decided
# the last bit (30.02, 95.26, 142.2 and their reflections), and magnitudes up
# to 1e13.
_REAL_GRID = sorted({
    0.5, math.nextafter(0.5, 1.0), 0.5 + 1e-15, 0.5 + 1e-9, 0.50001,
    math.nextafter(0.5, 0.0), 0.4999999, 0.25, 1e-7, 1e-3, 0.75, 1.0, 1.5,
    2.0, 2.5, 3.0, 7.25, 17.9, 18.0, 25.0, 30.02, 40.5, 95.26, 142.2, 171.3,
    1e3 + 0.1, 1e6 / 3, 1e13, 1e13 / 3, -29.02, -94.26, -141.2,
    *(-n - 0.5 for n in range(0, 60, 3)),
    *(-n + d for n in range(0, 200, 7) for d in (1e-7, -1e-7, 3e-8, -3e-8)),
    -0.25, -0.75, -1.25, -1.75, -3.3, -16.6, -17.2, -30.3, -171.7, -1e4 - 0.8,
    -1e13 + 0.5, -1e13 / 3,
})


def _off_pole(z):
    try:
        classical._refuse_integer("log_gamma", "z", complex(z), "a pole", nonpositive=True)
    except PoleError:
        return False
    return True


_REAL_SAMPLES = st.one_of(
    st.floats(-1e13, 1e13),
    st.floats(-60.0, 60.0),
    st.integers(-300, 0).flatmap(
        lambda n: st.floats(n - 0.5, n + 0.5).filter(lambda x: x != n)
    ),
).filter(_off_pole)

# |error| <= _REAL_TOL * max(1, |log Gamma(x)|): 25 times tighter than the
# complex plane's 1e-13.  Within 1e-6 of -10 or -11, log|Gamma| is about 1
# while its two parts, -log|x + n| and log n!, are about 16 each; there the
# error is bounded relative to log|x + n| instead (both the Lanczos path and
# math.lgamma reach 6e-15 to 9e-15 relative to max(1, |log Gamma|)).
_REAL_TOL = 4e-15


def _real_tol(x, ref):
    pole_part = abs(math.log(abs(x - round(x)))) if x < 0.5 else 0.0
    return _REAL_TOL * max(1.0, abs(ref), pole_part)


def _assert_real_axis_accurate(x, y):
    got = classical._log_gamma_off_pole(complex(x, y)).real
    ref = float(mp.re(mp.loggamma(mp.mpf(x))))
    assert abs(got - ref) <= _real_tol(x, ref), (x, got, ref)


def _assert_continuous_across_axis(x, sign):
    """f(x +- 0j) against the complex path at x +- 1e-300j, or left of 0,
    where both zeros take the lower side, at x - 1e-300j."""
    on_axis = classical._log_gamma_off_pole(complex(x, math.copysign(0.0, sign)))
    off_axis = classical._log_gamma_off_pole(complex(x, (sign if x >= 0.0 else -1.0) * 1e-300))
    assert abs(on_axis.real - off_axis.real) <= _real_tol(x, off_axis.real), x
    # On the axis Im is a multiple of pi; off it, Im moves by 1e-300 * psi(x).
    assert abs(on_axis.imag - off_axis.imag) <= math.ulp(
        max(abs(on_axis.imag), math.pi)
    ), x


def _real_axis_reference(x, y):
    """math.lgamma(x), with the reflection's sign rule for Im left of 1/2;
    left of 0 the zero is -0.0, the lower half-plane's side."""
    if x >= 0.5:
        return math.lgamma(x), 0.0
    y = -0.0 if x < 0.0 else y
    arg = math.atan2(_cospi_reference(x) * y, _sinpi_reference(x))
    unwind = math.copysign(2.0 * math.pi, y) * math.floor(0.5 * x + 0.25)
    return math.lgamma(x), unwind - arg


class TestRealAxisPath:
    """The real axis takes math.lgamma; the complex path keeps its own bits."""

    @pytest.mark.parametrize("y", [0.0, -0.0])
    def test_grid_bits_are_lgamma_and_the_sign_rule(self, y):
        for x in _REAL_GRID:
            got = classical._log_gamma_off_pole(complex(x, y))
            assert repr((got.real, got.imag)) == repr(_real_axis_reference(x, y)), x

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_grid_accurate(self, sign):
        for x in _REAL_GRID:
            _assert_real_axis_accurate(x, math.copysign(0.0, sign))

    @given(_REAL_SAMPLES, st.sampled_from([0.0, -0.0]))
    @settings(max_examples=400, deadline=None)
    def test_sampled_accurate(self, x, y):
        _assert_real_axis_accurate(x, y)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_grid_continuous_across_axis(self, sign):
        for x in _REAL_GRID:
            _assert_continuous_across_axis(x, sign)

    @given(_REAL_SAMPLES, st.sampled_from([1.0, -1.0]))
    @settings(max_examples=400, deadline=None)
    def test_sampled_continuous_across_axis(self, x, sign):
        _assert_continuous_across_axis(x, sign)

    # Positive arguments off the grid: tiny and huge magnitudes, and the
    # neighbourhood of the zero at 1, where log Gamma is small and the error
    # bound is absolute.
    @pytest.mark.parametrize("a", [
        1e-300, 1e-8, 0.5, math.nextafter(0.71, 0.0), 0.71, 0.713, 1.0,
        math.nextafter(1.0, 2.0), 1.2345, 1.725, 1.73, math.nextafter(1.73, 2.0),
        4.7, 1e13, 1e300,
    ])
    def test_positive_point_accurate(self, a):
        for y in (0.0, -0.0):
            _assert_real_axis_accurate(a, y)
            assert classical._log_gamma_off_pole(complex(a, y)).imag == 0.0

    def test_past_lgamma_range_falls_back_to_complex_path(self):
        # math.lgamma overflows from about 2.56e305; there the complex path
        # answers, as before, with log|Gamma| = inf.
        for x in (1e300, 2.5e305):
            res = log_gamma(x)
            ref = float(mp.loggamma(mp.mpf(x)))
            assert abs(res.log_abs - ref) <= _REAL_TOL * ref
            assert res.arg == 0.0
        for x in (2.6e305, 1e307):
            res = log_gamma(x)
            assert (repr(res.log_abs), repr(res.arg)) == ("inf", "0.0")

    @given(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0))
    @settings(max_examples=200, deadline=None)
    def test_complex_loop_bit_identical(self, x, y):
        z = complex(x, y)
        assume(y != 0.0 and _off_pole(z))
        assert repr(classical._log_gamma_off_pole(z)) == repr(_complex_path(z))


def _sinpi_reference(x):
    """sin(pi*x) by the recursive reduction the kernel used before _sincospi."""
    if x < 0.0:
        return -_sinpi_reference(-x)
    r = math.fmod(x, 2.0)
    if r < 0.5:
        return math.sin(math.pi * r)
    if r < 1.5:
        return math.sin(math.pi * (1.0 - r))
    return math.sin(math.pi * (r - 2.0))


def _cospi_reference(x):
    """cos(pi*x) as the shifted sine, the way the kernel took it before _sincospi."""
    return _sinpi_reference(0.5 - math.fmod(abs(x), 2.0))


# Signed zeros, integers and half-integers (where one of the pair is an exact
# zero), the reduction's branch edges and their neighbours, and magnitudes up
# to where every float is an even integer.
_SINCOS_GRID = tuple(sign * x for sign in (1.0, -1.0) for x in (
    0.0, 5e-324, 1e-300, 1e-17, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0,
    *(math.nextafter(e, d) for e in (0.5, 1.0, 1.5, 2.0) for d in (0.0, 3.0)),
    *(k + 0.0 for k in range(3, 12)), *(k + 0.5 for k in range(2, 12)),
    2.0**52 - 0.5, 2.0**52 + 1.0, 2.0**53, 1e15 + 0.5, 1e16, 1e16 + 2.0, 1e300,
))


def _assert_sincospi_bits(x):
    want = (_sinpi_reference(x), _cospi_reference(x))
    assert repr(classical._sincospi(x)) == repr(want), x


class TestKernelBits:
    """The shared sin/cos-pi reduction and the off-pole dispatch, bit for bit."""

    def test_sincospi_grid(self):
        for x in _SINCOS_GRID:
            _assert_sincospi_bits(x)

    @given(st.one_of(st.floats(-8.0, 8.0), st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=400, deadline=None)
    def test_sincospi_sampled(self, x):
        _assert_sincospi_bits(x)

    @pytest.mark.parametrize("z", [
        0.5 + 1e-300j, 0.5 - 3j, math.nextafter(0.5, 0.0) + 2j, -0.5 + 0.25j,
        -7.5 - 1e-9j, -170.3 + 40j, 2.5 + 300j, -2.5 - 300j, 1e6 + 1j, -1e6 + 0.5j,
        0.25 + 1e5j, -3.7 - 120j, 12.5 - 111.3j,
    ])
    def test_off_pole_complex_grid(self, z):
        assert repr(classical._log_gamma_off_pole(z)) == repr(_complex_path(z))

    @given(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0))
    @settings(max_examples=300, deadline=None)
    def test_off_pole_complex_sampled(self, x, y):
        z = complex(x, y)
        assume(y != 0.0 and _off_pole(z))
        assert repr(classical._log_gamma_off_pole(z)) == repr(_complex_path(z))


def _package_frames(f, *args):
    """Python frames entered in degamma's own modules during f(*args)."""
    package, frames = os.path.dirname(classical.__file__), []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            frames.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(previous)
    return frames


@pytest.mark.parametrize("f, args, count", [
    (log_gamma, (3.7,), 3),
    (log_gamma, (-2.5,), 4),
    (log_gamma, (-2.5 + 1j,), 6),
    (log_gamma, (2.5 + 1j,), 4),
    (core.degenerate_gamma, (1.5, core.DegenerateParameter(0.3)), 7),
    (core.degenerate_gamma, (-1.5 + 0.5j, core.DegenerateParameter(0.3)), 11),
], ids=["log_gamma-real", "log_gamma-reflected-real", "log_gamma-reflected",
        "log_gamma-lanczos", "degenerate_gamma-real", "degenerate_gamma-reflected"])
def test_kernel_frames_match_the_measured_count(f, args, count):
    # One frame each for the pole test and the dispatch, plus the sums they
    # need; a layer put back between them shows as more frames.  Frames are
    # counted, not wrapped names, so a rename cannot zero the count.
    frames = _package_frames(f, *args)
    assert len(frames) == count, frames


class TestGamma:
    def test_integer_values(self):
        for n in range(1, 21):
            assert rel(gamma(n), math.factorial(n - 1)) <= 1e-14

    def test_four(self):
        assert gamma(4) == pytest.approx(6.0, rel=1e-14)

    def test_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_conjugate_symmetry_structure(self):
        z = complex(1.0, 1.0)
        a, b = gamma(z), gamma(z.conjugate())
        assert b.real == pytest.approx(a.real, abs=abs(np.spacing(a.real)))
        assert b.imag == pytest.approx(-a.imag, abs=abs(np.spacing(a.imag)))

    def test_conjugate_symmetry_sampled(self):
        # <= 1 ulp drift per component
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = complex(rng.uniform(0.1, 20.0), rng.uniform(-20.0, 20.0))
            a = gamma(z)
            b = gamma(z.conjugate())
            assert abs(b.real - a.real) <= abs(np.spacing(a.real))
            assert abs(b.imag + a.imag) <= abs(np.spacing(a.imag))

    def test_recurrence_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z = complex(rng.uniform(0.1, 20.0), rng.uniform(-20.0, 20.0))
            lhs = gamma(z + 1)
            assert abs(lhs - z * gamma(z)) <= 1e-12 * abs(lhs)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma(172.0)

    def test_overflow_log_space_still_available(self):
        assert log_gamma(172.0).log_abs > 709.0


class TestReflection:
    def test_half(self):
        assert reflection_product(0.5) == pytest.approx(math.pi, rel=1e-15)

    def test_quarter(self):
        assert reflection_product(0.25) == pytest.approx(
            math.pi * math.sqrt(2.0), rel=1e-14
        )

    def test_against_gamma_pair_high_imag(self):
        z = complex(0.5, 10.0)
        direct = reflection_product(z)
        via_logs = cmath.exp(
            log_gamma(z).as_complex() + log_gamma(1 - z).as_complex()
        )
        assert rel(direct, via_logs) <= 1e-10

    def test_reflection_invariant_sampled(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 200:
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z.real - round(z.real)) < 0.05 and abs(z.imag) < 0.05:
                continue
            count += 1
            pair = gamma(z) * gamma(1 - z)
            assert rel(pair, reflection_product(z)) <= 1e-10

    def test_pole_at_integers(self):
        with pytest.raises(PoleError):
            reflection_product(3.0)

    @pytest.mark.parametrize("z", [
        0.3 + 225.6j, complex(0.3, math.nextafter(709.0 / math.pi, 0.0)),
        complex(0.3, 709.0 / math.pi), 0.3 + 225.95j, 0.3 + 226.1j, 0.7 - 226j,
        2.5 + 226.05j, 0.3 + 226.2j, 0.3 + 230j, -5.7 - 230j, 0.3 + 237j,
        1e6 + 0.25 - 228j, 0.5 + 300j,
    ])
    def test_where_sin_pi_overflows(self, z):
        # sin(pi z) overflows past |Im z| of about 226.15, and pi / sin(pi z)
        # rounded to 0 a little before (from 226.085 at Re z = 0.3); the
        # value is representable
        ref = mp.pi / mp.sin(mp.pi * mp.mpc(z.real, z.imag))
        got = reflection_product(z)
        assert abs(mp.mpc(got.real, got.imag) - ref) <= 1e-13 * abs(ref) + math.ulp(0.0)


class TestBeta:
    def test_ones(self):
        assert beta(1, 1) == pytest.approx(1.0, rel=1e-14)

    def test_two_three(self):
        assert beta(2, 3) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_halves(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_huge_argument_is_refused(self):
        # log Gamma(1e308) and log Gamma(1e308 + 0.5) are both inf; their
        # difference was returned as nan + 0j
        with pytest.raises(DomainError, match="^log_beta: a = .* too large in modulus$"):
            log_beta(1e308, 0.5)

    @staticmethod
    def _rounding_bound(a, b):
        """eps times the three log-gamma terms' moduli: log_beta's stated error."""
        terms = (log_gamma(a), log_gamma(b), log_gamma(a + b))
        return math.ulp(1.0) * sum(abs(t.as_complex()) for t in terms)

    @pytest.mark.parametrize("a", [1e6j, 1e12j])
    def test_large_imaginary_argument_within_its_bound(self, a):
        want = mp.beta(mp.mpc(a.real, a.imag), mp.mpf(0.5))
        got = beta(a, 0.5)
        err = abs(mp.mpc(got.real, got.imag) - want) / abs(want)
        assert err <= self._rounding_bound(a, 0.5) < 1.0

    # from 1e14i on rounding alone leaves no correct digit; 1e200i gave 0j
    @pytest.mark.parametrize("a", [1e14j, 1e16j, 1e200j])
    def test_no_correct_digit_is_refused(self, a):
        assert not self._rounding_bound(a, 0.5) < 1.0
        with pytest.raises(DomainError, match="^log_beta: a = .* too large in modulus$"):
            beta(a, 0.5)

    def test_pole_identifies_argument(self):
        with pytest.raises(PoleError) as exc:
            beta(-1.0, 0.5)
        assert exc.value.argument_name == "a"
        with pytest.raises(PoleError) as exc:
            beta(0.25, -0.25)
        assert exc.value.argument_name == "a+b"


class TestSinPi:
    def test_huge_argument_reduction(self):
        assert sin_pi(1e8 + 0.25) == pytest.approx(math.sin(math.pi * 0.25),
                                                   rel=1e-15)

    def test_exact_zero_at_integers(self):
        assert sin_pi(7.0).real == 0.0
        assert sin_pi(-12.0).real == 0.0

    @given(st.floats(-50, 50), st.floats(-20, 20))
    @settings(max_examples=80, deadline=None)
    def test_matches_cmath_sin(self, x, y):
        z = complex(x, y)
        ref = cmath.sin(math.pi * z)
        assert abs(sin_pi(z) - ref) <= 1e-9 * max(abs(ref), 1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_finite_argument_is_refused(self, bad, part):
        z = complex(bad, 0.3) if part == "re" else complex(0.3, bad)
        with pytest.raises(DomainError, match="sin_pi"):
            sin_pi(z)

    def test_overflow_past_the_largest_sinh_stays(self):
        # the documented policy of errors.py: a representable magnitude
        # that overflows raises the builtin OverflowError
        with pytest.raises(OverflowError):
            sin_pi(0.3 + 230j)


class TestEulerConstant:
    def test_value(self):
        # H_n - log n, Richardson-style check of the stored double
        n = 10**7
        h = float(np.sum(1.0 / np.arange(1, n + 1, dtype=np.float64)))
        approx = h - math.log(n) - 1.0 / (2.0 * n)
        assert abs(EULER_GAMMA - approx) < 1e-10


class TestLogBeta:
    @given(
        st.floats(0.2, 30.0), st.floats(-10.0, 10.0),
        st.floats(0.2, 30.0), st.floats(-10.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_exp_consistency(self, ar, ai, br, bi):
        a, b = complex(ar, ai), complex(br, bi)
        direct = cmath.exp(log_beta(a, b))
        assert rel(direct, beta(a, b)) <= 1e-13
