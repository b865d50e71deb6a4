"""Tests for the cross-representation verification harness."""

import cmath
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from degamma import classical, quadrature, representations, verify
from degamma.core import DegenerateParameter, degenerate_gamma, degenerate_gamma_integer
from degamma.verify import (
    CHECK_ROSTER,
    CheckReport,
    GridSpec,
    _sample_complex,
    reports_to_json,
    run_cross_path_scan,
    run_identity_suite,
    run_limit_checks,
)

# every boxed identity the library implements must appear in the roster:
# difference equation, both closed-form identities, the single- and
# multi-step parameter shifts, integer values, both product forms, the
# rational limit, the sine product, all three beta expressions, both
# residue families, and both loop realizations.
EXPECTED_ROSTER = {
    "difference-equation",
    "closed-form-beta-identity",
    "reflection-symmetry",
    "lambda-shift-k0",
    "lambda-shift-k1",
    "lambda-shift-k2",
    "integer-values",
    "weierstrass-product-main",
    "weierstrass-product-paired",
    "euler-limit",
    "sine-product",
    "beta-classical-mixed",
    "beta-product",
    "beta-integer-formula",
    "residues-nonpositive",
    "residues-shifted",
    "hankel-contour",
    "hankel-contour-reflected",
}


class TestRoster:
    def test_roster_complete(self):
        assert set(CHECK_ROSTER) == EXPECTED_ROSTER

    def test_roster_sorted_and_unique(self):
        assert list(CHECK_ROSTER) == sorted(set(CHECK_ROSTER))

    def test_suite_emits_exactly_the_roster(self):
        reports = run_identity_suite(seed=0, samples=2, product_terms=10**4)
        assert tuple(r.check_name for r in reports) == CHECK_ROSTER


class TestIdentitySuite:
    def test_small_run_passes(self):
        reports = run_identity_suite(seed=0, samples=5, product_terms=10**4)
        for rep in reports:
            assert rep.passed, (rep.check_name, rep.failures[:2])
            assert rep.passed == (not rep.failures)
            assert rep.max_rel_err >= 0.0

    def test_deterministic(self):
        a = run_identity_suite(seed=3, samples=4, product_terms=10**4)
        b = run_identity_suite(seed=3, samples=4, product_terms=10**4)
        assert reports_to_json(a) == reports_to_json(b)

    def test_different_seed_differs(self):
        a = run_identity_suite(seed=3, samples=4, product_terms=10**4)
        b = run_identity_suite(seed=4, samples=4, product_terms=10**4)
        assert reports_to_json(a) != reports_to_json(b)

    def test_perturbed_path_fails_its_check(self):
        reports = run_identity_suite(
            seed=0, samples=4, product_terms=10**4,
            perturb_check="difference-equation",
        )
        by_name = {r.check_name: r for r in reports}
        assert not by_name["difference-equation"].passed
        for name, rep in by_name.items():
            if name != "difference-equation":
                assert rep.passed, name

    @pytest.mark.parametrize("check,factor", [
        ("reflection-symmetry", 1.0 + 1e-5),
        ("integer-values", 1.0 + 1e-5),
        ("hankel-contour", 1.0 + 1e-5),
        ("hankel-contour-reflected", 1.0 + 1e-11),
        ("beta-product", 1.05),  # product tolerance tracks its own O(1/N) tail
        ("residues-shifted", 1.0 + 1e-4),
    ])
    def test_every_check_is_sensitive(self, check, factor):
        reports = run_identity_suite(
            seed=1, samples=3, product_terms=10**4, perturb_check=check,
            perturb_factor=factor,
        )
        by_name = {r.check_name: r for r in reports}
        assert not by_name[check].passed

    @pytest.mark.parametrize("check", CHECK_ROSTER)
    def test_perturbation_fails_exactly_its_check(self, check):
        reports = run_identity_suite(
            seed=1, samples=3, product_terms=10**4, perturb_check=check,
            perturb_factor=1.05,
        )
        assert [r.check_name for r in reports if not r.passed] == [check]

    @pytest.mark.parametrize("check", [
        "difference-equation", "reflection-symmetry", "closed-form-beta-identity",
        "lambda-shift-k0", "lambda-shift-k1", "lambda-shift-k2", "integer-values",
        "weierstrass-product-paired", "beta-classical-mixed", "beta-integer-formula",
        "hankel-contour-reflected",
    ])
    def test_exact_identity_is_held_to_one_constant(self, check):
        # a 1e-11 disagreement is ten times the one exact-identity bound
        reports = run_identity_suite(
            seed=1, samples=3, product_terms=10**4, perturb_check=check,
            perturb_factor=1.0 + 1e-11,
        )
        failed = {r.check_name: r for r in reports if not r.passed}
        assert list(failed) == [check]
        assert {f["tol"] for f in failed[check].failures} == {verify.EXACT_TOL}

    @pytest.mark.parametrize("scale,fails", [(0.9, False), (1.5, True)])
    def test_approximate_path_is_held_to_its_own_estimate(self, monkeypatch, scale, fails):
        # each Euler-limit value moved off the closed form by scale times its
        # own estimate, which at N = 1e5 is far above the floor
        euler = representations.euler_limit_gamma

        def moved(s, p, spec):
            res = euler(s, p, spec)
            return res._replace(
                value=degenerate_gamma(s, p).value + scale * res.abs_error_estimate)

        monkeypatch.setattr(representations, "euler_limit_gamma", moved)
        reports = run_identity_suite(seed=1, samples=3, product_terms=10**5)
        by_name = {r.check_name: r for r in reports}
        assert len(by_name["euler-limit"].failures) == (3 if fails else 0)
        assert all(r.passed for name, r in by_name.items() if name != "euler-limit")

    @pytest.mark.parametrize("rel_err,fails", [(3e-13, False), (7e-13, True)])
    def test_estimate_below_the_floor_is_held_to_the_floor(self, monkeypatch, rel_err, fails):
        # an estimate of 0 still leaves the rounding of the reference itself
        euler = representations.euler_limit_gamma

        def exact(s, p, spec):
            return euler(s, p, spec)._replace(
                value=degenerate_gamma(s, p).value * (1.0 + rel_err), abs_error_estimate=0.0)

        monkeypatch.setattr(representations, "euler_limit_gamma", exact)
        by_name = {r.check_name: r for r in run_identity_suite(seed=1, samples=3)}
        assert {f["tol"] for f in by_name["euler-limit"].failures} == (
            {verify.ESTIMATE_FLOOR} if fails else set())

    @pytest.mark.parametrize("check", ["residues-nonpositive", "residues-shifted"])
    def test_residue_rows_see_a_1e_8_fault(self, check):
        # the four-angle limit reaches about 1e-12 at every fixed point
        reports = run_identity_suite(
            seed=1, samples=1, product_terms=10**4, perturb_check=check,
            perturb_factor=1.0 + 1e-8,
        )
        assert [r.check_name for r in reports if not r.passed] == [check]

    def test_samples_validated(self):
        with pytest.raises(ValueError):
            run_identity_suite(seed=0, samples=0)

    def test_benchmark_seeds_pass(self):
        # the seeds and sample count the verify-suite benchmark draws, at the
        # default truncation: a path that misses its own estimate fails here
        for seed in np.random.default_rng([0, 3]).integers(0, 2**31, size=100):
            for rep in run_identity_suite(seed=int(seed), samples=3):
                assert rep.passed, (int(seed), rep.check_name, rep.failures[:2])


def _shifted(fn, f):
    """fn with f added to its value, a log: a relative fault f in what it stands for."""
    return lambda *args, **kwargs: fn(*args, **kwargs) + f


def _scaled(fn, f):
    return lambda *args, **kwargs: fn(*args, **kwargs) * (1.0 + f)


def _faulty_ladder(ladder, f):
    def faulty(*args, **kwargs):
        total, err = ladder(*args, **kwargs)
        return total * (1.0 + f), err
    return faulty


def _faulty_far_piece(piece, f):
    def faulty(*args, **kwargs):
        far, back, log_back = piece(*args, **kwargs)
        return (lambda geometry: far(geometry) * (1.0 + f)), back * (1.0 + f), log_back
    return faulty


# Every kernel that more than one path runs: (owner, attribute, maker of the
# faulty replacement from the original and a relative fault f).  sin_pi is
# faulted only where the contours call it, through quadrature's own view of
# the classical module.
SHARED_KERNELS = {
    "paired-log-sum": (representations, "_paired_log_sum", _shifted),
    "lanczos-log": (classical, "_lanczos_log", _shifted),
    "cc-ladder": (quadrature, "_cc_ladder", _faulty_ladder),
    "sin-pi-in-quadrature": (quadrature, "classical", lambda module, f: SimpleNamespace(
        **{**vars(module), "sin_pi": _scaled(module.sin_pi, f)})),
    "log-gamma-inv-lambda": (DegenerateParameter, "log_gamma_inv_lambda",
                             lambda prop, f: property(_shifted(prop.fget, f))),
    "far-piece": (quadrature, "_far_piece", _faulty_far_piece),
}


@pytest.mark.parametrize("kernel", SHARED_KERNELS)
def test_every_shared_kernel_is_caught(monkeypatch, kernel):
    # a relative 1e-10 fault in any shared kernel fails at least one check of
    # what ``degamma verify`` runs, at its default product truncation
    owner, name, make_faulty = SHARED_KERNELS[kernel]
    monkeypatch.setattr(owner, name, make_faulty(getattr(owner, name), 1e-10))
    reports = run_identity_suite(seed=0, samples=10) + run_limit_checks()
    reports.append(run_cross_path_scan(GridSpec(0.2, 1.8, 0.4), DegenerateParameter(0.5)))
    assert [r.check_name for r in reports if not r.passed]


def test_products_run_at_1e12_in_the_suite_and_the_scan(monkeypatch):
    # at N = 1e5 a product's own estimate, about 3e-5 relative, hides the fault
    owner, name, make_faulty = SHARED_KERNELS["paired-log-sum"]
    monkeypatch.setattr(owner, name, make_faulty(getattr(owner, name), 1e-10))
    failed = {r.check_name for r in run_identity_suite(seed=0, samples=3) if not r.passed}
    assert {"weierstrass-product-main", "euler-limit", "beta-product", "sine-product"} <= failed
    scan = run_cross_path_scan(GridSpec(0.2, 1.8, 0.4), DegenerateParameter(0.5))
    assert {f["path"] for f in scan.failures} == {"weierstrass", "euler-limit"}


@pytest.mark.parametrize("samples", [3, 10])
def test_paired_row_catches_a_naive_log1p(monkeypatch, samples):
    # _log1p_real keeps the Euler-Maclaurin stretch off complex log1p, which
    # is off by about 1e-11 relative near 1e-5; at N = 2000 or 4000 the direct
    # sum stops too early to see it, which is why the row runs at 1e4
    monkeypatch.setattr(representations, "_log1p_real", lambda c, t: cmath.log(1 + c / t))
    by_name = {r.check_name: r for r in run_identity_suite(seed=0, samples=samples)}
    assert by_name["weierstrass-product-paired"].failures


def test_paired_row_sums_at_most_paired_terms_directly(monkeypatch):
    # the direct sum costs O(N): one call per sample, and none past 1e4 terms
    calls = []
    weierstrass = representations.weierstrass_gamma

    def counted(z, p, spec=None, euler_constant_form=False):
        calls.append((euler_constant_form, spec.n_terms))
        return weierstrass(z, p, spec, euler_constant_form)

    monkeypatch.setattr(representations, "weierstrass_gamma", counted)
    run_identity_suite(seed=0, samples=3)
    direct = [n for form, n in calls if form]
    assert len(direct) == 3
    assert all(n <= verify.PAIRED_TERMS <= 10**4 for n in direct)


def test_integer_references_keep_their_bits():
    # the integer ratio rounds once, as float(Fraction) does: every reference
    # on both grids is the float of the exact Fraction
    def exact(k, lam):
        return degenerate_gamma_integer(k, DegenerateParameter(lam)).exact()

    rows = list(verify._integer_values())
    assert len(rows) == 40
    for s, lam, _, _, expected, _ in rows:
        k = int(s.real)
        assert Fraction(*verify._integer_ratio(k, lam)) == exact(k, lam)
        assert expected == complex(float(exact(k, lam)))
    rows = list(verify._beta_integer_formula())
    assert len(rows) == 36
    for s, lam, _, _, expected, _ in rows:
        m, n = int(s.real), int(s.imag)
        assert expected == complex(float(exact(m, lam) * exact(n, lam) / exact(m + n, lam)))


class _StubRng:
    """Feeds scripted uniform draws, then a near-pole point, then good ones."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self, lo, hi):
        if self.draws:
            return self.draws.pop(0)
        return 0.62 * (hi - lo) / 2 + (lo + hi) / 2  # harmless interior point


class TestSampler:
    def test_near_pole_draw_is_resampled(self):
        p = DegenerateParameter(0.5)
        # first candidate lands exactly on the pole at 0, second is regular
        rng = _StubRng([1e-9, 0.0, 0.7, 0.1])
        from degamma.verify import _away_from_poles

        pts = [
            _sample_complex(
                rng, (-1.0, 1.0), (-1.0, 1.0),
                lambda s: not _away_from_poles(s, p),
            )
        ]
        assert len(pts) == 1
        assert abs(pts[0] - complex(0.7, 0.1)) < 1e-12

    def test_rejecting_every_draw_raises(self):
        with pytest.raises(RuntimeError, match="covers the whole rectangle"):
            _sample_complex(np.random.default_rng(0), (-1.0, 1.0), (-1.0, 1.0),
                            lambda s: True)


class TestCrossPathScan:
    def test_example_grid(self):
        scan = run_cross_path_scan(
            GridSpec(0.2, 1.8, 0.4), DegenerateParameter(0.5),
            product_terms=10**4,
        )
        assert scan.passed
        assert scan.sample_count == 5
        # s = 1.0 is an integer: the loop-contour path must be skipped there,
        # not failed
        assert scan.per_path["hankel"]["skipped"] == 1
        assert scan.per_path["hankel"]["evaluated"] == 4
        assert scan.per_path["direct-integral"]["evaluated"] == 5

    def test_not_applicable_path(self):
        # entire grid sits right of the validity strip for lambda = 0.5
        scan = run_cross_path_scan(
            GridSpec(2.2, 2.4, 0.2), DegenerateParameter(0.5),
            product_terms=10**4,
        )
        assert not scan.per_path["direct-integral"]["applicable"]
        assert not scan.per_path["hankel"]["applicable"]
        assert scan.per_path["weierstrass"]["applicable"]

    def test_pole_cell_skipped_for_all_paths(self):
        scan = run_cross_path_scan(
            GridSpec(2.0, 2.0, 1.0), DegenerateParameter(0.5),
            product_terms=10**4,
        )
        assert scan.per_path["weierstrass"]["skipped"] == 1


class TestLimitChecks:
    def test_both_limits_pass(self):
        reports = run_limit_checks()
        assert [r.check_name for r in reports] == [
            "limit-lambda-to-one", "limit-lambda-to-zero",
        ]
        for rep in reports:
            assert rep.passed, rep.failures

    def test_error_that_does_not_fall_fails_monotone(self, monkeypatch):
        # lambda stays at 0.3 for every eps, against that lambda's own value:
        # the final deviation is 0, but it does not decrease
        p = DegenerateParameter(0.3)
        monkeypatch.setattr(verify, "_LIMITS", (
            ("limit-fixed", "fixed-limit", (0.5,),
             lambda s: degenerate_gamma(s, p).value, lambda eps: 0.3, 1e-4),
        ))
        (report,) = run_limit_checks()
        assert report.sample_count == 3
        assert [f["path"] for f in report.failures] == ["fixed-limit-monotone"]
        assert report.failures[0]["tol"] == 0.0
        assert not report.passed


class TestSerialization:
    def test_to_dict_is_an_independent_copy(self):
        rep = CheckReport("demo", per_path={"hankel": {"evaluated": 1, "skipped": 0}})
        rep.fail(0.5 + 1j, 0.3, "hankel", 1 + 0j, 2 + 0j, 0.5, 1e-12)
        before = rep.to_dict()
        out = rep.to_dict()
        out["failures"][0]["rel_err"] = 9.0
        out["failures"].append({})
        out["per_path"]["hankel"]["evaluated"] = 7
        out["per_path"]["weierstrass"] = {}
        out["check_name"] = "other"
        assert rep.to_dict() == before
        assert rep.failures[0]["rel_err"] == 0.5
        assert rep.per_path == {"hankel": {"evaluated": 1, "skipped": 0}}
        assert "per_path" not in CheckReport("bare").to_dict()

    def test_reports_sorted_in_json(self):
        reports = run_limit_checks()[::-1]
        text = reports_to_json(reports)
        assert text.index("limit-lambda-to-one") < text.index("limit-lambda-to-zero")
