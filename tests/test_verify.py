"""Tests for the cross-representation verification harness."""

import numpy as np
import pytest

from degamma import verify
from degamma.core import DegenerateParameter, degenerate_gamma
from degamma.verify import (
    CHECK_ROSTER,
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

    def test_samples_validated(self):
        with pytest.raises(ValueError):
            run_identity_suite(seed=0, samples=0)

    def test_benchmark_seeds_pass(self):
        # the seeds and sample count the verify-suite benchmark draws, at the
        # default truncation: a path that misses its own estimate fails here
        for seed in np.random.default_rng([0, 3]).integers(0, 2**31, size=100):
            for rep in run_identity_suite(seed=int(seed), samples=3):
                assert rep.passed, (int(seed), rep.check_name, rep.failures[:2])


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
    def test_reports_sorted_in_json(self):
        reports = run_limit_checks()[::-1]
        text = reports_to_json(reports)
        assert text.index("limit-lambda-to-one") < text.index("limit-lambda-to-zero")
