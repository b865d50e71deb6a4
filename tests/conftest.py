"""Shared fixtures."""

import pytest

from degamma import verify


@pytest.fixture
def perturb(monkeypatch):
    """perturb(check, factor) scales the observed value of each sample of one
    verify row by factor, so a test can show that the harness sees a fault."""

    def apply(check: str, factor: float = 1.0 + 1e-6) -> None:
        assert check in verify.CHECK_ROSTER, check

        def scale(sample):
            s, lam, path, observed, expected, tol = sample
            return s, lam, path, observed * factor, expected, tol

        def wrap(name, stream, fn):
            if name != check:
                return name, stream, fn
            if stream is None:
                return name, stream, lambda: map(scale, fn())
            return name, stream, lambda rng, run: scale(fn(rng, run))

        monkeypatch.setattr(verify, "_CHECKS", tuple(wrap(*row) for row in verify._CHECKS))

    return apply


@pytest.fixture
def mp():
    """mpmath at 40 digits; the tests using it skip when it is missing."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath
