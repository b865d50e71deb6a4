"""Complex-plane numerics for the degenerate gamma and beta functions.

The one-parameter deformation implemented here is defined on the strip
0 < Re(s) < 1/lambda by

    dgamma_lambda(s) = integral_0^inf (1 + lambda*t)**(-1/lambda) t**(s-1) dt

for lambda in (0, 1), continues meromorphically to the whole plane with
simple poles at s = 0, -1, -2, ... and s = 1/lambda, 1/lambda + 1, ...,
and recovers the classical gamma function as lambda -> 0.  Every
representation -- closed form, defining integral, loop contour, infinite
products -- is implemented as an independent evaluation path, and the
:mod:`degamma.verify` harness cross-checks them against each other.
Each module's ``__all__`` (``errors``: its exception classes) is its public surface.

Only the integral paths, the product paths and the harness use numpy.  Their
modules load on the first use of one of their names, so code that needs only
the closed form never imports numpy.  Nor does it import ``dataclasses`` (its
records are named tuples) or ``fractions`` (only falling_factorial_exact does).
"""

# The closed-form modules load with the package; _LAZY names the numpy ones.
from .classical import *
from .core import *
from .errors import *

_LAZY = {
    **dict.fromkeys(("QuadratureSpec", "direct_integral_gamma", "hankel_gamma",
                     "hankel_gamma_reflected"), "quadrature"),
    **dict.fromkeys(("ProductSpec", "degenerate_beta_product", "euler_limit_gamma",
                     "sine_product", "weierstrass_gamma"), "representations"),
    **dict.fromkeys(("CHECK_ROSTER", "CheckReport", "GridSpec", "run_cross_path_scan",
                     "run_identity_suite", "run_limit_checks"), "verify"),
}

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_LAZY) | set(_LAZY.values()))


def __getattr__(name: str):
    from importlib import import_module
    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
