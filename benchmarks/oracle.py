"""40-digit mpmath references for the point-eval and integral-paths inputs.

The references are computed in a child process (``python3 oracle.py IN OUT
SRC``), so mpmath never runs inside a timed region and never counts toward
the workload process's peak RSS.  Results are cached per input set under the
benchmark's output directory.  Before computing anything the child checks its
own formulas against exact values: dgamma(1) = 1/(1 - lambda), and the
integer values given as exact rationals by
``degenerate_gamma_integer(k, p).exact()``.

A reference spec is a tuple:

- ``("dgamma", s_re, s_im, lam)``: lambda**(-s) Gamma(s) Gamma(u-s) / Gamma(u);
- ``("beta", a_re, a_im, b_re, b_im, lam)``: dgamma(a) dgamma(b) / dgamma(a+b);
- ``("loggamma", z_re, z_im)``: log Gamma(z);
- ``("residue", family, n, lam)``: residue at -n (family 0) or u+n (family 1);
- ``("none",)``: no reference (non-finite input).

Each result is ``[value_re, value_im, log_re, log_im]`` as decimal strings,
with None where a part is not defined.  Errors are then measured in the
parent with :mod:`decimal`, so a double result is compared against the
reference without first rounding the reference to a double.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

DIGITS = 40
_TWO_PI = Decimal("6.283185307179586476925286766559005768394338798750211641949889")


# ---------------------------------------------------------------- child side

def _dgamma_log(mp, s, lam):
    u = 1 / lam
    return -s * mp.log(lam) + mp.loggamma(s) + mp.loggamma(u - s) - mp.loggamma(u)


def _guard(lam: float, *zs: complex) -> int:
    """Extra working digits for the cancellation in loggamma(u-s) - loggamma(u)."""
    scale = max([1.0 / lam] + [abs(z) for z in zs] + [10.0])
    return 15 + len(str(int(scale)))


def _reference(mp, spec) -> list:
    kind = spec[0]
    if kind == "none":
        return [None] * 4
    if kind == "dgamma":
        _, s_re, s_im, lam = spec
        with mp.workdps(DIGITS + _guard(lam, complex(s_re, s_im))):
            log_val = _dgamma_log(mp, mp.mpc(s_re, s_im), mp.mpf(lam))
            return _strings(mp, mp.exp(log_val), log_val)
    if kind == "beta":
        _, a_re, a_im, b_re, b_im, lam = spec
        a, b = complex(a_re, a_im), complex(b_re, b_im)
        with mp.workdps(DIGITS + _guard(lam, a, b, a + b)):
            ma, mb, L = mp.mpc(a_re, a_im), mp.mpc(b_re, b_im), mp.mpf(lam)
            log_val = _dgamma_log(mp, ma, L) + _dgamma_log(mp, mb, L) - _dgamma_log(mp, ma + mb, L)
            return _strings(mp, mp.exp(log_val), log_val)
    if kind == "loggamma":
        _, z_re, z_im = spec
        with mp.workdps(DIGITS + _guard(0.5, complex(z_re, z_im))):
            return _strings(mp, None, mp.loggamma(mp.mpc(z_re, z_im)))
    if kind == "residue":
        _, family, n, lam = spec
        with mp.workdps(DIGITS + _guard(lam)):
            L = mp.mpf(lam)
            u = 1 / L
            mag = mp.gamma(u + n) / (mp.gamma(u) * mp.factorial(n))
            if family == 0:
                value = (-1) ** n * L**n * mag
            else:
                value = (-1) ** (n + 1) * L ** (-(u + n)) * mag
            return _strings(mp, mp.mpc(value), None)
    raise ValueError(f"unknown reference kind {kind!r}")


def _strings(mp, value, log_val) -> list:
    def s(x):
        return mp.nstr(x, DIGITS + 2)
    out = [None] * 4
    if value is not None:
        value = mp.mpc(value)
        out[0], out[1] = s(value.real), s(value.imag)
    if log_val is not None:
        log_val = mp.mpc(log_val)
        out[2], out[3] = s(log_val.real), s(log_val.imag)
    return out


def self_check(mp, degamma) -> None:
    """Raise AssertionError unless the reference formulas hit exact values."""
    tol = mp.mpf(10) ** (-DIGITS + 2)
    for lam in (0.05, 0.3, 0.7):
        ref = mp.mpc(_reference(mp, ("dgamma", 1.0, 0.0, lam))[0])
        exact = 1 / (1 - mp.mpf(lam))
        if not abs(ref - exact) <= tol * abs(exact):
            raise AssertionError(f"oracle: dgamma(1) at lambda={lam} is {ref}, not {exact}")
    for lam in (0.05, 0.09, 0.3):
        p = degamma.DegenerateParameter(lam)
        for k in range(1, 11):
            frac = Fraction(degamma.degenerate_gamma_integer(k, p).exact())
            exact = mp.mpf(frac.numerator) / frac.denominator
            ref = mp.mpc(_reference(mp, ("dgamma", float(k), 0.0, lam))[0])
            if not abs(ref - exact) <= tol * abs(exact):
                raise AssertionError(
                    f"oracle: dgamma({k}) at lambda={lam} is {ref}, not {exact}"
                )


def _child(in_path: str, out_path: str, src: str) -> None:
    sys.path.insert(0, src)
    import degamma
    import mpmath as mp

    self_check(mp, degamma)
    specs = json.loads(Path(in_path).read_text())
    refs = [_reference(mp, tuple(spec)) for spec in specs]
    tmp = Path(out_path + ".tmp")
    tmp.write_text(json.dumps(refs))
    tmp.replace(out_path)


# --------------------------------------------------------------- parent side

def references(specs: list[tuple], cache_dir: Path, tag: str, src: Path) -> list:
    """References for ``specs``, from the cache or a fresh child process."""
    blob = json.dumps([list(s) for s in specs])
    key = hashlib.sha256(blob.encode()).hexdigest()[:16]
    cache_dir.mkdir(parents=True, exist_ok=True)
    out_path = cache_dir / f"{tag}-{key}.json"
    if not out_path.exists():
        in_path = cache_dir / f"{tag}-{key}.in.json"
        in_path.write_text(blob)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(in_path),
             str(out_path), str(src)],
            check=True, timeout=170,
        )
        in_path.unlink()
    refs = json.loads(out_path.read_text())
    if len(refs) != len(specs):
        raise ValueError(f"oracle cache {out_path} holds {len(refs)} references, "
                         f"expected {len(specs)}")
    return refs


def value_error(value: complex, ref: list) -> tuple[Decimal, Decimal]:
    """(absolute error, relative error) of a double complex against ref's value."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        rr, ri = Decimal(ref[0]), Decimal(ref[1])
        dr = Decimal(value.real) - rr
        di = Decimal(value.imag) - ri
        err = (dr * dr + di * di).sqrt()
        mag = (rr * rr + ri * ri).sqrt()
        return err, (err / mag if mag else Decimal("Infinity"))


def log_error(log_value: complex, ref: list) -> Decimal:
    """|log(result) - log(reference)| with the imaginary gap taken mod 2*pi.

    For small gaps this is the relative error of the value itself.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        dr = Decimal(log_value.real) - Decimal(ref[2])
        di = Decimal(log_value.imag) - Decimal(ref[3])
        di -= _TWO_PI * (di / _TWO_PI).to_integral_value()
        return (dr * dr + di * di).sqrt()


if __name__ == "__main__":
    _child(*sys.argv[1:4])
