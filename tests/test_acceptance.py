"""Acceptance suite: every agreed criterion at its stated tolerance.

Each test prints one `[acceptance] criterion NN PASS/FAIL` line (visible under
``pytest -s`` or on failure) and asserts both the numeric tolerance and the
runtime budget of its criterion.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from degamma.classical import gamma, sin_pi
from degamma.cli import main as cli_main
from degamma.core import (
    DegenerateParameter,
    PoleFamily,
    degenerate_beta,
    degenerate_beta_classical,
    degenerate_gamma,
    degenerate_gamma_integer,
    degenerate_gamma_log,
    difference_step,
    falling_factorial_exact,
    nearest_pole,
    pole_residue,
    poles,
    symmetry_partner,
)
from degamma.quadrature import (
    QuadratureSpec,
    direct_integral_gamma,
    hankel_gamma,
    hankel_gamma_reflected,
)
from degamma.representations import (
    ProductSpec,
    degenerate_beta_product,
    euler_limit_gamma,
    sine_product,
    weierstrass_gamma,
)
from degamma.verify import CHECK_ROSTER


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def closed(s, p):
    return degenerate_gamma(s, p).value


class _Criterion:
    """Collects violations; prints the verdict line; enforces the runtime cap."""

    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.violations = []
        self.started = time.perf_counter()

    def check(self, ok, detail):
        if not ok:
            self.violations.append(detail)

    def finish(self):
        elapsed = time.perf_counter() - self.started
        ok = not self.violations and elapsed < self.budget
        print(
            f"[acceptance] criterion {self.number:2d} "
            f"{'PASS' if ok else 'FAIL'}: {self.description} "
            f"({elapsed:.2f}s / budget {self.budget:.0f}s)"
        )
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its runtime budget: "
            f"{elapsed:.2f}s >= {self.budget}s"
        )
        assert not self.violations, (
            f"criterion {self.number}: {len(self.violations)} violations; "
            f"first: {self.violations[0]}"
        )


def sample_regular(rng, p, re_range, im_max, min_dist, also_shifted=False):
    while True:
        s = complex(rng.uniform(*re_range), rng.uniform(-im_max, im_max))
        d, _, _ = nearest_pole(s, p)
        if d < min_dist:
            continue
        if also_shifted:
            d1, _, _ = nearest_pole(s + 1.0, p)
            if d1 < min_dist:
                continue
        return s


def test_criterion_01_integer_values():
    crit = _Criterion(1, "closed form matches exact rational products at "
                         "integer arguments to 1e-12", 1.0)
    for lam in (0.05, 0.09, 0.11, 0.3):
        p = DegenerateParameter(lam)
        for k in range(1, 11):
            exact = Fraction(math.factorial(k - 1)) / falling_factorial_exact(
                1, k + 1, lam
            )
            got = closed(complex(k), p)
            err = rel(got, complex(float(exact)))
            crit.check(err <= 1e-12, (lam, k, err))
            # the library's own integer path must agree too
            alt = degenerate_gamma_integer(k, p).value
            crit.check(rel(alt, complex(float(exact))) <= 1e-12, ("alt", lam, k))
    crit.finish()


def test_criterion_02_difference_equation():
    crit = _Criterion(2, "difference equation residual <= 1e-10 on 500 "
                         "pole-avoiding samples", 5.0)
    rng = np.random.default_rng(202)
    for _ in range(500):
        lam = rng.uniform(0.05, 0.95)
        p = DegenerateParameter(lam)
        s = sample_regular(
            rng, p, (-2.5, p.inv_lambda - 1.5), 5.0, 0.05, also_shifted=True
        )
        lhs = closed(s + 1.0, p)
        rhs = difference_step(s, p) * closed(s, p)
        err = abs(lhs - rhs) / abs(lhs)
        crit.check(err <= 1e-10, (lam, s, err))
    crit.finish()


def test_criterion_03_symmetry_identity():
    crit = _Criterion(3, "argument-reflection symmetry <= 1e-10 in log space "
                         "on 500 samples", 5.0)
    rng = np.random.default_rng(303)
    for _ in range(500):
        lam = rng.uniform(0.05, 0.95)
        p = DegenerateParameter(lam)
        s = sample_regular(rng, p, (-2.5, p.inv_lambda - 1.5), 5.0, 0.05)
        partner = symmetry_partner(s, p)
        l1 = s * p.log_lambda + degenerate_gamma_log(s, p)
        l2 = partner * p.log_lambda + degenerate_gamma_log(partner, p)
        d = l1 - l2
        gap = math.hypot(d.real, math.remainder(d.imag, 2.0 * math.pi))
        crit.check(gap <= 1e-10, (lam, s, gap))
    crit.finish()


def test_criterion_04_residues():
    crit = _Criterion(4, "four-angle pole limits match analytic residues to "
                         "1e-6; residue at 0 is exactly 1", 5.0)
    for lam in (0.3, 0.5, 0.7):
        p = DegenerateParameter(lam)
        res0 = pole_residue(PoleFamily.NON_POSITIVE, 0, p)
        crit.check(abs(res0 - 1.0) <= 1e-14, ("res0", lam, res0))
        for info in poles(p, 5):
            total = 0.0 + 0.0j
            for k in range(4):
                off = 1e-4 * cmath.exp(0.5j * math.pi * k)
                total += off * closed(info.location + off, p)
            err = rel(total / 4.0, info.residue)
            crit.check(err <= 1e-6, (lam, info.family.value, info.index, err))
    crit.finish()


def test_criterion_05_direct_integral():
    crit = _Criterion(5, "defining integral matches closed form to 1e-10 on "
                         "100 strip samples", 30.0)
    rng = np.random.default_rng(505)
    spec = QuadratureSpec(rel_tolerance=1e-12)
    for _ in range(100):
        lam = rng.uniform(0.1, 0.9)
        p = DegenerateParameter(lam)
        s = complex(
            rng.uniform(0.1, p.inv_lambda - 0.1), rng.uniform(-2.0, 2.0)
        )
        res = direct_integral_gamma(s, p, spec)
        err = rel(res.value, closed(s, p))
        crit.check(err <= 1e-10, (lam, s, err))
    crit.finish()


def test_criterion_06_hankel_contour():
    crit = _Criterion(6, "loop contour: 1e-11 strip agreement, 1e-12 "
                         "delta-independence, 1e-11 continuation", 60.0)
    rng = np.random.default_rng(606)
    # 50 non-integer strip samples vs closed form
    for _ in range(50):
        lam = rng.uniform(0.2, 0.8)
        p = DegenerateParameter(lam)
        while True:
            s = complex(
                rng.uniform(0.1, p.inv_lambda - 0.5), rng.uniform(-2.0, 2.0)
            )
            d, _, _ = nearest_pole(s, p)
            if d >= 0.1 and math.hypot(s.real - round(s.real), s.imag) >= 0.1:
                break
        both = (hankel_gamma(s, p), hankel_gamma_reflected(s, p))
        target = closed(s, p)
        for res in both:
            err = rel(res.value, target)
            crit.check(err <= 1e-11, ("strip", lam, s, err))
        crit.check(rel(both[0].value, both[1].value) <= 1e-12,
                   ("realizations", lam, s))
    # delta-independence across {0.1, 0.3, 0.5}
    for s, lam in ((0.7, 0.3), (0.45 - 0.8j, 0.55), (1.6 + 0.4j, 0.25)):
        p = DegenerateParameter(lam)
        vals = [
            hankel_gamma(s, p, QuadratureSpec(hankel_radius=d)).value
            for d in (0.1, 0.3, 0.5)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                crit.check(rel(vals[i], vals[j]) <= 1e-12,
                           ("delta", s, lam, i, j, rel(vals[i], vals[j])))
    # continuation left of the strip
    for _ in range(20):
        lam = rng.uniform(0.25, 0.75)
        p = DegenerateParameter(lam)
        while True:
            s = complex(rng.uniform(-1.95, -0.05), rng.uniform(-1.0, 1.0))
            d, _, _ = nearest_pole(s, p)
            if d >= 0.1 and abs(s.real - round(s.real)) >= 0.1:
                break
        err = rel(hankel_gamma(s, p).value, closed(s, p))
        crit.check(err <= 1e-11, ("continuation", lam, s, err))
    crit.finish()


def test_criterion_07_products():
    crit = _Criterion(7, "products: 1e-5 at N=1e6 (paired product), 1e-3 at "
                         "n=1e5 (rational limit), slope in [-1.3,-0.7]", 120.0)
    rng = np.random.default_rng(707)
    wspec = ProductSpec(n_terms=10**6)
    espec = ProductSpec(n_terms=10**5)
    for _ in range(20):
        lam = rng.uniform(0.5, 0.9)
        p = DegenerateParameter(lam)
        z = sample_regular(rng, p, (0.2, 1.4), 0.5, 0.15)
        target = closed(z, p)
        werr = rel(weierstrass_gamma(z, p, wspec).value, target)
        eerr = rel(euler_limit_gamma(z, p, espec).value, target)
        crit.check(werr <= 1e-5, ("weierstrass", lam, z, werr))
        crit.check(eerr <= 1e-3, ("euler", lam, z, eerr))
    # truncation slope on a fixed regular point
    p = DegenerateParameter(0.4)
    z = 0.8 + 0.3j
    target = closed(z, p)
    ns = [10**3, 10**4, 10**5, 10**6]
    errors = [
        rel(weierstrass_gamma(z, p, ProductSpec(n_terms=n)).value, target)
        for n in ns
    ]
    crit.check(all(b < a for a, b in zip(errors, errors[1:])),
               ("monotone", errors))
    slope = float(np.polyfit(np.log10(ns), np.log10(errors), 1)[0])
    crit.check(-1.3 <= slope <= -0.7, ("slope", slope, errors))
    crit.finish()


def test_criterion_08_sine_product():
    crit = _Criterion(8, "sine product: pi/2 to 1e-5 at N=1e6 plus ten "
                         "general-z checks", 10.0)
    err_half = abs(sine_product(0.5, 10**6) - math.pi / 2.0)
    crit.check(err_half <= 1e-5, ("half", err_half))
    rng = np.random.default_rng(808)
    done = 0
    while done < 10:
        z = complex(rng.uniform(-2.2, 2.2), rng.uniform(-1.2, 1.2))
        if abs(z.real - round(z.real)) < 0.2 and abs(z.imag) < 0.2:
            continue
        done += 1
        target = math.pi * z / sin_pi(z)
        err = rel(sine_product(z, 10**5), target)
        crit.check(err <= 3.0 * (abs(z) ** 2 + 1.0) / 10**5, (z, err))
    crit.finish()


def test_criterion_09_degenerate_beta():
    crit = _Criterion(9, "beta paths agree pairwise (1e-11 closed pair, 1e-4 "
                         "product at N=1e6); integer case matches the exact "
                         "product to 1e-10", 60.0)
    rng = np.random.default_rng(909)
    pspec = ProductSpec(n_terms=10**6)
    for _ in range(20):
        lam = rng.uniform(0.2, 0.8)
        p = DegenerateParameter(lam)
        a = sample_regular(rng, p, (0.15, 1.2), 0.5, 0.1)
        while True:
            b = sample_regular(rng, p, (0.15, 1.2), 0.5, 0.1)
            d, _, _ = nearest_pole(a + b, p)
            if d >= 0.1:
                break
        ratio = degenerate_beta(a, b, p).value
        mixed = degenerate_beta_classical(a, b, p).value
        product = degenerate_beta_product(a, b, p, pspec).value
        crit.check(rel(ratio, mixed) <= 1e-11, ("mixed", lam, a, b))
        crit.check(rel(ratio, product) <= 1e-4, ("product", lam, a, b))
    # integer formula at lambda = 0.1: exact product arithmetic oracle
    lam = 0.1
    exact = (
        falling_factorial_exact(1, 4, lam)
        / (falling_factorial_exact(1, 3, lam) * falling_factorial_exact(1, 2, lam))
        * Fraction(1, 2)  # B(2,1)
    )
    got = degenerate_beta(2, 1, DegenerateParameter(lam)).value
    err = rel(got, complex(float(exact)))
    crit.check(err <= 1e-10, ("integer", float(exact), got, err))
    crit.finish()


def test_criterion_10_limits():
    crit = _Criterion(10, "lambda->0 recovers the gamma function (1e-4); "
                          "lambda->1 recovers pi/sin(pi z) (1e-3)", 1.0)
    p0 = DegenerateParameter(1e-6)
    for s in (0.5, 1.5, 2.5, 1.0 + 1.0j):
        dev = abs(closed(s, p0) / gamma(s) - 1.0)
        crit.check(dev <= 1e-4, ("to-zero", s, dev))
    p1 = DegenerateParameter(1.0 - 1e-6)
    for z in (0.3, 0.5 + 0.5j):
        dev = abs(closed(z, p1) * sin_pi(z) / math.pi - 1.0)
        crit.check(dev <= 1e-3, ("to-one", z, dev))
    crit.finish()


def test_criterion_11_verify_cli(tmp_path, capsys):
    crit = _Criterion(11, "verify --seed 0 --samples 100 exits 0 with the "
                          "full identity roster", 300.0)
    report = tmp_path / "report.json"
    code = cli_main([
        "verify", "--seed", "0", "--samples", "100",
        "--report-path", str(report),
    ])
    capsys.readouterr()  # keep the criterion line as the visible output
    crit.check(code == 0, ("exit", code))
    import json

    payload = json.loads(report.read_text())
    names = {entry["check_name"] for entry in payload}
    crit.check(set(CHECK_ROSTER) <= names, ("roster", sorted(names)))
    crit.check(all(entry["passed"] for entry in payload),
               ("failed", [e["check_name"] for e in payload if not e["passed"]]))
    crit.finish()
