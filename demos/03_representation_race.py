#!/usr/bin/env python3
"""Every representation of the same function, racing toward the closed form.

Besides the closed form, the library evaluates the degenerate gamma function
by its defining integral (Clenshaw-Curtis quadrature), by a loop contour
around the origin (which also continues it left of the strip), by a paired
Weierstrass product, and by a rational limit sequence.  They are implemented
independently, so their mutual agreement is a strong correctness check.
"""

from degamma import (
    DegenerateParameter,
    ProductSpec,
    QuadratureSpec,
    degenerate_gamma,
    direct_integral_gamma,
    euler_limit_gamma,
    hankel_gamma,
    weierstrass_gamma,
)

print(__doc__)

p = DegenerateParameter(0.4)
s = 0.8 + 0.3j
reference = degenerate_gamma(s, p).value
print(f"Reference (closed form) at s = {s}, lambda = {p.lam}:")
print(f"  {reference:.15g}")
print()

res = direct_integral_gamma(s, p, QuadratureSpec(rel_tolerance=1e-12))
print(f"defining integral : rel err {abs(res.value-reference)/abs(reference):.2e} "
      f"(estimate {res.abs_error_estimate/abs(reference):.1e})")
res = hankel_gamma(s, p)
print(f"loop contour      : rel err {abs(res.value-reference)/abs(reference):.2e} "
      f"(estimate {res.abs_error_estimate/abs(reference):.1e})")
print()

print("The truncated products converge first order in N; the tail correction")
print("upgrades the paired product to ~1/N^3, down to the rounding floor.")
print("Their far tails are summed in closed form, so N = 1e12 costs no more")
print("than N = 1e3:")
print(f"{'N':>13} {'weierstrass':>13} {'corrected':>13} {'rational limit':>15}")
for n in (10**3, 10**4, 10**5, 10**6, 10**9, 10**12):
    w = weierstrass_gamma(s, p, ProductSpec(n_terms=n)).value
    c = weierstrass_gamma(s, p, ProductSpec(n_terms=n, use_tail_correction=True)).value
    e = euler_limit_gamma(s, p, ProductSpec(n_terms=n)).value
    print(f"{n:13d} {abs(w-reference)/abs(reference):13.2e} "
          f"{abs(c-reference)/abs(reference):13.2e} "
          f"{abs(e-reference)/abs(reference):15.2e}")

print()
print("The loop contour keeps working left of the strip, where the defining")
print("integral diverges (values at s = -0.7 + 0.2i, lambda = 0.3):")
p = DegenerateParameter(0.3)
s = -0.7 + 0.2j
reference = degenerate_gamma(s, p).value
res = hankel_gamma(s, p)
print(f"  closed form : {reference:.12g}")
print(f"  loop contour: {res.value:.12g}")
print(f"  rel err     : {abs(res.value-reference)/abs(reference):.2e}")

print()
print("Contour-deformation invariance (the circle radius must not matter):")
for delta in (0.1, 0.3, 0.5):
    v = hankel_gamma(s, p, QuadratureSpec(hankel_radius=delta)).value
    print(f"  delta = {delta}: {v:.14g}")
