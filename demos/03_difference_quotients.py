"""Derivatives as difference quotients: exact algebra first, analysis
only when a claim is read at a context.

Run:  python3 demos/03_difference_quotients.py
"""

from fractions import Fraction

from hypergrid import (
    GridSpec,
    NotDifferentiableError,
    ObservationContext,
    SamplingPlan,
    continuity_check,
    derivative,
    round_to_grid,
    secant_deviation,
    square,
    step,
)

spec = GridSpec(10**6)
ctx = ObservationContext(H=1000, K=10**12)
plan = SamplingPlan(random_points=256, dyadic_depth=8, exhaustive_limit=4097)

f = square(spec)
x = round_to_grid(Fraction(1, 2), spec)
print(f"f = x^2 on tau = {spec.tau}")
print(f"difference quotient at 1/2: {f.quotient(x)}  (exactly 2x + epsilon)")

d = derivative(f, ctx, plan)
print(f"derivative admitted: verdict {continuity_check(d, ctx, plan).mode!r}")
print(f"d(1/2) = {d(x)} ~ 1 at H = {ctx.H}: {ctx.indiscernible(d(x), Fraction(1))}")

print()
print("Secants deviate from the quotient by a controlled amount:")
a = round_to_grid(Fraction(1, 4), spec)
for k in (10, 100, 1000):
    b = spec.point(a.index + k)
    dev = secant_deviation(f, a, b)
    omega = f.quotient_certificate.modulus(b.value - a.value)
    print(f"  gap {k} steps: deviation {dev} <= modulus {omega}: {abs(dev) <= omega}")

print()
print("A jump is rejected with a concrete witness:")
try:
    derivative(step(spec), ctx, plan)
except NotDifferentiableError as exc:
    print(f"  not differentiable: quotient makes a {exc.witness}")
