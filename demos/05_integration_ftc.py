"""Integration as an exact prefix sum, and the zero-error fundamental
theorem: differentiating the integral returns the integrand exactly.

Run:  python3 demos/05_integration_ftc.py
"""

from fractions import Fraction

from hypergrid import (
    GridSpec,
    ObservationContext,
    SamplingPlan,
    exp_fn,
    ftc_check,
    integral,
    render_decimal,
    round_to_grid,
    square,
    successor,
)

spec = GridSpec(2**14)
ctx = ObservationContext(H=1000, K=10**12)

f = square(spec)
anti = integral(f, ctx)
one = spec.point(spec.tau)
third = Fraction(1, 3)
print(f"integral of x^2 on tau = {spec.tau}:")
print(f"  at 1:   {render_decimal(anti(one), 9)}   (1/3 plus boundary terms)")
print(f"  gap to 1/3: {render_decimal(abs(anti(one) - third), 9)}")

print()
print("The derivative of the integral is the integrand, with zero error:")
u = round_to_grid(Fraction(2, 5), spec)
lhs = anti.quotient(u)
rhs = f(successor(u))
print(f"  Delta(integral)/Delta x at {u.value} = {lhs}")
print(f"  f at the successor point          = {rhs}")
print(f"  equal as exact rationals: {lhs == rhs}")

print()
print("The same identity survives a truncation policy on the integrand:")
e = exp_fn(spec)
anti_e = integral(e, ctx)
u = round_to_grid(Fraction(7, 11), spec)
print(f"  exp integrand: exact equality {anti_e.quotient(u) == e(successor(u))}")

print()
plan = SamplingPlan(random_points=512, dyadic_depth=8, exhaustive_limit=2**14 + 1)
report = ftc_check(e, ctx, plan)
print(
    f"ftc check on exp: {report.verdict} ({report.mode}, {report.samples} points,"
    f" exact violations {report.detail['exact_violations']},"
    f" mesh jump {render_decimal(report.max_gap, 9)} <= 1/H)"
)
