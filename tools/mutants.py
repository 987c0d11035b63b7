"""Mutation checks: each listed mutant must fail the tests named for it.

    python3 tools/mutants.py run      # every mutant, in a temporary copy
    python3 tools/mutants.py drift    # only check that every mutant applies

A mutant is a file, an exact old text, a new text, and the pytest ids
of the tests that must fail once the old text is replaced by the new
(DeMillo, Lipton & Sayward, "Hints on test data selection", 1978).
``run`` copies the tree to a temporary directory for each mutant,
applies it there, and runs only its named tests, with a fixed hypothesis
seed; a mutant whose tests all pass has survived.  It prints one line
per mutant and exits 1 if any survived.

Both modes first check for drift: every old text must occur exactly once
in its file at the checked-out tree, and every named test must still be
defined in its test file.  A refactor that moves mutated code must
update its mutants, so drift fails loudly (exit 1) instead of letting a
mutant apply to nothing.  New mutants are appended to ``MUTANTS``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple


#: every check whose report comes from ``context._peak``
_PEAK_TESTS = (
    "tests/test_checks_reference.py::test_fn_indiscernible_equals_the_reference",
    "tests/test_checks_reference.py::test_grid_independence_check_equals_the_reference",
    "tests/test_checks_reference.py::test_limit_check_equals_the_reference",
)

MUTANTS = (
    # the integer exp and log kernels
    Mutant(
        "Horner factor b*(i+1) instead of b*i",
        "src/hypergrid/series.py",
        "        den *= b * i\n",
        "        den *= b * (i + 1)\n",
        ("tests/test_series.py::test_exp_kernel_matches_the_fused_reference_loop",),
    ),
    Mutant(
        "stop test with <= instead of <",
        "src/hypergrid/series.py",
        "    while not lhs < rhs and stop < tau:\n",
        "    while not lhs <= rhs and stop < tau:\n",
        ("tests/test_series.py::test_exp_kernel_matches_the_fused_reference_loop",),
    ),
    Mutant(
        "ratio floor one index early",
        "src/hypergrid/series.py",
        "    stop = 2 * (m // b + 1)\n",
        "    stop = 2 * (m // b + 1) - 1\n",
        ("tests/test_series.py::test_exp_kernel_matches_the_fused_reference_loop",),
    ),
    Mutant(
        "log lane over tau + 1",
        "src/hypergrid/functions.py",
        "    return GridFunction(spec, log_at, den=tau)\n",
        "    return GridFunction(spec, log_at, den=tau + 1)\n",
        (
            "tests/test_expr.py::test_compile_log_matches_the_lattice_inverse",
            "tests/test_expr.py::test_exp_and_log_of_a_lane_equal_the_series_on_its_values",
        ),
    ),
    Mutant(
        "reciprocal branch without its sign",
        "src/hypergrid/series.py",
        "        return -_log_index(b, a, tau, policy, exps, cap)\n",
        "        return _log_index(b, a, tau, policy, exps, cap)\n",
        (
            "tests/test_series.py::test_log_below_one_is_negative_and_near_inverse",
            "tests/test_series.py::test_bracketed_log_matches_the_doubling_search",
        ),
    ),
    Mutant(
        "coarse overshoot probe under a finer policy",
        "src/hypergrid/series.py",
        "        if policy.guard > _COARSE.guard:\n",
        "        if True:\n",
        ("tests/test_series.py::test_bracketed_log_matches_the_doubling_search",),
    ),
    Mutant(
        "tail slack dropped from the bracket's decision",
        "src/hypergrid/series.py",
        "(tau * (high + slack)) >> bits == lo:",
        "(tau * high) >> bits == lo:",
        ("tests/test_series.py::test_a_log_node_reads_what_the_doubling_search_reads",),
    ),
    Mutant(
        "tail cap ignored in the bracket's decision",
        "src/hypergrid/series.py",
        "    if cap is not None and lo < cap:\n",
        "    if cap is not None:\n",
        ("tests/test_expr.py::test_exp_and_log_of_a_lane_equal_the_series_on_its_values",),
    ),
    Mutant(
        "log node's cap past its proven tails",
        "src/hypergrid/functions.py",
        "    cap = _stop_bound(min(tau - 1, 64), tau, tau, policy)\n",
        "    cap = 32 * tau\n",
        ("tests/test_expr.py::test_exp_and_log_of_a_lane_equal_the_series_on_its_values",),
    ),
    # one constructor for every node
    Mutant(
        "step threshold as a floor",
        "src/hypergrid/functions.py",
        "    jump = ceil(Fraction(at) * spec.tau)\n",
        "    jump = Fraction(at) * spec.tau // 1\n",
        ("tests/test_gridfun.py::test_step_is_the_threshold_rule",),
    ),
    Mutant(
        "quotient function without the right-endpoint clamp",
        "src/hypergrid/calculus.py",
        "        m = min(n, last)\n",
        "        m = n\n",
        ("tests/test_calculus.py::test_quotient_function_extends_at_the_right_endpoint",),
    ),
    Mutant(
        "quotient function drops the lane's denominator",
        "src/hypergrid/calculus.py",
        "    return GridFunction(f.spec, quotient_at, f.quotient_certificate, den=f.den)\n",
        "    return GridFunction(f.spec, quotient_at, f.quotient_certificate)\n",
        ("tests/test_calculus.py::test_quotient_function_of_a_polynomial_is_an_integer_lane",),
    ),
    Mutant(
        "numerators(indices) without the range check",
        "src/hypergrid/gridfun.py",
        "        if order and (order[0] < 0 or order[-1] > self.spec.tau):\n",
        "        if False:\n",
        ("tests/test_gridfun.py::test_off_grid_index_reads_are_refused",),
    ),
    Mutant(
        "workers below one taken as one",
        "src/hypergrid/calculus.py",
        "    if workers < 1:\n"
        '        raise DomainError(f"workers must be at least 1, got {workers}")\n',
        "    workers = max(1, workers)\n",
        ("tests/test_calculus.py::test_workers_below_one_are_refused",),
    ),
    # sampled checks read integer indices and compare cross-multiplied
    Mutant(
        "limit step as the ceiling of t * tau",
        "src/hypergrid/calculus.py",
        "    return [(t, (t.numerator * tau) // t.denominator) for t in offsets]\n",
        "    return [(t, -((-t.numerator * tau) // t.denominator)) for t in offsets]\n",
        (
            "tests/test_checks_reference.py::test_limit_check_equals_the_reference",
            "tests/test_checks_reference.py::test_limit_quotient_equals_the_reference",
        ),
    ),
    Mutant(
        "peak witness at the last probe above the tolerance",
        "src/hypergrid/context.py",
        "            if witness is None and gap * tol.denominator > tol.numerator * den:\n",
        "            if gap * tol.denominator > tol.numerator * den:\n",
        _PEAK_TESTS,
    ),
    Mutant(
        "grid-independence gap with tau1 * den1",
        "src/hypergrid/calculus.py",
        "            yield abs(r1 * tau1 * e2 - r2 * tau2 * e1), e1 * e2, u\n",
        "            yield abs(r1 * tau1 * e1 - r2 * tau2 * e1), e1 * e2, u\n",
        ("tests/test_checks_reference.py::test_grid_independence_check_equals_the_reference",),
    ),
    Mutant(
        "peak tolerance test with >=",
        "src/hypergrid/context.py",
        "            if witness is None and gap * tol.denominator > tol.numerator * den:\n",
        "            if witness is None and gap * tol.denominator >= tol.numerator * den:\n",
        ("tests/test_gridfun.py::test_fn_indiscernible_accepts_a_gap_of_exactly_one_over_h",)
        + _PEAK_TESTS,
    ),
    Mutant(
        "transport drops the lane's denominator",
        "src/hypergrid/gridfun.py",
        "    return GridFunction(spec, lambda m: at(m * tau_a // tau_b), cert, den=f.den)\n",
        "    return GridFunction(spec, lambda m: at(m * tau_a // tau_b), cert)\n",
        (
            "tests/test_gridfun.py::test_transport_keeps_the_lane",
            "tests/test_checks_reference.py::test_transport_equals_the_reference",
        ),
    ),
    Mutant(
        "rounding range test with >=",
        "src/hypergrid/grid.py",
        "    if num < 0 or num > den:\n",
        "    if num < 0 or num >= den:\n",
        (
            "tests/test_grid.py::test_round_floors_onto_the_grid",
            "tests/test_grid.py::test_rounding_reads_integers_like_the_reference_rule",
        ),
    ),
    # one read per grid point in the secant, continuity and limit checks
    Mutant(
        "secant witness taken offset-major",
        "src/hypergrid/calculus.py",
        "        n, k = min(failing)  # the least anchor, then the earliest offset\n",
        "        n, k = failing[0]  # the least anchor, then the earliest offset\n",
        ("tests/test_checks_reference.py::test_secant_check_equals_the_reference",),
    ),
    Mutant(
        "sampled secant ladder without its repeated top offset",
        "src/hypergrid/calculus.py",
        "        offsets.append(hi_steps)\n",
        "",
        (
            "tests/test_calculus.py::test_sampled_checks_read_each_needed_point_once",
            "tests/test_checks_reference.py::test_secant_check_equals_the_reference",
        ),
    ),
    Mutant(
        "secant witness limit without den",
        "src/hypergrid/calculus.py",
        "        limit = bound * den * k / tau\n",
        "        limit = bound * k / tau\n",
        ("tests/test_checks_reference.py::test_secant_check_equals_the_reference",),
    ),
    Mutant(
        "continuity reuses the upper end after a gap",
        "src/hypergrid/gridfun.py",
        "            lo_value = upper if lo == prev + 1 else at(lo)\n",
        "            lo_value = upper if upper is not None else at(lo)\n",
        ("tests/test_checks_reference.py::test_continuity_check_equals_the_reference",),
    ),
    Mutant(
        "continuity reads the whole plan first",
        "src/hypergrid/gridfun.py",
        "    at, den, tau = f.at, f.den, spec.tau\n",
        "    f.numerators({m for n in indices for m in (n - 1, n, n + 1) if 0 <= m <= spec.tau})\n"
        "    at, den, tau = f.at, f.den, spec.tau\n",
        (
            "tests/test_calculus.py::test_continuity_refutes_before_reading_a_later_point",
            "tests/test_checks_reference.py::test_continuity_check_equals_the_reference",
        ),
    ),
    Mutant(
        "limit walk reads f(x) again per offset",
        "src/hypergrid/calculus.py",
        "        reads.append((t, k, read(x + k)))\n",
        "        read(x)\n        reads.append((t, k, read(x + k)))\n",
        ("tests/test_calculus.py::test_limit_quotient_reads_each_point_once",),
    ),
    # exp readers learn their stop segments; sampled checks read integer pairs
    Mutant(
        "reader segment upper end one too far",
        "src/hypergrid/series.py",
        "            hi = top if s >= tau else min(_stop_bound(s, b, tau, policy), top)\n",
        "            hi = top if s >= tau else min(_stop_bound(s, b, tau, policy) + 1, top)\n",
        ("tests/test_series.py::test_exp_reader_equals_the_kernel",),
    ),
    Mutant(
        "reader sums with a neighbouring segment's coefficients",
        "src/hypergrid/series.py",
        "        _, _, s, coefficients, size = segment\n",
        "        _, _, s, coefficients, size = segment\n"
        "        coefficients = j and segments[j - 1][3] or coefficients\n",
        ("tests/test_series.py::test_exp_reader_equals_the_kernel",),
    ),
    Mutant(
        "stop bound one past its last magnitude",
        "src/hypergrid/series.py",
        "    return ok\n",
        "    return bad\n",
        ("tests/test_series.py::test_stop_bound_is_the_last_magnitude_at_or_below_a_stop",),
    ),
    Mutant(
        "kernel without its magnitude test",
        "src/hypergrid/series.py",
        "    if m > EXP_ARGUMENT_LIMIT * b:\n",
        "    if False:\n",
        ("tests/test_series.py::test_exp_argument_is_magnitude_guarded",),
    ),
    Mutant(
        "indiscernibility pair gap over dg * dg",
        "src/hypergrid/gridfun.py",
        "            yield abs(nf * dg - ng * df), df * dg, n\n",
        "            yield abs(nf * dg - ng * df), dg * dg, n\n",
        ("tests/test_checks_reference.py::test_fn_indiscernible_equals_the_reference",),
    ),
    Mutant(
        "peak compared without cross-multiplying",
        "src/hypergrid/context.py",
        "        if gap * scale > worst * den:\n",
        "        if gap > worst:\n",
        _PEAK_TESTS,
    ),
    Mutant(
        "verify's last-term test with <",
        "src/hypergrid/calculus.py",
        "        return bool(terms) and abs(terms[-1] - self.declared_limit) * self.context.H <= 1\n",
        "        return bool(terms) and abs(terms[-1] - self.declared_limit) * self.context.H < 1\n",
        ("tests/test_calculus.py::test_verify_reads_the_last_term_like_the_ladder",),
    ),
    # one serial prefix sum, in integers over one common denominator
    Mutant(
        "running sum starts one index late",
        "src/hypergrid/calculus.py",
        "    for i, v in enumerate(terms):\n",
        "    for i, v in enumerate(terms[1:], 1):\n",
        (
            "tests/test_calculus.py::test_running_sums_accumulate_in_place",
            "tests/test_calculus.py::test_integral_of_a_constant_is_linear_up_to_the_left_term",
        ),
    ),
    Mutant(
        "common denominator taken over all values but the last",
        "src/hypergrid/calculus.py",
        "    lcd = reduce(lcm, (v.denominator for v in terms), 1)",
        "    lcd = reduce(lcm, (v.denominator for v in terms[:-1]), 1)",
        ("tests/test_calculus.py::test_running_sums_accumulate_in_place",),
    ),
    Mutant(
        "exact layer compares with the unscaled numerator",
        "src/hypergrid/calculus.py",
        "        if not lane_ok or sums[n + 1] - sums[n] != hi:\n",
        "        if not lane_ok or sums[n + 1] - sums[n] != numerators[n + 1]:\n",
        (
            "tests/test_calculus.py::test_ftc_exact_layer_catches_a_wrong_prefix_sum",
            "tests/test_calculus.py::test_ftc_exact_layer_is_policy_independent",
        ),
    ),
    Mutant(
        "exact layer trusts the integral's den",
        "src/hypergrid/calculus.py",
        "    lane_ok = anti_den == den * lcd * tau\n",
        "    lane_ok = True\n",
        ("tests/test_calculus.py::test_ftc_exact_layer_fails_an_integral_over_another_den",),
    ),
    # transport between grids by index
    Mutant(
        "transport rounds up",
        "src/hypergrid/gridfun.py",
        "    return GridFunction(spec, lambda m: at(m * tau_a // tau_b), cert, den=f.den)\n",
        "    return GridFunction(spec, lambda m: at(-(-m * tau_a // tau_b)), cert, den=f.den)\n",
        (
            "tests/test_gridfun.py::test_transport_keeps_the_lane",
            "tests/test_gridfun.py::test_transport_roundtrip_moves_identity_by_less_than_both_meshes",
            "tests/test_checks_reference.py::test_transport_equals_the_reference",
        ),
    ),
    Mutant(
        "transport swaps the grids",
        "src/hypergrid/gridfun.py",
        "    return GridFunction(spec, lambda m: at(m * tau_a // tau_b), cert, den=f.den)\n",
        "    return GridFunction(spec, lambda m: at(m * tau_b // tau_a), cert, den=f.den)\n",
        (
            "tests/test_gridfun.py::test_transport_carries_values_along_the_equivalence",
            "tests/test_gridfun.py::test_transport_keeps_the_lane",
            "tests/test_checks_reference.py::test_transport_equals_the_reference",
        ),
    ),
    # nodes keep no state; grid independence shares its reads
    Mutant(
        "grid independence without its shared reads",
        "src/hypergrid/calculus.py",
        "    g1, g2 = (GridFunction(g.spec, cache(g.at), den=g.den) for g in (f1, f2))\n",
        "    g1, g2 = (GridFunction(g.spec, g.at, den=g.den) for g in (f1, f2))\n",
        ("tests/test_gridfun.py::test_grid_independence_reads_each_index_of_each_operand_once",),
    ),
    Mutant(
        "power reads its base per factor",
        "src/hypergrid/expr.py",
        "    return GridFunction(base.spec, lambda n: at(n) ** k, *fold, base.den**k)\n",
        "    return GridFunction(base.spec, lambda n: at(n) ** (k - 1) * at(n), *fold, base.den**k)\n",
        ("tests/test_gridfun.py::test_a_power_reads_its_base_once_per_point",),
    ),
    # certificates as data
    Mutant(
        "product certificate drops a term",
        "src/hypergrid/gridfun.py",
        "    return _weighted(a.bound * b.bound, (a.bound, b), (b.bound, a))\n",
        "    return _weighted(a.bound * b.bound, (a.bound, b))\n",
        (
            "tests/test_gridfun.py::test_certificate_combinators",
            "tests/test_gridfun.py::test_combinators_read_like_the_closure_formulas",
        ),
    ),
    Mutant(
        "quotient-product certificate drops a term",
        "src/hypergrid/gridfun.py",
        "        (f_qcert.bound, g_cert),\n",
        "",
        ("tests/test_gridfun.py::test_combinators_read_like_the_closure_formulas",),
    ),
    Mutant(
        "max instead of a sum of offsets",
        "src/hypergrid/gridfun.py",
        "        sum(w * c.offset for w, c in terms),\n",
        "        max(w * c.offset for w, c in terms),\n",
        ("tests/test_gridfun.py::test_combinators_read_like_the_closure_formulas",),
    ),
    Mutant(
        "transport without its stretch",
        "src/hypergrid/gridfun.py",
        "        cert = replace(cert, offset=cert.modulus(f.spec.epsilon))\n",
        "        cert = replace(cert, offset=cert.offset)\n",
        (
            "tests/test_gridfun.py::test_transport_stretches_the_certificate_by_one_source_mesh",
            "tests/test_gridfun.py::test_exp_transport_and_integral_read_like_the_closure_formulas",
        ),
    ),
    Mutant(
        "exp certificate without its wobble",
        "src/hypergrid/functions.py",
        "        wobble = 2 * _tail_threshold(spec, policy)\n",
        "        wobble = 0\n",
        ("tests/test_gridfun.py::test_exp_transport_and_integral_read_like_the_closure_formulas",),
    ),
    Mutant(
        "monomial quotient slope k - 1",
        "src/hypergrid/functions.py",
        "        Certificate(Fraction(k), Fraction(k * (k - 1)), Fraction(0)),\n",
        "        Certificate(Fraction(k), Fraction(k - 1), Fraction(0)),\n",
        ("tests/test_calculus.py::test_quotient_modulus_dominates_secant_deviations_exhaustively",),
    ),
    Mutant(
        "antiderivative bound without its mesh",
        "src/hypergrid/calculus.py",
        "    cert = qcert and Certificate(qcert.bound * (1 + eps), qcert.bound, Fraction(0))\n",
        "    cert = qcert and Certificate(qcert.bound, qcert.bound, Fraction(0))\n",
        ("tests/test_gridfun.py::test_exp_transport_and_integral_read_like_the_closure_formulas",),
    ),
    # certificates compose by the sum and product rules alone
    Mutant(
        "sum rule ignores a missing certificate",
        "src/hypergrid/gridfun.py",
        "        return None\n    return _weighted(a.bound + b.bound, (1, a), (1, b))\n",
        "        return a or b\n    return _weighted(a.bound + b.bound, (1, a), (1, b))\n",
        (
            "tests/test_gridfun.py::test_each_rule_given_a_missing_certificate_gives_none",
            "tests/test_gridfun.py::test_scalars_compose_like_the_former_shift_and_scale",
        ),
    ),
    Mutant(
        "a scalar's quotient certificate is c's instead of 0's",
        "src/hypergrid/gridfun.py",
        "    return constant_certificate(operand), constant_certificate(0)\n",
        "    return constant_certificate(operand), constant_certificate(operand)\n",
        (
            "tests/test_gridfun.py::test_scalars_compose_like_the_former_shift_and_scale",
            "tests/test_gridfun.py::test_scalar_shift_keeps_the_quotient_certificate",
        ),
    ),
    Mutant(
        "power fold drops the odd factor",
        "src/hypergrid/expr.py",
        "            fold = product_rule(fold, own)\n",
        "            pass\n",
        (
            "tests/test_expr.py::test_a_power_carries_the_certificates_and_den_of_the_k_fold_product",
            "tests/test_expr.py::test_powers_fold_by_squaring_to_the_k_fold_product",
        ),
    ),
    # one node representation: numerators over a positive integer den
    Mutant(
        "pair read drops the lane's den",
        "src/hypergrid/gridfun.py",
        "            return v.numerator, v.denominator * den\n",
        "            return v.numerator, v.denominator\n",
        ("tests/test_checks_reference.py::test_limit_check_equals_the_reference",),
    ),
    Mutant(
        "division drops the divisor's den",
        "src/hypergrid/expr.py",
        "                return Fraction(num(n) * den_r, d * den_l)\n",
        "                return Fraction(num(n), d * den_l)\n",
        ("tests/test_expr.py::test_compile_matches_direct_arithmetic_on_a_mixed_expression",),
    ),
    # the value commands read their node at the rounded point
    Mutant(
        "integrate reads the full integral whatever --at says",
        "src/hypergrid/cli.py",
        "        value = integral(f, ctx)(x) * _scale(job)\n",
        "        value = integral(f, ctx)(spec.point(spec.tau)) * _scale(job)\n",
        (
            "tests/test_cli.py::test_integrate_reads_the_integral_at_the_rounded_point",
            "tests/test_cli.py::test_integrate_on_a_domain_reads_at_the_mapped_point",
        ),
    ),
    # every default of the command line is a JobConfig field's
    Mutant(
        "build_job loses the kind -> check rename",
        "src/hypergrid/cli.py",
        '_RENAMED = {"expr": "expr_text", "kind": "check"}\n',
        '_RENAMED = {"expr": "expr_text"}\n',
        (
            "tests/test_cli.py::test_check_ftc_passes_for_the_square",
            "tests/test_cli.py::test_check_reports_are_pinned_byte_for_byte",
        ),
    ),
    Mutant(
        "JobConfig.samples defaults to 1023",
        "src/hypergrid/cli.py",
        "    samples: int = 1024\n",
        "    samples: int = 1023\n",
        ("tests/test_cli.py::test_defaults",),
    ),
    # the limit check keeps one running maximum; the K test reads every point
    Mutant(
        "limit maximum drops k",
        "src/hypergrid/calculus.py",
        "                yield dev * tau, den * k, x  # the halving steps are positive\n",
        "                yield dev * tau, den, x  # the halving steps are positive\n",
        ("tests/test_checks_reference.py::test_limit_check_equals_the_reference",),
    ),
    Mutant(
        "band keeps an offset equal to its lower end",
        "src/hypergrid/calculus.py",
        "    offsets = [t for t in terms if band_lo < abs(t) <= band_hi]\n",
        "    offsets = [t for t in terms if band_lo <= abs(t) <= band_hi]\n",
        ("tests/test_checks_reference.py::test_limit_check_equals_the_reference",),
    ),
    Mutant(
        "K test strides by tau // 64 again",
        "src/hypergrid/calculus.py",
        "        for n, v in enumerate(numerators):\n",
        "        for n, v in islice(enumerate(numerators), 0, None, max(1, f.spec.tau // 64)):\n",
        ("tests/test_calculus.py::test_the_k_test_reads_every_point_of_an_uncertified_lane",),
    ),
    # error messages name wide numbers by their size
    Mutant(
        "log search error prints its argument in full again",
        "src/hypergrid/series.py",
        "        q = brief_rational(Fraction(a, b))\n",
        "        q = Fraction(a, b)\n",
        ("tests/test_cli.py::test_wide_numbers_in_errors_are_named_by_their_size",),
    ),
    Mutant(
        "log of a non-positive value prints it in full again",
        "src/hypergrid/functions.py",
        "            value = brief_rational(Fraction(a, b))\n",
        "            value = Fraction(a, b)\n",
        ("tests/test_cli.py::test_wide_numbers_in_errors_are_named_by_their_size",),
    ),
    Mutant(
        "literals are read past the int-from-text limit again",
        "src/hypergrid/rational.py",
        "    if longest > sys.get_int_max_str_digits() > 0:\n",
        "    if False:\n",
        (
            "tests/test_rational.py::test_literals_past_the_int_text_limit_are_refused_with_their_size",
            "tests/test_cli.py::test_wide_numbers_in_errors_are_named_by_their_size",
        ),
    ),
    Mutant(
        "exponent limit error prints the exponent in full again",
        "src/hypergrid/expr.py",
        "        k = brief_rational(node.exponent)\n",
        "        k = node.exponent\n",
        ("tests/test_cli.py::test_wide_numbers_in_errors_are_named_by_their_size",),
    ),
    Mutant(
        "non-integer exponent error prints it in full again",
        "src/hypergrid/expr.py",
        'got {brief_rational(folded)}",\n',
        'got {folded}",\n',
        ("tests/test_cli.py::test_wide_numbers_in_errors_are_named_by_their_size",),
    ),
    Mutant(
        "empty domain error prints its ends in full again",
        "src/hypergrid/cli.py",
        'f"empty domain [{brief_rational(a)}, {brief_rational(b)}]"',
        'f"empty domain [{a}, {b}]"',
        ("tests/test_cli.py::test_wide_numbers_in_errors_are_named_by_their_size",),
    ),
    Mutant(
        "point outside the domain printed in full again",
        "src/hypergrid/cli.py",
        'f"point {brief_rational(point)} falls outside the working domain"',
        'f"point {point} falls outside the working domain"',
        ("tests/test_cli.py::test_wide_numbers_in_errors_are_named_by_their_size",),
    ),
    Mutant(
        "constant power folded without its bit bound",
        "src/hypergrid/expr.py",
        "k * (_width(v) - 1) + 1 > limit > 0 or ",
        "",
        ("tests/test_cli.py::test_a_wide_constant_power_is_refused_before_it_is_computed",),
    ),
    Mutant(
        "constant power bounded by its base's full width",
        "src/hypergrid/expr.py",
        "k * (_width(v) - 1) + 1 > limit",
        "k * _width(v) > limit",
        ("tests/test_cli.py::test_a_constant_power_is_refused_by_its_actual_width",),
    ),
    Mutant(
        "computed constant power not measured",
        "src/hypergrid/expr.py",
        "_width(power := v**k) > limit > 0:",
        "(power := v**k) is None:",
        ("tests/test_cli.py::test_a_constant_power_is_refused_by_its_actual_width",),
    ),
    # the full policy's Horner table is refused before it outgrows memory
    Mutant(
        "full-policy grid limit back at 2**17",
        "src/hypergrid/series.py",
        "FULL_TAU_LIMIT = 2**14\n",
        "FULL_TAU_LIMIT = 2**17\n",
        (
            "tests/test_series.py::"
            "test_full_policy_past_2_to_the_14_is_refused_before_a_table_is_built",
        ),
    ),
)


def drift(root=ROOT, mutants=MUTANTS) -> list:
    """One line per problem: an old text that does not occur exactly once
    in its file, or a named test its test file no longer defines."""
    problems = []
    for m in mutants:
        count = (Path(root) / m.path).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.path}")
        for test in m.tests:
            path, _, func = test.partition("::")
            if f"def {func}(" not in (Path(root) / path).read_text():
                problems.append(f"{m.name}: {path} defines no {func}")
    return problems


def _copy_tree(root: Path, dest: Path):
    skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "results")
    for name in ("src", "tests", "tools", "bench", "demos", "pyproject.toml"):
        src = root / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        elif src.exists():
            shutil.copy2(src, dest / name)


def killed(m: Mutant, root=ROOT) -> bool:
    """Apply ``m`` to a temporary copy of the tree and run its tests
    there; True when at least one of them fails."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(Path(root), tmp)
        target = tmp / m.path
        target.write_text(target.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *m.tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    if done.returncode not in (0, 1):
        raise SystemExit(f"{m.name}: pytest exited {done.returncode}\n{done.stdout}{done.stderr}")
    return done.returncode == 1


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args not in (["run"], ["drift"]):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: mutants.py run | drift", file=sys.stderr)
        return 2
    problems = drift()
    for line in problems:
        print(f"drift: {line}")
    if problems:
        return 1
    if args == ["drift"]:
        print(f"{len(MUTANTS)} mutants apply")
        return 0
    survivors = 0
    for m in MUTANTS:
        ok = killed(m)
        survivors += not ok
        print(f"{'killed' if ok else 'SURVIVED'}: {m.name}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
