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
        "        return -_log_index(b, a, tau, policy, exps)\n",
        "        return _log_index(b, a, tau, policy, exps)\n",
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
        "    return [(t, (t.numerator * tau) // t.denominator)"
        " for t in _band_offsets(f, seq, budget)]\n",
        "    return [(t, -((-t.numerator * tau) // t.denominator))"
        " for t in _band_offsets(f, seq, budget)]\n",
        (
            "tests/test_checks_reference.py::test_limit_check_equals_the_reference",
            "tests/test_checks_reference.py::test_limit_quotient_equals_the_reference",
        ),
    ),
    Mutant(
        "limit witness at the last failing point",
        "src/hypergrid/calculus.py",
        "                if witness is None and dev * tau_h > 2 * ks[j] * den:\n",
        "                if dev * tau_h > 2 * ks[j] * den:\n",
        ("tests/test_checks_reference.py::test_limit_check_equals_the_reference",),
    ),
    Mutant(
        "grid-independence gap with tau1 * den1",
        "src/hypergrid/calculus.py",
        "        gap = abs(r1 * tau1 * e2 - r2 * tau2 * e1)\n",
        "        gap = abs(r1 * tau1 * e1 - r2 * tau2 * e1)\n",
        ("tests/test_checks_reference.py::test_grid_independence_check_equals_the_reference",),
    ),
    Mutant(
        "indiscernibility tolerance test with >=",
        "src/hypergrid/gridfun.py",
        "            if gap * H > den and witness is None:  # gap / den > 1/H\n",
        "            if gap * H >= den and witness is None:  # gap / den > 1/H\n",
        (
            "tests/test_gridfun.py::test_fn_indiscernible_accepts_a_gap_of_exactly_one_over_h",
            "tests/test_checks_reference.py::test_fn_indiscernible_equals_the_reference",
        ),
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
        "            reads.append((t, k, read(x + k)))\n",
        "            read(x)\n            reads.append((t, k, read(x + k)))\n",
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
        "reader without its magnitude guard",
        "src/hypergrid/series.py",
        "            _exp_guard(m, b, tau, policy)\n",
        "            _require_grid(tau, policy)\n",
        ("tests/test_series.py::test_exp_reader_equals_the_kernel",),
    ),
    Mutant(
        "indiscernibility pair gap over dg * dg",
        "src/hypergrid/gridfun.py",
        "        den = df * dg\n",
        "        den = dg * dg\n",
        ("tests/test_checks_reference.py::test_fn_indiscernible_equals_the_reference",),
    ),
    Mutant(
        "limit peak compared without cross-multiplying",
        "src/hypergrid/calculus.py",
        "            if dev * peak_den > peak * den:\n",
        "            if dev > peak:\n",
        ("tests/test_checks_reference.py::test_limit_check_equals_the_reference",),
    ),
    Mutant(
        "verify's last-term test with <",
        "src/hypergrid/calculus.py",
        "        return bool(terms) and abs(terms[-1] - self.declared_limit) * self.context.H <= 1\n",
        "        return bool(terms) and abs(terms[-1] - self.declared_limit) * self.context.H < 1\n",
        ("tests/test_calculus.py::test_verify_reads_the_last_term_like_the_ladder",),
    ),
    # one serial prefix sum
    Mutant(
        "running sum starts one index late",
        "src/hypergrid/calculus.py",
        "    for i in range(1, len(terms)):\n",
        "    for i in range(2, len(terms)):\n",
        (
            "tests/test_calculus.py::test_running_sums_accumulate_in_place",
            "tests/test_calculus.py::test_integral_of_identity_at_one",
        ),
    ),
    Mutant(
        "integral stream yields before it accumulates",
        "src/hypergrid/calculus.py",
        "        acc += at(n)\n        yield spec.point(n), Fraction(acc, den)\n",
        "        yield spec.point(n), Fraction(acc, den)\n        acc += at(n)\n",
        (
            "tests/test_calculus.py::test_integral_stream_matches_the_table",
            "tests/test_calculus.py::test_integral_stream_is_lazy_and_stops_at_the_leftmost_failure",
        ),
    ),
    Mutant(
        "integral stream drops the lane's denominator",
        "src/hypergrid/calculus.py",
        "    den = f.den * spec.tau\n",
        "    den = spec.tau\n",
        ("tests/test_calculus.py::test_integral_stream_matches_the_table",),
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
