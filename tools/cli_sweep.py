"""Byte-identity sweep of the command line.

Runs a fixed list of CLI invocations in-process against one checkout and
records, for each, its argv, exit code, stdout and stderr; a second mode
compares two such records.  Two checkouts that should behave alike (a
refactor and its parent, say) are compared like this:

    python3 tools/cli_sweep.py run PARENT parent.json
    python3 tools/cli_sweep.py run .      change.json
    python3 tools/cli_sweep.py compare parent.json change.json

``run SRC OUT.json`` imports ``hypergrid`` from ``SRC/src`` (or from SRC
itself when it holds the package) and calls ``hypergrid.cli.main`` once
per invocation.  A ``SystemExit`` that escapes ``main`` (``--help``)
records its code as the exit; any other exception is recorded as exit
code "traceback" with its type and message, so a crash shows up as a
difference instead of ending the sweep.  It then runs each of SRC's
``demos/*.py`` in a subprocess with ``PYTHONPATH`` set to that package
root, recorded under the argv ``["demo", NAME]`` with the package root
in its stderr written as ``<src>``.  ``compare A.json B.json`` prints
each argv whose record differs, or is missing from one side, and exits 1
if there is any.
"""

import contextlib
import glob
import io
import json
import os
import subprocess
import sys
from collections import Counter

EXPRESSIONS = (
    "x",
    "x^2",
    "x^3 - x/2",
    "(x + 1/3)^5 - 2*x^2 + 7",
    "exp(x)",
    "x*exp(x)",
    "exp(2*x - 1)",
    "log(1+x)",
    "log(x)",
    "1/(x+1)",
    "x/(1 + x^2)",
    "1/(x - 1/2)",
    "exp(x)^3*x",
    "exp(1/(x+1))",
    "exp(log(1+x))",
    "exp(x)/(1+x)",
    "log(1 + 1/(x+1))",
)

POINT_OPTIONS = (
    [],
    ["--at", "1/3"],
    ["--at", "1"],
    ["--at", "0.7"],
    ["--domain", "-1", "2"],
    ["--domain", "-1", "2", "--at", "0"],
    ["--domain", "1/2", "3/2", "--at", "3/2", "--json"],
    ["--json"],
    ["--json", "--at", "1/2"],
    ["--workers", "3"],
    ["--exp-mode", "full", "--at", "1/4"],
    ["--digits", "30", "--guard", "8"],
)

CHECK_EXPRESSIONS = (
    "x^2",
    "x^3 - x/2",
    "exp(x)",
    "x*exp(x)",
    "log(1+x)",
    "1/(x+1)",
    "1/(x - 1/2)",
    "exp(1/(x+1))",
    "exp(x)/(1+x)",
)

CHECK_KINDS = ("ftc", "grid-independence", "secant", "limit", "continuity")

# sampled checks at the benchmark's sizes, and on a function that fails at
# many points, so the order in which a check reads points shows
SAMPLED_CHECKS = (
    ["check", "limit", "x*exp(x)", "--tau", "1000000", "--H", "1000", "--samples", "128"],
    ["check", "grid-independence", "exp(x)", "--tau", "10000", "--tau2", "30000",
     "--H", "1000", "--samples", "256"],
    *(
        ["check", kind, "log(x - 1/2)", "--tau", tau, "--H", H]
        for kind in ("limit", "grid-independence")
        for tau, H in (("64", "8"), ("1024", "32"))
    ),
    # exp values over large denominators, a coarse guard, and the full policy
    ["check", "limit", "exp(2*x - 1)", "--tau", "1000000", "--H", "1000", "--samples", "128"],
    ["check", "grid-independence", "exp(x^2)", "--tau", "10000", "--tau2", "30000",
     "--samples", "256"],
    ["check", "grid-independence", "x*exp(x)", "--guard", "1"],
    ["check", "limit", "x*exp(x)", "--tau", "4096", "--exp-mode", "full"],
    ["check", "limit", "x*exp(x)", "--tau", "256", "--exp-mode", "full", "--H", "16",
     "--samples", "64"],
    # |q| up to 100 on a coarse grid: a few reads per stop index
    ["check", "limit", "exp(100*x)", "--tau", "1000", "--H", "16", "--samples", "64"],
    ["check", "grid-independence", "exp(100*x)", "--tau", "1000", "--tau2", "3000",
     "--H", "16", "--samples", "64"],
    # transport onto a coarser grid, and onto one that does not divide the source
    ["check", "grid-independence", "x^2", "--tau", "1000", "--tau2", "300"],
    ["check", "grid-independence", "exp(x)", "--tau", "1000", "--tau2", "2999",
     "--samples", "64"],
    # many more samples than points, so nearly every read repeats; and a
    # power of an exp node read at every point
    ["check", "grid-independence", "exp(x)", "--tau", "100", "--tau2", "300",
     "--H", "16", "--samples", "1024"],
    ["check", "ftc", "exp(x)^3*x", "--tau", "1024", "--H", "32"],
)

# checks that print certificate values: a secant check's max_gap is the
# worst excess over the quotient modulus, and continuity is certified only
# when the modulus at the mesh is at most 1/H
CERTIFICATE_CHECKS = (
    *(
        ["check", "secant", text, "--tau", "256", "--H", "16"]
        for text in (
            "2 - 3*exp(x)",
            "-(x*exp(x))/3 + 1/2",
            "(x + 1/3)^5 - 2*x^2 + 7",
            "(x*exp(x)/3)^5",
        )
    ),
    *(
        ["check", "continuity", text, "--tau", "65536"]
        for text in ("3*exp(x) - 2", "(x*exp(x)/3)^5")
    ),
)

# the prefix sum at the benchmark's size, with more than one worker
REDUCTIONS = (
    ["integrate", "x*exp(x)", "--tau", "16384", "--workers", "2"],
    ["check", "ftc", "x*exp(x)", "--tau", "2048", "--H", "32", "--workers", "4"],
    # prefix sums over wide common denominators (lcm(4096..8192) for 1/(x+1))
    ["check", "ftc", "exp(1/(x+1))", "--tau", "4096", "--H", "64"],
    ["integrate", "1/(x+1)", "--tau", "4096", "--at", "1/3"],
)

# lattice logs at lattice values of E, where a boundary lies inside the
# search's bracket, under each policy; and the full policy on a small grid,
# where no tail is proven and every read evaluates E
LOGS = (
    *(
        ["eval", "log(exp(x))", "--tau", "64", "--at", "1/2", *options]
        for options in ([], ["--exp-mode", "full"], ["--guard", "1"])
    ),
    ["check", "continuity", "log(1+x)", "--tau", "8", "--exp-mode", "full"],
)

SERIES = ("zeros", "harmonic", "inverse-squares", "geometric:1/2", "geometric:2")

ERRORS = (
    [],
    ["eval"],
    ["eval", "x^", "--tau", "16"],
    ["eval", "x +* 2", "--tau", "16"],
    ["eval", "sin(x)", "--tau", "16"],
    ["eval", "x", "--tau", "1"],
    ["eval", "x", "--tau", "16", "--at", "2"],
    ["eval", "x", "--tau", "16", "--at", "one"],
    ["eval", "x", "--tau", "16", "--domain", "1", "1"],
    ["eval", "x", "--tau", "16", "--domain", "0", "1", "--at", "-1"],
    ["eval", "--tau", "16", "--file", "missing-expression.txt"],
    ["eval", "log(x)", "--tau", "16", "--at", "0"],
    ["eval", "1/(x - 1/2)", "--tau", "16", "--at", "1/2"],
    ["eval", "exp(10^9*x)", "--tau", "16", "--at", "1"],
    ["eval", "exp(x)^330", "--tau", "64"],
    ["eval", "x^5000", "--tau", "2", "--at", "1/2"],
    ["eval", "x/0", "--tau", "16"],
    ["eval", "x", "--tau", "16", "--digits", "-1"],
    ["eval", "x", "--tau", "16", "--guard", str(2**11)],
    ["eval", "x", "--tau", "16", "--exp-mode", "half"],
    ["integrate", "x", "--tau", "16", "--workers", "0"],
    ["integrate", "x", "--tau", "16", "--workers", "-2"],
    ["integrate", "exp(x)", "--tau", "16", "--H", "2", "--K", "2"],
    ["integrate", "1/(x + 1/4)", "--tau", "16", "--H", "2", "--K", "3"],
    # past K only at 341/1024 and 342/1024, two points the K test must read
    ["integrate", "1/(x-1/3)^3", "--tau", "1024", "--K", "1000000000"],
    ["check", "ftc", "1/(x-1/3)^3", "--tau", "1024", "--H", "4", "--K", "1000000000"],
    ["integrate", "log(x)", "--tau", "16", "--domain", "0", "2"],
    # one point past the 2^24-point limit on reads
    ["integrate", "x", "--tau", "16777216"],
    ["check", "ftc", "x", "--tau", "16777216"],
    # log arguments far wider than an error message should print
    ["diff", "log((2+x)^4096)", "--tau", "1024"],
    ["eval", "log(-(2+x)^4096)", "--tau", "1024", "--at", "1/3"],
    ["eval", "log((2+x)^4096)", "--tau", "1024", "--at", "1/2"],
    # a literal one digit past Python's int-from-text limit
    ["eval", "x+" + "7" * 4301, "--tau", "16"],
    # folded exponents, a domain end and a point far wider than a message
    # should print; the first two are past the int-to-text limit
    ["eval", "x^(3^4096*3^4096*3^1000)", "--tau", "16"],
    ["eval", "x^(1/(3^4096*3^4096*3^1000))", "--tau", "16"],
    ["eval", "x^(3^4096*3^4096)", "--tau", "16"],
    ["eval", "x^(1/3^4096)", "--tau", "16"],
    # a constant power refused before its fold: (3^4096)^4096 has 26.6 Mbit
    ["eval", "x^((3^4096)^4096)", "--tau", "16"],
    # and one that fits: 10^4096 has 13,606 bits, under the limit's 14,285
    ["eval", "x/10^4096", "--tau", "4", "--at", "0"],
    ["eval", "x", "--tau", "16", "--domain", "1", "1/" + "7" * 4000],
    ["eval", "x", "--tau", "16", "--at", "7" * 4000],
    # one point past the full policy's grid limit
    ["eval", "exp(x)", "--tau", "16385", "--exp-mode", "full", "--at", "1/2"],
    ["check", "ftc", "x", "--tau", "16", "--samples", "0"],
    ["check", "ftc", "x", "--tau", "16", "--samples", str(2**25)],
    ["check", "area", "x", "--tau", "16"],
    ["check", "secant", "--tau", "16"],
    ["check", "secant", "x^2", "--tau", "16", "--H", "2"],
    ["check", "limit", "x^2", "--tau", "16", "--H", "64"],
    ["check", "limit", "x^2", "--tau", "10", "--samples", "1", "--H", "2"],
    ["check", "grid-independence", "x^2", "--tau", "16", "--samples", "0"],
    ["check", "continuity", "exp(10^9*x)", "--tau", "65536"],
    ["sum", "primes", "--H", "10"],
    ["sum", "geometric:x", "--H", "10"],
    ["sum", "harmonic", "--sum-cap", "3"],
    ["sum", "harmonic", "--sum-cap", str(2**25)],
    ["frobnicate", "x"],
    # usage errors the parser itself reports
    ["check"],
    ["sum"],
    ["eval", "x", "--bogus"],
    ["eval", "x", "--tau", "ten"],
    ["eval", "x", "--exp-mode"],
)

# help text, at a fixed width because argparse wraps it to the terminal's
HELP = tuple(
    [*command, "--help"] for command in ([], ["eval"], ["diff"], ["integrate"], ["check"], ["sum"])
)

# (environment variable value, argv): the tau cap and its malformed forms
CAPPED = (
    ("64", ["eval", "x", "--tau", "64"]),
    ("64", ["eval", "x", "--tau", "65"]),
    ("64", ["check", "grid-independence", "x", "--tau", "16", "--tau2", "128"]),
    ("64", ["check", "grid-independence", "x", "--tau", "64"]),
    ("sixty-four", ["eval", "x", "--tau", "16"]),
)


def invocations():
    """The fixed sweep: a list of (env, argv), env a dict of variables set
    for that invocation only."""
    out = []
    for command in ("eval", "diff", "integrate"):
        for text in EXPRESSIONS:
            for tau in ("16", "64"):
                for options in POINT_OPTIONS:
                    out.append(({}, [command, text, "--tau", tau, *options]))
    for kind in CHECK_KINDS:
        for text in CHECK_EXPRESSIONS:
            for tau, H in (("64", "8"), ("256", "16"), ("1024", "32")):
                for seed in ("0", "7"):
                    argv = ["check", kind, text, "--tau", tau, "--H", H, "--seed", seed]
                    argv += ["--samples", "64"]
                    if seed == "7":
                        argv.append("--json")
                    out.append(({}, argv))
            out.append(({}, ["check", kind, text, "--tau", "64", "--H", "8", "--tau2", "96"]))
    out.extend(({}, argv) for argv in SAMPLED_CHECKS)
    out.extend(({}, argv) for argv in CERTIFICATE_CHECKS)
    out.extend(({}, argv) for argv in REDUCTIONS)
    out.extend(({}, argv) for argv in LOGS)
    for series in SERIES:
        for H in ("10", "1000"):
            for cap in ("16", "1024"):
                for extra in ([], ["--json"]):
                    out.append(({}, ["sum", series, "--H", H, "--sum-cap", cap, *extra]))
    out.extend(({}, argv) for argv in ERRORS)
    out.extend(({"HYPERGRID_MAX_TAU": cap}, argv) for cap, argv in CAPPED)
    out.extend(({"COLUMNS": "80"}, argv) for argv in HELP)
    return out


def _import_cli(src):
    root = os.path.abspath(src)
    if os.path.isfile(os.path.join(root, "src", "hypergrid", "__init__.py")):
        root = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(root, "hypergrid", "__init__.py")):
        raise SystemExit(f"no hypergrid package under {src}")
    sys.path.insert(0, root)
    from hypergrid import cli

    if not os.path.abspath(cli.__file__).startswith(root + os.sep):
        raise SystemExit(f"hypergrid imported from {cli.__file__}, not {root}")
    return cli


def _invoke(cli, env, argv):
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # --help prints and exits 0
        code = exc.code
    except Exception as exc:
        # a crash is a recorded outcome; its type and message, not its
        # traceback, whose file paths differ between checkouts
        code = "traceback"
        err.write(f"{type(exc).__name__}: {exc}\n")
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return {
        "argv": argv,
        "env": env,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def demos(src):
    """The demo scripts of the checkout SRC, in name order."""
    return sorted(glob.glob(os.path.join(os.path.abspath(src), "demos", "*.py")))


def _run_demo(root, path):
    env = dict(os.environ, PYTHONPATH=root)
    done = subprocess.run([sys.executable, path], env=env, capture_output=True, text=True)
    return {
        "argv": ["demo", os.path.basename(path)],
        "env": {},
        "exit": done.returncode,
        "stdout": done.stdout,
        "stderr": done.stderr.replace(root, "<src>"),
    }


def run(src, out_path):
    cli = _import_cli(src)
    os.environ.pop("HYPERGRID_MAX_TAU", None)  # only the CAPPED cases set it
    records = [_invoke(cli, env, argv) for env, argv in invocations()]
    root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    records += [_run_demo(root, path) for path in demos(src)]
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    codes = Counter(record["exit"] for record in records)
    summary = ", ".join(f"exit {code}: {count}" for code, count in sorted(codes.items(), key=str))
    print(f"{len(records)} invocations ({summary}) -> {out_path}")
    return 0


def _key(record):
    return json.dumps([record["env"], record["argv"]])


def compare(a_path, b_path):
    with open(a_path, encoding="utf-8") as handle:
        a = {_key(r): r for r in json.load(handle)}
    with open(b_path, encoding="utf-8") as handle:
        b = {_key(r): r for r in json.load(handle)}
    differing = [key for key in a if a[key] != b.get(key)]
    differing += [key for key in b if key not in a]
    for key in differing:
        env, argv = json.loads(key)
        prefix = "".join(f"{name}={value} " for name, value in env.items())
        print(prefix + " ".join(argv))
    print(f"{len(differing)} of {len(a.keys() | b.keys())} invocations differ")
    return 1 if differing else 0


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "run":
        return run(args[1], args[2])
    if len(args) == 3 and args[0] == "compare":
        return compare(args[1], args[2])
    print("usage: cli_sweep.py run SRC OUT.json | compare A.json B.json", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
