"""The byte-identity sweep of the command line (tools/cli_sweep.py)."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import cli_sweep  # noqa: E402


def test_the_sweep_is_a_fixed_list_of_distinct_invocations():
    cases = cli_sweep.invocations()
    keys = {json.dumps(case) for case in cases}
    assert len(keys) == len(cases) >= 1000
    argvs = [argv for _, argv in cases]
    assert {argv[1] for argv in argvs if argv[:1] == ["check"]} >= set(cli_sweep.CHECK_KINDS)
    assert {argv[1] for argv in argvs if argv[:1] == ["sum"]} >= set(cli_sweep.SERIES)
    for flag in ("--at", "--domain", "--json", "--workers", "--seed"):
        assert any(flag in argv for argv in argvs)
    assert cases == cli_sweep.invocations()


def test_compare_names_each_differing_invocation(tmp_path, capsys):
    from hypergrid import cli

    cases = [({}, ["eval", "x^2", "--tau", "8", "--at", "1/2"]), ({}, ["eval", "x^"])]
    records = [cli_sweep._invoke(cli, env, argv) for env, argv in cases]
    assert [r["exit"] for r in records] == [0, 1]
    assert records[0]["stdout"].startswith("1/4\n")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(records))
    b.write_text(json.dumps(records))
    assert cli_sweep.compare(a, b) == 0
    records[1]["stderr"] += "changed"
    b.write_text(json.dumps(records))
    capsys.readouterr()
    assert cli_sweep.compare(a, b) == 1
    assert capsys.readouterr().out.splitlines() == ["eval x^", "1 of 2 invocations differ"]


def test_the_sweep_runs_every_demo_of_the_checkout():
    names = [Path(path).name for path in cli_sweep.demos(ROOT)]
    assert len(names) == 6 and "03_difference_quotients.py" in names
    record = cli_sweep._run_demo(str(ROOT / "src"), cli_sweep.demos(ROOT)[1])
    assert record["argv"] == ["demo", "02_grid_rounding.py"]
    assert record["exit"] == 0 and record["stdout"] and record["stderr"] == ""
