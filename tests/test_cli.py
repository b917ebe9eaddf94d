import json
import math
import subprocess
import sys

import numpy as np
import pytest

from symcrit import canonical_json, csv_text
from symcrit.cli import main


def _run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "symcrit.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_interval_hopf_subprocess():
    proc = _run("interval", "--example", "hopf", "--t", "8")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    iv = payload["interval"]
    assert iv["lo"] == pytest.approx(3.0 / 16.0, rel=1e-15)
    assert iv["hi"] == 0.75
    assert iv["hi_strict"] is True and iv["lo_strict"] is False
    assert iv["empty"] is False
    # canonical output: parse + re-encode reproduces the bytes
    assert canonical_json(payload) == proc.stdout.rstrip("\n")


def test_exit_code_usage_error(capsys):
    assert main([]) == 1
    assert main(["interval"]) == 1  # --example required
    assert main(["interval", "--example", "nonsense"]) == 1
    assert main(["interval", "--example", "hopf", "--f-max", "2.0"]) == 1
    capsys.readouterr()


def test_exit_code_precondition(capsys):
    assert main(["interval", "--example", "hopf", "--t", "0.5"]) == 2
    assert main(["interval", "--example", "sphere-quotients", "--t", "3"]) == 2
    err = capsys.readouterr().err
    assert "precondition violated" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "example, flag",
    [
        ("cylinder-weighted", "--t"),
        ("cylinder-triple", "--t"),
        ("hopf", "--t"),
        ("cylinder-overcritical", "--t"),
        ("triple-product", "--a"),
        ("triple-product", "--b"),
        ("sphere-quotients", "--f-max"),
        ("sphere-quotients", "--f-min"),
        ("sphere-quotients", "--f-avg"),
        ("sphere-quotients", "--f-laplacian"),
        ("sphere-quotients", "--f-vanishing-order"),
    ],
)
def test_interval_rejects_non_finite_float_flags(capsys, example, flag, value):
    profile = ("--f-max", "1.2", "--f-min", "0.8", "--f-avg", "1.0")
    extra = profile if flag.startswith("--f-") else ()
    code = main(["interval", "--example", example, *extra, flag, value])
    err = capsys.readouterr().err
    if flag == "--f-vanishing-order" and value == "inf":
        assert code == 0  # a weight flat to every order, like a constant one
    else:
        assert code == 2 and "precondition violated" in err
        assert "NaN" not in err  # the message names the input, not an endpoint


def test_solve_rejects_empty_start_list(capsys):
    assert main(["solve", "--length", "6.2832", "--p", "5", "--alpha", "1.0", "--starts", ","]) == 2
    assert "start label" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, field",
    [("--newton-tol", "nan", "newton_tol"), ("--descent-tol", "-1", "descent_tol")],
)
def test_solve_rejects_bad_tolerances_before_any_work(capsys, flag, value, field):
    argv = ["solve", "--length", "6.2832", "--p", "5", "--alpha", "0.3", "--grid", "64"]
    assert main([*argv, "--starts", "constant", flag, value]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--length", "6.2832", "--p", "inf", "--alpha", "0.3", "--grid", "64"],
        ["expansion", "--dim", "6", "--delta", "1.0", "--alpha", "1.0", "--orbit-volume", "1.0",
         "--eps-max", "nan", "--eps-min", "1e-6", "--eps-count", "3"],
        ["expansion", "--dim", "6", "--delta", "1.0", "--alpha", "1.0", "--orbit-volume", "1.0",
         "--curvature", "nan"],
    ],
    ids=["solve-p-inf", "expansion-eps-nan", "expansion-curvature-nan"],
)
def test_non_finite_flags_are_named_non_finite(capsys, argv):
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err


def test_exit_code_convergence_failure(capsys):
    code = main(
        [
            "solve", "--length", "6.2832", "--p", "5", "--alpha", "1.0",
            "--starts", "cos1", "--max-descent", "0", "--max-newton", "1",
        ]
    )
    assert code == 3
    assert "did not converge" in capsys.readouterr().err


def test_interval_csv_locale_safe(capsys):
    assert main(["interval", "--example", "cylinder-weighted", "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].split(",")[:3] == ["example", "lo", "hi"]
    cells = out[1].split(",")
    assert cells[0] == "cylinder-weighted"
    assert "." in cells[1] and float(cells[1]) == pytest.approx(3.1875, rel=1e-12)
    assert float(cells[2]) == 4.0
    assert cells[3] == "false"


def test_table_lists_all_examples(capsys):
    assert main(["table"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7  # header + six examples
    assert lines[0].startswith("example,n,t,")
    names = {line.split(",")[0] for line in lines[1:]}
    assert names == {
        "sphere-quotients", "cylinder-weighted", "triple-product",
        "cylinder-triple", "hopf", "cylinder-overcritical",
    }
    assert main(["table", "--example", "hopf"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_table_json_roundtrip(capsys):
    assert main(["table", "--format", "json"]) == 0
    out = capsys.readouterr().out
    rows = json.loads(out)
    assert len(rows) == 6
    assert canonical_json(rows) == out.rstrip("\n")


def test_solve_reports_threshold_comparison(capsys):
    code = main(
        [
            "solve", "--example", "cylinder-triple", "--index", "1",
            "--alpha", "2.18", "--grid", "96",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["problem"]["p"] == pytest.approx(7.0 / 3.0, rel=1e-15)
    assert payload["classification"] == "nonconstant"
    assert payload["below_threshold"] is True
    assert payload["quotient_value"] < payload["threshold"]
    assert "u" not in payload


def test_solve_profile_includes_samples(capsys):
    code = main(
        [
            "solve", "--length", "10.0", "--p", "5", "--alpha", "0.5",
            "--grid", "64", "--starts", "constant,cos1", "--profile",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["u"]) == 64 and len(payload["s"]) == 64
    assert min(payload["u"]) > 0.0


def test_solve_requires_a_problem(capsys):
    assert main(["solve", "--alpha", "1.0"]) == 1
    assert main(["solve", "--example", "hopf", "--alpha", "1.0"]) == 1  # no index
    capsys.readouterr()


def test_expansion_branches(capsys):
    args = ["--delta", "1.0", "--alpha", "1.0", "--orbit-volume", "1.0",
            "--eps-max", "1e-4", "--eps-min", "1e-6", "--eps-count", "3"]
    assert main(["expansion", "--dim", "4", *args]) == 0
    log_payload = json.loads(capsys.readouterr().out)
    assert set(log_payload) == {"coeff", "samples", "consistent"}
    assert main(["expansion", "--dim", "6", *args]) == 0
    fit_payload = json.loads(capsys.readouterr().out)
    assert "fitted_c1" in fit_payload and len(fit_payload["samples"]) == 3
    assert main(["expansion", "--dim", "6", "--delta", "1.0", "--alpha", "1.0",
                 "--orbit-volume", "1.0", "--eps-max", "1e-4"]) == 1
    capsys.readouterr()
    for count in ("0", "-1"):
        assert main(["expansion", "--dim", "6", *args[:-1], count]) == 2
        assert "--eps-count" in capsys.readouterr().err


def test_canonical_json_handles_special_values():
    assert canonical_json({"x": math.inf}) == '{\n  "x": null\n}'
    assert canonical_json({"v": np.float64(1.5)}) == '{\n  "v": 1.5\n}'
    text = canonical_json({"b": 2.0, "a": [1, {"z": None}]})
    assert json.loads(text) == {"b": 2.0, "a": [1, {"z": None}]}
    assert canonical_json(json.loads(text)) == text


def test_csv_text_cells():
    out = csv_text(["a", "b", "c", "d"], [[1.5, True, None, "x"]])
    assert out == "a,b,c,d\n1.5,true,,x"



# One fresh interpreter per command: run it through `main`, then list the
# loaded modules.  numpy is bound lazily, so "numpy" itself sits in
# sys.modules from the start; a numpy.* submodule shows that it executed.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from symcrit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "modules": sorted(sys.modules),
                  "newton_ran": sys.modules["symcrit.solver"].spla is not None}))
"""


def _cold_run(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    return set(result["modules"]), result["newton_ran"]


def _under(modules, package):
    return {m for m in modules if m == package or m.startswith(package + ".")}


@pytest.mark.parametrize(
    "argv",
    [
        ["interval", "--example", "hopf", "--t", "8"],
        ["interval", "--example", "sphere-quotients", "--format", "csv"],
        ["table"],
        ["table", "--format", "json"],
    ],
)
def test_interval_and_table_load_neither_numpy_nor_scipy(argv):
    modules, _ = _cold_run(argv)
    assert {m for m in modules if m.startswith("numpy.")} == set()
    assert _under(modules, "scipy") == set()


def test_solve_loads_no_quadrature():
    modules, newton_ran = _cold_run(
        ["solve", "--length", "6.2832", "--p", "5", "--alpha", "0.3", "--grid", "64",
         "--starts", "constant"]
    )
    assert newton_ran
    assert _under(modules, "scipy.integrate") == set()


def test_expansion_runs_no_newton_solve():
    modules, newton_ran = _cold_run(
        ["expansion", "--dim", "6", "--delta", "1.0", "--alpha", "1.0", "--orbit-volume", "1.0"]
    )
    assert _under(modules, "scipy") == set()
    assert not newton_ran


def test_package_import_loads_every_module():
    # The benchmark's import probe reads the cumulative import time of these
    # five modules from `python -X importtime -c "import symcrit; import
    # symcrit.cli"` and fails when one is missing.  Deferring a symcrit
    # module (a lazy __init__, per-subcommand imports in cli) would drop it
    # from that line; the cost to defer is numpy's and scipy's, inside them.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, symcrit, symcrit.cli; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        check=True,
    )
    modules = set(json.loads(proc.stdout))
    for name in ("symcrit", "symcrit.conditions", "symcrit.solver", "symcrit.expansion",
                 "symcrit.cli"):
        assert name in modules
    assert {m for m in modules if m.startswith("numpy.")} == set()
    assert _under(modules, "scipy") == set()
