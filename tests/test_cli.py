import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from cli_scan import undocumented_nulls
from hypothesis import HealthCheck, given, settings, strategies as st

from symcrit import (
    ExpansionConfig,
    SolveConfig,
    canonical_json,
    cli,
    constant_solution,
    csv_text,
    fit_and_compare,
    solver,
)
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
    assert iv["lo"] == pytest.approx(3.0 / 16.0, rel=1e-15, abs=0.0)
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
    # omega_N overflows a float past N = 342: named as a precondition, every time
    for _ in range(2):
        assert main(["interval", "--example", "sphere-quotients", "--n", "401", "--a1", "2", "--a2", "3"]) == 2
    err = capsys.readouterr().err
    assert "precondition violated" in err and "[1, 342], past which" in err and "N=401" in err


def test_exit_code_precondition_on_an_integer_past_the_float_range(capsys):
    # a 401-digit group order or dimension is range-checked before any
    # conversion to float, so it is named as a precondition, not an OverflowError
    huge = "9" * 401
    assert main(["interval", "--example", "sphere-quotients", "--n", "5", "--a1", "2", "--a2", huge]) == 2
    assert "precondition violated: a2 must be an integer in [1, 1e+150], got 999" in capsys.readouterr().err
    assert main(["interval", "--example", "sphere-quotients", "--n", huge, "--a1", "2", "--a2", "3"]) == 2
    assert "precondition violated: n must be an integer in [1, 1e+150], got 999" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--example", "cylinder-weighted", "--t", "1e-300"], "circle radius t must keep 1/(4 t^2) a finite float"),
        (["--example", "cylinder-triple", "--t", "1e-160"], "circle radius t must keep 1/(4 t^2) a finite float"),
        (["--example", "triple-product", "--a", "1e300", "--b", "1e300"], "factor radii a=1e+300, b=1e+300"),
        (["--example", "cylinder-triple", "--t", "1.1e306"], "manifold volume must be finite"),
    ],
)
def test_interval_names_a_radius_past_the_float_range(capsys, argv, named):
    # once a bare ZeroDivisionError or OverflowError (exit 1), or an interval
    # computed from an infinite window or volume (exit 0)
    assert main(["interval", *argv]) == 2
    err = capsys.readouterr().err
    assert "precondition violated" in err and named in err


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
    [("--newton-tol", "nan", "newton_tol")],
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


@pytest.mark.parametrize(
    "problem",
    [["--example", "cylinder-triple", "--index", "1"], ["--length", "6.283", "--p", "5"]],
    ids=["example", "explicit"],
)
@pytest.mark.parametrize("grid", ["-5", "0", "63"])
def test_solve_rejects_a_grid_below_the_minimum(capsys, problem, grid):
    assert main(["solve", *problem, "--alpha", "2.18", "--grid", grid]) == 2
    assert "precondition violated: grid must be an integer >= 64" in capsys.readouterr().err


def test_exit_code_convergence_failure_without_iterations(monkeypatch, capsys):
    # with no descent step and no Newton step the soliton start stays the
    # rescaled line soliton, whose residual on the circle (about 1e-1) is
    # far above newton_tol: the failure holds by construction, not by rounding
    monkeypatch.setattr(solver, "DESCENT_MAX_ITER", 0)
    monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 0)
    code = main(
        [
            "solve", "--example", "cylinder-triple", "--index", "2",
            "--alpha", "2.1801896756736916", "--grid", "512", "--starts", "soliton",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "did not converge" in err and "'soliton'" in err


def test_interval_csv_locale_safe(capsys):
    assert main(["interval", "--example", "cylinder-weighted", "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].split(",")[:3] == ["example", "lo", "hi"]
    cells = out[1].split(",")
    assert cells[0] == "cylinder-weighted"
    assert "." in cells[1] and float(cells[1]) == pytest.approx(3.1875, rel=1e-12, abs=0.0)
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


# `symcrit table --format json` as the interval engine prints it: columns
# example, n, t, a, b, a1, a2, lo, hi, lo_strict, hi_strict, empty, count
_TABLE = [
    ("sphere-quotients", 5, None, None, None, 2, 4, 2.0833333333333335, 3.75, False, False, False, 2),
    ("cylinder-weighted", 6, 1.0, None, None, 1, 2, 3.1875, 4.0, False, False, False, 2),
    ("triple-product", 10, None, 4.0, 0.28, None, None, 7.35, 7.814625850340136, False, True, False, 2),
    ("cylinder-triple", 5, 40.0, None, None, 1, 2, 2.110379351347383, 2.25, False, False, False, 3),
    ("hopf", None, 8.0, None, None, None, None, 0.1875000000000001, 0.75, False, True, False, 2),
    ("cylinder-overcritical", 5, 8.0, None, None, None, None, 0.707106781186547, 1.0, False, True, False, 2),
]


def test_table_json_is_pinned_byte_for_byte(capsys):
    # an endpoint that moves by one ulp changes the text
    header = "example n t a b a1 a2 lo hi lo_strict hi_strict empty count".split()
    expected = json.dumps([dict(zip(header, row)) for row in _TABLE], sort_keys=True, indent=2)
    assert main(["table", "--format", "json"]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_solve_reports_threshold_comparison(capsys):
    code = main(
        [
            "solve", "--example", "cylinder-triple", "--index", "1",
            "--alpha", "2.18", "--grid", "96",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["problem"]["p"] == pytest.approx(7.0 / 3.0, rel=1e-15, abs=0.0)
    assert payload["classification"] == "nonconstant"
    assert payload["below_threshold"] is True
    assert payload["quotient_value"] < payload["threshold"]
    assert "u" not in payload


def test_solve_takes_the_soliton_start_alone(capsys):
    code = main(
        [
            "solve", "--example", "cylinder-triple", "--index", "1",
            "--alpha", "2.18", "--grid", "512", "--starts", "soliton",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["start_label"] == "soliton" and payload["winning_starts"] == ["soliton"]
    assert (payload["classification"], payload["morse_index"]) == ("nonconstant", 1)


def test_solve_help_lists_the_start_labels(capsys):
    assert main(["solve", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "labels, from constant, soliton, cos1, random (default: constant,soliton)" in help_text


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["solve", "--example", "cylinder-triple", "--index", "1", "--alpha", "2.18", "--grid", "128",
          "--p", "3", "--length", "1", "--orbit-volume", "5"], "--length"),
        (["solve", "--length", "6.283", "--p", "5", "--alpha", "0.3", "--grid", "128",
          "--n", "7", "--t", "3", "--index", "2"], "--index"),
        (["expansion", "--dim", "6", "--delta", "1.0", "--alpha", "1.0", "--orbit-volume", "1.0",
          "--eps-count", "3"], "--eps-count"),
        (["solve", "--example", "hopf", "--index", "1", "--alpha", "1.0", "--weight", "2"], "--weight"),
        (["solve", "--length", "6.283", "--p", "5", "--alpha", "0.3", "--a1", "3"], "--a1"),
    ],
    ids=["example-with-direct-flags", "direct-with-example-flags", "lone-eps-count",
         "example-with-weight", "direct-with-a1"],
)
def test_flags_that_would_be_ignored_are_usage_errors(capsys, argv, flag):
    assert main(argv) == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["interval", "--example", "hopf", "--f-max", "2.0"],
        ["solve", "--alpha", "1.0"],
        ["expansion", "--dim", "6", "--delta", "1.0", "--alpha", "1.0", "--orbit-volume", "1.0",
         "--eps-max", "1e-4"],
        ["table", "--format", "xml"],
    ],
    ids=["interval", "solve", "expansion", "table"],
)
def test_usage_errors_print_the_subcommand_usage(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage: symcrit %s " % argv[0])


def test_unset_flags_leave_the_config_defaults(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "minimize", lambda problem, config: seen.append(config) or constant_solution(problem))
    monkeypatch.setattr(cli, "fit_and_compare", lambda config: seen.append(config) or fit_and_compare(config))
    assert main(["solve", "--length", "6.283", "--p", "5", "--alpha", "0.3", "--grid", "64"]) == 0
    assert main(["expansion", "--dim", "6", "--delta", "1.0", "--alpha", "1.0", "--orbit-volume", "1.0"]) == 0
    capsys.readouterr()
    assert seen == [SolveConfig(), ExpansionConfig(dim=6, delta=1.0, alpha=1.0, orbit_volume=1.0)]


def test_the_descent_and_newton_caps_are_no_solve_flags(capsys):
    assert [f.name for f in dataclasses.fields(SolveConfig)] == ["seed", "starts", "newton_tol"]
    argv = ["solve", "--length", "6.283", "--p", "5", "--alpha", "0.3", "--grid", "64"]
    for flag in ("--descent-tol", "--max-descent", "--max-newton"):
        assert main([*argv, flag, "1"]) == 1
        assert "unrecognized arguments: %s 1" % flag in capsys.readouterr().err


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


@pytest.mark.parametrize("edge", ["--eps-min", "--eps-max"])
def test_an_eps_ladder_with_an_end_at_zero_is_refused_by_name(capsys, edge):
    argv = ["expansion", "--dim", "6", "--delta", "1.0", "--alpha", "1.0", "--orbit-volume", "1.0",
            "--eps-max", "1e-4", "--eps-min", "1e-6"]
    argv[argv.index(edge) + 1] = "0.0"
    assert main(argv) == 2
    assert "precondition violated: --eps-min and --eps-max must be positive, got " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        ("solve --length 6 --alpha 1000 --p 1.001 --grid 64", "the constant level (alpha/f)^{1/(p-1)} overflows"),
        ("solve --length 1e-300 --alpha 1 --p 5 --grid 64", "the stencil 2/h^2 of the node spacing h"),
        ("solve --length 1e-320 --alpha 1 --p 5 --grid 64", "the stencil 2/h^2 of the node spacing h"),
        ("solve --length 9.417435721214023e-08 --alpha 3.29460598250793e-08 --p 60.13990317699089 --grid 64"
         " --weight 528.7711818319289", "zero-mode tolerance ZERO_MODE_TOL * max(1, alpha) = 1e-06 is lost"),
        ("expansion --dim 6 --delta 1e-320 --alpha 1 --orbit-volume 1", "the default eps ladder"),
        ("expansion --dim 6 --delta 1.0 --alpha 1 --orbit-volume 1 --curvature 1e-300",
         "the area element's scale sqrt(curvature)^{N-1}"),
        ("expansion --dim 6 --delta 5.923371299533323 --alpha 1e300 --orbit-volume 248.1959638703932",
         "I(u_eps) must be a finite positive float"),
    ],
)
def test_inputs_past_the_float_range_are_refused_by_name(capsys, argv, named):
    # each once ended in a traceback (OverflowError, ZeroDivisionError,
    # RecursionError, ValueError) or, the last, in exit 0 with a null c1
    with np.errstate(all="ignore"):
        assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("precondition violated: ") and named in err


# Floats at the edges of the float range: subnormals, the largest floats,
# 0 and negative values, beside ordinary magnitudes; p also just above 1
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -1.0, -0.0, 5e-324, 1e-320, 1e-300, 1e300, 1e308, 1.7976931348623157e308]),
    st.floats(min_value=1e-8, max_value=1e8),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)
_EXPONENTS = st.one_of(st.floats(min_value=1.0, max_value=1.0 + 1e-3, exclude_min=True), st.floats(1.0, 100.0),
                       _EDGE_FLOATS)


@st.composite
def _solve_and_expansion_calls(draw):
    if draw(st.booleans()):
        argv = ["solve", "--grid", "64", "--length", repr(draw(_EDGE_FLOATS)), "--alpha", repr(draw(_EDGE_FLOATS)),
                "--p", repr(draw(_EXPONENTS))]
        optional = ("weight", "f-value", "orbit-volume")
    else:
        argv = ["expansion", "--dim", str(draw(st.integers(4, 8))), "--delta", repr(draw(_EDGE_FLOATS)),
                "--alpha", repr(draw(_EDGE_FLOATS)), "--orbit-volume", repr(draw(_EDGE_FLOATS))]
        optional = ("q", "curvature", "f-peak", "f-laplacian")
    for flag in optional:
        value = draw(st.none() | _EDGE_FLOATS)
        if value is not None:
            argv += ["--" + flag, repr(value)]
    return argv


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_solve_and_expansion_calls())
def test_every_solve_and_expansion_call_ends_in_a_named_refusal_or_a_finite_answer(argv):
    # README's exit codes hold for any float flags: 0, 2 or 3, or 1 only as
    # argparse's usage error, and no exception escapes main; a JSON answer
    # holds null only where documented (tests/cli_scan.py scans more calls)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        code = main(argv)
    assert code in (0, 2, 3) or (code == 1 and "usage:" in err.getvalue())
    if code == 0:
        assert undocumented_nulls(json.loads(out.getvalue())) == []


def test_canonical_json_handles_special_values():
    assert canonical_json({"x": math.inf}) == '{\n  "x": null\n}'
    assert canonical_json({"v": np.float64(1.5)}) == '{\n  "v": 1.5\n}'
    assert json.loads(canonical_json({"u": np.array([1.5, np.nan, -np.inf])})) == {"u": [1.5, None, None]}
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
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
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
    modules = set(result["modules"])
    # scipy's LAPACK extension is loaded by the solver only: the Newton step
    # and the Morse count of the report
    return modules, "scipy.linalg._flapack" in modules


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
    # the cos1 start needs Newton steps, and every report's Morse count loads
    # scipy's LAPACK extension by itself, without scipy.linalg's package and
    # so without scipy._lib and the numpy.f2py it pulls in; the descent
    # applies P^{-1} with that extension too, so numpy.fft stays unloaded
    modules, solver_ran = _cold_run(
        ["solve", "--length", "6.2832", "--p", "5", "--alpha", "0.3", "--grid", "64",
         "--starts", "constant,cos1"]
    )
    assert solver_ran
    assert _under(modules, "scipy.sparse") == set()
    assert _under(modules, "scipy.integrate") == set()
    assert _under(modules, "scipy.linalg.lapack") == set()
    assert _under(modules, "scipy._lib") == set()
    assert _under(modules, "numpy.f2py") == set()
    assert _under(modules, "numpy.fft") == set()


def test_expansion_runs_no_newton_solve():
    modules, solver_ran = _cold_run(
        ["expansion", "--dim", "6", "--delta", "1.0", "--alpha", "1.0", "--orbit-volume", "1.0"]
    )
    assert _under(modules, "scipy") == set()
    assert not solver_ran


def test_package_import_loads_every_module():
    # The benchmark's import probe reads the cumulative import time of these
    # five modules from `python -X importtime -c "import symcrit; import
    # symcrit.cli"` and fails when one is missing.  Deferring a symcrit
    # module (a lazy __init__, per-subcommand imports in cli) would drop it
    # from that line.  The import loads no numpy or scipy (asserted below),
    # so what deferring would spare is symcrit's own modules: where no
    # bytecode is cached, every cold process compiles all of them, solver
    # and expansion too, which `interval` and `table` never run.
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
