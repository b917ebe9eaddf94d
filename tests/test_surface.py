"""The public surface: which names `symcrit` exports, and how every record
becomes canonical JSON."""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

import symcrit
from symcrit import (
    BoundCheck,
    ConditionReport,
    ConstantBound,
    EquationParams,
    ExistenceBound,
    ExpansionConfig,
    FProfile,
    FRatioCheck,
    GenericIneqParams,
    GroupActionSpec,
    OrbitVolumeLaplacian,
    OrderingReport,
    OrderingVerdict,
    QuotientSphere,
    ReducedProblem,
    SeparationReport,
    SolveConfig,
    best_constants,
    canonical_json,
    clean,
    conditions,
    constant_solution,
    constants,
    energy_separation,
    errors,
    example_configuration,
    example_interval,
    expansion,
    fit_and_compare,
    geometry,
    jsonio,
    log_branch_sign,
    minimize,
    proof_chain_diagnostics,
    solver,
)

# The names `symcrit` exported before its `__all__` was built from the
# modules' lists.
EARLIER_NAMES = [
    "__version__", "PreconditionError", "ConvergenceError", "ConstantBound", "EquationParams",
    "sphere_volume", "sobolev_constant", "Sphere", "CircleTimesSphere", "CircleSphereSphere",
    "QuotientSphere", "OrbitVolumeLaplacian", "GroupActionSpec", "ExampleConfig", "EXAMPLE_IDS",
    "EXAMPLE_DEFAULTS", "example_configuration", "registry_rows", "b0_sphere", "b0_circle_sphere",
    "b0_quotient_sphere", "b0_lower_general", "b0_transfer_principal", "FProfile",
    "GenericIneqParams", "ConditionReport", "GuaranteedInterval", "ExistenceBound", "FRatioCheck",
    "OrderingVerdict", "OrderingReport", "existence_threshold", "existence_alpha_bound",
    "generic_interval", "critical_interval", "invariant_interval", "minf_interval",
    "constant_f_intervals", "energy_ordering_check", "f_ratio_condition", "example_interval",
    "ReducedProblem", "SolveConfig", "SolveReport", "BoundCheck", "SeparationReport",
    "circle_reduction", "quotient_value", "quotient_gradient", "energy", "el_residual",
    "constant_solution", "minimize", "proof_chain_diagnostics", "energy_separation",
    "ExpansionConfig", "ExpansionReport", "LogBranchReport", "test_function", "density",
    "rayleigh_quotient", "fit_and_compare", "log_branch_sign", "canonical_json", "csv_text",
]

MODULES = (errors, constants, geometry, best_constants, conditions, solver, expansion, jsonio)


def test_package_exports_the_earlier_names_and_three_more():
    assert len(EARLIER_NAMES) == 65
    assert len(symcrit.__all__) == len(set(symcrit.__all__))
    assert set(symcrit.__all__) == set(EARLIER_NAMES) | {
        "clean", "oneill_scal_lower", "product_scal_lower",
    }


def test_every_public_name_is_its_module_object():
    owners = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owners, "%s exported by %s and %s" % (name, owners[name], module)
            owners[name] = module.__name__
            assert getattr(symcrit, name) is getattr(module, name)
    assert set(owners) == set(symcrit.__all__) - {"__version__"}


# ---------------------------------------------------------------------------
# JSON of every record


def _records():
    """One instance of every public record type, most from real computations."""
    cfgs = {ex: example_configuration(ex) for ex in symcrit.EXAMPLE_IDS}
    problem = ReducedProblem(
        length=2.0 * math.pi, weight=1.0, alpha=0.3, p=5.0, f_samples=np.ones(64), orbit_volume=1.0
    )
    report = constant_solution(problem)
    other = constant_solution(
        ReducedProblem(length=4.0, weight=1.0, alpha=0.3, p=5.0, f_samples=np.ones(64))
    )
    ineq = GenericIneqParams(3.0, 1.0, 0.5)
    weight = FProfile(1.2, 0.8, 1.0, 1.2, 0.3)
    exp_config = ExpansionConfig(dim=6, delta=1.0, alpha=1.0, orbit_volume=1.0, epsilons=(1e-4, 1e-5))
    return [
        ConstantBound(1.5),
        EquationParams(n=5, k=0),
        *(cfg.manifold for cfg in cfgs.values()),
        QuotientSphere(5, 2),
        OrbitVolumeLaplacian("value", -0.5),
        cfgs["hopf"].first,
        cfgs["triple-product"],
        weight,
        ineq,
        ConditionReport("energy-gap", "unsatisfiable", math.nan),
        example_interval("cylinder-triple"),
        ExistenceBound(math.inf, False),
        conditions.f_ratio_condition("cylinder-weighted", weight),
        OrderingVerdict(0, 1, 1.25, None, None),
        OrderingReport(0.5, (OrderingVerdict(0, 1, 1.25, 1.125, True),)),
        problem,
        SolveConfig(),
        report,
        *proof_chain_diagnostics(report, ineq),
        energy_separation(report, other),
        exp_config,
        fit_and_compare(exp_config),
        log_branch_sign(ExpansionConfig(dim=4, delta=1.0, alpha=1.0, orbit_volume=1.0)),
    ]


def test_the_samples_cover_every_public_record_type():
    public = {
        obj for obj in map(symcrit.__dict__.get, symcrit.__all__)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    }
    assert {type(r) for r in _records()} == public


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_json_round_trips_byte_for_byte(record):
    text = canonical_json(record)
    assert canonical_json(json.loads(text)) == text
    assert canonical_json(clean(record)) == text


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_slotted_and_survive_pickle_and_deepcopy(record):
    assert not hasattr(record, "__dict__")
    text = canonical_json(record)
    assert canonical_json(pickle.loads(pickle.dumps(record))) == text
    assert canonical_json(copy.deepcopy(record)) == text


@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_round_trips_keep_the_solver_arrays_read_only(round_trip):
    # __post_init__ freezes u and f_samples; the round trips go through it too
    report = constant_solution(
        ReducedProblem(length=2.0 * math.pi, weight=1.0, alpha=0.3, p=5.0, f_samples=np.ones(64))
    )
    copied, problem = round_trip(report), round_trip(report.problem)
    for array, original in (
        (copied.u, report.u),
        (copied.problem.f_samples, report.problem.f_samples),
        (problem.f_samples, report.problem.f_samples),
    ):
        assert not array.flags.writeable
        assert np.array_equal(array, original)


def test_every_dataclass_in_the_package_is_slotted():
    classes = [
        obj for module in MODULES for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
    ]
    assert geometry._Example in classes
    assert [cls.__name__ for cls in classes if "__slots__" not in vars(cls)] == []


@given(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
)
def test_reports_with_any_floats_round_trip(bound, value, holds, samples):
    u = np.array(samples, dtype=float)
    record = [
        BoundCheck("mass", "checked", bound, value, holds),
        ConditionReport("stay-below", "satisfied", value),
        SeparationReport(bound, value, math.nan, holds, None, holds, None),
        {"u": u, "grid": u.reshape(-1, 1), "sum": u.sum(), "count": np.int64(u.size), "ok": np.bool_(holds)},
    ]
    text = canonical_json(record)
    assert canonical_json(json.loads(text)) == text
    assert json.loads(text)[3]["u"] == [x if math.isfinite(x) else None for x in samples]


def test_solve_report_json_adds_the_certificate_fields(monkeypatch):
    problem = ReducedProblem(
        length=2.0 * math.pi, weight=1.0, alpha=0.3, p=5.0, f_samples=np.ones(64), orbit_volume=1.0
    )
    monkeypatch.setattr(solver, "DESCENT_MAX_ITER", 5)
    text = canonical_json(minimize(problem))
    assert canonical_json(json.loads(text)) == text
    d = json.loads(text)
    assert set(d) == {
        "problem", "quotient_value", "energy", "el_residual", "classification",
        "newton_iterations", "start_label", "threshold", "below_threshold",
        "winning_starts", "descent_capped", "morse_index", "zero_modes",
    }
    assert d["winning_starts"] == ["soliton"] and d["start_label"] == "soliton"
    assert d["descent_capped"] == ["soliton"]
    assert d["morse_index"] == 1 and d["zero_modes"] == 1  # the translation mode
    closed = clean(constant_solution(problem))
    assert (closed["winning_starts"], closed["descent_capped"], closed["morse_index"]) == ([], [], 3)


# The dicts their hand-written to_json methods gave, before jsonio.clean
# serialized dataclass fields.
def test_records_without_to_json_keep_their_earlier_dicts():
    verdict = OrderingVerdict(0, 2, 1.25, None, None)
    assert clean(verdict) == {"small": 0, "large": 2, "lhs": 1.25, "rhs": None, "separated": None}
    assert clean(OrderingReport(0.5, (verdict, OrderingVerdict(1, 2, 1.5, 1.125, True)))) == {
        "alpha": 0.5,
        "pairs": [
            {"small": 0, "large": 2, "lhs": 1.25, "rhs": None, "separated": None},
            {"small": 1, "large": 2, "lhs": 1.5, "rhs": 1.125, "separated": True},
        ],
    }
    assert clean(FRatioCheck("cylinder-weighted", 1.5, 2.0, True)) == {
        "example": "cylinder-weighted", "lhs": 1.5, "rhs": 2.0, "holds": True,
    }
    assert clean(BoundCheck("mass-via-band-inequality", "not-applicable")) == {
        "label": "mass-via-band-inequality",
        "status": "not-applicable",
        "bound": None,
        "value": None,
        "holds": None,
    }
    assert clean(BoundCheck("mass-via-min-f", "checked", 2.5, 2.0, True)) == {
        "label": "mass-via-min-f", "status": "checked", "bound": 2.5, "value": 2.0, "holds": True,
    }
    assert clean(SeparationReport(1.0, 2.0, 0.5, True, "a", True, None)) == {
        "energy_a": 1.0,
        "energy_b": 2.0,
        "rel_gap": 0.5,
        "distinct": True,
        "lower": "a",
        "a_below_threshold": True,
        "b_below_threshold": None,
    }
    spec = GroupActionSpec(
        "circle", 1, 2.0 * math.pi, "principal-suborbits", 6.0, True, OrbitVolumeLaplacian("value", -0.5)
    )
    assert clean(spec) == {
        "name": "circle",
        "k": 1,
        "orbit_volume": 2.0 * math.pi,
        "hypothesis": "principal-suborbits",
        "quotient_scal_lower": 6.0,
        "principal_constant_volume": True,
        "vh_laplacian": {"kind": "value", "value": -0.5},
    }
