"""The public surface: which names `symcrit` exports, and how every record
becomes canonical JSON."""

import copy
import dataclasses
import inspect
import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from record_samples import records

import symcrit
from symcrit import (
    BoundCheck,
    ConditionReport,
    ConstantBound,
    EquationParams,
    FRatioCheck,
    GroupActionSpec,
    OrderingReport,
    OrderingVerdict,
    ReducedProblem,
    SeparationReport,
    SolveReport,
    _record,
    best_constants,
    canonical_json,
    clean,
    conditions,
    constant_solution,
    constants,
    errors,
    expansion,
    geometry,
    jsonio,
    minimize,
    solver,
)

# The public surface, one row per module in import order.
SURFACE = [
    "__version__", "PreconditionError", "ConvergenceError",
    "ConstantBound", "EquationParams", "sphere_volume", "sobolev_constant",
    "GroupActionSpec",
    "ExampleConfig", "EXAMPLE_IDS", "EXAMPLE_DEFAULTS", "example_configuration", "product_scal_lower",
    "b0_sphere", "b0_circle_sphere", "b0_quotient_sphere", "b0_lower_general", "b0_transfer_principal",
    "FProfile", "GenericIneqParams", "ConditionReport", "GuaranteedInterval", "ExistenceBound",
    "FRatioCheck", "OrderingVerdict", "OrderingReport", "existence_threshold", "existence_alpha_bound",
    "generic_interval", "critical_interval", "invariant_interval", "minf_interval",
    "constant_f_intervals", "energy_ordering_check", "f_ratio_condition", "example_interval",
    "ReducedProblem", "SolveConfig", "SolveReport", "BoundCheck", "SeparationReport",
    "circle_reduction", "quotient_value", "quotient_gradient", "energy", "el_residual",
    "constant_solution", "minimize", "proof_chain_diagnostics", "energy_separation",
    "ExpansionConfig", "ExpansionReport", "LogBranchReport", "density", "rayleigh_quotient",
    "fit_and_compare", "log_branch_sign",
    "canonical_json", "clean", "csv_text",
]

MODULES = (errors, constants, geometry, best_constants, conditions, solver, expansion, jsonio)


def test_package_exports_exactly_the_current_surface():
    assert len(SURFACE) == 60
    assert symcrit.__all__ == SURFACE


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


def test_the_samples_cover_every_public_record_type():
    public = {
        obj for obj in map(symcrit.__dict__.get, symcrit.__all__)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    }
    assert {type(r) for r in records()} == public


# A fresh interpreter builds one record of each type before anything imports
# dataclasses.  Then stdlib dataclass reads each record's class from its
# source, with `@record` taken for `@dataclass(frozen=True, slots=True)`:
# dataclasses' functions must answer for the record as for that twin.
_DATACLASS_VIEW_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from record_samples import records
samples = records()
assert "dataclasses" not in sys.modules
import __future__, dataclasses, inspect, textwrap
from symcrit import clean

def stdlib_record(cls=None, /, *, eq=True):
    def wrap(cls):
        if "__init__" in vars(cls):  # it stores through the record's own slots
            del cls.__init__
        return dataclasses.dataclass(cls, frozen=True, slots=True, eq=eq)
    return wrap if cls is None else wrap(cls)

def stdlib_twin(cls):
    namespace = dict(vars(sys.modules[cls.__module__]), record=stdlib_record, field=dataclasses.field)
    source = textwrap.dedent(inspect.getsource(cls))
    exec(compile(source, "<twin>", "exec", __future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[cls.__name__]

def raised(call):
    try:
        call()
    except (TypeError, ValueError) as exc:
        return repr(exc)

for record in samples:
    cls = type(record)
    Twin = stdlib_twin(cls)
    names = [f.name for f in dataclasses.fields(Twin)]
    twin = Twin(*[getattr(record, f.name) for f in dataclasses.fields(Twin) if f.init])
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record), cls
    assert repr(dataclasses.fields(record)) == repr(dataclasses.fields(cls)) == repr(dataclasses.fields(Twin)), cls
    assert repr(cls.__dataclass_params__) == repr(Twin.__dataclass_params__), cls
    assert repr(dataclasses.asdict(record)) == repr(dataclasses.asdict(twin)), cls
    first = {names[0]: getattr(record, names[0])}
    copied = dataclasses.replace(record, **first)
    assert type(copied) is cls, cls
    assert repr(dataclasses.asdict(copied)) == repr(dataclasses.asdict(dataclasses.replace(twin, **first))), cls
    for f in dataclasses.fields(Twin):
        if not f.init:
            change = {f.name: getattr(record, f.name)}
            assert raised(lambda: dataclasses.replace(record, **change)) == raised(lambda: dataclasses.replace(twin, **change))
    if not hasattr(record, "to_json"):
        assert list(clean(record)) == names, cls
print(len(samples), "records")
"""


def test_dataclasses_take_a_record_built_before_they_were_imported_for_its_stdlib_twin():
    proc = subprocess.run(
        [sys.executable, "-c", _DATACLASS_VIEW_PROBE, os.path.dirname(os.path.abspath(__file__))],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(len(records())), "records"]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_record_json_round_trips_byte_for_byte(record):
    text = canonical_json(record)
    assert canonical_json(json.loads(text)) == text
    assert canonical_json(clean(record)) == text


def test_a_plain_dataclass_still_becomes_the_dict_of_its_fields():
    @dataclasses.dataclass
    class Plain:
        x: float
        items: tuple = ()
        hidden: float = dataclasses.field(default=math.nan, repr=False)

    plain = Plain(1.5, (Plain(-math.inf),))
    assert list(clean(plain)) == ["x", "items", "hidden"]
    assert canonical_json(plain) == (
        '{\n  "hidden": null,\n  "items": [\n    {\n      "hidden": null,\n      "items": [],\n'
        '      "x": null\n    }\n  ],\n  "x": 1.5\n}'
    )
    assert clean(Plain) is Plain  # a dataclass itself is no instance to serialize


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
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


@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, dataclasses.replace],
    ids=["pickle", "deepcopy", "replace"],
)
@pytest.mark.parametrize(
    "f",
    [np.ones(64), np.full(65, 2.5), 1.0 + 0.1 * np.cos(np.arange(64)), np.append(np.ones(63), 1.0 + 2.0**-52)],
    ids=["ones", "constant-odd", "cos", "one-ulp"],
)
def test_the_constant_weight_flag_is_derived_once_and_survives_round_trips(round_trip, f):
    # the solver reads whether f is constant from this field, set by __post_init__ beside h
    problem = ReducedProblem(length=2.0 * math.pi, weight=1.0, alpha=0.3, p=5.0, f_samples=f)
    assert problem.constant_weight is bool(f.max() == f.min())
    copied = round_trip(problem)
    assert (copied.constant_weight, copied.h) == (problem.constant_weight, problem.h)
    assert dataclasses.replace(problem, f_samples=f[::-1] * 2.0).constant_weight is problem.constant_weight
    assert dataclasses.replace(problem, f_samples=np.ones(f.size)).constant_weight is True
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.constant_weight = not problem.constant_weight
    with pytest.raises(TypeError):
        ReducedProblem(2.0 * math.pi, 1.0, 0.3, 5.0, f, None, problem.h)  # derived, not a constructor argument


def _record_classes():
    return [
        obj for module in MODULES for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
    ]


def test_every_dataclass_in_the_package_is_slotted():
    classes = _record_classes()
    assert geometry._Example in classes
    assert [cls.__name__ for cls in classes if "__slots__" not in vars(cls)] == []


# ---------------------------------------------------------------------------
# The records' shared methods (symcrit._record) against dataclass's own

# The methods the records write themselves; every other one is _record's.
HAND_WRITTEN = {("ConstantBound", "__repr__"), ("ConditionReport", "__init__"), ("GuaranteedInterval", "__init__")}
IDENTITY_COMPARED = (ReducedProblem, SolveReport)


def _twin(cls):
    """cls's fields in a stdlib @dataclass(frozen=True, slots=True), with the
    __post_init__ and __repr__ that cls writes itself."""
    own = {name: vars(cls)[name] for name in ("__post_init__", "__repr__")
           if getattr(vars(cls).get(name), "__module__", None) == cls.__module__}
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default, init=f.init, repr=f.repr, compare=f.compare))
         for f in dataclasses.fields(cls)],
        namespace=own,
        frozen=True,
        slots=True,
        eq=cls not in IDENTITY_COMPARED,
    )


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:  # a dict or an array among the fields
        return TypeError


def _parameters(cls):
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_behave_as_frozen_slotted_dataclasses(record):
    cls = type(record)
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    args = [getattr(record, name) for name in names]
    Twin = _twin(cls)
    twin = Twin(*args)
    assert repr(record) == repr(twin)
    assert cls.__match_args__ == Twin.__match_args__ == tuple(names)
    assert _parameters(cls) == _parameters(Twin)
    if (cls.__name__, "__init__") not in HAND_WRITTEN:  # the hand-written ones carry no annotations
        assert inspect.signature(cls) == inspect.signature(Twin)
    again = cls(*args)
    assert (record == again) is (twin == Twin(*args)) is (cls not in IDENTITY_COMPARED)
    assert record.__eq__(1) is twin.__eq__(1) is NotImplemented and record != 1
    if cls in IDENTITY_COMPARED:
        assert hash(record) == object.__hash__(record) and hash(twin) == object.__hash__(twin)
    else:
        assert _hash(record) == _hash(twin) == _hash(again)

    def pickled(obj):
        return pickle.loads(pickle.dumps(obj))

    def replaced(obj):
        return dataclasses.replace(obj, **{names[0]: args[0]})

    for round_trip, twin_trip in (
        (dataclasses.replace, dataclasses.replace),
        (replaced, replaced),
        (copy.copy, copy.copy),
        (copy.deepcopy, copy.deepcopy),
        (pickled, lambda t: Twin(*pickled(args))),  # a twin is no module attribute, for pickle to find
    ):
        copied, twin_copied = round_trip(record), twin_trip(twin)
        assert type(copied) is cls and repr(copied) == repr(twin_copied) == repr(twin)
        assert (copied == record) is (twin_copied == twin)  # a NaN copied by pickle is a new NaN
    for name in (names[0], "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field '%s'" % name):
            setattr(record, name, args[0])
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field '%s'" % name):
            delattr(record, name)
    with pytest.raises(TypeError, match="positional argument"):
        cls(*args, args[0])
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        cls(*args, not_a_field=args[0])
    with pytest.raises(TypeError, match="multiple values for argument '%s'" % names[0]):
        cls(*args, **{names[0]: args[0]})
    required = [f.name for f in dataclasses.fields(cls) if f.init and f.default is dataclasses.MISSING]
    if required:
        with pytest.raises(TypeError, match="missing .*'%s'" % required[-1]):
            cls(*args[: names.index(required[-1])])


@pytest.mark.parametrize(
    "a, b",
    [
        (ConstantBound(1.0, 2.0), ConstantBound(1.0, 3.0)),
        (EquationParams(7, 0), EquationParams(7, 2)),
        (BoundCheck("mass", "checked", 1.0, 2.0, True), BoundCheck("mass", "checked", 1.0, 2.0, False)),
    ],
    ids=lambda r: type(r).__name__,
)
def test_records_that_differ_in_their_last_field_are_unequal(a, b):
    Twin = _twin(type(a))
    twins = [Twin(*(getattr(r, f.name) for f in dataclasses.fields(r))) for r in (a, b)]
    assert (a == b) is (twins[0] == twins[1]) is False and a != b
    assert (hash(a) == hash(b)) is (hash(twins[0]) == hash(twins[1]))


def test_no_record_carries_a_method_generated_for_its_class():
    written = set()
    for cls in _record_classes():
        for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
            method = vars(cls).get(name)
            if method is None:
                continue
            code = inspect.unwrap(method).__code__
            assert code.co_filename != "<string>", "%s.%s is generated" % (cls.__name__, name)
            if code.co_filename != _record.__file__:
                written.add((cls.__name__, name))
    assert written == HAND_WRITTEN


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
    spec = GroupActionSpec("circle", 1, 2.0 * math.pi, 6.0, True, -0.5)
    assert clean(spec) == {
        "name": "circle",
        "k": 1,
        "orbit_volume": 2.0 * math.pi,
        "quotient_scal_lower": 6.0,
        "principal_constant_volume": True,
        "vh_laplacian_lower": -0.5,
    }
