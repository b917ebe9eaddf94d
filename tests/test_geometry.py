import dataclasses
import math

import numpy as np
import pytest

from symcrit import (
    EXAMPLE_DEFAULTS,
    EXAMPLE_IDS,
    GroupActionSpec,
    PreconditionError,
    b0_sphere,
    clean,
    example_configuration,
    example_interval,
    sphere_volume,
)
from symcrit import geometry
from symcrit.geometry import product_scal_lower


# Each packaged manifold's volume in closed form: omega_3 = 2 pi^2,
# omega_4 = 8 pi^2 / 3, omega_5 = pi^3 and omega_7 = pi^4 / 3.
VOLUMES = [
    ("sphere-quotients", {}, math.pi**3),  # S^5
    ("sphere-quotients", {"n": 7, "a1": 2, "a2": 3}, math.pi**4 / 3.0),  # S^7
    ("cylinder-weighted", {"n": 6, "t": 1.5}, 3.0 * math.pi**4),  # S^1(1.5) x S^5
    ("triple-product", {"n": 10, "a": 4.0, "b": 0.5}, 8.0 * math.pi**6 / 3.0),  # S^1(4) x S^2(1/2) x S^7
    ("cylinder-triple", {}, 640.0 * math.pi**3 / 3.0),  # S^1(40) x S^4
    ("hopf", {}, 32.0 * math.pi**3),  # S^1(8) x S^3
    ("cylinder-overcritical", {}, 128.0 * math.pi**3 / 3.0),  # S^1(8) x S^4
]


def test_manifold_volumes():
    assert {ex for ex, _, _ in VOLUMES} == set(EXAMPLE_IDS)
    for example, params, volume in VOLUMES:
        cfg = example_configuration(example, **params)
        assert cfg.volume == pytest.approx(volume, rel=1e-15, abs=0.0), example
        assert clean(cfg)["volume"] == cfg.volume and "manifold" not in clean(cfg)


def test_manifold_validation():
    # the builders' checks on each manifold's radii and dimension; the
    # cylinder-weighted and triple-product dimensions are checked below
    for example, params in [
        ("cylinder-weighted", {"t": -1.0}),
        ("cylinder-triple", {"t": -1.0}),
        ("hopf", {"t": -1.0}),
        ("cylinder-overcritical", {"t": -1.0}),
        ("triple-product", {"a": 0.0}),
        ("triple-product", {"b": -0.5}),
        ("sphere-quotients", {"n": 3}),
        ("cylinder-triple", {"n": 2}),
        ("cylinder-overcritical", {"n": 3}),
    ]:
        with pytest.raises(PreconditionError):
            example_configuration(example, **params)


def test_scal_lower_helpers():
    # collapsed bi-spherical block at r1 = n-2, r2 = 2
    assert product_scal_lower(0.0, 3, 2) == 6.0
    assert product_scal_lower(2.0 / 0.25, 4, 4) == 8.0 + 12.0
    with pytest.raises(PreconditionError):
        product_scal_lower(0.0, 1, 2)


def test_defaults_cover_all_examples():
    assert set(EXAMPLE_DEFAULTS) == set(EXAMPLE_IDS)
    for ex in EXAMPLE_IDS:
        cfg = example_configuration(ex)
        assert cfg.example == ex
        assert cfg.inputs == EXAMPLE_DEFAULTS[ex]
        assert cfg.first.orbit_volume < cfg.second.orbit_volume
        assert cfg.volume > 0.0


def test_sphere_quotients_configuration():
    cfg = example_configuration("sphere-quotients", n=7, a1=2, a2=3)
    assert cfg.params.n == 7 and cfg.params.k == 0
    assert cfg.first.orbit_volume == 2.0 and cfg.second.orbit_volume == 3.0
    assert cfg.first.quotient_scal_lower == 42.0  # n(n-1)
    with pytest.raises(PreconditionError):
        example_configuration("sphere-quotients", n=6)  # even spheres: no free actions
    with pytest.raises(PreconditionError):
        example_configuration("sphere-quotients", a1=4, a2=2)


def test_hopf_configuration():
    cfg = example_configuration("hopf", t=8.0)
    assert cfg.params.n == 4 and cfg.params.k == 1
    assert cfg.first.orbit_volume == pytest.approx(2.0 * math.pi, rel=1e-15, abs=0.0)
    assert cfg.second.orbit_volume == pytest.approx(16.0 * math.pi, rel=1e-15, abs=0.0)
    # quotients: S^1(t) x S^2(1/2) and S^3
    assert cfg.first.quotient_scal_lower == 8.0
    assert cfg.second.quotient_scal_lower == 6.0
    assert cfg.second.principal_constant_volume
    with pytest.raises(PreconditionError):
        example_configuration("hopf", t=1.0)


def test_triple_product_configuration():
    cfg = example_configuration("triple-product", n=10, a=4.0, b=0.28)
    assert cfg.params.k == 3
    assert cfg.first.orbit_volume == pytest.approx(2.0 * math.pi**2, rel=1e-15, abs=0.0)
    assert cfg.second.orbit_volume == pytest.approx(
        8.0 * math.pi**2 * 4.0 * 0.28**2, rel=1e-15, abs=0.0
    )
    assert cfg.first.vh_laplacian_lower == 0.0
    # scal of the collapsed-block quotient: 2/b^2 + (n-6)(n-7)
    assert cfg.first.quotient_scal_lower == pytest.approx(2.0 / 0.28**2 + 12.0, rel=1e-15, abs=0.0)
    assert cfg.second.quotient_scal_lower == 42.0  # (n-3)(n-4)
    with pytest.raises(PreconditionError) as err:
        example_configuration("triple-product", a=4.0, b=0.2)  # 4ab^2 = 0.64 < 1
    assert "4 a b^2" in str(err.value)
    with pytest.raises(PreconditionError):
        example_configuration("triple-product", n=9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_the_orbit_volume_laplacian_bound_must_be_finite(value):
    with pytest.raises(PreconditionError, match="orbit-volume Laplacian lower bound must be finite"):
        GroupActionSpec("circle", 1, 2.0 * math.pi, 6.0, vh_laplacian_lower=value)


@pytest.mark.parametrize(
    "field, value, name",
    [
        ("k", None, "orbit dimension k"),
        ("k", math.inf, "orbit dimension k"),
        ("k", math.nan, "orbit dimension k"),
        ("k", True, "orbit dimension k"),
        ("k", -1, "orbit dimension k"),
        ("k", 1.5, "orbit dimension k"),
        ("orbit_volume", None, "orbit volume"),
        ("orbit_volume", math.inf, "orbit volume"),
        ("orbit_volume", True, "orbit volume"),
        ("orbit_volume", "1", "orbit volume"),
        ("orbit_volume", 0.0, "orbit volume"),
        ("quotient_scal_lower", None, "quotient scalar curvature bound"),
        ("quotient_scal_lower", True, "quotient scalar curvature bound"),
        ("quotient_scal_lower", math.nan, "quotient scalar curvature bound"),
        ("vh_laplacian_lower", True, "orbit-volume Laplacian lower bound"),
        ("vh_laplacian_lower", "1", "orbit-volume Laplacian lower bound"),
        ("vh_laplacian_lower", None, "orbit-volume Laplacian lower bound"),
    ],
)
def test_a_bad_group_action_field_is_rejected_by_name(field, value, name):
    fields = {"name": "circle", "k": 1, "orbit_volume": 2.0 * math.pi, "quotient_scal_lower": 6.0}
    with pytest.raises(PreconditionError, match=name):
        GroupActionSpec(**dict(fields, **{field: value}))
    spec = GroupActionSpec(**dict(fields, k=np.int64(1), orbit_volume=np.float32(2.0), vh_laplacian_lower=-1))
    assert (type(spec.k), type(spec.orbit_volume), type(spec.vh_laplacian_lower)) == (int, float, float)


def test_cylinder_overcritical_configuration():
    cfg = example_configuration("cylinder-overcritical", n=5, t=8.0)
    assert cfg.params.k == 1
    assert cfg.first.orbit_volume == pytest.approx(2.0 * math.pi, rel=1e-15, abs=0.0)
    assert cfg.first.quotient_scal_lower == 6.0  # (n-2)(n-3)
    assert cfg.second.quotient_scal_lower == 12.0  # (n-1)(n-2)
    assert not cfg.first.principal_constant_volume
    with pytest.raises(PreconditionError):
        example_configuration("cylinder-overcritical", n=5, t=0.5)


def test_cylinder_finite_configurations():
    cfg = example_configuration("cylinder-triple", n=5, t=40.0, a1=1, a2=2)
    assert cfg.params.k == 0
    assert cfg.first.orbit_volume == 1.0 and cfg.second.orbit_volume == 2.0
    assert cfg.volume == pytest.approx(80.0 * math.pi * sphere_volume(4), rel=1e-15, abs=0.0)
    with pytest.raises(PreconditionError):
        example_configuration("cylinder-weighted", n=4)  # needs n >= 5
    with pytest.raises(PreconditionError):
        example_configuration("cylinder-triple", a1=2, a2=2)


def test_unknown_example_and_extra_params():
    with pytest.raises(PreconditionError):
        example_configuration("does-not-exist")
    with pytest.raises(PreconditionError) as err:
        example_configuration("hopf", n=4)
    assert "does not take" in str(err.value)


@pytest.mark.parametrize("build", [example_configuration, example_interval])
@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_parameters_the_example_does_not_take_are_refused_by_name(example, build):
    build(example, **EXAMPLE_DEFAULTS[example])  # every known parameter, given explicitly
    allowed = ", ".join(sorted(EXAMPLE_DEFAULTS[example]))
    with pytest.raises(PreconditionError) as err:
        build(example, **EXAMPLE_DEFAULTS[example], zeta=1, alpha=2.0)
    assert str(err.value) == "example %r does not take parameter(s) alpha, zeta; allowed: %s" % (example, allowed)


@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_each_input_check_is_chosen_once_from_its_defaults_type(example):
    record = geometry._EXAMPLES[example]
    assert [(name, default) for name, default, _ in record.checks] == list(record.defaults.items())
    for name, default, check in record.checks:
        assert check is (geometry._integer if type(default) is int else geometry._finite), name
    assert dataclasses.replace(record).checks == record.checks


@pytest.mark.parametrize("build", [example_configuration, example_interval])
@pytest.mark.parametrize(
    "example", [example_configuration("hopf"), {"example": "hopf"}], ids=["config", "dict"]
)
def test_example_must_be_given_by_its_id(build, example):
    with pytest.raises(PreconditionError) as err:
        build(example)
    assert "example id" in str(err.value) and "hopf" in str(err.value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "example, name",
    [("sphere-quotients", "n"), ("cylinder-triple", "a1"), ("hopf", "t"), ("triple-product", "b")],
)
def test_non_finite_inputs_are_rejected_by_name(example, name, value):
    with pytest.raises(PreconditionError) as err:
        example_configuration(example, **{name: value})
    assert str(err.value).startswith(name + " must be")


@pytest.mark.parametrize(
    "example, name, value",
    [
        ("hopf", "t", None),
        ("hopf", "t", "x"),
        ("hopf", "t", "8"),
        ("hopf", "t", True),
        ("cylinder-triple", "n", "5"),
        ("cylinder-triple", "a1", True),
        ("sphere-quotients", "a2", None),
        ("triple-product", "b", [0.28]),
    ],
)
def test_non_numeric_inputs_are_rejected_by_name(example, name, value):
    with pytest.raises(PreconditionError) as err:
        example_interval(example, **{name: value})
    assert str(err.value).startswith(name + " must be a real number")


def test_an_integer_input_must_be_a_number_where_it_is_checked():
    with pytest.raises(PreconditionError) as err:
        b0_sphere(None)
    assert "dimension n must be a real number" in str(err.value)


def test_numpy_numbers_are_accepted_as_their_values():
    numpy_inputs = {"n": np.int64(5), "t": np.float64(40.0), "a1": np.int32(1), "a2": np.uint8(2)}
    assert example_interval("cylinder-triple", **numpy_inputs) == example_interval("cylinder-triple")
    assert example_configuration("hopf", t=np.float32(8.0)) == example_configuration("hopf")


@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_equal_integer_inputs_give_equal_frozen_records(example):
    # the equation parameters are built once per key and shared, so they
    # must stay frozen; the configuration and its actions are built per call
    first, again = example_configuration(example), example_configuration(example, **EXAMPLE_DEFAULTS[example])
    assert first == again and first is not again and first.inputs is not again.inputs
    assert first.params is again.params
    for record in (first, first.params, first.first, first.second):
        field = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))


def test_finite_rotations_are_named_by_their_order():
    a = example_configuration("sphere-quotients", n=7, a1=3, a2=5)
    b = example_configuration("sphere-quotients", n=7.0, a1=3.0, a2=5.0)
    assert a.first == b.first and a.second == b.second
    assert (a.first.name, a.first.orbit_volume, a.first.quotient_scal_lower) == ("order-3 rotations", 3.0, 42.0)
    assert a.second.name == "order-5 rotations"
    assert example_configuration("sphere-quotients", n=9, a1=3, a2=5).first.quotient_scal_lower == 72.0
    cylinder = example_configuration("cylinder-triple", a1=2, a2=3)
    assert (cylinder.first.name, cylinder.second.name) == ("order-2 circle rotations", "order-3 circle rotations")


@pytest.mark.parametrize("cache", [geometry._equation_params], ids=lambda c: c.__name__)
def test_geometry_caches_are_bounded(cache):
    assert 0 < cache.cache_info().maxsize < math.inf


def _case(example, params):
    """A test id such as hopf-t=1.0."""
    return "-".join([example] + ["%s=%r" % item for item in params.items()])


# Each precondition of the examples' numbers helpers at its boundary, with its
# exact text, through both entry points: the configuration and the interval.
BOUNDARIES = [
    ("hopf", {"t": 1.0}, "circle radius t > 1 required so the fiber orbits are the smaller ones"),
    ("cylinder-overcritical", {"t": 1.0}, "circle radius t > 1 required so the sphere orbits are the smaller ones"),
    ("cylinder-overcritical", {"n": 3}, "dimension n >= 4 required"),
    ("sphere-quotients", {"a1": 4, "a2": 4}, "group orders must satisfy a1 < a2"),
    ("cylinder-weighted", {"a1": 2, "a2": 2}, "rotation orders must satisfy a1 < a2"),
    ("cylinder-triple", {"a1": 2, "a2": 2}, "rotation orders must satisfy a1 < a2"),
    # 4 a b^2 = 1 exactly: then orbit2 = 8 pi^2 a b^2 is exactly orbit1 = 2 pi^2
    ("triple-product", {"a": 1.0, "b": 0.5},
     "orbit volumes must satisfy orbit1 < orbit2, which needs 4 a b^2 > 1 (got 1.0)"),
    ("triple-product", {"a": 0.0}, "factor radii must be positive"),
    ("cylinder-weighted", {"t": 0.0}, "circle radius t must be positive"),
]


@pytest.mark.parametrize("build", [example_configuration, example_interval], ids=lambda b: b.__name__)
@pytest.mark.parametrize(
    "example, params, message", BOUNDARIES, ids=[_case(ex, p) for ex, p, _ in BOUNDARIES]
)
def test_each_precondition_is_refused_at_its_boundary_by_name(build, example, params, message):
    with pytest.raises(PreconditionError) as err:
        build(example, **params)
    assert str(err.value) == message


@pytest.mark.parametrize("build", [example_configuration, example_interval], ids=lambda b: b.__name__)
@pytest.mark.parametrize(
    "example, params",
    [
        ("cylinder-overcritical", {"n": 4}),
        ("hopf", {"t": math.nextafter(1.0, 2.0)}),
        ("cylinder-overcritical", {"t": math.nextafter(1.0, 2.0)}),
        ("sphere-quotients", {"a1": 3, "a2": 4}),
        ("cylinder-triple", {"a1": 1, "a2": 2}),
        ("triple-product", {"a": 1.0, "b": math.nextafter(0.5, 1.0)}),
    ],
    ids=lambda v: v if isinstance(v, str) else _case("", v)[1:],
)
def test_each_precondition_accepts_the_first_point_past_its_boundary(build, example, params):
    assert build(example, **params) is not None


def test_cylinder_overcritical_at_n_4_reduces_to_the_hopf_shape():
    # S^1(t) x S^3 with the sphere collapse: k = 1, N = 3, and the double
    # interval (n-1)(n-3) / (4 t^{2/(n-1)}) <= alpha < (n-3)^2 / 4
    cfg = example_configuration("cylinder-overcritical", n=4, t=8.0)
    assert (cfg.params.n, cfg.params.k) == (4, 1)
    iv = example_interval("cylinder-overcritical", n=4, t=8.0)
    assert iv.lo == pytest.approx(3.0 / (4.0 * 8.0 ** (2.0 / 3.0)), rel=1e-14, abs=0.0)
    assert iv.hi == 0.25 and iv.hi_strict and not iv.empty


@pytest.mark.parametrize("build", [example_configuration, example_interval], ids=lambda b: b.__name__)
@pytest.mark.parametrize("example", ["sphere-quotients", "cylinder-triple"])
def test_group_orders_with_equal_float_orbit_volumes_are_refused_by_the_order_check(build, example):
    # 2^53 < 2^53 + 1 as integers, but both are the orbit volume 2^53 as floats
    with pytest.raises(PreconditionError) as err:
        build(example, a1=2**53, a2=2**53 + 1)
    assert str(err.value) == (
        "orbit volumes must be ordered: orbit1 < orbit2, got 9007199254740992.0 >= 9007199254740992.0"
    )


@pytest.mark.parametrize("build", [example_configuration, example_interval], ids=lambda b: b.__name__)
@pytest.mark.parametrize(
    "example, params",
    [("cylinder-triple", {"t": 1.1e306}), ("cylinder-weighted", {"t": 1.1e306}), ("hopf", {"t": 2e306}),
     ("cylinder-overcritical", {"t": 2e306}), ("triple-product", {"a": 1e305, "b": 1.0})],
    ids=lambda v: v if isinstance(v, str) else _case("", v)[1:],
)
def test_a_configuration_whose_volume_overflows_is_refused(build, example, params):
    # each orbit volume here is finite; the manifold's volume is not
    with pytest.raises(PreconditionError) as err:
        build(example, **params)
    assert str(err.value) == "manifold volume must be finite, got inf"


@pytest.mark.parametrize("t", [1e-140, 1e-320])
def test_a_configuration_whose_volume_underflows_is_refused(t):
    # 2 pi t omega_299 is 0.0 (omega_299 is about 2e-186); example_interval
    # refuses the same point by the same text, or at t = 1e-320 earlier, by
    # the circle window's
    with pytest.raises(PreconditionError) as err:
        example_configuration("cylinder-triple", n=300, t=t)
    assert str(err.value) == "manifold volume must be positive"
    with pytest.raises(PreconditionError) as err:
        example_interval("cylinder-triple", n=300, t=t)
    assert str(err.value) == ("manifold volume must be positive" if t == 1e-140 else
                              "the product constant's circle radius t must keep 1/(4 t^2) a finite float, got 1e-320")


def test_a_volume_just_below_the_float_range_is_kept():
    cfg = example_configuration("cylinder-triple", t=1e306)
    assert math.isfinite(cfg.volume) and cfg.volume > 1e308
    assert not example_interval("cylinder-triple", t=1e306).empty


@pytest.mark.parametrize("build", [example_configuration, example_interval], ids=lambda b: b.__name__)
@pytest.mark.parametrize("a, b", [(1e300, 1e300), (4.0, 1e155), (1e-300, 1e200)])
def test_triple_product_radii_whose_square_overflows_are_refused_by_name(build, a, b):
    with pytest.raises(PreconditionError) as err:
        build("triple-product", a=a, b=b)
    assert str(err.value) == "factor radii a=%r, b=%r overflow: b^2 is not a finite float" % (a, b)


@pytest.mark.parametrize("example, t", [("cylinder-weighted", 1e-300), ("cylinder-weighted", 1e-160),
                                         ("cylinder-triple", 1e-300), ("cylinder-triple", 1e-160)])
def test_a_circle_too_thin_for_a_finite_window_is_refused_by_name(example, t):
    # below t of about 1e-162, 4 t^2 is 0; above it, up to about 3.7e-155,
    # 1/(4 t^2) overflows, which once read as an unknown constant
    with pytest.raises(PreconditionError) as err:
        example_interval(example, t=t)
    assert str(err.value) == (
        "the product constant's circle radius t must keep 1/(4 t^2) a finite float, got %r" % (t,)
    )
    assert example_configuration(example, t=t).inputs["t"] == t  # the manifold itself is fine
