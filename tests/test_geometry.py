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
    # the records integers alone determine are built once and shared, so
    # they must stay frozen; the configuration itself is built per call
    first, again = example_configuration(example), example_configuration(example, **EXAMPLE_DEFAULTS[example])
    assert first == again and first is not again and first.inputs is not again.inputs
    assert first.params is again.params
    for record in (first, first.params, first.first, first.second):
        field = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))


def test_finite_rotations_are_shared_between_calls():
    a = example_configuration("sphere-quotients", n=7, a1=3, a2=5)
    b = example_configuration("sphere-quotients", n=7.0, a1=3.0, a2=5.0)
    assert a.first is b.first and a.second is b.second
    assert (a.first.name, a.first.orbit_volume, a.first.quotient_scal_lower) == ("order-3 rotations", 3.0, 42.0)
    assert example_configuration("sphere-quotients", n=9, a1=3, a2=5).first.quotient_scal_lower == 72.0


@pytest.mark.parametrize("cache", [geometry._equation_params, geometry._finite_rotations], ids=lambda c: c.__name__)
def test_geometry_caches_are_bounded(cache):
    assert 0 < cache.cache_info().maxsize < math.inf
