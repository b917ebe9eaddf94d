"""Isometry actions and the packaged configurations.

The package ships six ready-made configurations on products and
quotients of round spheres.  Each fixes a manifold, equation parameters,
and two group actions with orbit volumes orbit1 < orbit2.  The
conditions see the manifold only through its volume, so a configuration
keeps that number and no manifold record.  Each action carries the data
the bound machinery needs downstream: a lower bound for the scalar
curvature of the relevant quotient and a lower bound for the Laplacian
of the orbit-volume function at the distinguished orbit.  Everything
the package knows about one example (defaults, builder, interval recipe,
circle reduction and peak-ratio condition) sits in its record in
_EXAMPLES; the other modules look the record up and never branch on an
example's name.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

from .best_constants import (
    b0_circle_sphere,
    b0_lower_general,
    b0_quotient_sphere,
    b0_sphere,
    b0_transfer_principal,
)
from .constants import EquationParams, _above, _finite, _integer, sobolev_constant, sphere_volume
from .errors import PreconditionError

__all__ = [
    "GroupActionSpec",
    "ExampleConfig",
    "EXAMPLE_IDS",
    "EXAMPLE_DEFAULTS",
    "example_configuration",
    "product_scal_lower",
]


@dataclass(frozen=True, slots=True)
class GroupActionSpec:
    """Data of one isometry-group action entering the estimates.

    orbit_volume is the volume of the distinguished minimal orbits; for
    a finite group acting freely it is the cardinality.  quotient_scal_lower
    bounds the scalar curvature of the quotient (or subaction quotient)
    at the image of the distinguished orbit, and vh_laplacian_lower the
    Laplacian of the orbit-volume function v_H there (geometer's sign
    convention).
    """

    name: str
    k: int
    orbit_volume: float
    quotient_scal_lower: float
    principal_constant_volume: bool = False
    # 0 is exact when the orbits have constant volume.  A volume-peaked
    # action's v_H has its maximum at the distinguished orbit, so the
    # geometer's lap(v_H) >= 0 there and 0 is a certified lower bound.
    vh_laplacian_lower: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(self.k, "orbit dimension k", least=0))
        object.__setattr__(self, "orbit_volume", _above(self.orbit_volume, "orbit volume", 0.0))
        scal = _finite(self.quotient_scal_lower, "quotient scalar curvature bound")
        object.__setattr__(self, "quotient_scal_lower", scal)
        laplacian = _finite(self.vh_laplacian_lower, "orbit-volume Laplacian lower bound")
        object.__setattr__(self, "vh_laplacian_lower", laplacian)


def product_scal_lower(base_scal, r1, r2):
    """Quotient scalar curvature bound for bi-spherical reductions.

    For V x S^{r1+r2-1} reduced by O(r1) x O(r2) through the subaction
    fixing the first block, the subaction quotient satisfies, at the
    image of an orbit lying in the collapsed block,

        scal >= base_scal + r1 (r1 - 1),

    provided r1 >= r2 >= 1.
    """
    if int(r1) != r1 or int(r2) != r2 or not (r1 >= r2 >= 1):
        raise PreconditionError("need integer block sizes with r1 >= r2 >= 1")
    return float(base_scal) + float(r1) * (float(r1) - 1.0)


@dataclass(frozen=True, slots=True)
class ExampleConfig:
    """One packaged configuration: its manifold's volume, parameters, two actions."""

    example: str
    volume: float
    params: EquationParams
    first: GroupActionSpec
    second: GroupActionSpec
    inputs: dict

    def __post_init__(self):
        if not self.first.orbit_volume < self.second.orbit_volume:
            raise PreconditionError(
                "orbit volumes must be ordered: orbit1 < orbit2, got %r >= %r"
                % (self.first.orbit_volume, self.second.orbit_volume)
            )


def _require(cond, message):
    if not cond:
        raise PreconditionError(message)


# Builders take validated inputs and return (volume, params, first, second).
# What integers alone determine is built once per key and shared: the
# records are frozen.  Each cache is bounded, since a caller picks n and
# the group orders freely.

_equation_params = lru_cache(maxsize=128)(EquationParams)


@lru_cache(maxsize=256)
def _finite_rotations(name, a, quotient_scal_lower):
    """A free action of a finite group of order a: its orbits are a points.

    name is a format for a and quotient_scal_lower an integer.
    """
    return GroupActionSpec(
        name=name % a,
        k=0,
        orbit_volume=float(a),
        quotient_scal_lower=float(quotient_scal_lower),
        principal_constant_volume=True,
    )


def _cylinder_volume(t, n):
    """Volume of S^1(t) x S^{n-1}."""
    return 2.0 * math.pi * t * sphere_volume(n - 1)


def _circle_factor_rotations(n, t):
    """Rotations of the circle factor of S^1(t) x S^{n-1}; the quotient is S^{n-1}."""
    return GroupActionSpec(
        name="rotations of the circle factor",
        k=1,
        orbit_volume=2.0 * math.pi * t,
        quotient_scal_lower=float((n - 1) * (n - 2)),
        principal_constant_volume=True,
    )


def _sphere_rotations(n, a1, a2):
    _require(n >= 5 and n % 2 == 1, "odd dimension n >= 5 required so spheres admit free actions")
    _require(a1 < a2, "group orders must satisfy a1 < a2")
    scal = n * (n - 1)
    first = _finite_rotations("order-%d rotations", a1, scal)
    second = _finite_rotations("order-%d rotations", a2, scal)
    return sphere_volume(n), _equation_params(n, 0), first, second


def _circle_rotations(n, t, a1, a2, n_min):
    _require(n >= n_min, "dimension n >= %d required" % n_min)
    _require(t > 0.0, "circle radius t must be positive")
    _require(a1 < a2, "rotation orders must satisfy a1 < a2")
    scal = (n - 1) * (n - 2)
    first = _finite_rotations("order-%d circle rotations", a1, scal)
    second = _finite_rotations("order-%d circle rotations", a2, scal)
    return _cylinder_volume(t, n), _equation_params(n, 0), first, second


def _circle_sphere_sphere(n, a, b):
    _require(n >= 10, "triple product needs n >= 10")
    _require(a > 0.0 and b > 0.0, "factor radii must be positive")
    orbit1 = 2.0 * math.pi**2
    orbit2 = 8.0 * math.pi**2 * a * b**2
    _require(
        orbit1 < orbit2,
        "orbit volumes must satisfy orbit1 < orbit2, which needs 4 a b^2 > 1 (got %r)" % (4 * a * b**2,),
    )
    first = GroupActionSpec(
        name="bi-spherical collapse of the large factor",
        k=3,
        orbit_volume=orbit1,
        quotient_scal_lower=product_scal_lower(2.0 / b**2, n - 6, 4),
        principal_constant_volume=False,
    )
    second = GroupActionSpec(
        name="rotations of the circle and small sphere",
        k=3,
        orbit_volume=orbit2,
        quotient_scal_lower=float((n - 3) * (n - 4)),
        principal_constant_volume=True,
    )
    volume = 2.0 * math.pi * a * 4.0 * math.pi * b**2 * sphere_volume(n - 3)  # S^1(a) x S^2(b) x S^{n-3}
    return volume, _equation_params(n, 3), first, second


@lru_cache(maxsize=1)
def _fibre_action():
    """The diagonal rotation along the fibres; no input changes it."""
    return GroupActionSpec(
        name="diagonal rotation along the fibers",
        k=1,
        orbit_volume=2.0 * math.pi,
        # quotient S^1(t) x S^2(1/2): scal = 2 / (1/2)^2
        quotient_scal_lower=8.0,
        principal_constant_volume=True,
    )


def _fibre_rotation(t):
    _require(t > 1.0, "circle radius t > 1 required so the fiber orbits are the smaller ones")
    return _cylinder_volume(t, 4), _equation_params(4, 1), _fibre_action(), _circle_factor_rotations(4, t)


@lru_cache(maxsize=128)
def _collapse_action(n):
    """The bi-spherical collapse of the S^{n-1} factor; n alone fixes it."""
    return GroupActionSpec(
        name="bi-spherical collapse of the sphere factor",
        k=1,
        orbit_volume=2.0 * math.pi,
        quotient_scal_lower=product_scal_lower(0.0, n - 2, 2),
        principal_constant_volume=False,
    )


def _sphere_collapse(n, t):
    _require(n >= 4, "dimension n >= 4 required")
    _require(t > 1.0, "circle radius t > 1 required so the sphere orbits are the smaller ones")
    return _cylinder_volume(t, n), _equation_params(n, 1), _collapse_action(n), _circle_factor_rotations(n, t)


def _finite_circle(cfg, index):
    """Reduction by the rotations of order a_index of S^1(t)."""
    card = cfg.inputs["a%d" % index]
    return 2.0 * math.pi * cfg.inputs["t"] / card, card * sphere_volume(cfg.params.n - 1), float(card)


def _first_circle(cfg, index):
    """Reduction by the first group along S^1(t)."""
    _require(index == 1, "the second group forces functions constant along the circle")
    return 2.0 * math.pi * cfg.inputs["t"], sphere_volume(cfg.params.n - 1), cfg.first.orbit_volume


def _transferred_window(cfg):
    """The second group's window: the round S^N constant of its quotient."""
    return b0_transfer_principal(cfg.second, b0_sphere(cfg.params.reduced_dim))


def _fibred_windows(cfg):
    return b0_lower_general(cfg.params, cfg.volume, cfg.first), _transferred_window(cfg)


def _quotient_ratio(cfg, f):
    n = cfg.params.n
    a1, a2 = cfg.first.orbit_volume, cfg.second.orbit_volume
    rhs = (
        (b0_quotient_sphere(n, cfg.inputs["a2"]).hi - n**2 * (n - 4.0) / (4.0 * (n - 2.0)))
        * ((n - 2.0) ** 2 / (n * (n - 4.0))) ** (n / (n - 2.0))
        * 4.0
        * a2 ** (4.0 / (n * (n - 2.0)))
        / (n * (n - 2.0))
        / ((a2 / a1) ** (2.0 / n) - 1.0)
    )
    return f.peak_ratio ** (2.0 / n), rhs


def _cylinder_ratio(cfg, f):
    n, t = cfg.params.n, cfg.inputs["t"]
    a1, a2 = cfg.first.orbit_volume, cfg.second.orbit_volume
    rhs = (
        ((n - 2.0) ** 2 / 4.0 + 1.0 / (4.0 * t * t))
        * sobolev_constant(n)
        * a2 ** (4.0 / (n * (n - 2.0)))
        * cfg.volume ** (2.0 / n)
        * ((n - 2.0) ** 2 / (n * (n - 4.0))) ** (n / (n - 2.0))
        / ((a2 / a1) ** (2.0 / n) - 1.0)
    )
    return f.peak_ratio ** (2.0 / n), rhs


def _product_ratio(cfg, f):
    m = cfg.params.reduced_dim
    a1, a2 = cfg.first.orbit_volume, cfg.second.orbit_volume
    rhs = ((a2 / a1) ** (2.0 / m) - 1.0) ** (-m / 2.0) * (
        (m - 2.0) ** 2 / (m * (m - 4.0))
    ) ** (m**2 / (2.0 * (m - 2.0)))
    return f.peak_ratio, rhs


@dataclass(frozen=True, slots=True)
class _Example:
    """Everything the package knows about one packaged example."""

    defaults: dict  # an integer default marks an integer input
    build: Callable  # validated inputs -> (volume, params, first, second)
    route: str  # "critical" | "invariant" (weighted), "double" | "triple" (f = 1)
    windows: Callable  # cfg -> the route's ConstantBound arguments, in order
    ceilings: tuple = ()  # (action attribute, condition label) per existence ceiling
    flatness: Callable | None = None  # n -> weight vanishing order closing the ceilings
    circle: Callable | None = None  # (cfg, index) -> (length, weight, orbit volume)
    ratio: Callable | None = None  # (cfg, f) -> (lhs, rhs) of the peak-ratio condition


_EXAMPLES = {
    "sphere-quotients": _Example(
        defaults={"n": 5, "a1": 2, "a2": 4},
        build=_sphere_rotations,
        route="critical",
        windows=lambda cfg: (
            b0_sphere(cfg.params.n),
            b0_quotient_sphere(cfg.params.n, cfg.inputs["a2"]),
        ),
        ceilings=(("second", "existence-ceiling"),),
        flatness=lambda n: n - 3,
        ratio=_quotient_ratio,
    ),
    "cylinder-weighted": _Example(
        defaults={"n": 6, "t": 1.0, "a1": 1, "a2": 2},
        build=partial(_circle_rotations, n_min=5),
        route="critical",
        windows=lambda cfg: (b0_circle_sphere(cfg.inputs["t"], cfg.params.n),) * 2,
        ceilings=(("second", "existence-ceiling"),),
        flatness=lambda n: n - 2,
        circle=_finite_circle,
        ratio=_cylinder_ratio,
    ),
    "triple-product": _Example(
        defaults={"n": 10, "a": 4.0, "b": 0.28},
        build=_circle_sphere_sphere,
        route="invariant",
        windows=lambda cfg: (_transferred_window(cfg),),
        ceilings=(("second", "existence-ceiling-second"), ("first", "existence-ceiling-first")),
        ratio=_product_ratio,
    ),
    "cylinder-triple": _Example(
        defaults={"n": 5, "t": 40.0, "a1": 1, "a2": 2},
        build=partial(_circle_rotations, n_min=3),
        route="triple",
        windows=lambda cfg: tuple(
            b0_circle_sphere(cfg.inputs["t"] / cfg.inputs[a], cfg.params.n) for a in ("a1", "a2")
        ),
        circle=_finite_circle,
    ),
    "hopf": _Example(
        defaults={"t": 8.0},
        build=_fibre_rotation,
        route="double",
        windows=_fibred_windows,
        circle=_first_circle,
    ),
    "cylinder-overcritical": _Example(
        defaults={"n": 5, "t": 8.0},
        build=_sphere_collapse,
        route="double",
        windows=_fibred_windows,
        circle=_first_circle,
    ),
}

EXAMPLE_IDS = tuple(_EXAMPLES)

EXAMPLE_DEFAULTS = {ex: dict(record.defaults) for ex, record in _EXAMPLES.items()}


def example_configuration(example, **params):
    """Build one packaged configuration; parameters default per EXAMPLE_DEFAULTS."""
    if not isinstance(example, str):
        raise PreconditionError(
            "example must be an example id (one of: %s), got a %s"
            % (", ".join(EXAMPLE_IDS), type(example).__name__)
        )
    if example not in _EXAMPLES:
        raise PreconditionError(
            "unknown example %r; available: %s" % (example, ", ".join(EXAMPLE_IDS))
        )
    record = _EXAMPLES[example]
    extra = set(params) - set(record.defaults)
    if extra:
        raise PreconditionError(
            "example %r does not take parameter(s) %s; allowed: %s"
            % (example, ", ".join(sorted(extra)), ", ".join(sorted(record.defaults)))
        )
    inputs = {
        name: (_integer if isinstance(default, int) else _finite)(params.get(name, default), name)
        for name, default in record.defaults.items()
    }
    return ExampleConfig(example, *record.build(**inputs), inputs)

