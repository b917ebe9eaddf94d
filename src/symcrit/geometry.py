"""Isometry actions and the packaged configurations.

The package ships six ready-made configurations on products and
quotients of round spheres.  Each fixes a manifold, equation parameters,
and two group actions with orbit volumes orbit1 < orbit2.  The
conditions see the manifold only through its volume, so a configuration
keeps that number and no manifold record.  Each action carries the data
the bound machinery needs downstream: a lower bound for the scalar
curvature of the relevant quotient and a lower bound for the Laplacian
of the orbit-volume function at the distinguished orbit.  Everything
the package knows about one example (defaults, numbers, interval recipe,
circle reduction and peak-ratio condition) sits in its record in
_EXAMPLES; the other modules look the record up and never branch on an
example's name.

Each record's numbers helper validates the inputs and returns the plain
numbers of the configuration (_Numbers): the volume, the equation
parameters (n and k), and each action's orbit volume, scalar-curvature
bound and orbit-volume-Laplacian bound.  The record's windows turn them
into the window ends its interval route reads.  example_interval reads
only these numbers and builds no configuration or action record;
example_configuration builds its public records from the same numbers,
so each formula and each precondition is written once.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

from .best_constants import _circle_sphere_window, _lower_general, b0_quotient_sphere, b0_sphere
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
        orbit, scal, laplacian = _action_numbers(
            self.orbit_volume, self.quotient_scal_lower, self.vh_laplacian_lower
        )
        object.__setattr__(self, "orbit_volume", orbit)
        object.__setattr__(self, "quotient_scal_lower", scal)
        object.__setattr__(self, "vh_laplacian_lower", laplacian)


def _action_numbers(orbit_volume, quotient_scal_lower, vh_laplacian_lower=0.0):
    """One action's (orbit volume, scal bound, Laplacian bound), checked as
    GroupActionSpec checks them, with no record built."""
    return (
        _above(orbit_volume, "orbit volume", 0.0),
        _finite(quotient_scal_lower, "quotient scalar curvature bound"),
        _finite(vh_laplacian_lower, "orbit-volume Laplacian lower bound"),
    )


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
        _check_orbit_order(self.first.orbit_volume, self.second.orbit_volume)
        _require(self.volume > 0.0, "manifold volume must be positive")


def _check_orbit_order(orbit1, orbit2):
    if not orbit1 < orbit2:
        raise PreconditionError(
            "orbit volumes must be ordered: orbit1 < orbit2, got %r >= %r" % (orbit1, orbit2)
        )


def _require(cond, message):
    if not cond:
        raise PreconditionError(message)


class _Numbers(NamedTuple):
    """What the interval routes read of one configuration: plain numbers.

    first and second are each an action's (orbit volume, quotient scalar
    curvature lower bound, orbit-volume Laplacian lower bound); both
    actions have params.k-dimensional orbits.
    """

    volume: float
    params: EquationParams
    first: tuple
    second: tuple


# Each numbers helper takes validated inputs and returns _Numbers.  The
# equation parameters are built once per key and shared: they are
# frozen.  The cache is bounded, since a caller picks n freely.  A
# finite group's orbit volume is its order, an integer in [1,
# MAX_INTEGER_INPUT], and a scal bound made of integers is a finite
# float: such numbers need no check.

_equation_params = lru_cache(maxsize=128)(EquationParams)


def _cylinder_volume(t, n):
    """Volume of S^1(t) x S^{n-1}."""
    return 2.0 * math.pi * t * sphere_volume(n - 1)


def _circle_factor(n, t):
    """Rotations of the circle factor of S^1(t) x S^{n-1}; the quotient is S^{n-1}."""
    return _action_numbers(2.0 * math.pi * t, float((n - 1) * (n - 2)))


def _sphere_rotations(n, a1, a2):
    _require(n >= 5 and n % 2 == 1, "odd dimension n >= 5 required so spheres admit free actions")
    _require(a1 < a2, "group orders must satisfy a1 < a2")
    scal = float(n * (n - 1))
    first, second = (float(a1), scal, 0.0), (float(a2), scal, 0.0)
    return _Numbers(sphere_volume(n), _equation_params(n, 0), first, second)


def _circle_rotations(n, t, a1, a2, n_min):
    _require(n >= n_min, "dimension n >= %d required" % n_min)
    _require(t > 0.0, "circle radius t must be positive")
    _require(a1 < a2, "rotation orders must satisfy a1 < a2")
    scal = float((n - 1) * (n - 2))
    first, second = (float(a1), scal, 0.0), (float(a2), scal, 0.0)
    return _Numbers(_cylinder_volume(t, n), _equation_params(n, 0), first, second)


def _circle_sphere_sphere(n, a, b):
    _require(n >= 10, "triple product needs n >= 10")
    _require(a > 0.0 and b > 0.0, "factor radii must be positive")
    try:
        b2 = b**2
    except OverflowError:
        raise PreconditionError(
            "factor radii a=%r, b=%r overflow: b^2 is not a finite float" % (a, b)
        ) from None
    orbit1 = 2.0 * math.pi**2
    orbit2 = 8.0 * math.pi**2 * a * b2
    _require(
        orbit1 < orbit2,
        "orbit volumes must satisfy orbit1 < orbit2, which needs 4 a b^2 > 1 (got %r)" % (4 * a * b2,),
    )
    # the bi-spherical collapse of the large factor, then the rotations of
    # the circle and the small sphere
    first = _action_numbers(orbit1, product_scal_lower(2.0 / b2, n - 6, 4))
    second = _action_numbers(orbit2, float((n - 3) * (n - 4)))
    volume = 2.0 * math.pi * a * 4.0 * math.pi * b2 * sphere_volume(n - 3)  # S^1(a) x S^2(b) x S^{n-3}
    return _Numbers(volume, _equation_params(n, 3), first, second)


def _fibre_rotation(t):
    _require(t > 1.0, "circle radius t > 1 required so the fiber orbits are the smaller ones")
    # the diagonal rotation along the fibres: quotient S^1(t) x S^2(1/2), scal = 2 / (1/2)^2
    fibres = (2.0 * math.pi, 8.0, 0.0)
    return _Numbers(_cylinder_volume(t, 4), _equation_params(4, 1), fibres, _circle_factor(4, t))


def _sphere_collapse(n, t):
    _require(n >= 4, "dimension n >= 4 required")
    _require(t > 1.0, "circle radius t > 1 required so the sphere orbits are the smaller ones")
    # the bi-spherical collapse of the S^{n-1} factor
    collapse = (2.0 * math.pi, product_scal_lower(0.0, n - 2, 2), 0.0)
    return _Numbers(_cylinder_volume(t, n), _equation_params(n, 1), collapse, _circle_factor(n, t))


# Windows take the validated inputs and the _Numbers and return the window
# ends the example's route reads, in its argument order (conditions):
# critical (ambient hi, second lo, second hi), invariant (second lo,
# second hi), double and triple (first lo, second lo, second hi).


def _quotient_windows(inputs, x):
    n = x.params.n
    second = b0_quotient_sphere(n, inputs["a2"])
    return b0_sphere(n).hi, second.lo, second.hi


def _cylinder_windows(inputs, x):
    """The ambient and the second window are both S^1(t) x S^{n-1}'s."""
    lo, hi = _circle_sphere_window(inputs["t"], x.params.n)
    return hi, lo, hi


def _transferred_window(x):
    """The second group's window: the round S^N constant of its quotient.

    The second action's orbits are principal of constant volume, so
    b0_transfer_principal passes this window through unchanged.
    """
    window = b0_sphere(x.params.reduced_dim)
    return window.lo, window.hi


def _finite_circle_windows(inputs, x):
    """S^1(t / a_i) x S^{n-1}'s window for each group order a_i."""
    t, n = inputs["t"], x.params.n
    first = _circle_sphere_window(t / inputs["a1"], n)
    return (first[0], *_circle_sphere_window(t / inputs["a2"], n))


def _fibred_windows(inputs, x):
    lo = _lower_general(x.params, x.volume, x.params.k, *x.first)
    return (lo, *_transferred_window(x))


def _finite_circle(cfg, index):
    """Reduction by the rotations of order a_index of S^1(t)."""
    card = cfg.inputs["a%d" % index]
    return 2.0 * math.pi * cfg.inputs["t"] / card, card * sphere_volume(cfg.params.n - 1), float(card)


def _first_circle(cfg, index):
    """Reduction by the first group along S^1(t)."""
    _require(index == 1, "the second group forces functions constant along the circle")
    return 2.0 * math.pi * cfg.inputs["t"], sphere_volume(cfg.params.n - 1), cfg.first.orbit_volume


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
    numbers: Callable  # validated inputs -> _Numbers, raising the precondition they break
    actions: tuple  # (name, principal_constant_volume) per action; a name is a format of the inputs
    route: str  # "critical" | "invariant" (weighted), "double" | "triple" (f = 1)
    windows: Callable  # (inputs, _Numbers) -> the window ends the route reads, in order
    ceilings: tuple = ()  # (_Numbers action field, condition label) per existence ceiling
    flatness: Callable | None = None  # n -> weight vanishing order closing the ceilings
    circle: Callable | None = None  # (cfg, index) -> (length, weight, orbit volume)
    ratio: Callable | None = None  # (cfg, f) -> (lhs, rhs) of the peak-ratio condition
    # (name, default, check) per input, the check chosen once from the default's type
    checks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(
            (name, default, _integer if isinstance(default, int) else _finite)
            for name, default in self.defaults.items()
        ))


_CIRCLE_ROTATIONS = (("order-%(a1)d circle rotations", True), ("order-%(a2)d circle rotations", True))

_EXAMPLES = {
    "sphere-quotients": _Example(
        defaults={"n": 5, "a1": 2, "a2": 4},
        numbers=_sphere_rotations,
        actions=(("order-%(a1)d rotations", True), ("order-%(a2)d rotations", True)),
        route="critical",
        windows=_quotient_windows,
        ceilings=(("second", "existence-ceiling"),),
        flatness=lambda n: n - 3,
        ratio=_quotient_ratio,
    ),
    "cylinder-weighted": _Example(
        defaults={"n": 6, "t": 1.0, "a1": 1, "a2": 2},
        numbers=partial(_circle_rotations, n_min=5),
        actions=_CIRCLE_ROTATIONS,
        route="critical",
        windows=_cylinder_windows,
        ceilings=(("second", "existence-ceiling"),),
        flatness=lambda n: n - 2,
        circle=_finite_circle,
        ratio=_cylinder_ratio,
    ),
    "triple-product": _Example(
        defaults={"n": 10, "a": 4.0, "b": 0.28},
        numbers=_circle_sphere_sphere,
        actions=(
            ("bi-spherical collapse of the large factor", False),
            ("rotations of the circle and small sphere", True),
        ),
        route="invariant",
        windows=lambda inputs, x: _transferred_window(x),
        ceilings=(("second", "existence-ceiling-second"), ("first", "existence-ceiling-first")),
        ratio=_product_ratio,
    ),
    "cylinder-triple": _Example(
        defaults={"n": 5, "t": 40.0, "a1": 1, "a2": 2},
        numbers=partial(_circle_rotations, n_min=3),
        actions=_CIRCLE_ROTATIONS,
        route="triple",
        windows=_finite_circle_windows,
        circle=_finite_circle,
    ),
    "hopf": _Example(
        defaults={"t": 8.0},
        numbers=_fibre_rotation,
        actions=(("diagonal rotation along the fibers", True), ("rotations of the circle factor", True)),
        route="double",
        windows=_fibred_windows,
        circle=_first_circle,
    ),
    "cylinder-overcritical": _Example(
        defaults={"n": 5, "t": 8.0},
        numbers=_sphere_collapse,
        actions=(
            ("bi-spherical collapse of the sphere factor", False),
            ("rotations of the circle factor", True),
        ),
        route="double",
        windows=_fibred_windows,
        circle=_first_circle,
    ),
}

EXAMPLE_IDS = tuple(_EXAMPLES)

EXAMPLE_DEFAULTS = {ex: dict(record.defaults) for ex, record in _EXAMPLES.items()}


def _configuration_numbers(example, params):
    """(record, validated inputs, _Numbers) of one packaged configuration; no record built."""
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
    if not params.keys() <= record.defaults.keys():
        extra = set(params) - set(record.defaults)
        raise PreconditionError(
            "example %r does not take parameter(s) %s; allowed: %s"
            % (example, ", ".join(sorted(extra)), ", ".join(sorted(record.defaults)))
        )
    inputs = {name: check(params.get(name, default), name) for name, default, check in record.checks}
    x = record.numbers(**inputs)
    _check_orbit_order(x.first[0], x.second[0])
    _finite(x.volume, "manifold volume")
    return record, inputs, x


def example_configuration(example, **params):
    """Build one packaged configuration; parameters default per EXAMPLE_DEFAULTS."""
    record, inputs, x = _configuration_numbers(example, params)
    first, second = (
        GroupActionSpec(name % inputs, x.params.k, orbit, scal, principal, laplacian)
        for (name, principal), (orbit, scal, laplacian) in zip(record.actions, (x.first, x.second))
    )
    return ExampleConfig(example, x.volume, x.params, first, second, inputs)
