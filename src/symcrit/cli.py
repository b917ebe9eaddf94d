"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 violated precondition,
3 solver failed to converge.
"""

from __future__ import annotations

import argparse
import functools
import sys

from ._lazy import lazy_import
from .conditions import FProfile, example_interval
from .errors import ConvergenceError, PreconditionError
from .expansion import _EPS_COUNT, ExpansionConfig, fit_and_compare, log_branch_sign
from .geometry import EXAMPLE_DEFAULTS, EXAMPLE_IDS, example_configuration
from .jsonio import canonical_json, csv_text
from .solver import _START_LABELS, ReducedProblem, SolveConfig, _check_grid, circle_reduction, minimize

__all__ = ["main"]

np = lazy_import("numpy")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


_PARAM_FLAGS = (
    ("n", int, "dimension n"),
    ("t", float, "circle radius t"),
    ("a", float, "first factor radius"),
    ("b", float, "second factor radius"),
    ("a1", int, "first rotation order"),
    ("a2", int, "second rotation order"),
)
_PARAM_NAMES = tuple(name for name, _, _ in _PARAM_FLAGS)

# expansion flags that set an ExpansionConfig field, each with the field it sets
_EXPANSION_CONFIG_FLAGS = {"q": "vh_quadratic_coeff", "f_peak": "f_peak", "f_laplacian": "f_laplacian"}


_INTERVAL_COLUMNS = ("lo", "hi", "lo_strict", "hi_strict", "empty", "count")


def _add_example_params(sub, required):
    sub.add_argument("--example", choices=EXAMPLE_IDS, required=required)
    for name, typ, help_text in _PARAM_FLAGS:
        sub.add_argument("--%s" % name, type=typ, default=None, help=help_text)


def _collect_params(args, names=_PARAM_NAMES):
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _config_fields(args, flags):
    return {flags[name]: value for name, value in _collect_params(args, flags).items()}


def _refuse(parser, args, names, reason):
    for name in _collect_params(args, names):
        parser.error("--%s %s" % (name.replace("_", "-"), reason))


def _profile_from_args(parser, args):
    given = [
        v is not None
        for v in (args.f_max, args.f_min, args.f_avg)
    ]
    if not any(given) and args.f_laplacian is None and args.f_vanishing_order is None:
        return None
    if not all(given):
        parser.error("--f-max, --f-min and --f-avg must be given together")
    return FProfile(
        f_max=args.f_max,
        f_min=args.f_min,
        f_avg=args.f_avg,
        f_at_peak=args.f_max,
        laplacian_at_peak=args.f_laplacian or 0.0,
        vanishing_order=args.f_vanishing_order,
    )


def _cmd_interval(parser, args):
    f = _profile_from_args(parser, args)
    interval = example_interval(args.example, f=f, **_collect_params(args))
    if args.format == "csv":
        row = [args.example] + [getattr(interval, c) for c in _INTERVAL_COLUMNS]
        print(csv_text(["example", *_INTERVAL_COLUMNS], [row]))
    else:
        cfg = example_configuration(args.example, **_collect_params(args))
        print(canonical_json({"example": args.example, "inputs": cfg.inputs, "interval": interval}))
    return 0


def _cmd_solve(parser, args):
    f_samples = np.full(_check_grid(args.grid), args.f_value)
    if args.example is not None:
        _refuse(parser, args, ("length", "p", "weight", "orbit_volume"), "is not allowed with --example")
        if args.index is None:
            parser.error("--index is required with --example")
        cfg = example_configuration(args.example, **_collect_params(args))
        problem = circle_reduction(
            cfg,
            args.index,
            args.alpha,
            grid=args.grid,
            f_samples=f_samples,
        )
    else:
        _refuse(parser, args, ("index", *_PARAM_NAMES), "requires --example")
        if args.length is None or args.p is None:
            parser.error("either --example or both --length and --p are required")
        problem = ReducedProblem(
            length=args.length,
            weight=1.0 if args.weight is None else args.weight,
            alpha=args.alpha,
            p=args.p,
            f_samples=f_samples,
            orbit_volume=args.orbit_volume,
        )
    config = _collect_params(args, ("seed", "newton_tol"))
    if args.starts is not None:
        config["starts"] = tuple(s for s in args.starts.split(",") if s)
    report = minimize(problem, SolveConfig(**config))
    print(canonical_json(report.to_json(include_profile=args.profile)))
    return 0


def _cmd_expansion(parser, args):
    fields = _config_fields(args, _EXPANSION_CONFIG_FLAGS)
    if args.eps_min is not None or args.eps_max is not None:
        if args.eps_min is None or args.eps_max is None:
            parser.error("--eps-min and --eps-max must be given together")
        count = _EPS_COUNT if args.eps_count is None else args.eps_count
        if count < 1:
            raise PreconditionError("--eps-count must be at least 1, got %d" % count)
        fields["epsilons"] = tuple(np.geomspace(args.eps_max, args.eps_min, count))
    elif args.eps_count is not None:
        parser.error("--eps-count requires --eps-min and --eps-max")
    config = ExpansionConfig(
        dim=args.dim,
        delta=args.delta,
        alpha=args.alpha,
        orbit_volume=args.orbit_volume,
        curvature=args.curvature,
        **fields,
    )
    report = log_branch_sign(config) if args.dim == 4 else fit_and_compare(config)
    print(canonical_json(report))
    return 0


def _cmd_table(parser, args):
    ids = [args.example] if args.example else list(EXAMPLE_IDS)
    rows = []
    for ex in ids:
        interval = example_interval(ex)
        rows.append(
            [ex]
            + [EXAMPLE_DEFAULTS[ex].get(name) for name in _PARAM_NAMES]
            + [getattr(interval, c) for c in _INTERVAL_COLUMNS]
        )
    header = ["example", *_PARAM_NAMES, *_INTERVAL_COLUMNS]
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        print(canonical_json(payload))
    else:
        print(csv_text(header, rows))
    return 0


def build_parser():
    parser = _Parser(prog="symcrit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_int = sub.add_parser("interval", help="guaranteed multiplicity interval of an example")
    _add_example_params(p_int, required=True)
    p_int.add_argument("--f-max", type=float, default=None)
    p_int.add_argument("--f-min", type=float, default=None)
    p_int.add_argument("--f-avg", type=float, default=None)
    p_int.add_argument("--f-laplacian", type=float, default=None)
    p_int.add_argument("--f-vanishing-order", type=float, default=None)
    p_int.add_argument("--format", choices=("json", "csv"), default="json")
    p_int.set_defaults(func=functools.partial(_cmd_interval, p_int))

    p_solve = sub.add_parser("solve", help="minimize the circle-reduced quotient")
    _add_example_params(p_solve, required=False)
    p_solve.add_argument("--index", type=int, choices=(1, 2), default=None)
    p_solve.add_argument("--length", type=float, default=None)
    p_solve.add_argument("--weight", type=float, default=None)
    p_solve.add_argument("--p", type=float, default=None)
    p_solve.add_argument("--alpha", type=float, required=True)
    p_solve.add_argument("--grid", type=int, default=256)
    p_solve.add_argument("--f-value", type=float, default=1.0)
    p_solve.add_argument("--orbit-volume", type=float, default=None)
    p_solve.add_argument("--seed", type=int, default=None, help="seed of the opt-in `random` start")
    p_solve.add_argument(
        "--starts", type=str, default=None,
        help="comma-separated start labels, from %s (default: %s)"
        % (", ".join(_START_LABELS), ",".join(SolveConfig().starts)),
    )
    p_solve.add_argument("--newton-tol", type=float, default=None)
    p_solve.add_argument("--profile", action="store_true", help="include the solution samples")
    p_solve.set_defaults(func=functools.partial(_cmd_solve, p_solve))

    p_exp = sub.add_parser("expansion", help="concentration expansion of the quotient")
    p_exp.add_argument("--dim", type=int, required=True)
    p_exp.add_argument("--delta", type=float, required=True)
    p_exp.add_argument("--alpha", type=float, required=True)
    p_exp.add_argument("--orbit-volume", type=float, required=True)
    p_exp.add_argument("--q", type=float, default=None, help="relative orbit-volume decay")
    p_exp.add_argument("--curvature", type=float, default=None)
    p_exp.add_argument("--f-peak", type=float, default=None)
    p_exp.add_argument("--f-laplacian", type=float, default=None)
    p_exp.add_argument("--eps-min", type=float, default=None)
    p_exp.add_argument("--eps-max", type=float, default=None)
    p_exp.add_argument("--eps-count", type=int, default=None)
    p_exp.set_defaults(func=functools.partial(_cmd_expansion, p_exp))

    p_table = sub.add_parser("table", help="intervals of all packaged examples at defaults")
    p_table.add_argument("--example", choices=EXAMPLE_IDS, default=None)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=functools.partial(_cmd_table, p_table))

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except PreconditionError as exc:
        sys.stderr.write("precondition violated: %s\n" % exc)
        return 2
    except ConvergenceError as exc:
        sys.stderr.write("solver did not converge: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
