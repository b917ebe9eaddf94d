"""One instance of every public record type, for the tests of the records.

Importing this loads numpy and symcrit but not dataclasses, so a fresh
interpreter can build every record before anything asks dataclasses about
them.
"""

import math

import numpy as np

import symcrit
from symcrit import (
    ConditionReport,
    ConstantBound,
    EquationParams,
    ExistenceBound,
    ExpansionConfig,
    FProfile,
    GenericIneqParams,
    OrderingReport,
    OrderingVerdict,
    ReducedProblem,
    SolveConfig,
    conditions,
    constant_solution,
    energy_separation,
    example_configuration,
    example_interval,
    fit_and_compare,
    log_branch_sign,
    proof_chain_diagnostics,
)


def records():
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
