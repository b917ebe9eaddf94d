#!/usr/bin/env python3
"""Mutation check of the tests: each listed source mutant must fail its test.

    python3 tests/mutants.py

A mutant is a file, an exact text in it, the text's replacement and the id
of the test that must kill it.  For each mutant the runner copies the tree
to a temporary directory, applies the replacement there and runs only the
named test; the mutant is killed when that test fails.  First it checks
that every text occurs exactly once, so a refactor cannot retire a mutant
silently, and that every named test passes on an unmutated copy.  Exits 1
when fewer than MIN_MUTANTS mutants are listed, a text is not found exactly
once, a named test fails unmutated, or a mutant survives.  Pytest does not
collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOLVER = "src/symcrit/solver.py"
CEILING = "src/symcrit/best_constants.py"
CONSTANTS = "src/symcrit/constants.py"
EXPANSION = "src/symcrit/expansion.py"
CONDITIONS = "src/symcrit/conditions.py"
GEOMETRY = "src/symcrit/geometry.py"
JSONIO = "src/symcrit/jsonio.py"
CLI = "src/symcrit/cli.py"

# The list may not shrink below this many mutants unnoticed.
MIN_MUTANTS = 107

MUTANTS = [
    # (file, exact text, replacement, test id)
    (CEILING, "return (N - 2) / (4.0 * (N - 1)) *", "return (N - 2) / (4.0 * (N - 1)) * (1.0 + 1e-9) *",
     "tests/test_acceptance.py::test_c2_all_examples_match_closed_forms"),
    (CEILING, "(scal + 3.0 * q)", "(scal + 2.9 * q)",
     "tests/test_acceptance.py::test_c8_expansion_fit_matches_prediction"),
    (CEILING, "laplacian / orbit_volume", "laplacian * 0.9 / orbit_volume",
     "tests/test_expansion.py::test_the_ceiling_reads_the_orbit_volume_laplacian_as_q_times_the_orbit_volume[2.0-7]"),
    (SOLVER, "\nZERO_MODE_TOL = 1e-6\n", "\nZERO_MODE_TOL = 1e-4\n",
     "tests/test_solver.py::test_the_constant_just_past_the_bifurcation_is_an_index_3_saddle"),
    (SOLVER, "2.0 * float(problem.f_samples[k]),", "2.2 * float(problem.f_samples[k]),",
     "tests/test_solver.py::test_the_soliton_start_peaks_where_the_weight_does"),
    (SOLVER, "% m - m // 2) * problem.h)", "% m - m // 2) * (problem.h * (1.0 + 1e-12)))",
     "tests/test_solver.py::test_the_soliton_start_is_the_line_soliton_in_the_periodic_distance[False]"),
    (SOLVER, "\nDESCENT_TOL = 1e-4\n", "\nDESCENT_TOL = 1e-3\n",
     "tests/test_solver.py::test_the_soliton_start_descends_in_a_handful_of_evaluations[1-1024]"),
    (SOLVER, "        if short_steps == 2:\n            break\n", "        if short_steps == 2:\n            pass\n",
     "tests/test_solver.py::test_newton_stops_after_two_consecutive_short_steps"),
    (SOLVER, "label not in _START_LABELS:", "label not in _START_LABELS and not label.startswith(\"cos\"):",
     "tests/test_solver.py::test_a_cos_label_other_than_cos1_is_unknown[cos2]"),
    (SOLVER, "self.starts.count(label) > 1:", "self.starts.count(label) > 2:",
     "tests/test_solver.py::test_a_repeated_start_label_is_rejected_unless_random[soliton]"),
    (SOLVER, "\nMASS_BOUND_SLACK = 1e-9\n", "\nMASS_BOUND_SLACK = 1e-3\n",
     "tests/test_solver.py::test_min_f_mass_bound_is_tight_on_constants"),
    (SOLVER, "\nOSCILLATION_TOL = 1e-7\n", "\nOSCILLATION_TOL = 1e-4\n",
     "tests/test_solver.py::test_classify_resolves_a_relative_range_of_1e_5_but_not_1e_9"),
    (SOLVER, "\nENERGY_GAP_TOL = 1e-10\n", "\nENERGY_GAP_TOL = 1e-2\n",
     "tests/test_solver.py::test_energy_separation_orders_reports"),
    (SOLVER, "else q < thr,", "else q <= thr * (1 + 1e-3),",
     "tests/test_solver.py::test_below_threshold_is_strict_at_a_relative_offset_of_1e_4"),
    # the one Schur term of every cut, and the Morse count's reading of its sign
    (SOLVER, "return c - off * (z[0] + z[-1])", "return c + off * (z[0] + z[-1])",
     "tests/test_solver.py::test_morse_counts_match_dense_eigenvalues"),
    (SOLVER, "coupling, x) < 0.0)", "coupling, x) > 0.0)",
     "tests/test_solver.py::test_morse_counts_match_dense_eigenvalues"),
    (SOLVER, "        count += 1\n", "        count += 2\n",
     "tests/test_solver.py::test_cylinder_triple_morse_counts_at_c6_alpha"),
    (SOLVER, "        if d[k] == 0.0:\n            return None\n", "        if d[k] == 0.0:\n            pass\n",
     "tests/test_solver.py::test_morse_count_moves_its_shift_off_a_zero_middle_pivot"),
    (SOLVER, "np.concatenate((x[k + 1:], x[:k + 1]))", "np.concatenate((x[k:], x[:k]))",
     "tests/test_solver.py::test_the_operator_pieces_agree_with_one_stencil[64]"),
    # J cut open at a fixed node, not where |v'| is largest
    (SOLVER, "k = int(np.argmax(np.abs(tau)))", "k = m - 1",
     "tests/test_solver.py::test_newton_step_is_accurate_wherever_the_peak_sits[triple-m1024]"),
    (SOLVER, "\nDESCENT_MAX_ITER = 2000\n", "\nDESCENT_MAX_ITER = 20000\n",
     "tests/test_solver.py::test_the_descent_cap_binds_on_a_nearly_constant_weight"),
    (SOLVER, "\nDESCENT_MAX_ITER = 2000\n", "\nDESCENT_MAX_ITER = 1000\n",
     "tests/test_solver.py::test_the_descent_cap_leaves_room_for_a_slow_descent"),
    (SOLVER, "return 2.0 / (h * h), -1.0 / (h * h)", "return 2.0 / (h * h) * (1.0 + 1e-12), -1.0 / (h * h)",
     "tests/test_solver.py::test_the_operator_pieces_agree_with_one_stencil[64]"),
    # J's even and odd blocks about node 0
    (SOLVER, "lower[-1] = upper[0] = 2.0 * off", "lower[-1] = upper[0] = off",
     "tests/test_solver.py::test_the_even_step_is_the_cut_step_on_an_even_residual[1]"),
    (SOLVER, "math.sqrt(2.0) * coupling", "1.0 * coupling",
     "tests/test_solver.py::test_split_morse_counts_equal_the_cut_counts_and_dense_eigenvalues[64]"),
    (SOLVER, "off[mid] = 0.0", "off[mid] = coupling",
     "tests/test_solver.py::test_split_morse_counts_equal_the_cut_counts_and_dense_eigenvalues[64]"),
    # the half grid's quadrature: node m/2 weighed 2, the nodes between weighed 1, each
    # difference weighed 1, and P's even block (weighed) with its couplings off for 2 off
    (SOLVER, "float(x[:-1].dot(y[:-1]))", "float(x.dot(y))",
     "tests/test_solver.py::test_the_half_grid_kernels_are_the_circle_kernels_on_even_vectors[64]"),
    (SOLVER, "+ float(x[1:].dot(y[1:]))", "+ float(x[-1] * y[-1])",
     "tests/test_solver.py::test_the_half_grid_kernels_are_the_circle_kernels_on_even_vectors[64]"),
    (SOLVER, "return 2.0 * float(du.dot(du)) if half", "return 1.0 * float(du.dot(du)) if half",
     "tests/test_solver.py::test_the_half_grid_kernels_are_the_circle_kernels_on_even_vectors[64]"),
    (SOLVER, "np.full(n - 1, 2.0 * off)", "np.full(n - 1, off)",
     "tests/test_solver.py::test_the_half_grid_p_inverse_is_the_circulant_p_inverse_on_even_vectors[0.05-64]"),
    # a vector's length says its grid, and f's constancy is decided once per problem
    (SOLVER, "return u.size < problem.m", "return u.size <= problem.m",
     "tests/test_solver.py::test_periodic_differences_equal_the_roll_formulas[97]"),
    (SOLVER, "bool(f.max() == f.min())", "bool(f.max() != f.min())",
     "tests/test_surface.py::test_the_constant_weight_flag_is_derived_once_and_survives_round_trips[ones-pickle]"),
    # the checks of the public kernels' u, of minimize's config and of an index
    (SOLVER, "u.shape != (problem.m,)", "u.ndim != 1",
     "tests/test_solver.py::test_the_public_kernels_reject_any_u_but_the_circles_finite_vector_by_name[half-grid-energy]"),
    (SOLVER, "    index = _integer(index, \"index\")\n", "",
     "tests/test_solver.py::test_circle_reduction_rejects_an_index_other_than_1_or_2_by_name[True]"),
    (CONSTANTS, 'if a.dtype.kind in "iuf" else None', 'if a.dtype.kind in "iufU" else None',
     "tests/test_solver.py::test_f_samples_of_no_real_numbers_are_rejected_by_name[text]"),
    (CONSTANTS, "if not hi >= lo:", "if hi < lo:",
     "tests/test_constants.py::test_a_bad_bound_endpoint_is_rejected_by_name[hi-nan]"),
    (CONSTANTS, "/ math.gamma(0.5 * (n + 1))", "/ math.gamma(0.5 * (n + 1)) * (1.0 + 1e-13)",
     "tests/test_constants.py::test_sphere_volume_known_values"),
    (CONSTANTS, "sphere_volume(n) ** (2.0 / n))", "sphere_volume(n) ** (2.0 / n) * (1.0 + 1e-13))",
     "tests/test_constants.py::test_sobolev_constant_identity"),
    (CONSTANTS, "f_max ** (2.0 / two_sharp))", "f_max ** (2.0 / dim))",
     "tests/test_conditions.py::test_existence_threshold_scales_with_the_peak_of_f"),
    (CONSTANTS, "\nMAX_INTEGER_INPUT = 10**150\n", "\nMAX_INTEGER_INPUT = 10**160\n",
     "tests/test_constants.py::test_the_largest_group_order_keeps_a_finite_window"),
    (SOLVER, "np.abs(u) ** (problem.p - 1.0)", "np.abs(u) ** (problem.p - 1.0 + 1e-12)",
     "tests/test_solver.py::test_quotient_gradient_is_the_scaled_fused_gradient[5.0-64]"),
    (SOLVER, "_dot(fau, u, _half(problem, u))", "_dot(fau, u, _half(problem, u)) * (1.0 + 1e-12)",
     "tests/test_solver.py::test_fused_evaluation_matches_quotient_and_gradient[64]"),
    (SOLVER, "g[0] = du[-1] - du[0]", "g[0] = du[-2] - du[0]",
     "tests/test_solver.py::test_periodic_differences_equal_the_roll_formulas[97]"),
    (SOLVER, "return c - off * (z[0] + z[-1])", "return c - off * (z[0] - z[-1])",
     "tests/test_solver.py::test_the_descent_p_inverse_inverts_the_circulant_p[2.25-97]"),
    (SOLVER, "closure = np.append(1.0, -z)", "closure = np.append(1.0, z)",
     "tests/test_solver.py::test_the_descent_p_inverse_inverts_the_circulant_p[0.05-1024]"),
    (SOLVER, "\nWEIGHTED_DESCENT_TOL = 1e-6\n", "\nWEIGHTED_DESCENT_TOL = 1e-4\n",
     "tests/test_solver.py::test_a_nearly_constant_weight_still_gives_the_one_bump_minimizer[1e-05]"),
    (SOLVER, "\nPOSITIVITY_FLOOR = 1e-50\n", "\nPOSITIVITY_FLOOR = 1e-12\n",
     "tests/test_solver.py::test_index_2_at_16384_returns_the_minimizer"),
    (SOLVER, "\nNEWTON_MAX_ITER = 50\n", "\nNEWTON_MAX_ITER = 3\n",
     "tests/test_solver.py::test_the_constant_just_past_the_bifurcation_is_an_index_3_saddle"),
    (SOLVER, "\nMIN_GRID = 64\n", "\nMIN_GRID = 63\n",
     "tests/test_cli.py::test_solve_rejects_a_grid_below_the_minimum[63-explicit]"),
    (CONDITIONS, "return (hi - term2) + term1", "return hi - (term2 - term1)",
     "tests/test_conditions.py::test_the_gap_endpoint_cancels_hi_against_the_larger_orbit_term_first"),
    # example_interval's closing comparisons: the ceiling tie, the lower endpoint's
    # tie, the triple's floor at the constant solution's term and the requested interval
    (CONDITIONS, "ceiling == hi and not closed and not hi_strict", "ceiling == hi and not closed and hi_strict",
     "tests/test_conditions.py::test_example_interval_is_the_public_routes_composed_by_hand[triple-product]"),
    (CONDITIONS, "(lo3, gap_strict) if lo3 > floor", "(lo3, gap_strict) if lo3 >= floor",
     "tests/test_conditions.py::test_merge_lo_breaks_a_tie_toward_the_floor[False]"),
    (CONDITIONS, "gap_strict and lo3 == floor)", "gap_strict)",
     "tests/test_conditions.py::test_merge_lo_breaks_a_tie_toward_the_floor[True]"),
    (CONDITIONS, "max(lo, a2t)", "lo",
     "tests/test_conditions.py::test_the_triple_starts_at_the_constant_solutions_term_above_the_gap_endpoint"),
    (CONDITIONS, 'if recipe.route == "double":', 'if recipe.route != "double":',
     "tests/test_conditions.py::test_example_interval_is_the_public_routes_composed_by_hand[hopf]"),
    (GEOMETRY, "return 2.0 * math.pi * t * sphere_volume(n - 1)",
     "return 2.0 * math.pi * t * sphere_volume(n - 1) * (1.0 + 1e-14)",
     "tests/test_geometry.py::test_manifold_volumes"),
    # the examples' numbers helpers: an orbit volume, window ends, the orbit-order
    # check, and each precondition's strictness at its boundary
    (GEOMETRY, "_action_numbers(2.0 * math.pi * t,", "_action_numbers(2.0 * math.pi * t * (1.0 + 1e-9),",
     "tests/test_acceptance.py::test_c2_all_examples_match_closed_forms"),
    (GEOMETRY, 'first[0], *_circle_sphere_window(t / inputs["a2"], n)',
     'first[0], *_circle_sphere_window(t / inputs["a1"], n)',
     "tests/test_conditions.py::test_example_interval_is_the_public_routes_composed_by_hand[cylinder-triple]"),
    (GEOMETRY, "return hi, lo, hi", "return lo, lo, hi",
     "tests/test_conditions.py::test_example_interval_is_the_public_routes_composed_by_hand[cylinder-weighted]"),
    (GEOMETRY, "if not orbit1 < orbit2:", "if not orbit1 <= orbit2:",
     "tests/test_geometry.py::test_group_orders_with_equal_float_orbit_volumes_are_refused_by_the_order_check"
     "[sphere-quotients-example_interval]"),
    (GEOMETRY, '_require(t > 1.0, "circle radius t > 1 required so the fiber',
     '_require(t >= 1.0, "circle radius t > 1 required so the fiber',
     "tests/test_geometry.py::test_each_precondition_is_refused_at_its_boundary_by_name"
     "[hopf-t=1.0-example_interval]"),
    (GEOMETRY, '_require(t > 1.0, "circle radius t > 1 required so the sphere',
     '_require(t >= 1.0, "circle radius t > 1 required so the sphere',
     "tests/test_geometry.py::test_each_precondition_is_refused_at_its_boundary_by_name"
     "[cylinder-overcritical-t=1.0-example_interval]"),
    (GEOMETRY, '_require(n >= 4, "dimension n >= 4 required")', '_require(n > 4, "dimension n >= 4 required")',
     "tests/test_geometry.py::test_each_precondition_accepts_the_first_point_past_its_boundary"
     "[cylinder-overcritical-n=4-example_interval]"),
    (GEOMETRY, '_require(a1 < a2, "group orders', '_require(a1 <= a2, "group orders',
     "tests/test_geometry.py::test_each_precondition_is_refused_at_its_boundary_by_name"
     "[sphere-quotients-a1=4-a2=4-example_configuration]"),
    (GEOMETRY, '_require(a1 < a2, "rotation orders', '_require(a1 <= a2, "rotation orders',
     "tests/test_geometry.py::test_each_precondition_is_refused_at_its_boundary_by_name"
     "[cylinder-triple-a1=2-a2=2-example_interval]"),
    # refusals past the float range: the overflowing square, the infinite volume
    # and the window whose upper end overflows
    (GEOMETRY, "except OverflowError:", "except ZeroDivisionError:",
     "tests/test_geometry.py::test_triple_product_radii_whose_square_overflows_are_refused_by_name"
     "[1e+300-1e+300-example_interval]"),
    (GEOMETRY, '_finite(x.volume, "manifold volume")', "x.volume",
     "tests/test_geometry.py::test_a_configuration_whose_volume_overflows_is_refused"
     "[cylinder-triple-t=1.1e+306-example_configuration]"),
    (CEILING, "if hi == math.inf:", "if hi != hi:",
     "tests/test_best_constants.py::test_a_radius_whose_window_overflows_is_rejected_by_name[1e-160]"),
    (JSONIO, "sort_keys=True", "sort_keys=False", "tests/test_cli.py::test_table_json_is_pinned_byte_for_byte"),
    # the quadrature rule: each moves a fit's samples by about 1e-15 relative
    (EXPANSION, "\n_GAUSS_NODES = 20 ", "\n_GAUSS_NODES = 24 ",
     "tests/test_expansion.py::test_the_rule_matches_an_independent_construction[0.0-1.0]"),
    (EXPANSION, "\n_GRADING = 3.0 ", "\n_GRADING = 4.0 ",
     "tests/test_expansion.py::test_the_rule_matches_an_independent_construction[0.0-1.0]"),
    (EXPANSION, "\n_RIGHT_PANELS = 8 ", "\n_RIGHT_PANELS = 6 ",
     "tests/test_expansion.py::test_the_rule_matches_an_independent_construction[0.0-1.0]"),
    # the integrand: s^{-N/2} as s^{1-N/2} / s, one rho for both integrands and
    # the flat area element as r^2 to the power (N-1)/2
    (EXPANSION, "np.divide(u, s, out=num)", "np.divide(u, s * (1.0 + 1e-12), out=num)",
     "tests/test_expansion.py::test_quotient_against_tight_panel_reference[flat-0.3-6]"),
    (EXPANSION, "out *= _density(config, r, r2)", "num *= _density(config, r, r2)",
     "tests/test_expansion.py::test_quotient_against_tight_panel_reference[round-2.0-7]"),
    (EXPANSION, "r2 ** ((N - 1.0) / 2.0)", "r2 ** ((N - 1.0) / 2.0 + 1e-12)",
     "tests/test_expansion.py::test_quotient_against_tight_panel_reference[flat-0.3-6]"),
    # the extrapolated c1: Delta^2's fallback and the error bar's second term
    (EXPANSION, "0.0 < d2 / d1 < 1.0", "0.0 < d2 / d1",
     "tests/test_expansion.py::test_aitken_refuses_slopes_whose_differences_do_not_shrink[growing]"),
    (EXPANSION, "0.0 < d2 / d1 < 1.0", "d2 / d1 < 1.0",
     "tests/test_expansion.py::test_aitken_refuses_slopes_whose_differences_do_not_shrink[alternating]"),
    (EXPANSION, "d1 != 0.0 and ", "",
     "tests/test_expansion.py::test_aitken_refuses_slopes_whose_differences_do_not_shrink[flat-then-moving]"),
    (EXPANSION, "abs(last - before) / fitted_limit)", "0.0)",
     "tests/test_expansion.py::test_the_error_bar_holds_where_the_secant_agrees_with_the_extrapolation"),
    (GEOMETRY, "_require(self.volume > 0.0,", "_require(self.volume >= 0.0,",
     "tests/test_geometry.py::test_a_configuration_whose_volume_underflows_is_refused[1e-140]"),
    # the records built through their slots, the orbit terms over one denominator,
    # the known-keys test and the input checks chosen once per example
    (CONDITIONS, "if math.isnan(lo) or math.isnan(hi):", "if math.isnan(lo):",
     "tests/test_conditions.py::test_a_nan_endpoint_is_refused_by_name[hi]"),
    (CONDITIONS, "_set_status(self, status)\n        _set_value(self, value)",
     "_set_status(self, value)\n        _set_value(self, status)",
     "tests/test_conditions.py::test_a_hand_built_record_stores_each_argument_in_its_own_field[ConditionReport]"),
    (CONDITIONS, "t2 = orbit2 ** (2.0 / N) / denominator", "t2 = orbit1 ** (2.0 / N) / denominator",
     "tests/test_conditions.py::test_the_orbit_terms_are_the_volume_terms_bit_for_bit[cylinder-triple-1.0]"),
    (GEOMETRY, "if not params.keys() <= record.defaults.keys():", "if params.keys() <= record.defaults.keys():",
     "tests/test_geometry.py::test_parameters_the_example_does_not_take_are_refused_by_name[hopf-example_interval]"),
    (GEOMETRY, "_integer if isinstance(default, int) else _finite", "_finite",
     "tests/test_geometry.py::test_each_input_check_is_chosen_once_from_its_defaults_type[sphere-quotients]"),
    # the floor end of the ordering check's admissibility window is closed
    (CONDITIONS, "if not (floor <= alpha <= ceiling):", "if not (floor < alpha <= ceiling):",
     "tests/test_conditions.py::test_ordering_verdict_matches_gap_endpoint"),
    # the descent's hand-off to Newton, the closed-form constant start and the
    # solver's two decision comparisons at their boundaries
    (SOLVER, "r = (s / (2.0 * problem.weight * problem.h)) * g", "r = (s / (problem.weight * problem.h)) * g",
     "tests/test_solver.py::test_the_handoff_is_the_rescaled_points_residual_and_power[half-5.0]"),
    (SOLVER, "(qv * scale ** (problem.p - 1.0)) * a", "qv * a",
     "tests/test_solver.py::test_the_handoff_is_the_rescaled_points_residual_and_power[cut-3.0]"),
    (SOLVER, "level = (alpha / f) ** (1.0 / (problem.p - 1.0))", "level = (alpha / f) ** (1.0 / problem.p)",
     "tests/test_solver.py::test_the_closed_form_is_alpha_over_f_to_the_one_over_p_minus_1"),
    (SOLVER, "if handed is not None and v.min() >= POSITIVITY_FLOOR:", "if handed is not None:",
     "tests/test_solver.py::test_newton_evaluates_a_start_that_the_floor_would_move"),
    (SOLVER, "return rn <= max(config.newton_tol,", "return rn < max(config.newton_tol,",
     "tests/test_solver.py::test_newton_has_converged_at_a_residual_equal_to_its_tolerance"),
    (SOLVER, "(hi - lo) > OSCILLATION_TOL * hi", "(hi - lo) >= OSCILLATION_TOL * hi",
     "tests/test_solver.py::test_classify_calls_a_range_of_exactly_oscillation_tol_times_the_max_constant"),
    # refusals of inputs past the float range: a start's level, the stencil,
    # the gradient's energy power and the Morse count's shift, then the
    # expansion's eps ladder, area element, quotient, panel count and fit
    (SOLVER, "except OverflowError:\n        level = math.inf", "except ZeroDivisionError:\n        level = math.inf",
     "tests/test_solver.py::test_a_level_that_overflows_is_refused_by_name[starts0]"),
    (SOLVER, "if not level < math.inf:", "if level != level:",
     "tests/test_solver.py::test_a_level_that_overflows_is_refused_by_name[starts0]"),
    (SOLVER, "if any(label != \"soliton\" for label in config.starts):", "if True:",
     "tests/test_solver.py::test_a_level_that_overflows_is_refused_by_name[starts1]"),
    (SOLVER, "s = _level(problem, qv, 1.0,", "s = qv ** (1.0 / (problem.p - 1.0)) or _level(problem, qv, 1.0,",
     "tests/test_solver.py::test_a_level_that_overflows_is_refused_by_name[starts1]"),
    (SOLVER, "finite = _stencil(self.h)[0] < math.inf", "finite = _stencil(self.h)[0] <= math.inf",
     "tests/test_solver.py::test_a_node_spacing_whose_stencil_overflows_is_refused_by_name"),
    (SOLVER, "            finite = False\n", "            finite = True\n",
     "tests/test_solver.py::test_a_node_spacing_whose_stencil_overflows_is_refused_by_name"),
    (SOLVER, "    except OverflowError:\n        raise PreconditionError(\n            \"quotient gradient",
     "    except ZeroDivisionError:\n        raise PreconditionError(\n            \"quotient gradient",
     "tests/test_solver.py::test_a_gradient_whose_energy_power_overflows_is_refused_by_name"),
    (SOLVER, "for _ in range(_SHIFT_TRIES):", "for _ in range(_SHIFT_TRIES + 1):",
     "tests/test_solver.py::test_the_morse_count_refuses_a_shift_that_meets_a_zero_pivot_on_every_try[cut]"),
    (EXPANSION, "if not 1e-6 * d2 > 0.0:", "if not 1e-3 * d2 > 0.0:",
     "tests/test_expansion.py::test_a_delta_whose_default_ladder_underflows_is_refused_by_name"),
    (EXPANSION, "if not 0.0 < scale < math.inf:", "if not 0.0 <= scale < math.inf:",
     "tests/test_expansion.py::test_a_curvature_whose_area_element_scale_leaves_the_float_range_is_refused_by_name"
     "[1e-130-1.0]"),
    (EXPANSION, "all(0.0 < value < math.inf for", "all(value < math.inf for",
     "tests/test_expansion.py::test_a_quotient_whose_integrals_overflow_or_vanish_is_refused_by_name[zero]"),
    (EXPANSION, "all(0.0 < value < math.inf for", "all(0.0 < value for",
     "tests/test_expansion.py::test_a_quotient_whose_integrals_overflow_or_vanish_is_refused_by_name[inf]"),
    (EXPANSION, "math.sqrt(least) < math.inf:", "math.sqrt(least) <= math.inf:",
     "tests/test_expansion.py::test_a_panel_count_past_the_float_range_is_refused_by_name"),
    (EXPANSION, "all(map(math.isfinite, fit))", "True",
     "tests/test_expansion.py::test_a_fit_whose_numbers_overflow_is_refused_by_name[predicted]"),
    (CLI, "if args.eps_min == 0.0 or args.eps_max == 0.0:", "if args.eps_min == 0.0:",
     "tests/test_cli.py::test_an_eps_ladder_with_an_end_at_zero_is_refused_by_name[--eps-max]"),
]

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "results", "*.egg-info")


def _pytest(tree, test_ids):
    """Exit code of pytest run on test_ids inside tree, against tree's own src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *test_ids]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _copy(scratch, name):
    tree = os.path.join(scratch, name)
    shutil.copytree(ROOT, tree, ignore=_SKIP)
    return tree


def main():
    t0 = time.perf_counter()
    failures = []
    if len(MUTANTS) < MIN_MUTANTS:
        failures.append("%d mutants listed, fewer than %d" % (len(MUTANTS), MIN_MUTANTS))
    for path, text, _, _ in MUTANTS:
        with open(os.path.join(ROOT, path)) as fh:
            count = fh.read().count(text)
        if count != 1:
            failures.append("%s: %r found %d times, not once" % (path, text, count))
    if failures:
        print("\n".join(failures))
        return 1
    with tempfile.TemporaryDirectory(prefix="symcrit-mutants-") as scratch:
        tests = sorted({test_id for *_, test_id in MUTANTS})
        if _pytest(_copy(scratch, "clean"), tests) != 0:
            print("a named test fails on the unmutated tree: %s" % " ".join(tests))
            return 1
        for i, (path, text, replacement, test_id) in enumerate(MUTANTS):
            tree = _copy(scratch, "mutant%d" % i)
            target = os.path.join(tree, path)
            with open(target) as fh:
                source = fh.read()
            with open(target, "w") as fh:
                fh.write(source.replace(text, replacement))
            killed = _pytest(tree, [test_id]) != 0
            print("  %-8s %s: %r -> %r" % ("killed" if killed else "SURVIVED", path, text.strip(), replacement.strip()))
            if not killed:
                failures.append(test_id)
            shutil.rmtree(tree)
    print("%d of %d mutants killed in %.1f s" % (len(MUTANTS) - len(failures), len(MUTANTS), time.perf_counter() - t0))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
