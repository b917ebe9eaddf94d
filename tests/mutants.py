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

# The list may not shrink below this many mutants unnoticed.
MIN_MUTANTS = 30

MUTANTS = [
    # (file, exact text, replacement, test id)
    (CEILING, "return (N - 2) / (4.0 * (N - 1)) *", "return (N - 2) / (4.0 * (N - 1)) * (1.0 + 1e-9) *",
     "tests/test_acceptance.py::test_c2_all_examples_match_closed_forms"),
    (CEILING, "(scal + 3.0 * q)", "(scal + 2.9 * q)",
     "tests/test_acceptance.py::test_c8_expansion_fit_matches_prediction"),
    (CEILING, "action.vh_laplacian_lower / action.orbit_volume",
     "action.vh_laplacian_lower * 0.9 / action.orbit_volume",
     "tests/test_expansion.py::test_the_ceiling_reads_the_orbit_volume_laplacian_as_q_times_the_orbit_volume[2.0-7]"),
    (SOLVER, "\nZERO_MODE_TOL = 1e-6\n", "\nZERO_MODE_TOL = 1e-4\n",
     "tests/test_solver.py::test_the_constant_just_past_the_bifurcation_is_an_index_3_saddle"),
    (SOLVER, "(2.0 * float(problem.f_samples[k]))", "(2.2 * float(problem.f_samples[k]))",
     "tests/test_solver.py::test_the_soliton_start_peaks_where_the_weight_does"),
    (SOLVER, "\nDESCENT_TOL = 1e-4\n", "\nDESCENT_TOL = 1e-3\n",
     "tests/test_solver.py::test_the_soliton_start_descends_in_a_handful_of_evaluations[1-1024]"),
    (SOLVER, "        if short_steps == 2:\n            break\n", "        if short_steps == 2:\n            pass\n",
     "tests/test_solver.py::test_newton_stops_after_two_consecutive_short_steps"),
    (SOLVER, "label not in _START_LABELS:", "label not in _START_LABELS and not label.startswith(\"cos\"):",
     "tests/test_solver.py::test_a_cos_label_other_than_cos1_is_unknown[cos2]"),
    (SOLVER, "\nMASS_BOUND_SLACK = 1e-9\n", "\nMASS_BOUND_SLACK = 1e-3\n",
     "tests/test_solver.py::test_min_f_mass_bound_is_tight_on_constants"),
    (SOLVER, "\nOSCILLATION_TOL = 1e-7\n", "\nOSCILLATION_TOL = 1e-4\n",
     "tests/test_solver.py::test_classify_resolves_a_relative_range_of_1e_5_but_not_1e_9"),
    (SOLVER, "\nENERGY_GAP_TOL = 1e-10\n", "\nENERGY_GAP_TOL = 1e-2\n",
     "tests/test_solver.py::test_energy_separation_orders_reports"),
    (SOLVER, "else q < thr,", "else q <= thr * (1 + 1e-3),",
     "tests/test_solver.py::test_below_threshold_is_strict_at_a_relative_offset_of_1e_4"),
    (SOLVER, "off * (x[0] + x[-1]) < 0.0)", "off * (x[0] + x[-1]) > 0.0)",
     "tests/test_solver.py::test_morse_counts_match_dense_eigenvalues"),
    (SOLVER, "        count += 1\n", "        count += 2\n",
     "tests/test_solver.py::test_cylinder_triple_morse_counts_at_c6_alpha"),
    (SOLVER, "        if d[k] == 0.0:\n            return None\n", "        if d[k] == 0.0:\n            pass\n",
     "tests/test_solver.py::test_morse_count_moves_its_shift_off_a_zero_middle_pivot"),
    (SOLVER, "np.concatenate((x[k + 1:], x[:k + 1]))", "np.concatenate((x[k:], x[:k]))",
     "tests/test_solver.py::test_the_operator_pieces_agree_with_one_stencil[64]"),
    (SOLVER, "\nDESCENT_MAX_ITER = 2000\n", "\nDESCENT_MAX_ITER = 20000\n",
     "tests/test_solver.py::test_the_descent_cap_binds_on_a_nearly_constant_weight"),
    (SOLVER, "\nDESCENT_MAX_ITER = 2000\n", "\nDESCENT_MAX_ITER = 1000\n",
     "tests/test_solver.py::test_the_descent_cap_leaves_room_for_a_slow_descent"),
    (SOLVER, "return 2.0 / (h * h), -1.0 / (h * h)", "return 2.0 / (h * h) * (1.0 + 1e-12), -1.0 / (h * h)",
     "tests/test_solver.py::test_the_operator_pieces_agree_with_one_stencil[64]"),
    # J's even and odd blocks about the peak node
    (SOLVER, "lower[-1] = upper[0] = 2.0 * off", "lower[-1] = upper[0] = off",
     "tests/test_solver.py::test_the_even_step_is_the_bordered_step_on_an_even_residual[1]"),
    (SOLVER, "math.sqrt(2.0) * coupling", "1.0 * coupling",
     "tests/test_solver.py::test_split_morse_counts_equal_the_cut_counts_and_dense_eigenvalues[64]"),
    (SOLVER, "off[half] = 0.0", "off[half] = coupling",
     "tests/test_solver.py::test_split_morse_counts_equal_the_cut_counts_and_dense_eigenvalues[64]"),
    (SOLVER, "\nEVEN_START_ULPS = 64\n", "\nEVEN_START_ULPS = 2**60\n",
     "tests/test_solver.py::test_a_start_off_the_even_path_keeps_the_cut_path_bitwise[random-m256]"),
    (SOLVER, "if k < half else", "if k <= half else",
     "tests/test_solver.py::test_the_even_step_is_the_bordered_step_on_an_even_residual[2]"),
    (CONSTANTS, "/ math.gamma(0.5 * (n + 1))", "/ math.gamma(0.5 * (n + 1)) * (1.0 + 1e-13)",
     "tests/test_constants.py::test_sphere_volume_known_values"),
    (CONSTANTS, "sphere_volume(n) ** (2.0 / n))", "sphere_volume(n) ** (2.0 / n) * (1.0 + 1e-13))",
     "tests/test_constants.py::test_sobolev_constant_identity"),
    (CONSTANTS, "f_max ** (2.0 / two_sharp))", "f_max ** (2.0 / dim))",
     "tests/test_conditions.py::test_existence_threshold_scales_with_the_peak_of_f"),
    (CEILING, "\nMAX_INTEGER_INPUT = 10**150\n", "\nMAX_INTEGER_INPUT = 10**160\n",
     "tests/test_constants.py::test_the_largest_group_order_keeps_a_finite_window"),
    (SOLVER, "np.abs(u) ** (problem.p - 1.0)", "np.abs(u) ** (problem.p - 1.0 + 1e-12)",
     "tests/test_solver.py::test_quotient_gradient_is_the_scaled_fused_gradient[5.0-64]"),
    (SOLVER, "float(np.dot(fau, u))", "float(np.dot(fau, u)) * (1.0 + 1e-12)",
     "tests/test_solver.py::test_fused_evaluation_matches_quotient_and_gradient[64]"),
    (SOLVER, "g[0] = du[-1] - du[0]", "g[0] = du[-2] - du[0]",
     "tests/test_solver.py::test_periodic_differences_equal_the_roll_formulas[97]"),
    (SOLVER, "s = d + alpha - off * (z[0] + z[-1])", "s = d + alpha + off * (z[0] + z[-1])",
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
    (GEOMETRY, "return 2.0 * math.pi * t * sphere_volume(n - 1)",
     "return 2.0 * math.pi * t * sphere_volume(n - 1) * (1.0 + 1e-14)",
     "tests/test_geometry.py::test_manifold_volumes"),
    (JSONIO, "sort_keys=True", "sort_keys=False", "tests/test_cli.py::test_table_json_is_pinned_byte_for_byte"),
    # the quadrature rule: each moves a fit's samples by about 1e-15 relative
    (EXPANSION, "\n_GAUSS_NODES = 20 ", "\n_GAUSS_NODES = 24 ",
     "tests/test_expansion.py::test_the_rule_matches_an_independent_construction[0.0-1.0]"),
    (EXPANSION, "\n_GRADING = 3.0 ", "\n_GRADING = 4.0 ",
     "tests/test_expansion.py::test_the_rule_matches_an_independent_construction[0.0-1.0]"),
    (EXPANSION, "\n_RIGHT_PANELS = 8 ", "\n_RIGHT_PANELS = 6 ",
     "tests/test_expansion.py::test_the_rule_matches_an_independent_construction[0.0-1.0]"),
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
