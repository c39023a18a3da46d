#!/usr/bin/env python3
"""Mutants of the package and the tests that must kill each one.

    python3 tests/mutants.py [NAME ...]

Each entry of ``MUTANTS`` names a file of the package, a piece of its source
that occurs there exactly once, the text that replaces it, and the test ids
that must fail once it is replaced.  An entry with an ``equivalent`` reason
is a mutant that no test can kill, because it does not change what the code
computes; its tests must all still pass.  The runner first runs every listed
test on an unchanged copy of ``src/`` and ``tests/`` in a temporary
directory, then, one mutant at a time, applies the replacement in a fresh
copy and runs that mutant's tests there.  A mutant is killed when one of its
tests fails, and survives when all pass.  The exit status is 0 when every
mutant named (all by default) is killed, or survives and is marked
equivalent.  The working tree is never written.

The runner is slow (one pytest process per mutant) and is not part of the
test suite; ``tests/test_mutants.py`` checks only that each entry still
applies, so that a change to the code cannot quietly retire a mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

MUTANTS = [
    {
        "name": "phi-equation-drops-a-relabelling",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "for p, q, r in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):",
        "mutant": "for p, q, r in ((0, 1, 2), (2, 0, 1)):",
        "tests": ["tests/test_poissonlie.py::test_phi_equation_series_matches_three_products"],
    },
    {
        "name": "phi-equation-transposes-instead-of-cycling",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "for p, q, r in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):",
        "mutant": "for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):",
        "tests": ["tests/test_poissonlie.py::test_phi_equation_series_matches_three_products"],
    },
    {
        "name": "cojacobi-failure-rank-off-by-one",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "checked=checked + free_rank + 1,",
        "mutant": "checked=checked + free_rank,",
        "tests": ["tests/test_bialgebra.py::test_cojacobi_scan_matches_reference",
                  "tests/test_bialgebra.py::test_cojacobi_counts_a_failure_at_a_later_level"],
    },
    {
        "name": "cojacobi-free-counts-reach",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "free = {i: k for k, i in enumerate(i for i in support if i not in reach)}",
        "mutant": "free = {i: k for k, i in enumerate(support)}",
        "tests": ["tests/test_bialgebra.py::test_cojacobi_scan_matches_reference",
                  "tests/test_bialgebra.py::test_cojacobi_counts_a_failure_at_a_later_level"],
    },
    {
        "name": "cojacobi-rows-in-table-order",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "for key in sorted(k for k in rows if",
        "mutant": "for key in list(k for k in rows if",
        "tests": ["tests/test_bialgebra.py::test_cojacobi_scan_matches_reference"],
    },
    {
        "name": "delta-table-per-relation",
        "file": "src/jetpoisson/quantum.py",
        "original": "residual = tensor_reduce(diff, R, normal_forms)",
        "mutant": "residual = tensor_reduce(diff, R)",
        "tests": ["tests/test_quantum.py::test_delta_homomorphism_reduces_each_word_once"],
    },
    {
        "name": "tensor-reduce-table-shared-across-calls",
        "file": "src/jetpoisson/quantum.py",
        "original": "normal_forms: Optional[dict] = None) -> Combination:",
        "mutant": "normal_forms: Optional[dict] = {}) -> Combination:",
        "tests": ["tests/test_quantum.py::test_tensor_reduce_alone_keeps_its_own_table"],
    },
    {
        "name": "tensor-sum-without-h-cap",
        "file": "src/jetpoisson/quantum.py",
        "original": "cap = _h_cap(R.h_order)",
        "mutant": "cap = None",
        "tests": ["tests/test_quantum.py::test_tensor_reduce_matches_the_per_pair_loop",
                  "tests/test_quantum.py::test_tensor_reduce_matches_the_per_term_loop"],
    },
    {
        "name": "tensor-cancelled-key-kept-empty",
        "file": "src/jetpoisson/quantum.py",
        "original": "                elif not _poly_mac(acc, cu, v, cap).terms:\n                    del raw[key]\n",
        "mutant": "                else:\n                    _poly_mac(acc, cu, v, cap)\n",
        "tests": ["tests/test_quantum.py::test_tensor_reduce_matches_the_per_term_loop"],
    },
    {
        "name": "delta-prefix-table-keyed-by-suffix",
        "file": "src/jetpoisson/quantum.py",
        "original": "tensor_multiply(_delta_of_word(word[:-1], deltas, R),",
        "mutant": "tensor_multiply(_delta_of_word(word[1:], deltas, R),",
        "tests": ["tests/test_quantum.py::test_delta_of_element_matches_the_letter_by_letter_product"],
    },
    {
        "name": "overlap-reduced-as-sum",
        "file": "src/jetpoisson/quantum.py",
        "original": "diff = nc_reduce(nc_sub(left, right), R)",
        "mutant": "diff = nc_reduce(NCElement(R.n_gens, R.h_order, left.terms.copy().add_all(right.terms)), R)",
        "tests": ["tests/test_quantum.py::test_overlap_check_reduces_the_difference_once"],
    },
    {
        "name": "reduce-swap-always-passed-on",
        "file": "src/jetpoisson/quantum.py",
        "original": "swap = one if (j, i) in tail.terms else None",
        "mutant": "swap = None",
        "tests": ["tests/test_quantum.py::test_packed_reduction_edges_match_min_scan[seven]"],
    },
    {
        "name": "packed-field-one-bit-narrower",
        "file": "src/jetpoisson/quantum.py",
        "original": "guards.width = (self.n_gens + 1).bit_length() + 1",
        "mutant": "guards.width = (self.n_gens + 1).bit_length()",
        "tests": ["tests/test_quantum.py::test_packed_words_keep_order_and_ascents"],
    },
    {
        "name": "reduce-emptied-done-entry-kept",
        "file": "src/jetpoisson/quantum.py",
        "original": "                    elif not _poly_mac(c, coeff, one if c2 is None else c2, capped).terms:\n"
                    "                        del done[new]\n",
        "mutant": "                    else:\n"
                  "                        _poly_mac(c, coeff, one if c2 is None else c2, capped)\n",
        "tests": ["tests/test_quantum.py::test_heap_scheduler_matches_min_scan"],
    },
    {
        "name": "reduce-h-bound-not-raised-on-merge",
        "file": "src/jetpoisson/quantum.py",
        "original": "entry[1] = max(entry[1], b)",
        "mutant": "pass",
        "tests": ["tests/test_quantum.py::test_heap_scheduler_matches_min_scan"],
    },
    # With no h cap the reduction still ends, because nc_reduce drops every
    # child above level h_order, and the terms above the order that it keeps
    # show; when only the cap ended a chain of tail terms, it never ended.
    {
        "name": "reduce-no-h-cap",
        "file": "src/jetpoisson/quantum.py",
        "original": "capped = cap if b > order else None",
        "mutant": "capped = None",
        "tests": ["tests/test_quantum.py::test_heap_scheduler_matches_min_scan"],
    },
    {
        "name": "scheduler-lowered-level-not-pushed-again",
        "file": "src/jetpoisson/quantum.py",
        "original": "                            entry[2] = lev\n"
                    "                            heapq.heappush(heaps[lev], new)\n",
        "mutant": "                            entry[2] = lev\n",
        "tests": ["tests/test_quantum.py::test_heap_scheduler_matches_min_scan"],
    },
    {
        "name": "scheduler-child-level-ignores-rule-degree",
        "file": "src/jetpoisson/quantum.py",
        "original": "lev = level + l2",
        "mutant": "lev = level",
        "tests": ["tests/test_quantum.py::test_graded_sets_rewrite_each_word_at_most_once",
                  "tests/test_quantum.py::test_heap_scheduler_matches_min_scan"],
    },
    {
        "name": "scheduler-level-drop-at-order",
        "file": "src/jetpoisson/quantum.py",
        "original": "if lev > order:",
        "mutant": "if lev >= order:",
        "tests": ["tests/test_quantum.py::test_packed_reduction_edges_match_min_scan",
                  "tests/test_quantum.py::test_heap_scheduler_matches_min_scan"],
    },
    {
        "name": "tensor-batch-reduces-an-empty-sum",
        "file": "src/jetpoisson/quantum.py",
        "original": "    if new:\n",
        "mutant": "    if True:\n",
        "tests": ["tests/test_quantum.py::test_batched_normal_forms_match_per_word_reduction"],
    },
    {
        "name": "tag-split-keeps-the-tag-power",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "out.setdefault(e, {})[key - (e << shift)] = c",
        "mutant": "out.setdefault(e, {})[key] = c",
        "tests": ["tests/test_quantum.py::test_batched_normal_forms_match_per_word_reduction",
                  "tests/test_quantum.py::test_tagged_reduction_splits_into_each_normal_form",
                  "tests/test_coeffpoly.py::test_coefficients_split_by_the_powers_of_a_variable"],
    },
    {
        "name": "coassoc-prefix-table-per-word",
        "file": "src/jetpoisson/quantum.py",
        "original": "in _delta_of_word(lw, deltas, R).items():",
        "mutant": "in _delta_of_word(lw, {}, R).items():",
        "tests": ["tests/test_quantum.py::test_coassociativity_builds_each_delta_prefix_once"],
    },
    {
        "name": "cybe-skip-needs-both-entries",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "if rk is None or a is None and b is None:",
        "mutant": "if rk is None or a is None or b is None:",
        "tests": ["tests/test_bialgebra.py::test_cybe_residual_matches_the_entrywise_formula"],
    },
    {
        "name": "cybe-reads-entries-below-the-range",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "c for (i, j), c in self.r.items() if i >= lo and j >= lo}",
        "mutant": "c for (i, j), c in self.r.items()}",
        "tests": ["tests/test_bialgebra.py::test_cybe_residual_matches_the_entrywise_formula"],
    },
    {
        "name": "cocycle-drops-the-top-level",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "weighted = ((top_m.get((i, j)), n - m),",
        "mutant": "weighted = ((None, n - m),",
        "tests": ["tests/test_bialgebra.py::test_cocycle_matches_the_entrywise_formula"],
    },
    {
        "name": "cocycle-reads-entries-outside-the-range",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "                  if alpha._in_range(i) and alpha._in_range(j)}\n",
        "mutant": "}\n",
        "tests": ["tests/test_bialgebra.py::test_cocycle_matches_the_entrywise_formula"],
    },
    {
        "name": "phi-table-mirror-added-twice",
        "file": "src/jetpoisson/cli.py",
        "original": "if (n, m) not in rows:\n",
        "mutant": "if True:\n",
        "tests": ["tests/test_report_cli.py::test_cli_phi_table_mirror_row_sets_the_entry_once"],
    },
    {
        "name": "phi-table-mirror-value-unchecked",
        "file": "src/jetpoisson/cli.py",
        "original": "elif entries[(n, m)] != -value:",
        "mutant": "elif False:",
        "tests": ["tests/test_report_cli.py::test_cli_bad_input_exits_2[table-mirror-not-negated]"],
    },
    {
        "name": "catalog-h-linear-sign-flipped",
        "file": "src/jetpoisson/quantum.py",
        "original": "table.add(word, _poly_finish(LaurentPoly({h_key: c}, bracket.den)))",
        "mutant": "table.add(word, -_poly_finish(LaurentPoly({h_key: c}, bracket.den)))",
        "tests": ["tests/test_quantum.py::test_catalog_tails_match_the_record",
                  "tests/test_quantum.py::test_quasiclassical_limits_match_bracket_tables"],
    },
    {
        "name": "catalog-R2-pinned-at-C2-4",
        "file": "src/jetpoisson/quantum.py",
        "original": "higher = _quadratic_higher(0, Fraction(9, 2), p[\"C\"])",
        "mutant": "higher = _quadratic_higher(0, 4, p[\"C\"])",
        "tests": ["tests/test_quantum.py::test_catalog_tails_match_the_record",
                  "tests/test_quantum.py::test_overlap_checks_for_shipped_sets"],
    },
    {
        "name": "catalog-R1-pbw-section-constant",
        "file": "src/jetpoisson/quantum.py",
        "original": "C3 * C3 * 2 + C3 * 36 + C4 * 4 - 38)",
        "mutant": "C3 * C3 * 2 + C3 * 36 + C4 * 4 - 37)",
        "tests": ["tests/test_quantum.py::test_catalog_tails_match_the_record",
                  "tests/test_quantum.py::test_overlap_checks_for_shipped_sets"],
    },
    {
        "name": "catalog-h2-term-dropped",
        "file": "src/jetpoisson/quantum.py",
        "original": " (2, -9, ((2, 1), (1, 3))),",
        "mutant": "",
        "tests": ["tests/test_quantum.py::test_catalog_tails_match_the_record"],
    },
    {
        "name": "extended-family-read-past-the-cut",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "return cochain_from_wedge_terms(terms, 0, N, max_index=N)",
        "mutant": "return cochain_from_wedge_terms(terms, 0, N)",
        "tests": ["tests/test_bialgebra.py::test_truncated_extended_family_is_a_cocycle"],
    },
    {
        "name": "invertible-rule-at-index-0",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "return (kind <= VarKind.GROUP_Z and index == 1) or kind == VarKind.AUX_T",
        "mutant": "return (kind <= VarKind.GROUP_Z and index == 0) or kind == VarKind.AUX_T",
        "tests": ["tests/test_coeffpoly.py::test_variable_identity_and_invertibility"],
    },
    {
        "name": "sub-adds-without-negating",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "return _poly_add(self, other, -1)",
        "mutant": "return _poly_add(self, other, 1)",
        "tests": ["tests/test_coeffpoly.py::test_cancellation_and_laurent_product",
                  "tests/test_coeffpoly.py::test_kernel_matches_naive_reference"],
    },
    {
        "name": "field-bracket-sign-flipped",
        "file": "src/jetpoisson/cli.py",
        "original": "lambda c: c * (a - b)",
        "mutant": "lambda c: c * (b - a)",
        "tests": ["tests/test_report_cli.py::test_cli_pass_and_exit_status"],
    },
    {
        "name": "compose-accepts-a-scalar-free-constant",
        "file": "src/jetpoisson/series.py",
        "original": "    if not c0.is_zero():\n",
        "mutant": "    if c0.constant_term():\n",
        "tests": ["tests/test_series.py::test_compose_rejects_plain_constant_term"],
    },
    {
        "name": "coefficient-reads-the-opposite-power",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "return self.coefficients(v).get(exp, _ZERO)",
        "mutant": "return self.coefficients(v).get(abs(exp), _ZERO)",
        "tests": ["tests/test_coeffpoly.py::test_kernel_matches_naive_reference"],
    },
    {
        "name": "substitute-forgets-to-invert",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "powed = pow_cache[ck] = repl ** ve",
        "mutant": "powed = pow_cache[ck] = repl ** abs(ve)",
        "tests": ["tests/test_coeffpoly.py::test_kernel_matches_naive_reference",
                  "tests/test_coeffpoly.py::test_substitute_examples"],
    },
    {
        "name": "classifier-determinant-sign-flipped",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "upper = (((m, n), a[m] * b[n] - a[n] * b[m])",
        "mutant": "upper = (((m, n), a[n] * b[m] - a[m] * b[n])",
        "tests": ["tests/test_bialgebra.py::test_classify_branch_forced_entries",
                  "tests/test_bialgebra.py::test_classify_g0_branch_formulas"],
    },
    {
        "name": "catalog-parameters-checked-only-in-the-suite",
        "file": "src/jetpoisson/cli.py",
        "original": "        qt.catalog_params(*_catalog_args(args))\n",
        "mutant": "        pass\n",
        "tests": ["tests/test_report_cli.py::test_cli_checks_out_before_any_suite_runs"],
    },
    {
        "name": "mac-keeps-cancelled-terms",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "            if n:\n                terms[k] = n\n            else:\n"
                    "                del terms[k]\n",
        "mutant": "            terms[k] = n\n",
        "tests": ["tests/test_coeffpoly.py::test_kernel_matches_naive_reference"],
    },
    {
        "name": "series-mul-slack-off-by-one",
        "file": "src/jetpoisson/series.py",
        "original": "slack |= (_TOP - 1 - bd) << (_FIELD * i)",
        "mutant": "slack |= (_TOP - bd) << (_FIELD * i)",
        "tests": ["tests/test_series.py::test_mul_matches_the_all_pairs_product"],
    },
    {
        "name": "congruence-without-the-antisymmetric-half",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "            W.setdefault(k, ([], []))[1].append((l, w))\n",
        "mutant": "",
        "tests": ["tests/test_poissonlie.py::test_multiplicativity_families_and_identity_substitution",
                  "tests/test_poissonlie.py::test_inversion_anti_poisson"],
    },
    {
        "name": "inversion-with-the-multiplicativity-sign",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "omega.omega)], sign=1)",
        "mutant": "omega.omega)], sign=-1)",
        "tests": ["tests/test_poissonlie.py::test_inversion_anti_poisson"],
    },
    {
        "name": "phi-table-exact-keeps-its-degree",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "None if exact else degree, provenance)",
        "mutant": "degree, provenance)",
        "tests": ["tests/test_poissonlie.py::test_extended_model_linear_structure",
                  "tests/test_acceptance.py::test_criterion_03_bracket_tables"],
    },
    {
        "name": "perturbed-drops-phi",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "omega, self.coord_kind, self.phi)",
        "mutant": "omega, self.coord_kind)",
        "tests": ["tests/test_poissonlie.py::test_perturbed_below_the_diagonal_and_on_it",
                  "tests/test_poissonlie.py::test_extended_multiplicativity_reads_the_given_table"],
    },
    {
        "name": "wedge-terms-not-halved",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "poly(c) / 2) for a, b, c in items)",
        "mutant": "poly(c)) for a, b, c in items)",
        "tests": ["tests/test_bialgebra.py::test_witt_linear_family",
                  "tests/test_bialgebra.py::test_sl2_pair"],
    },
    {
        "name": "extended-model-check-inverted",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "if start_index == 0 and phi.degree is not None:",
        "mutant": "if start_index == 0 and phi.degree is None:",
        "tests": ["tests/test_poissonlie.py::test_extended_model_linear_structure"],
    },
    {
        "name": "power-family-reads-degree",
        "file": "src/jetpoisson/cli.py",
        "original": "_PHI_READS = {\"power\": {\"d\"},",
        "mutant": "_PHI_READS = {\"power\": {\"d\", \"degree\"},",
        "tests": ["tests/test_report_cli.py::test_cli_bad_input_exits_2[power-unused-degree]",
                  "tests/test_report_cli.py::test_cli_reads_table_names_what_each_suite_reads"
                  "[poisson --n 2]"],
    },
    {
        "name": "product-keeps-cancelled-key",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "                elif not _poly_mac(acc, ca, cb, cap).terms:\n"
                    "                    del raw[key]\n",
        "mutant": "                else:\n                    _poly_mac(acc, ca, cb, cap)\n",
        "tests": ["tests/test_coeffpoly.py::test_product_matches_the_per_pair_loop"],
    },
    {
        "name": "masked-product-keeps-cancelled-key",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "                elif not _poly_mac(acc, ca, cb).terms:\n                    del raw[key]\n",
        "mutant": "                else:\n                    _poly_mac(acc, ca, cb)\n",
        "tests": ["tests/test_series.py::test_mul_matches_the_all_pairs_product"],
    },
    {
        "name": "mac-without-range-check",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "if b < 0 or b & top:",
        "mutant": "if False:",
        "tests": ["tests/test_coeffpoly.py::test_exponents_outside_the_key_range_raise",
                  "tests/test_coeffpoly.py::test_kernel_matches_naive_reference"],
    },
    {
        "name": "jacobi-flip-ignored",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "pairs.append((omega.bracket(a, i) if flip else omega.bracket(i, a), dv))",
        "mutant": "pairs.append((omega.bracket(i, a), dv))",
        "tests": ["tests/test_poissonlie.py::test_jacobi_matches_the_per_triple_loop",
                  "tests/test_poissonlie.py::test_jacobi_families_and_negative_control"],
    },
    {
        "name": "jacobi-skip-not-counted",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "            skipped += 1\n",
        "mutant": "            pass\n",
        "tests": ["tests/test_poissonlie.py::test_jacobi_matches_the_per_triple_loop"],
    },
    {
        "name": "multiplicativity-origin-fixing-without-y-part",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "table),\n         (_jacobian(z, VarKind.GROUP_Y, range(1, n + 1)),\n"
                    "          {kl: w.substitute(to_y) for kl, w in table.items()})])",
        "mutant": "table)])",
        "tests": ["tests/test_poissonlie.py::test_multiplicativity_families_and_identity_substitution",
                  "tests/test_poissonlie.py::test_jacobian_checks_match_the_minor_loops"],
    },
    {
        "name": "multiplicativity-extended-without-nilpotent-reduction",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "reduce=lambda p: jg.nilpotent_reduce(p, m))",
        "mutant": "reduce=None)",
        "tests": ["tests/test_poissonlie.py::test_extended_model_linear_structure",
                  "tests/test_poissonlie.py::test_jacobian_checks_match_the_minor_loops"],
    },
    {
        "name": "perturbed-accepts-the-diagonal",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "            raise ValueError(f\"cannot perturb the diagonal bracket ({i},{j})\")\n",
        "mutant": "            pass\n",
        "tests": ["tests/test_poissonlie.py::test_perturbed_below_the_diagonal_and_on_it"],
    },
    {
        "name": "within-never-filters",
        "file": "src/jetpoisson/series.py",
        "original": "if any(b < o for old in olds for b, o in zip(bounds, old)):",
        "mutant": "if False:",
        "tests": ["tests/test_series.py::test_sums_truncations_and_derivatives_match_make"],
    },
    {
        "name": "truncate-bounds-unchecked",
        "file": "src/jetpoisson/series.py",
        "original": "return _within(a.vars, _checked_bounds(a.vars, bounds), a.coeffs, a.bounds)",
        "mutant": "return _within(a.vars, tuple(bounds), a.coeffs, a.bounds)",
        "tests": ["tests/test_series.py::test_sums_truncations_and_derivatives_match_make"],
    },
    {
        "name": "finish-without-content-gcd",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "        g = gcd(den, *terms.values())\n",
        "mutant": "        g = 1\n",
        "tests": ["tests/test_coeffpoly.py::test_kernel_matches_naive_reference"],
    },
    {
        "name": "mac-merge-without-rescaling-the-accumulator",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "                    for k in terms:\n                        terms[k] *= m\n",
        "mutant": "",
        "tests": ["tests/test_coeffpoly.py::test_kernel_matches_naive_reference"],
    },
    {
        "name": "fresh-product-over-denominator-one",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "        acc.terms = terms = {}\n        acc.den = d\n",
        "mutant": "        acc.terms = terms = {}\n        acc.den = 1\n",
        "tests": ["tests/test_coeffpoly.py::test_kernel_matches_naive_reference"],
    },
    {
        "name": "hash-ignores-the-denominator",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "return hash((frozenset(self.terms.items()), self.den))",
        "mutant": "return hash(frozenset(self.terms.items()))",
        "tests": ["tests/test_coeffpoly.py::test_hash_agrees_with_equality"],
    },
    {
        "name": "render-order-cache-kept-on-re-rank",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "        _RENDERED.clear()  # every cached order holds the old ranks\n",
        "mutant": "",
        "tests": ["tests/test_coeffpoly.py::"
                  "test_render_orders_parameters_by_name_whatever_their_creation_order"],
    },
    {
        "name": "float-scalar-taken-as-its-binary-fraction",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "    raise TypeError(f\"not an exact scalar: {value!r}\")\n",
        "mutant": "    return Fraction(value).as_integer_ratio()\n",
        "tests": ["tests/test_coeffpoly.py::test_scalar_parts_are_checked"],
    },
    # Equivalent mutants: each changes no result, so the tests that run the
    # mutated code must still pass.
    {
        "name": "series-mul-filters-terms-past-the-bound",
        "file": "src/jetpoisson/series.py",
        "original": "pa = {_pack(e) + slack: c for e, c in a.coeffs.items()}",
        "mutant": "pa = {_pack(e) + slack: c for e, c in a.coeffs.items()\n"
                  "          if all(x <= bd for x, bd in zip(e, bounds))}",
        "tests": ["tests/test_series.py::test_mul_matches_the_all_pairs_product"],
        "equivalent": "a term of a past the common bound passes it in every pair, since the "
                      "other exponents are at least 0, so the mask already drops each pair "
                      "the filter would (it kept 111,212 of 111,212 pairs of a jet-poisson pass)",
    },
    {
        "name": "jacobi-boundary-tested-before-the-diagonal",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "                if i == a:\n                    continue\n"
                    "                if max(i, a) > omega.n:\n                    ok = False\n"
                    "                    break\n",
        "mutant": "                if max(i, a) > omega.n:\n                    ok = False\n"
                  "                    break\n                if i == a:\n                    continue\n",
        "tests": ["tests/test_poissonlie.py::test_jacobi_matches_the_per_triple_loop"],
        "equivalent": "a is one of the triple's indices, all at most n, so when i == a "
                      "the boundary test max(i, a) > n is false in either order",
    },
    {
        "name": "multiplicativity-extended-y-table-to-K-plus-1",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "for kl, w in table.items() if max(kl) <= K})],",
        "mutant": "for kl, w in table.items() if max(kl) <= K + 1})],",
        "tests": ["tests/test_poissonlie.py::test_jacobian_checks_match_the_minor_loops",
                  "tests/test_poissonlie.py::test_extended_multiplicativity_reads_the_given_table"],
        "equivalent": "z_i depends on y_k only for k <= i <= K, so an entry past K meets no "
                      "nonzero column of the y Jacobian",
    },
]


def _copy(dest: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def _pytest(root: Path, tests) -> str:
    """'pass', 'fail' or 'timeout' for the tests run in a copy at root."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode not in (0, 1):
        raise SystemExit(f"pytest could not run {tests}:\n{proc.stdout}{proc.stderr}")
    return "pass" if proc.returncode == 0 else "fail"


# (killed, marked equivalent) -> what the runner prints; upper case is a fault
_LABELS = {(True, False): "killed", (False, False): "SURVIVED",
           (False, True): "equivalent, survived", (True, True): "EQUIVALENT KILLED"}


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m["name"] in names]
    unknown = set(names) - {m["name"] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tests = sorted({t for m in chosen for t in m["tests"]})
        if _pytest(_copy(Path(tmp) / "base"), tests) != "pass":
            raise SystemExit("the listed tests fail on the unchanged code")
        wrong = 0
        for i, m in enumerate(chosen):
            root = _copy(Path(tmp) / f"m{i}")
            path = root / m["file"]
            text = path.read_text(encoding="utf-8")
            if text.count(m["original"]) != 1:
                raise SystemExit(f"{m['name']}: the original text does not occur exactly once")
            path.write_text(text.replace(m["original"], m["mutant"]), encoding="utf-8")
            outcome = _pytest(root, m["tests"])
            killed = outcome != "pass"
            equivalent = "equivalent" in m
            wrong += killed == equivalent
            print(f"{_LABELS[killed, equivalent]} ({outcome}) {m['name']}", flush=True)
    marked = sum("equivalent" in m for m in chosen)
    print(f"{len(chosen) - wrong} of {len(chosen)} mutants killed or marked equivalent "
          f"({marked} marked equivalent)")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
