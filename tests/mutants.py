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

The runner is slow (one pytest process per mutant, started without the
installed pytest plugins, which no test uses) and is not part of the test
suite; ``tests/test_mutants.py`` checks only that each entry still
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
        "original": "    cap = _h_cap(R.h_order)\n    raw: dict = {}\n    for (lw, rw), c in a.items():",
        "mutant": "    cap = None\n    raw: dict = {}\n    for (lw, rw), c in a.items():",
        "tests": ["tests/test_quantum.py::test_tensor_reduce_matches_the_per_pair_loop",
                  "tests/test_quantum.py::test_tensor_reduce_matches_the_per_term_loop"],
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
        "original": "                    del table[new]\n",
        "mutant": "                    pass\n",
        "tests": ["tests/test_quantum.py::test_heap_scheduler_matches_min_scan"],
    },
    {
        "name": "reduce-canonical-child-queued",
        "file": "src/jetpoisson/quantum.py",
        "original": "                        if ascent:\n"
                    "                            heapq.heappush(heaps[lev], new)\n",
        "mutant": "                        heapq.heappush(heaps[lev], new)\n",
        "tests": ["tests/test_quantum.py::test_heap_scheduler_matches_min_scan"],
    },
    {
        "name": "reduce-popped-word-kept",
        "file": "src/jetpoisson/quantum.py",
        "original": "coeff = table.pop(word)[0]",
        "mutant": "coeff = table[word][0]",
        "tests": ["tests/test_quantum.py::test_heap_scheduler_matches_min_scan"],
    },
    # With no h cap the reduction still ends, because nc_reduce drops every
    # child above level h_order, and the terms above the order that it keeps
    # show; when only the cap ended a chain of tail terms, it never ended.
    {
        "name": "reduce-no-h-cap",
        "file": "src/jetpoisson/quantum.py",
        "original": "cap, one = _h_cap(order), LaurentPoly.one()",
        "mutant": "cap, one = None, LaurentPoly.one()",
        "tests": ["tests/test_quantum.py::test_heap_scheduler_matches_min_scan"],
    },
    {
        "name": "scheduler-lowered-level-not-pushed-again",
        "file": "src/jetpoisson/quantum.py",
        "original": "                    entry[1] = lev\n"
                    "                    heapq.heappush(heaps[lev], new)\n",
        "mutant": "                    entry[1] = lev\n",
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
        "original": "for at in range(0, len(new), _HALF):",
        "mutant": "for at in range(0, len(new) + 1, _HALF):",
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
        "file": "src/jetpoisson/jetgroup.py",
        "original": "diff.add_all(X[a + b - 1], b - a)",
        "mutant": "diff.add_all(X[a + b - 1], a - b)",
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
        "original": "            W.setdefault(k, []).append((l, -w if sign > 0 else w))\n",
        "mutant": "",
        "tests": ["tests/test_poissonlie.py::test_multiplicativity_families_and_identity_substitution",
                  "tests/test_poissonlie.py::test_inversion_anti_poisson"],
    },
    {
        "name": "inversion-with-the-multiplicativity-sign",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "range(1, n + 1)))], sign=1)",
        "mutant": "range(1, n + 1)))], sign=-1)",
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
        "name": "mac-at-keeps-cancelled-key",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "    elif not _poly_mac(acc, p, q, cap).terms:\n        del raw[key]\n",
        "mutant": "    else:\n        _poly_mac(acc, p, q, cap)\n",
        "tests": ["tests/test_coeffpoly.py::test_product_matches_the_per_pair_loop",
                  "tests/test_series.py::test_mul_matches_the_all_pairs_product",
                  "tests/test_quantum.py::test_tensor_reduce_matches_the_per_term_loop"],
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
        "name": "first-failure-reports-the-last-nonzero-case",
        "file": "src/jetpoisson/report.py",
        "original": "            return failed(check, indices, residual if isinstance(residual, str)\n"
                    "                          else residual.render(), **params)\n"
                    "    return passed(check, **params)\n",
        "mutant": "            last = failed(check, indices, residual if isinstance(residual, str)\n"
                  "                          else residual.render(), **params)\n"
                  "    return locals().get(\"last\") or passed(check, **params)\n",
        "tests": ["tests/test_report_cli.py::test_field_bracket_reports_the_first_broken_pair",
                  "tests/test_report_cli.py::test_first_failure_takes_a_text_residual_as_it_is"],
    },
    {
        "name": "group-inverse-drops-the-left-order",
        "file": "src/jetpoisson/jetgroup.py",
        "original": "_differences(jet_compose(x, xb), e, n),\n"
                    "                                         _differences(jet_compose(xb, x), e, n)),",
        "mutant": "_differences(jet_compose(x, xb), e, n)),",
        "tests": ["tests/test_report_cli.py::test_group_inverse_checks_the_left_inverse"],
    },
    {
        "name": "cocycle-counts-checked-after-the-yield",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "                params[\"checked\"] += 1\n"
                    "                yield (n, m, i, j), LaurentPoly.sum_of_products(\n"
                    "                    (c, w) for c, w in weighted if c is not None)\n",
        "mutant": "                yield (n, m, i, j), LaurentPoly.sum_of_products(\n"
                  "                    (c, w) for c, w in weighted if c is not None)\n"
                  "                params[\"checked\"] += 1\n",
        "tests": ["tests/test_report_cli.py::test_golden_negative_controls"],
    },
    {
        "name": "counit-difference-taken-the-other-way",
        "file": "src/jetpoisson/quantum.py",
        "original": "_tensor_text(a[key] - b[key], key)",
        "mutant": "_tensor_text(b[key] - a[key], key)",
        "tests": ["tests/test_report_cli.py::test_a_broken_check_names_its_first_residual"],
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
        "original": "                params[\"skipped\"] += 1\n",
        "mutant": "                pass\n",
        "tests": ["tests/test_poissonlie.py::test_jacobi_matches_the_per_triple_loop"],
    },
    {
        "name": "multiplicativity-origin-fixing-without-y-part",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "range(1, n + 1))),\n         (_jacobian(z, VarKind.GROUP_Y, range(1, n + 1)),\n"
                    "          {kl: w.substitute(to_y) for kl, w in table.items()})])",
        "mutant": "range(1, n + 1)))])",
        "tests": ["tests/test_poissonlie.py::test_multiplicativity_families_and_identity_substitution",
                  "tests/test_poissonlie.py::test_jacobian_checks_match_the_minor_loops",
                  "tests/test_poissonlie.py::test_lu_weinstein_criterion_agrees_with_the_congruence"],
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
        "original": "                    if i == a:\n                        continue\n"
                    "                    if max(i, a) > omega.n:\n                        ok = False\n"
                    "                        break\n",
        "mutant": "                    if max(i, a) > omega.n:\n                        ok = False\n"
                  "                        break\n                    if i == a:\n"
                  "                        continue\n",
        "tests": ["tests/test_poissonlie.py::test_jacobi_matches_the_per_triple_loop"],
        "equivalent": "a is one of the triple's indices, all at most n, so when i == a "
                      "the boundary test max(i, a) > n is false in either order",
    },
    {
        "name": "multiplicativity-extended-y-table-to-K-plus-1",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "for kl, w in omega.omega.items() if max(kl) <= K})],",
        "mutant": "for kl, w in omega.omega.items() if max(kl) <= K + 1})],",
        "tests": ["tests/test_poissonlie.py::test_jacobian_checks_match_the_minor_loops",
                  "tests/test_poissonlie.py::test_extended_multiplicativity_reads_the_given_table"],
        "equivalent": "z_i depends on y_k only for k <= i <= K, so an entry past K meets no "
                      "nonzero column of the y Jacobian",
    },
    {
        "name": "first-failure-never-fails-a-text",
        "file": "src/jetpoisson/report.py",
        "original": "        if residual:\n",
        "mutant": "        if residual and not isinstance(residual, str):\n",
        "tests": ["tests/test_report_cli.py::test_first_failure_takes_a_text_residual_as_it_is"],
    },
    {
        "name": "cojacobi-counts-set-after-the-yield",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "                params.update(checked=checked + free_rank + 1,\n"
                    "                              skipped=skipped + rank - free_rank)\n"
                    "                yield (n,) + key, LaurentPoly.sum_of_products(rows[key])\n",
        "mutant": "                yield (n,) + key, LaurentPoly.sum_of_products(rows[key])\n"
                  "                params.update(checked=checked + free_rank + 1,\n"
                  "                              skipped=skipped + rank - free_rank)\n",
        "tests": ["tests/test_bialgebra.py::test_cojacobi_counts_a_failure_at_a_later_level"],
    },
    {
        "name": "quasiclassical-skips-the-h-free-case",
        "file": "src/jetpoisson/quantum.py",
        "original": "            yield (i, j), \"\" if order0.is_zero() else f\"h-free part {order0.render()}\"\n",
        "mutant": "",
        "tests": ["tests/test_report_cli.py::test_a_failure_branch_keeps_its_record"
                  "[verify_quasiclassical-commutator_normal_form]"],
    },
    {
        "name": "rr-invariance-acts-only-at-m-0",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "for m in range(3):",
        "mutant": "for m in range(1):",
        "tests": ["tests/test_report_cli.py::test_a_failure_branch_keeps_its_record"
                  "[verify_rr_invariance-adjoint_action]"],
    },
    {
        "name": "beta-skips-the-series",
        "file": "src/jetpoisson/bialgebra.py",
        "original": "            yield (n,) + exps, diff[exps]\n",
        "mutant": "",
        "tests": ["tests/test_report_cli.py::test_a_failure_branch_keeps_its_record"
                  "[beta_correspondence-derivative]"],
    },
    {
        "name": "field-bracket-builds-a-field-per-pair",
        "file": "src/jetpoisson/jetgroup.py",
        "original": "diff = vf_commutator(X[a], X[b])",
        "mutant": "diff = vf_commutator(left_invariant_field(a, n), X[b])",
        "tests": ["tests/test_report_cli.py::test_group_suite_builds_each_left_invariant_field_once"],
    },
    {
        "name": "key-field-without-carry-headroom",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "_HALF = 1 << (_FIELD - 2)",
        "mutant": "_HALF = 1 << (_FIELD - 1)",
        "tests": ["tests/test_coeffpoly.py::test_exponents_outside_the_key_range_raise"],
    },
    {
        "name": "range-check-moved-to-finish",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "                if b < 0 or b & top:\n"
                    "                    raise _overflow()\n"
                    "                if cap is None or b >> cap[0] & _MASK <= cap[1]:\n"
                    "                    terms[k] = na * nb\n"
                    "                continue\n"
                    "            n = cur + na * nb\n"
                    "            if n:\n"
                    "                terms[k] = n\n"
                    "            else:\n"
                    "                del terms[k]\n"
                    "    return acc\n"
                    "\n"
                    "\n"
                    "def _poly_finish(acc):\n"
                    "    \"\"\"A raw `LaurentPoly` made canonical, in place: the content its\n"
                    "    numerators share with the denominator is divided out once.\"\"\"\n",
        "mutant": "                if cap is None or b >> cap[0] & _MASK <= cap[1]:\n"
                  "                    terms[k] = na * nb\n"
                  "                continue\n"
                  "            n = cur + na * nb\n"
                  "            if n:\n"
                  "                terms[k] = n\n"
                  "            else:\n"
                  "                del terms[k]\n"
                  "    return acc\n"
                  "\n"
                  "\n"
                  "def _poly_finish(acc):\n"
                  "    for k in acc.terms:\n"
                  "        _checked(k)\n",
        "tests": ["tests/test_coeffpoly.py::test_exponents_outside_the_key_range_raise"],
    },
    {
        "name": "h-cap-tested-only-on-merge",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "                if cap is None or b >> cap[0] & _MASK <= cap[1]:\n"
                    "                    terms[k] = na * nb\n"
                    "                continue\n"
                    "            n = cur + na * nb\n",
        "mutant": "                terms[k] = na * nb\n"
                  "                continue\n"
                  "            if cap is not None and (k + bias) >> cap[0] & _MASK > cap[1]:\n"
                  "                continue\n"
                  "            n = cur + na * nb\n",
        "tests": ["tests/test_coeffpoly.py::test_product_matches_the_per_pair_loop",
                  "tests/test_quantum.py::test_tensor_reduce_matches_the_per_pair_loop"],
    },
    {
        "name": "sum-of-products-start-not-copied",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "LaurentPoly(dict(start.terms), start.den)",
        "mutant": "start",
        "tests": ["tests/test_coeffpoly.py::test_sum_of_products_leaves_start_unchanged"],
    },
    {
        "name": "congruence-residual-drops-the-lhs",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "for J, U in rows for l, d in J[j].items() if l in U), lhs(i, j))",
        "mutant": "for J, U in rows for l, d in J[j].items() if l in U))",
        "tests": ["tests/test_poissonlie.py::test_multiplicativity_families_and_identity_substitution",
                  "tests/test_poissonlie.py::test_jacobian_checks_match_the_minor_loops"],
    },
    {
        "name": "tensor-batch-one-tag-too-many",
        "file": "src/jetpoisson/quantum.py",
        "original": "batch = new[at:at + _HALF]",
        "mutant": "batch = new[at:at + _HALF + 1]",
        "tests": ["tests/test_quantum.py::test_tensor_reduce_batches_more_new_words_than_a_tag_power_holds"],
    },
    {
        "name": "variable-lower-bound-unchecked",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "        if index < _MIN_INDEX:\n"
                    "            raise ValueError(f\"variable index {index} below minimum {_MIN_INDEX}\")\n",
        "mutant": "",
        "tests": ["tests/test_coeffpoly.py::test_variable_index_beyond_its_kind_rejected"],
    },
    {
        "name": "variable-upper-bound-off-by-one",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "if index - _MIN_INDEX >= _STRIDE:",
        "mutant": "if index - _MIN_INDEX > _STRIDE:",
        "tests": ["tests/test_coeffpoly.py::test_variable_index_beyond_its_kind_rejected"],
    },
    {
        "name": "perturbed-sign-kept-below-the-diagonal",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "omega.add((min(i, j), max(i, j)), delta if i < j else -delta)",
        "mutant": "omega.add((min(i, j), max(i, j)), delta)",
        "tests": ["tests/test_poissonlie.py::test_perturbed_below_the_diagonal_and_on_it"],
    },
    {
        "name": "multiplicativity-extended-without-y-part",
        "file": "src/jetpoisson/poissonlie.py",
        "original": ", table),\n"
                    "         (_jacobian(z, VarKind.GROUP_Y, range(0, K + 1)),\n"
                    "          {kl: w.substitute(to_y) for kl, w in omega.omega.items()"
                    " if max(kl) <= K})],",
        "mutant": ", table)],",
        "tests": ["tests/test_poissonlie.py::test_extended_model_linear_structure",
                  "tests/test_poissonlie.py::test_extended_multiplicativity_reads_the_given_table"],
    },
    {
        "name": "congruence-row-not-refreshed",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "Ji, U = J[i], {}",
        "mutant": "Ji, U = J[lo], {}",
        "tests": ["tests/test_poissonlie.py::test_multiplicativity_families_and_identity_substitution",
                  "tests/test_poissonlie.py::test_jacobian_checks_match_the_minor_loops"],
    },
    {
        "name": "frozen-record-assignable",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "    def __setattr__(self, name, value=None):\n"
                    "        raise AttributeError(f\"{type(self).__name__} is read-only: cannot set or "
                    "delete {name!r}\")\n\n"
                    "    __delattr__ = __setattr__\n",
        "mutant": "",
        "tests": ["tests/test_coeffpoly.py::test_records_are_read_only_and_equal_by_fields"],
    },
    {
        "name": "frozen-record-equal-by-first-field",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "getattr(other, f) for f in self._fields)",
        "mutant": "getattr(other, f) for f in self._fields[:1])",
        "tests": ["tests/test_coeffpoly.py::test_records_are_read_only_and_equal_by_fields"],
    },
    {
        "name": "jacobi-reads-jl-as-kl",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "(k, (j, l), True)",
        "mutant": "(k, (k, l), True)",
        "tests": ["tests/test_poissonlie.py::test_jacobi_matches_the_per_triple_loop"],
    },
    {
        "name": "congruence-skips-the-last-row",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "for i in range(lo, hi):  # the last i pairs with no j",
        "mutant": "for i in range(lo, hi - 1):",
        "tests": ["tests/test_poissonlie.py::test_jacobian_checks_match_the_minor_loops"],
    },
    {
        "name": "within-filters-with-less-than",
        "file": "src/jetpoisson/series.py",
        "original": "if all(e <= b for e, b in zip(exps, bounds)):",
        "mutant": "if all(e < b for e, b in zip(exps, bounds)):",
        "tests": ["tests/test_series.py::test_sums_truncations_and_derivatives_match_make"],
    },
    {
        "name": "extended-family-sign-flipped-below-the-first-row",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "(1 if m == 1 else Fraction(-1, d - 1))",
        "mutant": "(1 if m == 1 else Fraction(1, d - 1))",
        "tests": ["tests/test_poissonlie.py::test_extended_family_matches_its_series_expansion"],
    },
    {
        # c(1, n) = d - 1 not divided by d - 1: equal to the table at d = 2,
        # which is all that branch-d-geometric-specialization compares
        "name": "extended-family-first-row-undivided",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "(1 if m == 1 else Fraction(-1, d - 1))",
        "mutant": "(d - 1 if m == 1 else Fraction(-1, d - 1))",
        "tests": ["tests/test_poissonlie.py::test_extended_family_matches_its_series_expansion"],
    },
    {
        "name": "mac-cap-skipped",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "if cap is None or b >> cap[0] & _MASK <= cap[1]:",
        "mutant": "if True:",
        "tests": ["tests/test_coeffpoly.py::test_product_matches_the_per_pair_loop",
                  "tests/test_quantum.py::test_tensor_reduce_matches_the_per_pair_loop",
                  "tests/test_quantum.py::test_heap_scheduler_matches_min_scan"],
    },
    {
        # the product is brought to the lcm only when the accumulator is too,
        # so a product over a divisor of the accumulator's denominator is not
        "name": "mac-divisible-denominator-sum-unscaled",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "                    acc.den = den\n"
                    "                if den != d:\n"
                    "                    m = den // d\n"
                    "                    pt = {k: n * m for k, n in pt.items()}\n",
        "mutant": "                    acc.den = den\n"
                  "                    if den != d:\n"
                  "                        m = den // d\n"
                  "                        pt = {k: n * m for k, n in pt.items()}\n",
        "tests": ["tests/test_coeffpoly.py::test_kernel_matches_naive_reference"],
    },
    {
        "name": "series-mul-slack-off-by-one-the-other-way",
        "file": "src/jetpoisson/series.py",
        "original": "slack |= (_TOP - 1 - bd) << (_FIELD * i)",
        "mutant": "slack |= (_TOP - 2 - bd) << (_FIELD * i)",
        "tests": ["tests/test_series.py::test_mul_matches_the_all_pairs_product"],
    },
    {
        "name": "series-mul-top-bit-dropped-for-variable-0",
        "file": "src/jetpoisson/series.py",
        "original": "top |= _TOP << (_FIELD * i)",
        "mutant": "top |= 0 if i == 0 else _TOP << (_FIELD * i)",
        "tests": ["tests/test_series.py::test_mul_matches_the_all_pairs_product"],
    },
    {
        "name": "series-mul-top-bit-dropped-for-variable-1",
        "file": "src/jetpoisson/series.py",
        "original": "top |= _TOP << (_FIELD * i)",
        "mutant": "top |= 0 if i == 1 else _TOP << (_FIELD * i)",
        "tests": ["tests/test_series.py::test_mul_matches_the_all_pairs_product"],
    },
    {
        "name": "series-mul-top-bit-dropped-for-variable-2",
        "file": "src/jetpoisson/series.py",
        "original": "top |= _TOP << (_FIELD * i)",
        "mutant": "top |= 0 if i == 2 else _TOP << (_FIELD * i)",
        "tests": ["tests/test_series.py::test_mul_matches_the_all_pairs_product"],
    },
    {
        "name": "substitute-drops-the-leftover-monomial",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "            if leftover or not powers:\n",
        "mutant": "            if not powers:\n",
        "tests": ["tests/test_coeffpoly.py::test_kernel_matches_naive_reference"],
    },
    {
        "name": "substitute-folds-the-leftover-into-the-first-factor",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "            if leftover or not powers:\n"
                    "                powers.append(LaurentPoly({leftover: 1}, 1))\n"
                    "            factor = LaurentPoly({0: num}, self.den)\n",
        "mutant": "            if not powers:\n"
                  "                powers.append(_ONE)\n"
                  "            factor = LaurentPoly({leftover: num}, self.den)\n",
        "tests": ["tests/test_coeffpoly.py::test_kernel_matches_naive_reference"],
    },
    {
        "name": "substitute-intermediate-keys-unchecked",
        "file": "src/jetpoisson/coeffpoly.py",
        "original": "                factor = _poly_mac(None, factor, powed)\n",
        "mutant": "                factor = LaurentPoly({k + kp: n * np for k, n in factor.terms.items()\n"
                  "                                      for kp, np in powed.terms.items()},\n"
                  "                                     factor.den * powed.den)\n",
        "tests": ["tests/test_coeffpoly.py::test_kernel_matches_naive_reference"],
    },
    {
        "name": "within-filters-against-the-first-operand-only",
        "file": "src/jetpoisson/series.py",
        "original": "for old in olds for b, o in zip(bounds, old)",
        "mutant": "for old in olds[:1] for b, o in zip(bounds, old)",
        "tests": ["tests/test_series.py::test_sums_truncations_and_derivatives_match_make"],
    },
    {
        "name": "lu-weinstein-without-the-test-at-e",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "    if any(omega.bracket(*ij).drop_high_degree(others, 0).substitute({x_var(1): 1})\n"
                    "           for ij in pairs):\n        return None\n",
        "mutant": "",
        "tests": ["tests/test_poissonlie.py::test_lu_weinstein_criterion_agrees_with_the_congruence"],
        "equivalent": "J(e) is the identity, so at e the k = 1 congruence reads "
                      "d_1 pi^{ij}(e) - (i + j) pi^{ij}(e) against its value d_1 pi^{ij}(e) "
                      "and fails every table with pi(e) != 0; the test only exits early",
    },
    {
        "name": "lu-weinstein-without-the-first-pi-dX-term",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "((i - k + 1, j, i - k + 1), (i, j - k + 1, j - k + 1))",
        "mutant": "((i, j - k + 1, j - k + 1),)",
        "tests": ["tests/test_poissonlie.py::test_lu_weinstein_criterion_agrees_with_the_congruence",
                  "tests/test_poissonlie.py::test_passing_tables_skip_the_congruence"],
    },
    {
        "name": "lu-weinstein-without-the-second-pi-dX-term",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "((i - k + 1, j, i - k + 1), (i, j - k + 1, j - k + 1))",
        "mutant": "((i - k + 1, j, i - k + 1),)",
        "tests": ["tests/test_poissonlie.py::test_lu_weinstein_criterion_agrees_with_the_congruence",
                  "tests/test_poissonlie.py::test_passing_tables_skip_the_congruence"],
    },
    {
        "name": "lu-weinstein-without-the-X-pi-term",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "[(X[k][m], d) for m, d in grads[i, j] if m in X[k]]\n            + ",
        "mutant": "",
        "tests": ["tests/test_poissonlie.py::test_lu_weinstein_criterion_agrees_with_the_congruence",
                  "tests/test_poissonlie.py::test_passing_tables_skip_the_congruence"],
    },
    {
        "name": "lu-weinstein-without-X3",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "for k in range(1, min(n, 3) + 1):",
        "mutant": "for k in range(1, min(n, 2) + 1):",
        "tests": ["tests/test_poissonlie.py::test_lu_weinstein_criterion_agrees_with_the_congruence"],
    },
    {
        "name": "drinfeld-without-cojacobi",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "        if any(LaurentPoly.sum_of_products(pairs) for pairs in sums.values()):\n"
                    "            return False\n",
        "mutant": "",
        "tests": ["tests/test_poissonlie.py::test_drinfeld_criterion_agrees_with_the_triple_scan"],
    },
    {
        "name": "drinfeld-without-lu-weinstein",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "lin = omega.lu_weinstein(top) if",
        "mutant": "lin = linear_part(omega, top) if",
        "tests": ["tests/test_poissonlie.py::test_drinfeld_criterion_agrees_with_the_triple_scan"],
    },
    {
        "name": "cojacobi-at-e-drops-a-cyclic-term",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):",
        "mutant": "for a, b, z in ((i, j, k), (j, k, i)):",
        "tests": ["tests/test_poissonlie.py::test_drinfeld_criterion_agrees_with_the_triple_scan",
                  "tests/test_poissonlie.py::test_passing_tables_skip_the_jacobi_scan"],
    },
    {
        "name": "linear-part-without-the-x1-column",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "{v.index: c for v, c in w.linear_part(unit, others).items()}",
        "mutant": "{v.index: c for v, c in w.linear_part(unit, others).items() if v.index > 1}",
        "tests": ["tests/test_poissonlie.py::test_linear_part_is_the_derivative_at_e",
                  "tests/test_poissonlie.py::test_passing_tables_skip_the_jacobi_scan"],
    },
    {
        "name": "drinfeld-checked-off-by-one",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "params[\"checked\"] = math.comb(max(top, 0), 3)",
        "mutant": "params[\"checked\"] = math.comb(max(top, 0), 3) + 1",
        "tests": ["tests/test_poissonlie.py::test_drinfeld_criterion_agrees_with_the_triple_scan",
                  "tests/test_poissonlie.py::test_passing_tables_skip_the_jacobi_scan"],
    },
    {
        "name": "drinfeld-takes-stray-coordinates-for-constants",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "    if any(not 1 <= m <= n for grad in grads.values() for m, _ in grad):\n"
                    "        return None\n",
        "mutant": "",
        "tests": ["tests/test_poissonlie.py::test_drinfeld_criterion_agrees_with_the_triple_scan"],
    },
    {
        "name": "drinfeld-reads-any-coordinate-kind",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "    if omega.coord_kind is not VarKind.GROUP_X:\n        return None\n",
        "mutant": "",
        "tests": ["tests/test_poissonlie.py::test_drinfeld_criterion_agrees_with_the_triple_scan"],
        "equivalent": "read with the x fields, the k = 1 Lie derivative of a table of another "
                      "kind is sum_m m x_m d_{v_m} pi^{ij} - (i + j) pi^{ij}, and its top degree "
                      "in the v's must vanish against a v-free value, so only a table that is "
                      "zero on i, j <= n passes, and its records are those of the direct checks",
    },
    {
        "name": "lu-weinstein-reads-column-k-plus-1",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "value = {ij: row[k] for ij, row in lin.items() if k in row}",
        "mutant": "value = {ij: row[k + 1] for ij, row in lin.items() if k + 1 in row}",
        "tests": ["tests/test_poissonlie.py::test_lu_weinstein_criterion_agrees_with_the_congruence",
                  "tests/test_poissonlie.py::test_passing_tables_skip_the_congruence"],
    },
    {
        "name": "lu-weinstein-guard-takes-x0-and-x-n-plus-1",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "if any(not 1 <= m <= n for grad",
        "mutant": "if any(not 0 <= m <= n + 1 for grad",
        "tests": ["tests/test_poissonlie.py::test_drinfeld_criterion_agrees_with_the_triple_scan"],
    },
    {
        "name": "multiplicativity-y-table-not-renamed",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "    if kind is VarKind.GROUP_X:\n        return table\n",
        "mutant": "    return table\n",
        "tests": ["tests/test_poissonlie.py::test_tables_in_y_coordinates_are_the_x_tables_renamed"],
    },
    {
        "name": "tensor-multiply-without-h-cap",
        "file": "src/jetpoisson/quantum.py",
        "original": "            _mac_at(raw, (la + lb, ra + rb), ca, cb, cap)",
        "mutant": "            _mac_at(raw, (la + lb, ra + rb), ca, cb, None)",
        "tests": ["tests/test_quantum.py::test_h_truncation_kills_deep_terms"],
    },
    {
        "name": "right-invariant-field-off-by-one-power",
        "file": "src/jetpoisson/jetgroup.py",
        "original": "fields = {0: Combination({0: 1})}",
        "mutant": "fields = {0: Combination(x)}",
        "tests": ["tests/test_poissonlie.py::test_contraction_equals_the_series_route",
                  "tests/test_jetgroup.py::test_right_invariant_fields_are_the_powers_of_the_jet"],
    },
    {
        "name": "density-field-without-the-lam-m-term",
        "file": "src/jetpoisson/density.py",
        "original": "x[i - m + 1] * (lam * m + (i - m + 1))",
        "mutant": "x[i - m + 1] * (i - m + 1)",
        "tests": ["tests/test_density.py::test_contraction_equals_the_series_route"],
    },
    {
        "name": "sklyanin-bracket-adds-the-right-part",
        "file": "src/jetpoisson/poissonlie.py",
        "original": "(left, 1), (right, -1)",
        "mutant": "(left, 1), (right, 1)",
        "tests": ["tests/test_poissonlie.py::test_contraction_equals_the_series_route",
                  "tests/test_poissonlie.py::test_sklyanin_tables_are_multiplicative"],
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
            cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src"),
                           "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"},
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
