"""Cochain layer: structure constants, cocycle / co-Jacobi systems,
coboundaries, Yang-Baxter residuals, the tangent correspondence and the
classification recursions."""

import itertools
import random
from fractions import Fraction

import pytest

from jetpoisson import bialgebra as ba
from jetpoisson import poissonlie as pl
from jetpoisson import report as rep
from jetpoisson.coeffpoly import LaurentPoly, param


def test_witt_structure_constants():
    assert ba.witt_structure_constant(1, -1, 0) == 2
    assert ba.witt_structure_constant(5, 5, 10) == 0
    assert ba.witt_structure_constant(2, 3, 5) == -1
    # the constant vanishes off level a + b, on every triple that a full sum
    # over the levels m in -2..17 would evaluate
    c = ba.witt_structure_constant
    for a, b, m in itertools.chain(
            itertools.product(range(-1, 9), range(-1, 9), range(-2, 18)),
            itertools.product(range(-2, 18), range(-1, 9), range(-1, 17))):
        if m != a + b:
            assert c(a, b, m) == 0, (a, b, m)
    # so the Jacobi identity on every triple up to 8 sums over that level alone
    for i, j, k in itertools.product(range(-1, 9), repeat=3):
        for n in range(-1, 17):
            assert (c(i, j, i + j) * c(i + j, k, n) + c(j, k, j + k) * c(j + k, i, n)
                    + c(k, i, k + i) * c(k + i, j, n)) == 0


def test_witt_a_sequence_values():
    seq = ba.witt_a_sequence(7)
    assert seq[:5] == [Fraction(1), Fraction(3), Fraction(5),
                       Fraction(64, 9), Fraction(28, 3)]
    # The recursion forces a_7 = 1049/90.  The published value list
    # has 451/45 there, which contradicts the recursion the same
    # lemma states (and the redundant relations the text asserts hold);
    # see the consistency test below and the decisions log.
    assert seq[5] == Fraction(1049, 90)


def test_witt_a_sequence_consistency_relations():
    # Independent redundancy check: with A_n built from the partial sums of
    # the sequence, (n-1) A_{n+1} = (n-2) A_1 + n A_n must hold identically.
    # It does for the recursion's values and fails for the printed 451/45.
    seq = {k: v for k, v in zip(range(2, 8), ba.witt_a_sequence(7))}

    def A(n, a7):
        vals = dict(seq)
        vals[7] = a7
        return Fraction(-1, n + 2) * (1 + sum(vals[i] for i in range(2, n + 1)))

    a1 = Fraction(-1, 3)
    for a7, should_hold in ((Fraction(1049, 90), True), (Fraction(451, 45), False)):
        holds = all((n - 1) * A(n + 1, a7) == (n - 2) * a1 + n * A(n, a7)
                    for n in range(2, 7))
        assert holds == should_hold, a7


def test_coboundary_of_monomial_r_matrices():
    for d in (1, 2, 3, 4, 5):
        r = ba.r_from_phi(pl.phi_power_family(d))
        cochain = ba.coboundary(r, 16)
        assert ba.verify_cocycle(cochain, 8).passed, d
        assert ba.verify_cojacobi(cochain, 8).passed, d
        # boundary-policy consequences: no e_0-diagonal term above level 1
        for n in range(2, 9):
            assert cochain.entry(n, 0, n).is_zero(), (d, n)


def test_coboundary_of_random_r_is_a_cocycle():
    rng = random.Random(5)
    entries = {(i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
               for i in range(0, 4) for j in range(i + 1, 5)}
    r = ba.rmatrix_from_entries(entries, 0)
    cochain = ba.coboundary(r, 16)
    cocycle = ba.verify_cocycle(cochain, 8)
    assert cocycle.passed and cocycle.params["checked"] == 3760
    # negative control: a random r does not satisfy the CYBE, so its
    # coboundary is a cocycle that breaks co-Jacobi
    cojacobi = ba.verify_cojacobi(cochain, 8)
    assert not cojacobi.passed
    assert cojacobi.witness["indices"] == [0, 0, 1, 5]


def test_zero_cochain_passes_everything():
    zero = ba.WedgeCochain(0, {}, 8)
    assert ba.verify_cocycle(zero, 6).passed
    assert ba.verify_cojacobi(zero, 6).passed


def test_cocycle_negative_control():
    r = ba.r_from_phi(pl.phi_power_family(1))
    cochain = ba.coboundary(r, 12)
    alpha = {n: dict(t) for n, t in cochain.alpha.items()}
    alpha[3][(2, 5)] = alpha[3].get((2, 5), LaurentPoly.zero()) + LaurentPoly.const(1)
    alpha[3][(5, 2)] = alpha[3].get((5, 2), LaurentPoly.zero()) - LaurentPoly.const(1)
    bad = ba.WedgeCochain(0, alpha, 12)
    report = ba.verify_cocycle(bad, 8)
    assert not report.passed
    assert 3 in (report.witness["indices"][0] + report.witness["indices"][1],
                 report.witness["indices"][0], report.witness["indices"][1])


def test_cojacobi_negative_control():
    alpha = {0: {(1, 2): LaurentPoly.one(), (2, 1): -LaurentPoly.one()},
             1: {(0, 1): LaurentPoly.one(), (1, 0): -LaurentPoly.one()},
             2: {(0, 2): LaurentPoly.one(), (2, 0): -LaurentPoly.one()}}
    bad = ba.WedgeCochain(0, alpha, 2)
    report = ba.verify_cojacobi(bad, 2)
    assert not report.passed


def _antisymmetric(entries):
    table = {}
    for (i, j), c in entries.items():
        table[(i, j)] = c
        table[(j, i)] = -c
    return table


def _control_alpha():
    """The golden co-Jacobi negative control (tests/golden/cojacobi.json)."""
    one = LaurentPoly.one()
    return {0: _antisymmetric({(1, 2): one}), 1: _antisymmetric({(0, 1): one}),
            2: _antisymmetric({(0, 2): one})}


def _reference_cojacobi(alpha, N):
    """The co-Jacobi scan before the per-level index: a ``paired`` list per
    term position and two ``entry`` reads per term."""
    lo = alpha.min_index
    top = min(N, alpha.upper)
    support = [i for i in alpha.lower_support() if alpha._in_range(i)]
    params = {"N": N, "min_index": lo, "levels": top}
    checked = skipped = 0

    def paired(n, first):
        return [j for (a, j) in alpha.alpha.get(n, {}) if a == first]

    for n in range(lo, top + 1):
        for (i, s, p) in itertools.product(support, repeat=3):
            residual = LaurentPoly.zero()
            ok = True
            for first, pair in ((i, (s, p)), (p, (i, s)), (s, (p, i))):
                for j in paired(n, first):
                    if j > alpha.upper:
                        ok = False
                        break
                    residual = residual + alpha.entry(n, first, j) * alpha.entry(j, *pair)
                if not ok:
                    break
            if not ok:
                skipped += 1
                continue
            checked += 1
            if not residual.is_zero():
                params.update(checked=checked, skipped=skipped)
                return rep.failed("cojacobi", (n, i, s, p), residual.render(), **params)
    params.update(checked=checked, skipped=skipped)
    return rep.passed("cojacobi", **params)


def _random_cochain(rng):
    """A plain-dict cochain with levels and partners past ``upper`` and below
    ``min_index``, stored zeros, unstored levels, and sometimes a
    ``max_index``; returned with a level bound N that may exceed ``upper``."""
    lo = rng.randint(-1, 1)
    upper = lo + rng.randint(1, 3)
    max_index = rng.choice((None, None, upper - 1, upper, upper + 1))
    C = LaurentPoly.var(param("C"))
    values = (LaurentPoly.zero(), LaurentPoly.one(), -LaurentPoly.one(),
              LaurentPoly.const(2), C, C - 1)
    alpha = {}
    for n in range(lo - 1, upper + 3):
        if rng.random() < 0.25:
            continue
        entries = {}
        for _ in range(rng.randint(0, 5)):
            i, j = (rng.randint(lo - 1, upper + 2) if rng.random() < 0.2
                    else rng.randint(lo, upper) for _ in range(2))
            if i != j:
                entries[(i, j)] = rng.choice(values)
        alpha[n] = _antisymmetric(entries)
    return ba.WedgeCochain(lo, alpha, upper, max_index), rng.randint(lo, upper + 1)


def test_cojacobi_scan_matches_reference():
    cases = [(ba.coboundary(ba.r_from_phi(pl.phi_power_family(d)), 12), 7)
             for d in range(1, 6)]
    cases += [(cochain, 1) for cochain in ba.sl2_pair()]
    cases.append((ba.WedgeCochain(0, _control_alpha(), 2), 2))
    rng = random.Random(2024)
    cases += [_random_cochain(rng) for _ in range(200)]
    seen = {"fail": 0, "skip": 0, "skip-and-fail": 0, "max_index": 0}
    for cochain, N in cases:
        want = _reference_cojacobi(cochain, N).to_dict()
        assert ba.verify_cojacobi(cochain, N).to_dict() == want, (cochain, N)
        failed, skipped = want["status"] == "fail", want["params"]["skipped"] > 0
        seen["fail"] += failed
        seen["skip"] += skipped
        seen["skip-and-fail"] += failed and skipped
        seen["max_index"] += cochain.max_index is not None
    # the sample keeps reaching every branch of the scan
    assert seen["fail"] >= 40 and seen["skip"] >= 40
    assert seen["skip-and-fail"] >= 5 and seen["max_index"] >= 60


def test_cojacobi_skips_tuples_past_upper_and_still_reports_failure():
    one = LaurentPoly.one()
    # a^0_{35} needs level 5 > upper: every quadruple at level 0 with 3 or 5
    # in it is skipped; the control still fails at (0, 0, 1, 2), after the
    # skipped (0, 0, 0, 3) and (0, 0, 0, 5)
    alpha = _control_alpha()
    alpha[0].update(_antisymmetric({(3, 5): one}))
    report = ba.verify_cojacobi(ba.WedgeCochain(0, alpha, 2), 2)
    assert not report.passed
    assert report.witness == {"indices": [0, 0, 1, 2], "residual": "-2"}
    assert (report.params["checked"], report.params["skipped"]) == (6, 2)
    # alone, the reaching entry skips all 8 quadruples at level 0 and leaves
    # the 8 at each unstored level 1 and 2 checked
    report = ba.verify_cojacobi(ba.WedgeCochain(0, {0: _antisymmetric({(3, 5): one})}, 2), 2)
    assert report.passed
    assert (report.params["checked"], report.params["skipped"]) == (16, 8)


def test_cojacobi_counts_a_failure_at_a_later_level():
    one = LaurentPoly.one()
    # support {0, 1, 3, 5, 7}.  Level 0 reaches past upper from 3 and 5: 27
    # quadruples checked, 98 skipped.  Level 1 is unstored: 125 checked.
    # Level 2 reaches from 0, and a^2_{10} a^0_{35} fails first at (1, 3, 5),
    # 38th of the 125 support triples and 6th of the 64 free ones
    alpha = {0: _antisymmetric({(3, 5): one}), 2: _antisymmetric({(0, 1): one, (0, 7): one})}
    cochain = ba.WedgeCochain(0, alpha, 2)
    report = ba.verify_cojacobi(cochain, 2)
    assert report.to_dict() == _reference_cojacobi(cochain, 2).to_dict()
    assert report.witness == {"indices": [2, 1, 3, 5], "residual": "-1"}
    assert (report.params["checked"], report.params["skipped"]) == (27 + 125 + 7, 98 + 32)


def test_cojacobi_work_counts_of_the_cli_scans():
    # the seven scans of `verify all --n 7`: five coboundaries, 8 levels of
    # support^3 each, then the sl2 pair, 3 levels of 3^3 each
    cochains = [(ba.coboundary(ba.r_from_phi(pl.phi_power_family(d)), 17), 7)
                for d in range(1, 6)]
    cochains += [(cochain, 1) for cochain in ba.sl2_pair()]
    counts = []
    for cochain, N in cochains:
        report = ba.verify_cojacobi(cochain, N)
        assert report.passed
        counts.append((report.params["checked"], report.params["skipped"]))
    assert counts == [(54872, 0), (64000, 0), (74088, 0), (85184, 0), (97336, 0),
                      (81, 0), (81, 0)]
    assert sum(c for c, _ in counts) == 375642


def test_cybe_families_and_negative_control():
    for d in range(1, 6):
        r = ba.r_from_phi(pl.phi_power_family(d))
        assert ba.verify_cybe(r, 8).passed, d
    assert ba.verify_cybe(ba.RMatrix(0, {}), 6).passed
    rng = random.Random(1)
    entries = {(i, j): Fraction(rng.randint(-3, 3)) for i in range(0, 3)
               for j in range(i + 1, 4)}
    bad = ba.rmatrix_from_entries(entries, 0)
    report = ba.verify_cybe(bad, 6)
    assert not report.passed
    assert report.witness is not None


def _entry(r, i, j):
    """r_{ij}, zero when unstored or when an index is below the range."""
    if i < r.min_index or j < r.min_index:
        return LaurentPoly.zero()
    return r.r.get((i, j), LaurentPoly.zero())


def _cybe_by_entries(r, n, j, l):
    """cybe_residual as the sum over every support index k, of every entry."""
    support = sorted({i for pair in r.r for i in pair})
    return LaurentPoly.sum_of_products(
        pair for k in support if k
        for pair in (((_entry(r, n - k, l) + _entry(r, n, l - k)) * k, _entry(r, k, j)),
                     ((_entry(r, j, n - k) + _entry(r, j - k, n)) * k, _entry(r, k, l)),
                     ((_entry(r, l, j - k) + _entry(r, l - k, j)) * k, _entry(r, k, n))))


def _perturbed_r(d, pair, c):
    r = ba.r_from_phi(pl.phi_power_family(d))
    table = dict(r.r)
    for key, sign in ((pair, 1), (pair[::-1], -1)):
        table[key] = table.get(key, LaurentPoly.zero()) + c * sign
    return ba.RMatrix(r.min_index, {k: v for k, v in table.items() if v})


def test_cybe_residual_matches_the_entrywise_formula():
    """The sum over stored entries equals the sum over every entry on every
    component, for r-matrices that pass and that fail, one with entries
    below its range (which count as zero) and a symbolic one; so the
    verify_cybe records, negative controls included, are unchanged."""
    lam = LaurentPoly.var(param("lam"))
    rng = random.Random(1)
    matrices = [ba.r_from_phi(pl.phi_power_family(d)) for d in (1, 2, 3)]
    matrices += [_perturbed_r(2, (1, 3), LaurentPoly.one()), _perturbed_r(1, (0, 4), lam),
                 ba.rmatrix_from_entries({(i, j): Fraction(rng.randint(-3, 3))
                                          for i in range(0, 3) for j in range(i + 1, 4)}, 0),
                 ba.rmatrix_from_entries({(-2, 1): 5, (0, 2): lam, (1, 3): -2, (-1, 3): 7}, 0)]
    nonzero = 0
    for r in matrices:
        for n, j, l in itertools.product(range(-2, 8), repeat=3):
            got = ba.cybe_residual(r, n, j, l)
            assert got == _cybe_by_entries(r, n, j, l), (r.r, n, j, l)
            nonzero += not got.is_zero()
    assert nonzero > 100, nonzero
    report = ba.verify_cybe(matrices[3], 6)
    assert not report.passed and report.witness["residual"] == _cybe_by_entries(
        matrices[3], *report.witness["indices"]).render()


def _cocycle_by_entries(alpha, N):
    """verify_cocycle with the residual summed over every entry, stored or not."""
    lo, top = alpha.min_index, min(N, alpha.upper)
    params = {"N": N, "min_index": lo, "levels": top}
    checked = 0
    for n in range(lo, top + 1):
        for m in range(lo, top + 1):
            if n == m or n + m > alpha.upper:
                continue
            candidates = set(alpha.alpha.get(n + m, {}).keys())
            for (a, b) in alpha.alpha.get(m, {}):
                candidates.add((a + n, b))
                candidates.add((a, b + n))
            for (a, b) in alpha.alpha.get(n, {}):
                candidates.add((a + m, b))
                candidates.add((a, b + m))
            for (i, j) in candidates:
                if not alpha._in_range(i) or not alpha._in_range(j):
                    continue
                residual = (alpha.entry(n + m, i, j) * (n - m)
                            - alpha.entry(m, i - n, j) * (2 * n - i)
                            - alpha.entry(m, i, j - n) * (2 * n - j)
                            + alpha.entry(n, i - m, j) * (2 * m - i)
                            + alpha.entry(n, i, j - m) * (2 * m - j))
                checked += 1
                if not residual.is_zero():
                    params["checked"] = checked
                    return rep.failed("cocycle", (n, m, i, j), residual.render(), **params)
    params["checked"] = checked
    return rep.passed("cocycle", **params)


def _perturbed_cochain(alpha, level, pair, c, **kw):
    tables = {n: dict(t) for n, t in alpha.alpha.items()}
    table = tables.setdefault(level, {})
    for key, sign in ((pair, 1), (pair[::-1], -1)):
        table[key] = table.get(key, LaurentPoly.zero()) + c * sign
    return ba.WedgeCochain(alpha.min_index, tables, alpha.upper, **kw)


def test_cocycle_matches_the_entrywise_formula():
    """verify_cocycle's one weighted sum over stored entries gives the record
    of the five-term formula over every entry, on cochains that pass and on
    perturbed ones, with entries outside the range and a symbolic residual."""
    lam = LaurentPoly.var(param("lam"))
    cb = ba.coboundary(ba.r_from_phi(pl.phi_power_family(1)), 12)
    cochains = [(cb, 8), (ba.family_witt_linear(6), 6), (ba.family_jet_extended(2, lam, 6), 6)]
    cochains += [(ba.coboundary(ba.r_from_phi(pl.phi_power_family(d)), 10), 6) for d in (2, 3)]
    cochains += [(_perturbed_cochain(cb, 3, (2, 5), LaurentPoly.one()), 8),
                 (_perturbed_cochain(cb, 6, (0, 6), lam), 8),
                 (_perturbed_cochain(ba.family_witt_linear(6), 2, (-1, 4), Fraction(1, 3)), 6),
                 (_perturbed_cochain(ba.family_witt_linear(6), 1, (-3, 4), 1), 6),
                 (_perturbed_cochain(ba.sl2_pair()[0], 1, (0, 2), 1, max_index=1), 1)]
    cochains += [(c, 1) for c in ba.sl2_pair()]
    statuses = []
    for alpha, N in cochains:
        want = _cocycle_by_entries(alpha, N).to_dict()
        assert ba.verify_cocycle(alpha, N).to_dict() == want
        statuses.append(want["status"])
    # the three perturbations in range fail; the two outside the range
    # change nothing
    assert statuses.count("fail") == 3, statuses


def test_truncated_extended_family_is_a_cocycle():
    """The extended family cut at index N lives on e_0..e_N, so the check
    reads no entry past the cut as zero; an entry changed inside the range
    still fails."""
    lam = LaurentPoly.var(param("lam"))
    for value in (lam, Fraction(1, 3)):
        for N, k in ((6, 6), (10, 4), (12, 2), (8, 8)):
            fam = ba.family_jet_extended(2, value, N)
            assert fam.max_index == N
            assert ba.verify_cocycle(fam, k).passed, (value, N, k)
        bad = _perturbed_cochain(ba.family_jet_extended(2, value, 8), 2, (1, 5),
                                 LaurentPoly.one(), max_index=8)
        report = ba.verify_cocycle(bad, 8)
        assert not report.passed and report.to_dict() == _cocycle_by_entries(bad, 8).to_dict()


def test_rr_invariance_and_action_identity():
    for d in (1, 2, 3):
        r = ba.r_from_phi(pl.phi_power_family(d))
        rep = ba.verify_rr_invariance(r, 6)
        assert rep.passed and rep.params["rr_is_zero"]
    rng = random.Random(9)
    entries = {(i, j): Fraction(rng.randint(-3, 3)) for i in range(0, 3)
               for j in range(i + 1, 4)}
    r = ba.rmatrix_from_entries(entries, 0)
    T = ba.rr_tensor(r)
    act0 = ba.adjoint_action(T, 0, 0)
    # two independently computed sides agree entrywise
    for n in range(0, 8):
        for j in range(0, 8):
            for l in range(0, 8):
                got = act0.get((n, j, l), LaurentPoly.zero())
                assert got == ba.cybe_residual(r, n, j, l) * (-(n + j + l))
                expect_t = ba.cybe_residual(r, n, j, l)
                assert T.get((n, j, l), LaurentPoly.zero()) == expect_t
    assert not ba.verify_rr_invariance(r, 5).passed


def test_beta_correspondence():
    for d in (1, 2, 3):
        omega = pl.build_omega(pl.phi_power_family(d), 6)
        assert ba.beta_correspondence(omega, pl.phi_power_family(d)).passed, d
    omega = pl.build_omega(pl.phi_power_family(1), 4)
    assert ba.beta_correspondence(omega, pl.phi_power_family(1)).passed
    # mismatched generating function is caught
    assert not ba.beta_correspondence(omega, pl.phi_power_family(2)).passed


def test_classify_branch_forced_entries():
    mu = LaurentPoly.var(param("mu"))
    table = ba.classify_branch_d(2, {4: mu}, 9)
    assert table.coeff(1, 5) == mu * mu
    assert table.coeff(2, 3) == -mu
    assert ba.classify_branch_d(1, {}, 8).coeff(1, 3).is_zero()
    for d in (3, 4):
        t = ba.classify_branch_d(d, {}, 2 * d + 4)
        assert t.coeff(2, d + 1).is_zero()  # -lam_{1,d+2}/(d-1) with zero free entry


def test_classify_branch_vanishing_block():
    mu = LaurentPoly.var(param("mu"))
    table = ba.classify_branch_d(3, {5: mu, 6: mu * mu}, 12)
    for s in range(1, 3):
        for n in range(1, 4):
            assert table.coeff(s, n).is_zero(), (s, n)


def test_classify_branch_functional_equation():
    mu = LaurentPoly.var(param("mu"))
    nu = LaurentPoly.var(param("nu"))
    table = ba.classify_branch_d(2, {4: mu, 6: nu}, 12)
    assert table.provenance == "branch d=2"
    assert pl.verify_phi_equation(table, 8).passed


def test_classify_branch_rejects_non_free_slots():
    with pytest.raises(ValueError):
        ba.classify_branch_d(2, {5: Fraction(1)}, 9)  # 5 = 2d+1 is forced
    with pytest.raises(ValueError):
        ba.classify_branch_d(2, {3: Fraction(1)}, 9)  # 3 = d+1 is the unit slot


def test_classify_geometric_specialization_matches_extended_family():
    lam = LaurentPoly.var(param("lam"))
    geo = {n: lam ** (n - 3) for n in [4] + list(range(6, 16))}
    table = ba.classify_branch_d(2, geo, 15)
    phi = pl.phi_extended_family(2, lam, 13)
    for m in range(1, 14):
        for n in range(1, 14):
            assert table.coeff(m, n) == phi.coeff(m, n), (m, n)


def test_classify_g0_branch_formulas():
    free = {n: LaurentPoly.var(param(f"a{n}")) for n in range(2, 7)}
    table = ba.classify_g0_branch(free, 5)
    a2, a3, a4, a5 = (LaurentPoly.var(param(f"a{n}")) for n in range(2, 6))
    assert table.coeff(1, 2) == (2 * a2 * a2 - 3 * a3) / 2
    assert table.coeff(1, 3) == (2 * a2 * a3 - 4 * a4) / 3
    expect_14 = (2 * a2 * a2 * a3 - 9 * a3 * a3 + 20 * a2 * a4 - 30 * a5) / 24
    assert table.coeff(1, 4) == expect_14
    assert table.provenance == "g0-branch"
    assert pl.verify_phi_equation(table, 4).passed


def test_classify_g0_degenerate_row_gives_linear_class():
    phi = ba.classify_g0_branch({}, 7)
    assert phi.coeff(0, 1) == LaurentPoly.one()
    assert all(c.is_zero() for (m, n), c in phi.table.items() if m >= 1 and n >= 1)
    assert pl.verify_phi_equation(phi, 6).passed


def test_classify_g0_matches_exponential_class():
    # lam_{0,n} = -(-1)^n / n! normalizes the exponential solution at weight -1
    free = {}
    fact = 1
    for n in range(2, 9):
        fact *= n
        free[n] = Fraction((-1) ** (n + 1), fact)
    table = ba.classify_g0_branch(free, 7)
    phi = pl.phi_exponential(Fraction(-1), 9)
    for m in range(0, 8):
        for n in range(0, 8):
            assert table.coeff(m, n) == phi.coeff(m, n), (m, n)


# -- explicit cochain families ------------------------------------------------


def test_monomial_family_matches_coboundary_with_sign_record():
    # r with the lam_{d+1,1} = +1 sign; the coboundary lands exactly on the
    # stated family table (the opposite phi sign gives the global minus).
    for d in (1, 2, 3):
        fam = ba.family_jet_monomial(d, 8)
        cb = ba.coboundary(ba.r_from_phi(pl.phi_power_family(d)), 8)
        for n in range(0, 9):
            for i in range(0, 12):
                for j in range(0, 12):
                    assert cb.entry(n, i, j) == fam.entry(n, i, j), (d, n, i, j)
        assert ba.verify_cocycle(fam, 6).passed


def test_monomial_family_level_zero_row():
    # at level 0 the first wedge term dies but the second survives: the row
    # is 2d e_0 ^ e_d, matching the coboundary of the tangent r-matrix
    fam = ba.family_jet_monomial(1, 6)
    assert fam.entry(0, 0, 1) == Fraction(1)
    cb = ba.coboundary(ba.r_from_phi(pl.phi_power_family(1)), 2)
    assert cb.entry(0, 0, 1) == Fraction(1)


def test_extended_family_matches_coboundary_at_rational_value():
    lam = Fraction(1, 3)
    phi = pl.phi_extended_family(2, lam, 26)
    cb = ba.coboundary(ba.r_from_phi(phi), 6)
    fam = ba.family_jet_extended(2, lam, 24)
    for n in range(0, 5):
        for i in range(0, 15):
            for j in range(0, 15):
                assert cb.entry(n, i, j) == fam.entry(n, i, j), (n, i, j)


def test_witt_linear_family():
    fam = ba.family_witt_linear(8)
    cb = ba.coboundary(ba.r_from_phi(pl.phi_linear()), 8)
    for n in range(-1, 9):
        for i in range(-1, 10):
            for j in range(-1, 10):
                assert cb.entry(n, i, j) == fam.entry(n, i, j)
    assert ba.verify_cocycle(fam, 6).passed
    assert ba.verify_cojacobi(ba.coboundary(ba.r_from_phi(pl.phi_linear()), 20), 7).passed
    # printed wedge coefficients at one level
    assert fam.entry(3, -1, 3) == Fraction(-3)
    assert fam.entry(3, 0, 2) == Fraction(4)


def test_sl2_pair():
    first, second = ba.sl2_pair()
    assert first.entry(0, 0, -1) == Fraction(1)
    assert first.entry(-1, 0, 1).is_zero()
    assert first.entry(1, -1, 1) == Fraction(-1)
    assert second.entry(-1, 1, -1) == Fraction(1)
    assert second.entry(0, 0, 1) == Fraction(-1)
    assert all(c.is_zero() for c in second.alpha[1].values())
    for cochain in (first, second):
        assert ba.verify_cocycle(cochain, 1).passed
        assert ba.verify_cojacobi(cochain, 1).passed
    fam = ba.family_witt_linear(4)
    for n in (-1, 0, 1):
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                assert first.entry(n, i, j) == fam.entry(n, i, j)
