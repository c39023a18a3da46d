"""Lie-bialgebra side: cochains on the Witt algebra and its jet subalgebra.

Basis conventions.  The Witt algebra here is span{e_i : i >= -1} with
[e_i, e_j] = (i - j) e_{i+j}; the subalgebra tangent to the origin-fixing
jet group is span{e_i : i >= 0}.  A 2-cochain table alpha^n_{ij} uses the
full-sum convention: alpha(e_n) = sum over ALL i,j of alpha^n_{ij} e_i ^ e_j
with an antisymmetric table, so a printed term c * e_a ^ e_b contributes c/2
to the (a, b) entry.

Cochain tables built here are complete: for every stored level n the (i, j)
support is the full support, which is what makes the finite-range checks
below exact instances of the corresponding infinite systems.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional

from . import poissonlie as pl
from . import report as rep
from . import series as ts
from .coeffpoly import Combination, Frozen, LaurentPoly, poly


def witt_structure_constant(i: int, j: int, k: int) -> Fraction:
    """[e_i, e_j] = (i - j) e_{i+j}: the coefficient of e_k."""
    return Fraction(i - j) if k == i + j else Fraction(0)


# ---------------------------------------------------------------------------
# Tables


class WedgeCochain(Frozen):
    # alpha: n -> {(i, j): LaurentPoly}, antisymmetric per level, exact for the levels n <= upper;
    # max_index restricts the cochain to a finite subalgebra (e.g. sl2)
    def __init__(self, min_index: int, alpha: dict, upper: int, max_index: Optional[int] = None):
        self.__dict__.update(min_index=min_index, alpha=alpha, upper=upper, max_index=max_index)

    def entry(self, n: int, i: int, j: int) -> LaurentPoly:
        if not self._in_range(i) or not self._in_range(j):
            return LaurentPoly.zero()
        return self.alpha.get(n, {}).get((i, j), LaurentPoly.zero())

    def _in_range(self, i: int) -> bool:
        return i >= self.min_index and (self.max_index is None or i <= self.max_index)

    def lower_support(self) -> list[int]:
        seen = set()
        for table in self.alpha.values():
            for (i, j) in table:
                seen.add(i)
                seen.add(j)
        return sorted(seen)


def cochain_from_wedge_terms(terms: Mapping, min_index: int, upper: int,
                             max_index: Optional[int] = None) -> WedgeCochain:
    """Build from printed wedge terms {n: [(a, b, c), ...]} meaning
    alpha(e_n) = sum c * e_a ^ e_b (each unordered pair listed once)."""
    alpha = {
        n: Combination.antisymmetric(((a, b), poly(c) / 2) for a, b, c in items)
        for n, items in terms.items()
    }
    return WedgeCochain(min_index, alpha, upper, max_index)


class RMatrix(Frozen):
    def __init__(self, min_index: int, r: dict):
        self.__dict__.update(min_index=min_index, r=r)  # r: (i, j) -> LaurentPoly, antisymmetric

    @cached_property
    def stored(self) -> dict:
        """The nonzero entries: those stored with both indices in range."""
        lo = self.min_index
        return {(i, j): c for (i, j), c in self.r.items() if i >= lo and j >= lo}

    @cached_property
    def scaled_rows(self) -> dict:
        """k -> {j: k r_{kj}} over the nonzero entries with k != 0."""
        rows: dict = {}
        for (k, j), c in self.stored.items():
            if k:
                rows.setdefault(k, {})[j] = c * k
        return rows


def rmatrix_from_entries(entries: Mapping, min_index: int) -> RMatrix:
    return RMatrix(min_index, Combination.antisymmetric(entries.items()))


def r_from_phi(phi: pl.PhiFunction) -> RMatrix:
    """r_{ij} = lam_{i+1, j+1}: the tangent r-matrix of a generating function."""
    return RMatrix(phi.min_index - 1, {(m - 1, n - 1): c for (m, n), c in phi.table.items()})


# ---------------------------------------------------------------------------
# Coboundaries and the cocycle / co-Jacobi checks


def coboundary(r: RMatrix, upper: int) -> WedgeCochain:
    """alpha^n_{ij} = (2n - i) r_{i-n, j} + (2n - j) r_{i, j-n} for n <= upper."""
    alpha: dict = {}
    for n in range(r.min_index, upper + 1):
        table = Combination()
        for (a, b), c in r.r.items():
            for (i, j, coeff) in (((n + a), b, n - a), (a, (n + b), n - b)):
                if coeff and i >= r.min_index and j >= r.min_index:
                    table.add((i, j), c * coeff)
        alpha[n] = table
    return WedgeCochain(r.min_index, alpha, upper)


def verify_cocycle(alpha: WedgeCochain, N: int) -> rep.VerificationReport:
    """The linearized multiplicativity system on a cochain table:

      (n-m) a^{n+m}_{ij} = (2n-i) a^m_{i-n,j} + (2n-j) a^m_{i,j-n}
                           - (2m-i) a^n_{i-m,j} - (2m-j) a^n_{i,j-m}

    checked for every n, m (with n+m also stored) and every potentially
    nonzero (i, j), as one sum over the stored entries, each weighted by its
    integer factor.  Entries outside the basis range count as zero.
    """
    tables = {n: {(i, j): c for (i, j), c in table.items()
                  if alpha._in_range(i) and alpha._in_range(j)}
              for n, table in alpha.alpha.items()}
    lo = alpha.min_index
    top = min(N, alpha.upper)
    params = {"N": N, "min_index": lo, "levels": top, "checked": 0}

    def cases():
        for n, m in itertools.product(range(lo, top + 1), repeat=2):
            if n == m or n + m > alpha.upper:
                continue  # n == m gives no equation; level n + m past upper is not stored
            candidates = set(alpha.alpha.get(n + m, {}).keys())
            for (a, b) in alpha.alpha.get(m, {}):
                candidates.add((a + n, b))
                candidates.add((a, b + n))
            for (a, b) in alpha.alpha.get(n, {}):
                candidates.add((a + m, b))
                candidates.add((a, b + m))
            top_m, at_m, at_n = tables.get(n + m, {}), tables.get(m, {}), tables.get(n, {})
            for (i, j) in candidates:
                if not alpha._in_range(i) or not alpha._in_range(j):
                    continue
                weighted = ((top_m.get((i, j)), n - m),
                            (at_m.get((i - n, j)), i - 2 * n), (at_m.get((i, j - n)), j - 2 * n),
                            (at_n.get((i - m, j)), 2 * m - i), (at_n.get((i, j - m)), 2 * m - j))
                params["checked"] += 1
                yield (n, m, i, j), LaurentPoly.sum_of_products(
                    (c, w) for c, w in weighted if c is not None)

    return rep.first_failure("cocycle", cases(), params)


def verify_cojacobi(alpha: WedgeCochain, N: int) -> rep.VerificationReport:
    """sum_j [a^n_{ij} a^j_{sp} + a^n_{pj} a^j_{is} + a^n_{sj} a^j_{pi}] = 0.

    The inner sum couples the lower index of one table to the level of the
    next.  Each level n is indexed once.  ``reach`` holds every ``first``
    with a stored entry a^n_{first,j} at some j > upper (in range or not,
    zero or not): a quadruple (n, i, s, p) with i, s or p in ``reach`` needs
    a level that is not stored, so it is skipped and counted.  The partners
    are the stored a^n_{first,j} with j in range and j <= upper.  A term
    a^n_{first,j} a^j_{xy} is zero unless both factors are stored, so
    ``rows`` maps each quadruple to the factor pairs of its stored terms, in
    the order of the three blocks and, within a block, of the level-n table.
    A quadruple without a row has residual zero.  No product with an
    unstored factor is formed.

    So only the rows are evaluated: those whose indices all lie in the
    support and none in ``reach``, in the order in which
    ``itertools.product(support, repeat=3)`` visits them, which is tuple
    order since the support is sorted.  The counts are arithmetic: a level
    whose rows all vanish checks the F^3 triples over the F free indices
    (support indices not in ``reach``) and skips the other S^3 - F^3 of the
    S^3 support triples; at a failing row, the triples visited before it
    are its rank among all support triples, and the ones checked before it
    are its rank among the free ones; they are set before the row is
    yielded, and the totals when the scan ends.
    """
    lo = alpha.min_index
    top = min(N, alpha.upper)
    support = [i for i in alpha.lower_support() if alpha._in_range(i)]
    where = {i: k for k, i in enumerate(support)}
    S = len(support)
    params = {"N": N, "min_index": lo, "levels": top}

    def cases():
        checked = skipped = 0
        for n in range(lo, top + 1):
            table = alpha.alpha.get(n, {})
            reach = {first for (first, j) in table if j > alpha.upper}
            partners = [(first, c, alpha.alpha.get(j, {})) for (first, j), c in table.items()
                        if j <= alpha.upper and alpha._in_range(j)]
            rows: dict = {}  # (i, s, p) -> [(a^n_{first,j}, a^j_{xy}), ...]
            for block in range(3):
                for first, c, level in partners:
                    for (x, y), second in level.items():
                        key = ((first, x, y), (x, y, first), (y, first, x))[block]
                        rows.setdefault(key, []).append((c, second))
            free = {i: k for k, i in enumerate(i for i in support if i not in reach)}
            F = len(free)
            for key in sorted(k for k in rows if k[0] in free and k[1] in free and k[2] in free):
                rank = (where[key[0]] * S + where[key[1]]) * S + where[key[2]]
                free_rank = (free[key[0]] * F + free[key[1]]) * F + free[key[2]]
                params.update(checked=checked + free_rank + 1,
                              skipped=skipped + rank - free_rank)
                yield (n,) + key, LaurentPoly.sum_of_products(rows[key])
            checked += F ** 3
            skipped += S ** 3 - F ** 3
        params.update(checked=checked, skipped=skipped)

    return rep.first_failure("cojacobi", cases(), params)


# ---------------------------------------------------------------------------
# Classical Yang-Baxter layer


def cybe_residual(r: RMatrix, n: int, j: int, l: int) -> LaurentPoly:
    """One component of the classical Yang-Baxter equation:

      sum_k k [ (r_{n-k,l} + r_{n,l-k}) r_{kj}
              + (r_{j,n-k} + r_{j-k,n}) r_{kl}
              + (r_{l,j-k} + r_{l-k,j}) r_{kn} ]

    with a product only where r_{kj} and a bracket entry are nonzero."""
    get, pairs = r.stored.get, []
    for k, row in r.scaled_rows.items():
        for col, first, second in ((j, (n - k, l), (n, l - k)), (l, (j, n - k), (j - k, n)),
                                   (n, (l, j - k), (l - k, j))):
            a, b, rk = get(first), get(second), row.get(col)
            if rk is None or a is None and b is None:
                continue
            pairs.append((rk, b if a is None else a if b is None else a + b))
    return LaurentPoly.sum_of_products(pairs)


def verify_cybe(r: RMatrix, N: int) -> rep.VerificationReport:
    cases = (((n, j, l), cybe_residual(r, n, j, l))
             for n, j, l in itertools.combinations(range(r.min_index, N + 1), 3))
    return rep.first_failure("cybe", cases, {"N": N, "min_index": r.min_index})


def rr_tensor(r: RMatrix) -> Combination:
    """<r,r> as a tensor-cube coefficient table, by direct contraction of the
    three commutator terms with the structure constants."""
    T = Combination()
    lo = r.min_index
    for (i, a), ci in r.r.items():
        for (k, b), ck in r.r.items():
            prod = ci * ck
            if i + k >= lo:
                T.add((i + k, a, b), prod * (i - k))      # [r12, r13]
            if a + k >= lo:
                T.add((i, a + k, b), prod * (a - k))      # [r12, r23]
            if a + b >= lo:
                T.add((i, k, a + b), prod * (a - b))      # [r13, r23]
    return T


def adjoint_action(T: Mapping, m: int, min_index: int) -> Combination:
    """e_m acting on a tensor-cube table through the adjoint representation."""
    out = Combination()
    for key, v in T.items():
        for slot, idx in enumerate(key):
            if m != idx and m + idx >= min_index:
                out.add(key[:slot] + (m + idx,) + key[slot + 1:], v * (m - idx))
    return out


def verify_rr_invariance(r: RMatrix, N: int) -> rep.VerificationReport:
    """Adjoint invariance of <r,r>, plus the structural identity that ties
    the e_0 action to the Yang-Baxter residuals:

        (e_0 . <r,r>)_{njl} = -(n+j+l) * cybe_residual(n,j,l).

    The identity is asserted always; invariance itself holds iff every
    e_m-action table vanishes (m = 0, 1, 2).
    """
    T = rr_tensor(r)
    params = {"N": N, "min_index": r.min_index, "max_m": 2,
              "rr_is_zero": not T}
    act0 = adjoint_action(T, 0, r.min_index)
    keys = set(act0) | set(itertools.product(range(r.min_index, N + 1), repeat=3))

    def cases():
        for (n, j, l) in sorted(keys):
            expect = cybe_residual(r, n, j, l) * (-(n + j + l))
            got = act0[(n, j, l)]
            yield (0, n, j, l), "" if got == expect else (
                f"action {got.render()} vs -(n+j+l)*cybe {expect.render()}")
        for m in range(3):
            act = adjoint_action(T, m, r.min_index) if m else act0
            key = min(act, default=())  # a missing key reads as zero
            yield (m,) + key, act[key]

    return rep.first_failure("rr-invariance", cases(), params)


# ---------------------------------------------------------------------------
# Tangent correspondence between bracket tables and cochains


def beta_correspondence(omega: pl.PoissonStructure, phi: pl.PhiFunction) -> rep.VerificationReport:
    """First-order jet of a bracket table at the identity
    (`poissonlie.linear_part`) against the cochain the generating function
    predicts, entry by entry and as generating series.
    """
    n_t = omega.n
    jet = pl.linear_part(omega, n_t)
    params = {"n": n_t, "provenance": phi.provenance}
    space, bounds = ("u", "v"), (n_t, n_t)
    phi_series = phi.as_series("u", "v", space, (n_t + 1, n_t + 1))
    du = ts.truncate(ts.derivative(phi_series, "u"), bounds)
    dv = ts.truncate(ts.derivative(phi_series, "v"), bounds)
    phi_t = ts.truncate(phi_series, bounds)
    mono = lambda eu, ev: ts.make(space, bounds, {(eu, ev): LaurentPoly.one()})

    def cases():
        for n in range(1, n_t + 1):
            # entrywise: d(omega_ij)/dx_n at the identity jet
            beta = Combination((ij, row[n]) for ij, row in jet.items() if n in row)
            for i in range(1, n_t + 1):
                for j in range(1, n_t + 1):
                    expect = (
                        phi.coeff(i - n + 1, j) * (2 * n - i - 1)
                        + phi.coeff(i, j - n + 1) * (2 * n - j - 1)
                    )
                    got = beta[(i, j)] if i <= j else -beta[(j, i)]
                    yield (n, i, j), "" if got == expect else (
                        f"d(omega)/dx entry {got.render()} vs table {expect.render()}")
            # generating series: n phi (u^{n-1} + v^{n-1}) - [u^n d_u phi + v^n d_v phi]
            series = ts.make(space, bounds, Combination.antisymmetric(beta.items()))
            expect_series = ts.sub(
                ts.scale(ts.mul(phi_t, ts.add(mono(n - 1, 0), mono(0, n - 1))), n),
                ts.add(ts.mul(mono(n, 0), du), ts.mul(mono(0, n), dv)),
            )
            diff = ts.sub(series, expect_series).coeffs
            exps = min(diff, default=())  # a missing key reads as zero
            yield (n,) + exps, diff[exps]

    return rep.first_failure("beta-correspondence", cases(), params)


# ---------------------------------------------------------------------------
# The quantitative recursion behind the cocycle classification


def witt_a_sequence(N: int) -> list[Fraction]:
    """a_2 = 1, a_3 = 3, then
    a_{n+1} = 2n/((n-1)(n+2)) + 2(n+1)/(n+2) a_n - (n+1)(n-2)/((n-1)(n+2)) a_{n-1}.

    Returned as [a_2, a_3, ..., a_N].
    """
    if N < 2:
        raise ValueError("need N >= 2")
    a = {2: Fraction(1), 3: Fraction(3)}
    for n in range(3, N):
        a[n + 1] = (
            Fraction(2 * n, (n - 1) * (n + 2))
            + Fraction(2 * (n + 1), n + 2) * a[n]
            - Fraction((n + 1) * (n - 2), (n - 1) * (n + 2)) * a[n - 1]
        )
    return [a[k] for k in range(2, N + 1)]


def verify_witt_a_sequence() -> rep.VerificationReport:
    """a_2 .. a_6 against their printed values 1, 3, 5, 64/9, 28/3; a_7, whose
    printed value the recursion does not give, is the record's parameter."""
    printed = [Fraction(1), Fraction(3), Fraction(5), Fraction(64, 9), Fraction(28, 3)]
    seq = witt_a_sequence(7)
    cases = (((k,), LaurentPoly.const(a - b)) for k, a, b in zip(range(2, 7), seq, printed))
    return rep.first_failure("witt-a-sequence", cases, {"a7": str(seq[5])})


# ---------------------------------------------------------------------------
# Classifiers: coefficient tables of all solutions, one branch at a time


def classify_branch_d(d: int, free: Mapping[int, object], n_max: int) -> pl.PhiFunction:
    """Fill a branch-d coefficient table from its free parameters.

    Normalization lam_{1,d+1} = 1.  Free data: lam_{1,n} for
    n in [d+2, 2d] and (2d+1, n_max]; lam_{1,2d+1} is forced, the row
    lam_{d+1,n} follows by recursion, and every remaining entry is the
    two-by-two determinant of those two rows.  The output box is n_max - d.
    """
    if d < 1:
        raise ValueError("branch label must be >= 1")
    lam1 = Combination({d + 1: 1})
    for n, val in free.items():
        if not (d + 2 <= n <= 2 * d or 2 * d + 1 < n <= n_max):
            raise ValueError(f"lam_1{n} is not free on branch {d}")
        lam1.add(n, poly(val))

    row = Combination({1: -1})  # lam_{d+1, 1} = -lam_{1, d+1}

    def recurse(n: int) -> LaurentPoly:
        # lam_{d+1,n} = -[ d lam_{1,n+d} - sum_{s=1}^{n-1} (n+d-2s+1)
        #                  lam_{1,n+d-s+1} lam_{s,d+1} ] / (d-n+1)
        acc = lam1[n + d] * d
        for s in range(1, n):
            acc = acc - lam1[n + d - s + 1] * (-row[s]) * (n + d - 2 * s + 1)
        return acc / Fraction(-(d - n + 1))

    for n in range(2, d + 1):
        row.add(n, recurse(n))
    # the single forced parameter on the first row:
    forced = LaurentPoly.zero()
    for s in range(2, d + 1):
        forced = forced - lam1[2 * d + 2 - s] * (-row[s]) * Fraction(2 * (d + 1 - s), d)
    lam1.add(2 * d + 1, forced)
    for n in range(d + 2, n_max - d + 1):  # lam_{d+1,d+1} = 0
        row.add(n, recurse(n))

    return _determinants(lam1, row, 1, n_max - d, f"branch d={d}")


def classify_g0_branch(free: Mapping[int, object], n_max: int) -> pl.PhiFunction:
    """Extended-group branch with lam_{0,1} = 1 and free lam_{0,n}, n >= 2.

    lam_{1,r} follows recursively, then every entry is the two-by-two
    determinant of the first two rows.  Supplying lam_{0,n} up to n_max + 1
    makes the output box n_max exact.
    """
    lam0 = Combination({1: 1})
    for n, val in free.items():
        if n < 2:
            raise ValueError("free extended-row parameters start at lam_{0,2}")
        lam0.add(n, poly(val))
    lam1 = Combination({0: -1})

    for r in range(2, n_max + 1):
        acc = lam0[r] * lam0[2] * 2
        for s in range(0, r):
            acc = acc + lam0[r - s + 1] * lam1[s] * (r - 2 * s + 1)
        lam1.add(r, acc / r)

    return _determinants(lam0, lam1, 0, n_max, "g0-branch")


def _determinants(a: Combination, b: Combination, lo: int, box: int,
                  provenance: str) -> pl.PhiFunction:
    """The table lam_{mn} = a_m b_n - a_n b_m for lo <= m < n <= box: the
    two-by-two determinants of the rows a and b."""
    upper = (((m, n), a[m] * b[n] - a[n] * b[m])
             for m in range(lo, box + 1) for n in range(m + 1, box + 1))
    return pl.PhiFunction(lo, Combination.antisymmetric(upper), box, provenance)


def verify_classifiers() -> list[rep.VerificationReport]:
    """Branch 2 with lam_14 = mu forces lam_15 = mu^2 and lam_23 = -mu; with
    lam_1n = lam^(n-3) it is `poissonlie.phi_extended_family` at d = 2; and
    the g0 branch with free a2 .. a7 satisfies the phi equation."""
    mu = pl.weight("mu")
    table = classify_branch_d(2, {4: mu}, 9)
    records = [rep.first_failure("branch-d-forced-entries", [
        ((1, 5), table.coeff(1, 5) - mu * mu), ((2, 3), table.coeff(2, 3) + mu)], {"d": 2})]
    lam = pl.weight("lam")
    geo = {n: lam ** (n - 3) for n in [4] + list(range(6, 16))}
    tab = classify_branch_d(2, geo, 15)
    phi = pl.phi_extended_family(2, lam, 13)
    records.append(rep.first_failure("branch-d-geometric-specialization", (
        ((m, n), tab.coeff(m, n) - phi.coeff(m, n)) for m in range(1, 14) for n in range(1, 14)),
        {"d": 2}))
    free = {n: pl.weight(f"a{n}") for n in range(2, 8)}
    records.append(pl.verify_phi_equation(classify_g0_branch(free, 6), 5))
    return records


# ---------------------------------------------------------------------------
# Explicitly printed cochain families


def family_jet_monomial(d: int, N: int) -> WedgeCochain:
    """alpha(e_n) = 2n e_d ^ e_n - 2(n-d) e_0 ^ e_{d+n} on the jet subalgebra."""
    terms = {n: [(d, n, 2 * n), (0, d + n, -2 * (n - d))] for n in range(0, N + 1)}
    return cochain_from_wedge_terms(terms, 0, N)


def family_jet_extended(d: int, lam, N: int) -> WedgeCochain:
    """The one-parameter deformation of the monomial family, truncated at N.

    lam must be a rational (or parameter) value small in the sense that the
    geometric tails are simply cut at index N.  The cochain lives on
    e_0..e_N, so no check reads an entry past the cut as zero.
    """
    lam = poly(lam)
    terms: dict = {}
    for n in range(0, N + 1):
        items = []
        for i in range(d + n, N + 1):
            items.append((0, i, 2 * (2 * n - i) * lam ** (i - n - d)))
        for i in range(d, N + 1):
            items.append((i, n, -2 * n * lam ** (i - d)))
        for i in range(d + n, N + 1):
            for j in range(1, d):
                items.append((i, j, Fraction(2, d - 1) * (2 * n - i) * lam ** (i + j - n - d)))
        for i in range(d, N + 1):
            for j in range(n + 1, d + n):
                items.append((i, j, Fraction(2, d - 1) * (2 * n - j) * lam ** (i + j - n - d)))
        terms[n] = items
    return cochain_from_wedge_terms(terms, 0, N, max_index=N)


def family_witt_linear(N: int) -> WedgeCochain:
    """alpha(e_n) = -2n e_{-1} ^ e_n + 2(n+1) e_0 ^ e_{n-1} on the Witt range."""
    terms = {}
    for n in range(-1, N + 1):
        items = [(-1, n, -2 * n)]
        if n - 1 >= -1:
            items.append((0, n - 1, 2 * (n + 1)))
        terms[n] = items
    return cochain_from_wedge_terms(terms, -1, N)


def sl2_pair() -> tuple[WedgeCochain, WedgeCochain]:
    """The two cobracket structures induced on the sl2 subalgebra
    span{e_-1, e_0, e_1} of the Witt algebra."""
    first = cochain_from_wedge_terms(
        {-1: [], 0: [(0, -1, 2)], 1: [(-1, 1, -2)]}, -1, 1, max_index=1
    )
    second = cochain_from_wedge_terms(
        {-1: [(1, -1, 2)], 0: [(0, 1, -2)], 1: []}, -1, 1, max_index=1
    )
    return first, second
