"""Poisson-Lie brackets on jet groups from antisymmetric generating functions.

A generating function phi(u,v) = sum lam_{mn} u^m v^n (antisymmetric table)
packages a whole bracket table: the generating series of the brackets is

    Omega(u,v;x) = phi(u,v) x'(u) x'(v) - phi(x(u), x(v)),

and the coefficient of u^i v^j is the bracket omega_ij of the i-th and j-th
jet coordinates.  This module builds such tables by one contraction of
invariant frames (`build_omega`) and verifies the defining identities
exactly: Jacobi, multiplicativity under jet composition, the functional
equation on phi equivalent to Jacobi, and anti-Poisson inversion.

Multiplicativity on the origin-fixing model is decided in the n coordinates
of one jet by the criterion of Lu and Weinstein (J. Differential Geom. 31,
1990; Drinfeld, 1983): pi(e) = 0 and L_X pi left-invariant for every
left-invariant field X.  Jacobi on that model is then decided by Drinfeld's
theorem (Soviet Math. Dokl. 27, 1983): a multiplicative bivector is Poisson
exactly when its linear part at e, the constants c^{ij}_m = d_m pi^{ij}(e),
satisfies co-Jacobi, because [pi, pi] is multiplicative again and a
multiplicative multivector vanishes iff its derivative at e does.  One
entry, `_lu_weinstein`, serves both: it returns the linear part it
certified, and co-Jacobi reads that.  Both theorems are stated for a
connected group, and x_1 is a unit, so the jet group has two components;
but every identity here is polynomial in x_2..x_n and Laurent in x_1, and
the component x_1 > 0 is Zariski-dense, so a pass there holds everywhere.
A table outside the coordinates x_1..x_n of that group, and a table a
criterion fails, go to the direct check, which names the witness: the
first failing pair (i, j) of the congruence J W J^T, or the first failing
triple of the Jacobi scan.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Mapping, Optional

from . import jetgroup as jg
from . import report as rep
from . import series as ts
from .coeffpoly import (Combination, Frozen, LaurentPoly, Variable, VarKind, compositions, param,
                        poly, x_var)


class DivisibilityViolation(ValueError):
    pass


class DegreeBoundTooSmall(ValueError):
    pass


# ---------------------------------------------------------------------------
# The generating-function catalog


class PhiFunction(Frozen):
    """Antisymmetric coefficient table lam_{mn}, m,n >= min_index.

    ``table`` maps (m, n) -> LaurentPoly, both orientations stored.
    ``degree`` is a box bound: entries with max(m,n) <= degree are exact.
    ``degree is None`` marks a complete table, that of a polynomial
    generating function, which no bound limits.
    """

    def __init__(self, min_index: int, table: dict, degree: Optional[int], provenance: str):
        self.__dict__.update(min_index=min_index, table=table, degree=degree,
                             provenance=provenance)
        if (top := max(map(max, table), default=0)) >= ts._LIMIT:
            raise ts.SeriesOverflow(f"phi index {top} not below {ts._LIMIT}")

    def coeff(self, m: int, n: int) -> LaurentPoly:
        return self.table.get((m, n), LaurentPoly.zero())

    def ensure_degree(self, needed: int, what: str):
        if self.degree is not None and self.degree < needed:
            raise DegreeBoundTooSmall(
                f"{what} needs table entries up to degree {needed}, have {self.degree}"
            )

    def divisible_by_uv(self) -> bool:
        return all(m >= 1 and n >= 1 for (m, n) in self.table)

    def as_series(self, var_a: str, var_b: str, space, bounds) -> ts.TruncSeries:
        """The series sum lam_{mn} a^m b^n inside the given variable space."""
        pa, pb = space.index(var_a), space.index(var_b)
        coeffs = Combination()
        for (m, n), c in self.table.items():
            exps = [0] * len(space)
            exps[pa] += m
            exps[pb] += n
            coeffs.add(tuple(exps), c)
        return ts.make(tuple(space), tuple(bounds), coeffs)


def weight(lam) -> LaurentPoly:
    """A deformation parameter or weight: the parameter a str names, else poly(lam)."""
    return LaurentPoly.var(param(lam)) if isinstance(lam, str) else poly(lam)


def phi_from_table(entries: Mapping, min_index: int, degree: int, exact: bool = False,
                   provenance: str = "custom") -> PhiFunction:
    return PhiFunction(min_index, Combination.antisymmetric(entries.items()),
                       None if exact else degree, provenance)


def phi_power_family(d: int) -> PhiFunction:
    """phi(u,v) = u v (u^d - v^d)."""
    if d < 1:
        raise ValueError("power family needs d >= 1")
    return phi_from_table({(d + 1, 1): 1}, 1, d + 1, exact=True, provenance=f"power d={d}")


def phi_extended_family(d: int, lam, degree: int) -> PhiFunction:
    """One-parameter deformation of u v (v^d - u^d), to the degree box:
      [ (d-1) u v (v^d - u^d) + lam d u^2 v^2 (u^{d-1} - v^{d-1}) ]
        / [ (d-1) (1 - lam u)(1 - lam v) ].
    Its numerator's four terms give lam_{mn} = lam^(m+n-d-2) c(m, n) / (d-1),
    c(m, n) = (d-1)([n>d] - [m>d]) + d([m>d][n>1] - [m>1][n>d]); for m < n,
    c is d - 1 at m = 1 < d < n, -1 at 1 < m <= d < n and 0 elsewhere.
    ``lam`` may be rational, a parameter polynomial or its name.
    """
    if d < 2:
        raise ValueError("extended family needs d >= 2")
    lam = weight(lam)
    powers = [LaurentPoly.one()]
    for _ in range(degree - 2):
        powers.append(powers[-1] * lam)
    upper = (((m, n), powers[m + n - d - 2] * (1 if m == 1 else Fraction(-1, d - 1)))
             for m in range(1, d + 1) for n in range(d + 1, degree + 1))
    return PhiFunction(1, Combination.antisymmetric(upper), degree, f"extended d={d}")


def phi_linear() -> PhiFunction:
    """phi(u,v) = u - v (extended-group table, indices from 0)."""
    return phi_from_table({(1, 0): 1}, 0, 1, exact=True, provenance="linear")


def phi_exponential(lam, degree: int) -> PhiFunction:
    """phi(u,v) = e^{lam u} - e^{lam v}, truncated at the degree box."""
    lam = weight(lam)
    entries = {}
    fact = 1
    power = LaurentPoly.one()
    for n in range(1, degree + 1):
        fact *= n
        power = power * lam
        entries[(n, 0)] = power / fact
    return phi_from_table(entries, 0, degree, exact=False, provenance="exponential")


# ---------------------------------------------------------------------------
# Building bracket tables


class PoissonStructure(Frozen):
    # omega: (i, j) with i < j -> LaurentPoly, the brackets of the coordinates of kind
    # coord_kind; phi: the generating function the table was built from, if any
    def __init__(self, n: int, start_index: int, omega: dict,
                 coord_kind: VarKind = VarKind.GROUP_X, phi: Optional[PhiFunction] = None):
        self.__dict__.update(n=n, start_index=start_index, omega=omega, coord_kind=coord_kind,
                             phi=phi)

    def bracket(self, i: int, j: int) -> LaurentPoly:
        if i == j:
            return LaurentPoly.zero()
        if i < j:
            return self.omega.get((i, j), LaurentPoly.zero())
        return -self.omega.get((j, i), LaurentPoly.zero())

    def perturbed(self, i: int, j: int, delta: LaurentPoly) -> "PoissonStructure":
        """Deliberately corrupted copy with {x_i, x_j} += delta; used by the
        negative-control tests.  The table stores i < j, so i > j adds -delta
        at (j, i); the diagonal bracket is zero and cannot be corrupted."""
        if i == j:
            raise ValueError(f"cannot perturb the diagonal bracket ({i},{j})")
        omega = Combination(self.omega)
        omega.add((min(i, j), max(i, j)), delta if i < j else -delta)
        return PoissonStructure(self.n, self.start_index, omega, self.coord_kind, self.phi)

    def lu_weinstein(self, n: int) -> Optional[dict]:
        """`_lu_weinstein(self, n)`, once per n: Jacobi and multiplicativity read it."""
        if n not in self._certified:
            self._certified[n] = _lu_weinstein(self, n)
        return self._certified[n]

    @functools.cached_property
    def _certified(self) -> dict:
        return {}


def build_omega(phi: PhiFunction, n: int, start_index: int = 1,
                coord_letter: str = "x") -> PoissonStructure:
    """Bracket table of Omega, exact at truncation n: by Drinfeld's dictionary
    (Soviet Math. Dokl. 27, 1983) the Sklyanin bracket sum lam_mn (X_m (x) X_n
    - R_m (x) R_n) of the left-invariant X_m = u^m x'(u) and right-invariant
    R_m = x(u)^m.  On the extended model X_0 reaches x_{n+1}, and x_0 enters
    every R_m, so the whole finite table does."""
    phi.ensure_degree(n + 1, "build_omega")
    if start_index == 1 and not phi.divisible_by_uv():
        raise DivisibilityViolation(
            "origin-fixing jets need a generating function divisible by u and v")
    if start_index == 0 and phi.degree is not None:
        # with a constant coordinate, phi(x(u), x(v)) sums over the whole
        # table row by row; only finitely supported tables extract exactly
        raise DegreeBoundTooSmall(
            "extended-model tables need a finitely supported generating function")
    kind = jg.LETTER_KINDS[coord_letter]
    left = {m: jg.left_invariant_field(m, n, kind) for m in {m for m, _ in phi.table}}
    right = jg.right_invariant_fields(max(map(max, phi.table), default=0), n, kind, start_index)
    omega = contract(phi, start_index, n, (left, 1), (right, -1))
    return PoissonStructure(n, start_index, omega, kind, phi)


def contract(phi: PhiFunction, lo: int, n: int, *frames) -> Combination:
    """{(i, j): sum over the frames (F, sign) of sign * sum lam_mk F_m^i F_k^j}
    for lo <= i < j <= n, in (i, j) order, where a frame maps m to the field
    {i: F_m^i}: one sum of the F_m^i H_m^j, H_m = sign * sum_k lam_mk F_k."""
    pairs: dict = {}
    for F, sign in frames:
        H: dict = {}
        for (m, k), c in phi.table.items():
            if m in F and k in F:
                H.setdefault(m, Combination()).add_all(F[k], c * sign)
        for m, Hm in H.items():
            for i, a in F[m].items():
                for j, b in Hm.items():
                    if lo <= i < j <= n:
                        pairs.setdefault((i, j), []).append((a, b))
    return Combination((ij, LaurentPoly.sum_of_products(pairs[ij])) for ij in sorted(pairs))


def omega_power_closed_form(d: int, n: int) -> PoissonStructure:
    """Independent construction of the u v (u^d - v^d) bracket table:

      omega_ij = (i-d) j x_j x_{i-d} - i (j-d) x_i x_{j-d}
                 + x_i S_{d+1}(j) - x_j S_{d+1}(i)

    with S_p(m) the sum of x_{s_1}...x_{s_p} over compositions of m into p
    positive parts and x_k = 0 for k < 1.
    """
    coords = [LaurentPoly.var(Variable(VarKind.GROUP_X, k)) for k in range(1, n + 1)]

    def xv(k: int) -> LaurentPoly:
        return coords[k - 1] if 1 <= k <= n else LaurentPoly.zero()

    def comp_sum(m: int, parts: int) -> LaurentPoly:
        total = LaurentPoly.zero()
        for comp in compositions(m, parts):
            term = LaurentPoly.one()
            for s in comp:
                term = term * xv(s)
            total = total + term
        return total

    sums = [comp_sum(m, d + 1) for m in range(n + 1)]  # S_{d+1}(m)
    omega = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            val = (
                xv(j) * xv(i - d) * ((i - d) * j)
                - xv(i) * xv(j - d) * (i * (j - d))
                + xv(i) * sums[j]
                - xv(j) * sums[i]
            )
            if not val.is_zero():
                omega[(i, j)] = val
    return PoissonStructure(n, 1, omega)


# ---------------------------------------------------------------------------
# Verifiers


def verify_bracket_match(omega: PoissonStructure, d: int) -> list[rep.VerificationReport]:
    """One record per pair i < j of omega's coordinates: the table of the u v
    (u^d - v^d) family built from its generating function against the
    independent closed form `omega_power_closed_form`."""
    closed = omega_power_closed_form(d, omega.n)
    return [rep.first_failure("bracket-match", [((i, j), closed.bracket(i, j) - omega.bracket(i, j))],
                              {"i": i, "j": j, "d": d})
            for i, j in itertools.combinations(range(1, omega.n + 1), 2)]


def verify_jacobi(omega: PoissonStructure, check_max: Optional[int] = None) -> rep.VerificationReport:
    """Jacobi identity of the table within check_max, exactly.

    Origin-fixing model: the table restricted to i, j <= check_max passes
    by Drinfeld's theorem (Soviet Math. Dokl. 27, 1983; Lu and Weinstein,
    J. Differential Geom. 31, 1990) when it is multiplicative and its linear
    part at e, which `_lu_weinstein` returns, satisfies co-Jacobi
    (`_drinfeld`), with the record the scan would give: every triple
    checked, none skipped.  The theorem is stated for a connected group; the
    Jacobiator is Laurent in x_1 and polynomial in x_2..x_n, and the
    component x_1 > 0 is Zariski-dense, so a pass there holds on both
    components.  Any other table (one either criterion fails or
    `_lu_weinstein` does not decide, and every extended-model or density
    table) goes to the triple scan `_jacobi_scan`, which names the witness."""
    top = omega.n if check_max is None else min(check_max, omega.n)
    params = {"n": omega.n, "start": omega.start_index, "check_max": top,
              "checked": 0, "skipped": 0}
    lin = omega.lu_weinstein(top) if omega.start_index == 1 else None
    if lin is not None and _drinfeld(lin, top):
        params["checked"] = math.comb(max(top, 0), 3)
        return rep.first_failure("jacobi", (), params)
    return _jacobi_scan(omega, top, params)


def _jacobi_scan(omega, top, params) -> rep.VerificationReport:
    """The Jacobi residual of each triple within start_index..top, counted
    into ``params``.  A triple is checked only when every bracket it needs
    lies inside the stored table (extended-model tables reference one
    coordinate beyond any finite block, so boundary triples are skipped and
    counted)."""
    indices = range(omega.start_index, top + 1)
    gradient = functools.cache(functools.partial(_gradient, omega))  # once per bracket

    def cases():
        for (j, k, l) in itertools.combinations(indices, 3):
            ok = True
            pairs = []
            # {l, j} = -{j, l}, so its term {i, k} d{l, j}/dx_i is {k, i} d{j, l}/dx_i
            for a, (b, c), flip in ((j, (k, l), False), (k, (j, l), True), (l, (j, k), False)):
                for i, dv in gradient(b, c):
                    if i == a:
                        continue
                    if max(i, a) > omega.n:
                        ok = False
                        break
                    pairs.append((omega.bracket(a, i) if flip else omega.bracket(i, a), dv))
                if not ok:
                    break
            if not ok:
                params["skipped"] += 1
                continue
            params["checked"] += 1
            yield (j, k, l), LaurentPoly.sum_of_products(pairs)

    return rep.first_failure("jacobi", cases(), params)


def _gradient(omega, b, c) -> list:
    """The (i, d{b, c}/dv_i) over the coordinates v_i of the table's kind
    that occur in {b, c}: its nonzero partials."""
    w = omega.bracket(b, c)
    return [(v.index, dv) for v in w.variables()
            if v.kind == omega.coord_kind and (dv := w.derivative(v))]


def linear_part(omega: PoissonStructure, n: int) -> dict:
    """{(i, j): {m: c^{ij}_m}} over the stored pairs i < j <= n: the first-order
    jet c^{ij}_m = d_m pi^{ij}(e) of the table at the identity jet e
    (x_1 = 1, x_2 = .. = x_n = 0), nonzero entries only.  Any other variable,
    a parameter such as lam, stays a symbol, so the c's are exact."""
    unit = Variable(omega.coord_kind, 1)
    others = [Variable(omega.coord_kind, m) for m in range(2, n + 1)]
    return {ij: {v.index: c for v, c in w.linear_part(unit, others).items()}
            for ij, w in omega.omega.items() if max(ij) <= n}


def _drinfeld(lin, n) -> bool:
    """Whether a multiplicative table pi with i, j <= n is Poisson on the
    n-jet group, by Drinfeld's theorem, read from its linear part c at e
    (`_lu_weinstein`'s return): c satisfies co-Jacobi,

      sum over the cyclic (i, j, k) of sum_m c^{ij}_m c^{mk}_l = 0

    for every i < j < k <= n and every l.  [pi, pi] is multiplicative, so it
    vanishes iff its derivative at e, that co-Jacobiator, does."""
    c: dict = {}
    for (i, j), row in lin.items():
        c[i, j] = row
        c[j, i] = {m: -v for m, v in row.items()}
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        sums: dict = {}  # l -> the products c^{ab}_m c^{mz}_l
        for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in c.get((a, b), {}).items():
                for l, cl in c.get((m, z), {}).items():
                    sums.setdefault(l, []).append((cm, cl))
        if any(LaurentPoly.sum_of_products(pairs) for pairs in sums.values()):
            return False
    return True


def verify_multiplicativity(omega: PoissonStructure,
                            check_max: Optional[int] = None) -> rep.VerificationReport:
    """The bracket of a product against the two translated brackets, exactly.

    Origin-fixing model: the table restricted to i, j <= n passes by the
    criterion of Lu and Weinstein (1990; Drinfeld, 1983) in the n
    coordinates of one jet (`_lu_weinstein`), which holds on the whole group
    as its component x_1 > 0 is Zariski-dense.  A table it fails or does not
    decide is checked as the congruence J W J^T in the 2n symbolic
    coordinates of two factors, whose first failing pair (i, j) is the
    witness; its x part reads a table of another kind renamed x (`_in_x`).
    Extended model: that congruence alone, in the nilpotent quotient of
    order 2; the composition is carried out at one order higher than
    asserted so that differentiation by the degree-0 coordinates is exact on
    every asserted monomial.
    """
    if omega.start_index != 1:
        return _verify_mult_extended(omega, check_max)
    n = omega.n if check_max is None else min(check_max, omega.n)
    if omega.lu_weinstein(n) is not None:
        return rep.first_failure("multiplicativity", (), {"n": n, "start": 1})
    return _verify_mult_origin_fixing(omega, n)


def _lu_weinstein(omega, n) -> Optional[dict]:
    """The linear part at e (`linear_part`) of the table pi with i, j <= n
    if pi is a multiplicative bivector on the n-jet group, else None.  Only
    an x table whose brackets have partials by x_1..x_n alone (`_gradient`)
    is decided; any other (in y coordinates, or involving x_0 or x_{n+1})
    gets None, since its stray variables would be read as constants.

    pi is multiplicative iff pi(e) = 0 and L_X pi is left-invariant for
    each left-invariant X.  The X with that property are a Lie subalgebra
    (L_[X,Y] = [L_X, L_Y], and L_X keeps a left-invariant bivector
    left-invariant), and X_1, X_2, X_3 generate the left-invariant fields
    ([X_2, X_k] = (2-k) X_{k+1}), so k <= 3 suffices.  X_k^m is
    (m-k+1) x_{m-k+1}, whose d_a is m-k+1 at a = m-k+1 alone, so

      (L_k pi)^{ij} = sum_m X_k^m d_m pi^{ij} - (i-k+1) pi^{(i-k+1) j}
                      - (j-k+1) pi^{i (j-k+1)},

    and the left-invariant bivector whose value at e is b has the entries
    sum_{p, q} b^{pq} X_p^i X_q^j: the congruence J b J^T, J_ip = X_p^i.
    Once pi(e) = 0, (L_k pi)(e) = d_k pi(e), column k of the linear part:
    X_k^m(e) = delta_km, and both pi d X terms vanish at e."""
    if omega.coord_kind is not VarKind.GROUP_X:
        return None
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    others = {x_var(m).code for m in range(2, n + 1)}
    # the k = 1 congruence implies pi(e) = 0 too (J(e) = 1), but this test is cheaper
    if any(omega.bracket(*ij).drop_high_degree(others, 0).substitute({x_var(1): 1})
           for ij in pairs):
        return None
    grads = {ij: _gradient(omega, *ij) for ij in pairs}
    if any(not 1 <= m <= n for grad in grads.values() for m, _ in grad):
        return None
    X = {k: jg.left_invariant_field(k, n) for k in range(1, n + 1)}  # X[k][m] = X_k^m
    J = {i: {p: Xp[i] for p, Xp in X.items() if i in Xp} for i in X}
    lin = linear_part(omega, n)
    for k in range(1, min(n, 3) + 1):
        lie = {(i, j): LaurentPoly.sum_of_products(
            [(X[k][m], d) for m, d in grads[i, j] if m in X[k]]
            + [(omega.bracket(a, c), -s) for a, c, s in
               ((i - k + 1, j, i - k + 1), (i, j - k + 1, j - k + 1)) if s > 0])
            for i, j in pairs}
        value = {ij: row[k] for ij, row in lin.items() if k in row}
        if not _congruence_check("lu-weinstein", {}, 1, n, lambda i, j: lie[i, j],
                                 [(J, value)]).passed:
            return None
    return lin


def _verify_mult_origin_fixing(omega, n):
    y = jg.symbolic_jet(n, "y")
    z = jg.jet_compose(jg.symbolic_jet(n, "x"), y)
    to_y = {Variable(omega.coord_kind, i): y.coord(i) for i in range(1, n + 1)}
    to_z = {Variable(omega.coord_kind, i): z.coord(i) for i in range(1, n + 1)}
    table = {kl: w for kl, w in omega.omega.items() if max(kl) <= n}
    return _congruence_check(
        "multiplicativity", {"n": n, "start": 1}, 1, n,
        lambda i, j: omega.bracket(i, j).substitute(to_z),
        [(_jacobian(z, VarKind.GROUP_X, range(1, n + 1)),
          _in_x(table, omega.coord_kind, range(1, n + 1))),
         (_jacobian(z, VarKind.GROUP_Y, range(1, n + 1)),
          {kl: w.substitute(to_y) for kl, w in table.items()})])


def _verify_mult_extended(omega, check_max):
    # Assert pairs (i, j) <= K.  Work at nilpotency order M = m+1 and require
    # the residual to vanish on all monomials of degree-0 weight <= m = 2: the
    # composition at order M is exact there even after one d/dx_0.
    K = (omega.n if check_max is None else min(check_max, omega.n))
    m = 2
    phi = omega.phi
    if phi is None:
        raise ValueError("extended-model multiplicativity needs the generating function")
    M = m + 1
    # The translated sums reach pairs up to K + M (z_i reads x_k for k <= i + M),
    # so entries past the given table come from phi at that width; z is exact
    # through K + 1 and never lowers the degree-0 weight, so the lhs is cut first.
    table = dict(_in_x(omega.omega, omega.coord_kind, range(0, omega.n + 2)))
    table.update((kl, w) for kl, w in build_omega(phi, K + M, 0).omega.items()
                 if max(kl) > omega.n)
    y = jg.symbolic_jet(K + 1, "y", 0, nilpotency=M)
    z = jg.jet_compose(jg.symbolic_jet(K + M + 1, "x", 0, nilpotency=M), y)
    to_y = {Variable(omega.coord_kind, i): y.coord(i) for i in range(0, K + 2)}
    to_z = {Variable(omega.coord_kind, i): z.coord(i) for i in range(0, K + 2)}
    # z_i depends on y_k only for k <= i, so the y part needs no wider table
    return _congruence_check(
        "multiplicativity", {"n": K, "start": 0, "nilpotency": m}, 0, K,
        lambda i, j: jg.nilpotent_reduce(omega.bracket(i, j), m).substitute(to_z),
        [(_jacobian(z, VarKind.GROUP_X, range(0, K + M + 1)), table),
         (_jacobian(z, VarKind.GROUP_Y, range(0, K + 1)),
          {kl: w.substitute(to_y) for kl, w in omega.omega.items() if max(kl) <= K})],
        reduce=lambda p: jg.nilpotent_reduce(p, m))


def _in_x(table, kind, indices) -> dict:
    """The table with its coordinates of the given kind and indices renamed
    x, for the x part of a congruence; an x table itself."""
    if kind is VarKind.GROUP_X:
        return table
    to_x = {Variable(kind, i): LaurentPoly.var(x_var(i)) for i in indices}
    return {kl: w.substitute(to_x) for kl, w in table.items()}


def _jacobian(jet, kind, columns) -> dict:
    """Rows {i: {k: d z_i / d v_k}} of the nonzero partial derivatives of a
    jet's coordinates z_i by the variables v_k of one kind."""
    return {i: {k: d for k in columns if (d := jet.coord(i).derivative(Variable(kind, k)))}
            for i in jet.indices()}


def _congruence_check(name, params, lo, hi, lhs, parts, sign=-1, reduce=None):
    """lhs(i, j) + sign * sum over the parts of (J W J^T)_ij = 0 for each pair
    lo <= i < j <= hi in order; the first pair whose residual (after
    ``reduce``) is not zero fails.  A part is a Jacobian J from `_jacobian`
    and a table {(k, l): w_kl} with antisymmetric completion W, read in place,
    so (J W J^T)_ij = sum of w_kl (J_ik J_jl - J_il J_jk).  The row J_i W is
    formed once per i and held alone, with ``sign`` taken into W; a residual
    is one sum of products, started from lhs(i, j)."""
    columns = []
    for J, table in parts:
        W: dict = {}  # column l of W: the (k, sign * w_kl) and the (k, -sign * w_lk)
        for (k, l), w in table.items():
            W.setdefault(l, []).append((k, w if sign > 0 else -w))
            W.setdefault(k, []).append((l, -w if sign > 0 else w))
        columns.append((J, W))

    def cases():
        for i in range(lo, hi):  # the last i pairs with no j
            rows = []
            for J, W in columns:
                Ji, U = J[i], {}
                for l, column in W.items():
                    if u := LaurentPoly.sum_of_products((Ji[k], w) for k, w in column if k in Ji):
                        U[l] = u
                rows.append((J, U))
            for j in range(i + 1, hi + 1):
                residual = LaurentPoly.sum_of_products(
                    ((U[l], d) for J, U in rows for l, d in J[j].items() if l in U), lhs(i, j))
                yield (i, j), residual if reduce is None else reduce(residual)

    return rep.first_failure(name, cases(), params)


def phi_equation_series(phi: PhiFunction, bound: int) -> ts.TruncSeries:
    """The trivariate series F(w,u,v) + F(u,v,w) + F(v,w,u), where
    F(a,b,c) = phi(b,c) [d_b phi(a,b) + d_c phi(a,c)].

    Every variable has the same bound, so the last two terms are the first
    with its variables relabelled cyclically: one product, whose exponent
    tuples (i, j, k) are added at (i, j, k), (k, i, j) and (j, k, i).  No
    antisymmetry of the table is used, so this is exact for any table."""
    space = ("u", "v", "w")
    box = (bound,) * 3

    def pair(a: str, b: str) -> ts.TruncSeries:
        return phi.as_series(a, b, space, (bound + 1,) * 3)

    def d(series: ts.TruncSeries, var: str) -> ts.TruncSeries:
        return ts.truncate(ts.derivative(series, var), box)

    inner = ts.add(d(pair("w", "u"), "u"), d(pair("w", "v"), "v"))
    first = ts.mul(ts.truncate(pair("u", "v"), box), inner).coeffs
    total = Combination()
    for p, q, r in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        for exps, c in first.items():
            total.add((exps[p], exps[q], exps[r]), c)
    return ts.TruncSeries(space, box, total)


def verify_phi_equation(phi: PhiFunction, dcheck: int) -> rep.VerificationReport:
    """The phi equation up to degree dcheck in each variable.

    Every coefficient of the equation sits at three distinct exponents, each
    at least the table's min_index, so a dcheck below min_index + 2 would
    compare nothing and pass vacuously; it raises DegreeBoundTooSmall."""
    if dcheck < phi.min_index + 2:
        raise DegreeBoundTooSmall(
            f"verify_phi_equation compares no coefficient below degree {phi.min_index + 2}, "
            f"got {dcheck}")
    phi.ensure_degree(dcheck + 1, "verify_phi_equation")
    residual = phi_equation_series(phi, dcheck)
    params = {"dcheck": dcheck, "provenance": phi.provenance}
    return rep.first_failure("phi-equation", sorted(
        residual.coeffs.items(), key=lambda item: (sum(item[0]), item[0])), params)


def verify_inversion_antipoisson(omega: PoissonStructure) -> rep.VerificationReport:
    """omega at the inverse jet against minus the push-forward of omega."""
    if omega.start_index != 1:
        raise jg.NotInvertible("inversion check needs the origin-fixing model")
    n = omega.n
    xbar = jg.jet_inverse(jg.symbolic_jet(n, "x"))
    to_inv = {Variable(omega.coord_kind, i): xbar.coord(i) for i in range(1, n + 1)}
    return _congruence_check(
        "inversion-anti-poisson", {"n": n, "start": 1}, 1, n,
        lambda a, b: omega.bracket(a, b).substitute(to_inv),
        [(_jacobian(xbar, VarKind.GROUP_X, range(1, n + 1)),
          _in_x(omega.omega, omega.coord_kind, range(1, n + 1)))], sign=1)
