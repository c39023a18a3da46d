"""A reference route for the Lu-Weinstein criterion, kept beside the tests.

It decides what `poissonlie._lu_weinstein` and
`poissonlie.infinitesimal_criterion` decide by another route: pi(e) by
`substitute`, the frame as polynomial fields (`jetgroup.left_invariant_field`,
`density.density_fields`), each Lie derivative as the sum of the products of
the frame's components with a bracket's partial derivatives, and the right
side as the congruence J c_k J^T of `poissonlie._congruence_check`.
"""

import itertools

from jetpoisson import jetgroup as jg
from jetpoisson import poissonlie as pl
from jetpoisson.coeffpoly import LaurentPoly, VarKind, x_var


def gradient(omega, b, c) -> list:
    """The (i, d{b, c}/dv_i) over the coordinates v_i of the table's kind
    that occur in {b, c}: its nonzero partials."""
    w = omega.bracket(b, c)
    return [(v.index, dv) for v in w.variables()
            if v.kind == omega.coord_kind and (dv := w.derivative(v))]


def criterion(omega, lo, hi, X, lin, lam) -> bool:
    """L_{X_k} pi = J c_k J^T on the pairs lo <= i < j <= hi for k = 1, 2, 3,
    for the frame X[k][m] = X_k^m; False if a bracket has a partial by a
    coordinate outside lo..hi."""
    pairs = list(itertools.combinations(range(lo, hi + 1), 2))
    grads = {ij: gradient(omega, *ij) for ij in pairs}
    if any(not lo <= m <= hi for grad in grads.values() for m, _ in grad):
        return False
    J = {i: {p: Xp[i] for p, Xp in X.items() if i in Xp} for i in range(lo, hi + 1)}
    for k in range(1, min(max(X, default=0), 3) + 1):
        lie = {(i, j): LaurentPoly.sum_of_products(
            [(X[k][m], d) for m, d in grads[i, j] if m in X[k]]
            + [(omega.bracket(a, c), -(lam * k + s)) for a, c, s in
               ((i - k + 1, j, i - k + 1), (i, j - k + 1, j - k + 1)) if s >= lo])
            for i, j in pairs}
        value = {ij: row[k] for ij, row in lin.items() if k in row}
        if not pl._congruence_check("lu-weinstein", {}, lo, hi, lambda i, j: lie[i, j],
                                    [(J, value)]).passed:
            return False
    return True


def lu_weinstein(omega, n):
    """The linear part at e of a multiplicative x table on the n-jet group,
    else None."""
    if omega.coord_kind is not VarKind.GROUP_X:
        return None
    others = {x_var(m).code for m in range(2, n + 1)}
    if any(omega.bracket(i, j).drop_high_degree(others, 0).substitute({x_var(1): 1})
           for i, j in itertools.combinations(range(1, n + 1), 2)):
        return None
    X = {k: jg.left_invariant_field(k, n) for k in range(1, n + 1)}
    lin = pl.linear_part(omega, n)
    return lin if criterion(omega, 1, n, X, lin, 0) else None
