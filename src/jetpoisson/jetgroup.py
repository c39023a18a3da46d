"""Truncated jet groups under composition of power series.

Two models live here:

* ``start_index=1``: invertible series x_1 u + ... + x_n u^n (x_1 a unit),
  the group of jets fixing the origin.  Composition, identity, inverse and
  the projections are all exact at the stated truncation.

* ``start_index=0``: series with a constant term, modeling diffeomorphisms
  that move the origin.  The degree-0 coordinates are treated as nilpotent of
  a configurable order m (monomials of total degree > m in the degree-0
  coordinates are dropped), which makes the otherwise infinite coordinate
  sums finite.  Composition then yields exact coordinates only up to index
  x.n - m, and the result is truncated there.

``verify_group_laws`` checks the group laws of the first model on symbolic jets.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import report as rep
from . import series as ts
from .coeffpoly import Combination, Frozen, LaurentPoly, NotInvertible, Variable, VarKind, poly

LETTER_KINDS = {"x": VarKind.GROUP_X, "y": VarKind.GROUP_Y, "z": VarKind.GROUP_Z}

# The degree-0 group coordinates x0, y0, z0: the nilpotent generators of the extended model.
ZERO_COORD_CODES = frozenset(Variable(kind, 0).code for kind in LETTER_KINDS.values())


class ShapeMismatch(ValueError):
    pass


def nilpotent_reduce(p: LaurentPoly, m: int) -> LaurentPoly:
    return p.drop_high_degree(ZERO_COORD_CODES, m)


class JetElement(Frozen):
    def __init__(self, start_index: int, coords: tuple, n: int, nilpotency: Optional[int]):
        self.__dict__.update(start_index=start_index, coords=coords, n=n, nilpotency=nilpotency)

    def coord(self, i: int) -> LaurentPoly:
        if i < self.start_index or i > self.n:
            return LaurentPoly.zero()
        return self.coords[i - self.start_index]

    def indices(self):
        return range(self.start_index, self.n + 1)

    def to_series(self, bound: Optional[int] = None) -> ts.TruncSeries:
        bound = self.n if bound is None else bound
        return ts.make(
            ("u",), (bound,), {(i,): self.coord(i) for i in self.indices() if i <= bound}
        )


def make_jet(coords, start_index: int = 1, nilpotency: Optional[int] = None) -> JetElement:
    coords = tuple(poly(c) for c in coords)
    n = start_index + len(coords) - 1
    if start_index == 0 and nilpotency is None:
        raise ShapeMismatch("extended jets need a nilpotency order")
    return JetElement(start_index, coords, n, nilpotency if start_index == 0 else None)


def symbolic_jet(n: int, letter: str = "x", start_index: int = 1,
                 nilpotency: Optional[int] = None) -> JetElement:
    kind = LETTER_KINDS[letter]
    coords = [LaurentPoly.var(Variable(kind, i)) for i in range(start_index, n + 1)]
    return make_jet(coords, start_index, nilpotency)


def jet_identity(n: int) -> JetElement:
    return make_jet([1] + [0] * (n - 1))


def jet_compose(x: JetElement, y: JetElement) -> JetElement:
    """Coordinates of the jet u -> x(y(u))."""
    if x.start_index != y.start_index:
        raise ShapeMismatch("jets from different models")
    if x.start_index == 1:
        n = min(x.n, y.n)
        z = ts.compose(x.to_series(bound=n), y.to_series(bound=n))
        return make_jet([z.coeff((i,)) for i in range(1, n + 1)], 1)

    if x.nilpotency != y.nilpotency:
        raise ShapeMismatch("mismatched nilpotency orders")
    m = x.nilpotency
    n = min(x.n - m, y.n)
    if n < 0:
        raise ShapeMismatch("not enough coordinates for an exact extended composition")
    y_series = y.to_series(bound=n)
    # Horner evaluation of sum_i x_i * y(u)^i with nilpotent reduction layered
    # into every step so degree-0 powers never accumulate.
    acc = ts.zero(("u",), (n,))
    for i in range(x.n, x.start_index - 1, -1):
        acc = ts.mul(acc, y_series)
        ci = x.coord(i)
        if not ci.is_zero():
            acc = ts.add(acc, ts.const(ci, ("u",), (n,)))
        acc = ts.TruncSeries(("u",), (n,), acc.coeffs.map(lambda c: nilpotent_reduce(c, m)))
    return make_jet([acc.coeff((j,)) for j in range(0, n + 1)], 0, m)


def jet_inverse(x: JetElement) -> JetElement:
    if x.start_index != 1:
        raise NotInvertible("only jets fixing the origin are inverted here")
    inv = ts.comp_inverse(x.to_series(), x.n)
    return make_jet([inv.coeff((i,)) for i in range(1, x.n + 1)], 1)


def jet_project(x: JetElement, m: int) -> JetElement:
    if m < x.start_index:
        raise ShapeMismatch("projection below the first coordinate")
    if m >= x.n:
        return x
    return JetElement(x.start_index, x.coords[: m - x.start_index + 1], m, x.nilpotency)


# -- left-invariant vector fields, as combinations {i: component of d/dx_i} --


def left_invariant_field(k: int, n: int) -> Combination:
    """X_k = sum_{i=1}^{n-k+1} i * x_i * d/dx_{i+k-1} at truncation n."""
    return Combination(
        (i + k - 1, LaurentPoly.var(Variable(VarKind.GROUP_X, i)) * i)
        for i in range(1, n - k + 2)
    )


def vf_commutator(a: Combination, b: Combination) -> Combination:
    """[a, b]_j = sum_i a_i d(b_j)/dx_i - b_i d(a_j)/dx_i."""
    comps = Combination()
    for f, g, negate in ((a, b, False), (b, a, True)):
        for i, fi in f.items():
            xi = Variable(VarKind.GROUP_X, i)
            for j, gj in g.items():
                term = fi * gj.derivative(xi)
                comps.add(j, -term if negate else term)
    return comps


def _differences(a: JetElement, b: JetElement, top: int):
    """The cases ((i,), a_i - b_i) of coordinates 1..top."""
    return (((i,), a.coord(i) - b.coord(i)) for i in range(1, top + 1))


def verify_group_laws(n: int) -> list[rep.VerificationReport]:
    """Associativity, identity and both inverses of symbolic jets at truncation
    n, [X_a, X_b] = (a - b) X_{a+b-1} for a, b <= min(n, 6), and the projection
    to m = max(1, n - 2) coordinates as a homomorphism."""
    x, y, z = (symbolic_jet(n, letter) for letter in "xyz")
    xy, e, xb = jet_compose(x, y), jet_identity(n), jet_inverse(x)
    laws = {
        "group-associativity": _differences(
            jet_compose(xy, z), jet_compose(x, jet_compose(y, z)), n),
        "group-identity": itertools.chain(_differences(jet_compose(x, e), x, n),
                                          _differences(jet_compose(e, x), x, n)),
        "group-inverse": itertools.chain(_differences(jet_compose(x, xb), e, n),
                                         _differences(jet_compose(xb, x), e, n)),
    }
    records = [rep.first_failure(name, cases, {"n": n}) for name, cases in laws.items()]
    top = min(n, 6)

    def bracket_cases():
        X = {k: left_invariant_field(k, n) for k in range(1, 2 * top)}
        for a in range(1, top + 1):
            for b in range(1, top + 1):
                diff = vf_commutator(X[a], X[b])
                diff.add_all(X[a + b - 1], b - a)
                yield (a, b), diff[min(diff)] if diff else LaurentPoly.zero()

    records.append(rep.first_failure("field-bracket", bracket_cases(), {"n": n}))
    m = max(1, n - 2)
    records.append(rep.first_failure("projection-homomorphism", _differences(
        jet_project(xy, m), jet_compose(jet_project(x, m), jet_project(y, m)), m),
        {"n": n, "m": m}))
    return records
