"""Weight-lambda densities: the jet-group action and its compatible brackets.

A density is a series x(u) = x_0 + x_1 u + ... together with a formal weight
lambda; an origin-fixing jet y acts by

    x(u) (du)^lambda  |->  x(y(u)) (y'(u))^lambda (du)^lambda.

The fractional power never needs real semantics: y'(u) = y_1 (1 + w(u)) with
w vanishing at 0, (1 + w)^lambda is the generalized binomial series, and
y_1^lambda stays an opaque invertible unit t.  Every identity checked here
balances its t powers, so the checks close inside the Laurent ring.
"""

from __future__ import annotations

from typing import Optional

from . import jetgroup as jg
from . import report as rep
from . import series as ts
from .coeffpoly import Combination, Frozen, LaurentPoly, Variable, VarKind, aux_t, poly
from .poissonlie import PhiFunction, PoissonStructure, build_omega, contract, verify_jacobi, weight


class DensityElement(Frozen):
    def __init__(self, coords: tuple, lam: LaurentPoly, n: int):
        self.__dict__.update(coords=coords, lam=lam, n=n)  # coords: x_0 ... x_n

    def coord(self, i: int) -> LaurentPoly:
        if 0 <= i <= self.n:
            return self.coords[i]
        return LaurentPoly.zero()

    def to_series(self, bound: int) -> ts.TruncSeries:
        return ts.make(("u",), (bound,), {(i,): self.coord(i) for i in range(bound + 1)})


def make_density(coords, lam) -> DensityElement:
    coords = tuple(poly(c) for c in coords)
    return DensityElement(coords, weight(lam), len(coords) - 1)


def symbolic_density(n: int, lam) -> DensityElement:
    return make_density(
        [LaurentPoly.var(Variable(VarKind.DENSITY_X, i)) for i in range(n + 1)], lam
    )


def _jet_unit_series(y: jg.JetElement, lam: LaurentPoly, bound: int,
                     shift: int = 0) -> ts.TruncSeries:
    """(y'(u))^(lam+shift) divided by its opaque unit:
    y_1^shift * (1 + w)^(lam+shift) as a truncated series."""
    J = ts.derivative(y.to_series(bound=bound + 1), "u")
    y1 = y.coord(1)
    y1_inv = y1.monomial_inverse()
    w = ts.sub(ts.scale(J, y1_inv), ts.const(1, ("u",), (bound,)))
    exponent = lam + shift
    out = ts.binomial_power(ts.add(ts.const(1, ("u",), (bound,)), w), exponent)
    if shift:
        out = ts.scale(out, y1 ** shift if shift > 0 else y1_inv ** (-shift))
    return out


def density_act(y: jg.JetElement, x: DensityElement,
                t_unit: Optional[LaurentPoly] = None) -> DensityElement:
    """Coordinates of x(y(u)) * (y'(u))^lambda.

    ``t_unit`` stands for y_1^lambda; it defaults to the opaque unit t and
    must be supplied explicitly (as a product of units) when composing
    actions.  A rational weight 0 needs no unit at all.
    """
    if y.start_index != 1:
        raise jg.NotInvertible("densities are acted on by origin-fixing jets")
    y.coord(1).monomial_inverse()  # raises NotInvertible unless y_1 is a unit
    n_out = min(x.n, y.n - 1)
    z = ts.compose(x.to_series(bound=n_out), y.to_series(bound=n_out))
    lam = x.lam
    if lam.is_zero():
        scaled = z
    else:
        if t_unit is None:
            t_unit = LaurentPoly.var(aux_t(0))
        power = _jet_unit_series(y, lam, n_out)
        scaled = ts.scale(ts.mul(z, power), t_unit)
    return DensityElement(tuple(scaled.coeff((i,)) for i in range(n_out + 1)), lam, n_out)


def build_omega_density(phi: PhiFunction, lam, n: int) -> PoissonStructure:
    """Bracket table on densities from a generating function divisible by uv:
    Omega = phi x'(u) x'(v) + lam d_u phi x(u) x'(v) + lam d_v phi x'(u) x(v)
    + lam^2 d_u d_v phi x(u) x(v) = sum lam_mn xi_m (x) xi_n, the contraction
    with the fields xi_m^i = (i - m + 1 + lam m) x_{i-m+1} of u^m d/du on
    weight-lam densities.  Indices from 0; entries reference coordinates up
    to max(i,j)+1.
    """
    phi.ensure_degree(n + 2, "build_omega_density")
    lam = weight(lam)
    x = symbolic_density(n + 1, 0).coords
    xi = {m: Combination((i, x[i - m + 1] * (lam * m + (i - m + 1)))
                         for i in range(max(m - 1, 0), n + 1))
          for m in range(n + 2)}
    return PoissonStructure(n, 0, contract(phi, 0, n, (xi, 1)), VarKind.DENSITY_X, phi)


def verify_density_action(phi: PhiFunction, lam, n: int,
                          omega_dens: Optional[PoissonStructure] = None) -> rep.VerificationReport:
    """The action is a Poisson map: the bracket table evaluated on the acted
    density equals the translated group + density brackets, exactly.

    All five assembled terms carry the opaque unit squared, so the comparison
    closes in the Laurent ring with t kept symbolic.
    """
    lam = weight(lam)
    K = n
    space, bounds = ("u", "v"), (K, K)
    if omega_dens is None:
        omega_dens = build_omega_density(phi, lam, K + 1)
    x = symbolic_density(K + 1, lam)
    y = jg.symbolic_jet(K + 2, "y")
    t = LaurentPoly.one() if lam.is_zero() else LaurentPoly.var(aux_t(0))
    z_lam = density_act(y, x, t)  # coords through K+1

    dens_vars = {Variable(VarKind.DENSITY_X, i): z_lam.coord(i) for i in range(K + 2)}
    lhs = ts.make(space, bounds, Combination.antisymmetric(
        (ij, w.substitute(dens_vars)) for ij, w in omega_dens.omega.items() if ij[1] <= K))

    # ingredients of the right-hand side
    def both(s):
        """A u-series lifted into the u slot and into the v slot."""
        return ts.lift(s, space, bounds), ts.lift(s, space, bounds, names=("v",))

    y_u, y_v = both(y.to_series(bound=K))
    z = ts.compose(x.to_series(bound=K + 1), y.to_series(bound=K + 1))
    z_u, z_v = both(ts.truncate(z, (K,)))
    zp_u, zp_v = both(ts.derivative(z, "u"))
    P_u, P_v = both(_jet_unit_series(y, lam, K))             # (1+w)^lam
    Q_u, Q_v = both(_jet_unit_series(y, lam, K, shift=-1))   # y1^-1 (1+w)^(lam-1)

    # term 1: density table at x, evaluated along the jet
    t1 = ts.subst(ts.make(space, bounds, Combination.antisymmetric(omega_dens.omega.items())),
                  {"u": y_u, "v": y_v})
    t1 = ts.product(t1, P_u, P_v)
    t1 = ts.scale(t1, t * t)

    # group-structure series on the acting jet, one index wider for derivatives
    group = build_omega(phi, K + 1, 1, coord_letter="y")
    wide = ts.make(space, (K + 1, K + 1), Combination.antisymmetric(group.omega.items()))
    bar = ts.truncate(wide, bounds)
    bar_u = ts.truncate(ts.derivative(wide, "u"), bounds)
    bar_v = ts.truncate(ts.derivative(wide, "v"), bounds)
    bar_uv = ts.truncate(ts.derivative(ts.derivative(wide, "u"), "v"), bounds)

    t2 = ts.product(bar, ts.mul(zp_u, Q_u), ts.mul(zp_v, Q_v))
    t3 = ts.scale(ts.product(bar_u, ts.mul(z_u, Q_u), ts.mul(zp_v, Q_v)), lam)
    t4 = ts.scale(ts.product(bar_v, ts.mul(zp_u, Q_u), ts.mul(z_v, Q_v)), lam)
    t5 = ts.scale(ts.product(bar_uv, ts.mul(z_u, Q_u), ts.mul(z_v, Q_v)), lam * lam)
    rhs = ts.add(t1, ts.scale(ts.add(ts.add(t2, t3), ts.add(t4, t5)), t * t))

    residual = ts.sub(lhs, rhs)
    return rep.first_failure(
        "density-action", sorted(residual.coeffs.items(), key=lambda item: (sum(item[0]), item[0])),
        {"n": n, "provenance": phi.provenance, "lam": lam.render()})


def verify_density_jacobi(phi: PhiFunction, lam, n: int,
                          omega_dens: Optional[PoissonStructure] = None) -> rep.VerificationReport:
    """Jacobi identity of the density bracket on all triples within 0..n."""
    if omega_dens is None:
        omega_dens = build_omega_density(phi, lam, n + 1)
    out = verify_jacobi(omega_dens, check_max=n)
    out.check = "density-jacobi"
    out.params["provenance"] = phi.provenance
    return out
