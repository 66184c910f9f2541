"""CM newform data at an ordinary prime: a_p, Hecke roots, validation.

For weight-2 desk examples a_p comes from counting points over F_p on a
curve over Q with CM, whose j-invariant names its field; higher-weight
data is synthesized from Hecke-root powers by the symmetric-power layer.
The unit root alpha_p of x^2 - a_p x + psi(p) p^(k-1) is obtained by
Hensel lifting from x = a_p mod p in integers, and
beta_p = psi(p) p^(k-1) / alpha_p.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .characters import DirichletCharacter, trivial_character
from .padic import PadicContext, PadicNumber, _check_precision, _check_prime, hensel_lift
from .quadfield import QuadFieldData, _check_split, quad_field_data

__all__ = [
    "CMFormSpec",
    "HeckeRoots",
    "MAX_POINT_COUNT_PRIME",
    "ap_point_count",
    "cm_spec",
    "cm_spec_from_curve",
    "unit_root",
    "curve_discriminant",
]


def curve_discriminant(curve: tuple[int, ...]) -> int:
    """Discriminant of y^2 = x^3 + a2 x^2 + a4 x + a6."""
    a2, a4, a6 = _curve_coeffs(curve)
    b2 = 4 * a2
    b4 = 2 * a4
    b6 = 4 * a6
    b8 = 4 * a2 * a6 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _curve_coeffs(curve) -> tuple[int, int, int]:
    t = tuple(curve)
    if len(t) == 2:
        return (0, t[0], t[1])
    if len(t) == 3:
        return t
    raise ValueError("curve must be (a4, a6) or (a2, a4, a6)")


# The largest p whose points `ap_point_count` counts.  The count takes p
# steps, each a quadratic-residue test: with Python 3.11 on a 2-vCPU VM,
# p = 99991 takes 0.26 s and p = 999983 1.9-2.6 s.
MAX_POINT_COUNT_PRIME = 10**6


def ap_point_count(curve: tuple[int, ...], p: int) -> int:
    """a_p = p + 1 - #E(F_p) by direct enumeration with quadratic-residue tests.

    p must be an odd prime of at most MAX_POINT_COUNT_PRIME; any other p is
    rejected before the count starts.
    """
    if p > MAX_POINT_COUNT_PRIME:
        raise ValueError(f"point counting needs p at most {MAX_POINT_COUNT_PRIME}")
    _check_prime(p)
    a2, a4, a6 = _curve_coeffs(curve)
    if curve_discriminant(curve) % p == 0:
        raise ValueError(f"bad reduction at {p}")
    total = 0
    for x in range(p):
        f = (x * x * x + a2 * x * x + a4 * x + a6) % p
        if f == 0:
            continue
        total += 1 if pow(f, (p - 1) // 2, p) == 1 else -1
    return -total


class CMFormSpec(namedtuple("CMFormSpec", "field weight nebentypus ap context")):
    """(F, k, psi, a_p): a p-ordinary CM eigenform's local data at p."""

    __slots__ = ()


def cm_spec(field: QuadFieldData, weight: int, nebentypus: DirichletCharacter,
            ap, level: int, ctx: PadicContext) -> CMFormSpec:
    """Validated CM form spec.

    Rejects non-ordinary a_p, p | level, nebentypus parity not matching the
    weight, and fields in which p is not split.  The level is checked, not
    stored: nothing downstream reads it.
    """
    p = ctx.p
    if weight < 2:
        raise ValueError("weight must be >= 2")
    ap = ctx.convert(ap)
    if ap.is_zero() or ap.valuation() != 0:
        raise ValueError("a_p must be a p-adic unit (ordinarity)")
    if level % p == 0:
        raise ValueError("level must be prime to p")
    if nebentypus.modulus % p == 0:
        raise ValueError("nebentypus conductor must be prime to p")
    if nebentypus.parity() != (-1) ** weight:
        raise ValueError("nebentypus parity must equal (-1)^weight")
    _check_split(field, p)
    return CMFormSpec(field=field, weight=weight, nebentypus=nebentypus, ap=ap, context=ctx)


def cm_spec_from_curve(curve: tuple[int, ...], ctx: PadicContext) -> CMFormSpec:
    """Weight-2, trivial-nebentypus spec over the curve's CM field, a_p counted on it."""
    return _curve_spec(curve, _curve_field(curve), ctx.p, ctx.N)[1]


# j -> d: a curve over Q has CM iff its j = c4^3 / Delta is that of an order of class
# number 1 (Silverman, Advanced Topics, A.3), here in Q(sqrt(-d)): the nine maximal
# orders, Z[sqrt(-3)], Z[3 omega], Z[2i] and Z[sqrt(-7)]
_CM_J = {0: 3, 54000: 3, -12288000: 3, 1728: 1, 287496: 1, -3375: 7, 16581375: 7, 8000: 2,
         -32768: 11, -884736: 19, -884736000: 43, -147197952000: 67, -262537412640768000: 163}


def _curve_field(curve) -> QuadFieldData:
    a2, a4, _ = _curve_coeffs(curve)
    delta, c4 = curve_discriminant(curve), 16 * (a2 * a2 - 3 * a4)
    if delta == 0:
        raise ValueError("the curve is singular")
    for j, d in _CM_J.items():
        if c4**3 == j * delta:
            return quad_field_data(d)
    g = gcd(c4**3, delta) * (1 if delta > 0 else -1)
    raise ValueError(f"the curve has no CM: j = {c4**3 // g}/{delta // g}")


def _curve_spec(curve, F, p, N) -> tuple[int, CMFormSpec]:
    # a_p, then the spec over F (level 32: the desk curve's).  The count takes p steps,
    # so p's primality and split in F come first; p^N only once the count accepts p
    _check_prime(p)
    _check_split(F, p)
    _check_precision(N)
    ap = ap_point_count(curve, p)
    return ap, cm_spec(F, 2, trivial_character(), ap, 32, PadicContext(p, N))


class HeckeRoots(namedtuple("HeckeRoots", "alpha beta")):
    """Unit root alpha and non-unit root beta of x^2 - a_p x + psi(p) p^(k-1)."""

    __slots__ = ()


def unit_root(spec: CMFormSpec) -> HeckeRoots:
    """Hecke roots; alpha found by Hensel lifting from alpha = a_p mod p.

    alpha is the root of x^2 - a_p x + c mod p^R, R = a_p.rel_prec and
    c = psi(p) p^(k-1), lifted in integers; it is simple because
    f'(alpha) = alpha - beta is a unit.  beta = c / alpha.  psi(p) is the
    exact +-1 of `value_exact`, since `cm_spec` keeps p off psi's modulus.
    """
    ctx = spec.context
    p = ctx.p
    c = ctx.from_int(spec.nebentypus.value_exact(p)) * p ** (spec.weight - 1)
    R = spec.ap.rel_prec
    a, c_int = spec.ap.unit_int(), c.residue(R)
    x = hensel_lift(lambda x, m: x * x - a * x + c_int, lambda x, m: 2 * x - a,
                    a % p, p, R)
    alpha = PadicNumber(ctx, 0, x, R)
    return HeckeRoots(alpha=alpha, beta=c / alpha)
