"""Imaginary quadratic field invariants and the split-prime package.

Class numbers come from enumerating reduced binary quadratic forms
(a, b, c) with b^2 - 4ac = D, |b| <= a <= c, and b >= 0 when |b| = a or
a = c.  For a split odd prime p, `pi_bar` solves the norm equation
(x^2 - D y^2)/4 = p^h with no search: it Hensel-lifts sqrt(D) mod p to
p^h and runs Cornacchia's reduction (Cohen, GTM 138, Alg. 1.5.3) in
O(h log p) steps, which lands on the primitive solution x, y >= 0 with
the least y over all unit associates and conjugates.  It returns the
conjugate whose image under the fixed embedding into Q_p is a unit,
together with the Iwasawa log of that image.  The embedding sends
sqrt(D) to the Hensel lift whose residue mod p is the least positive
square root of D mod p.  The other embedding sends sqrt(D) to the other
square root and the unit conjugate to the same p-adic number, so the
`conjugate_lift` flag of `pi_bar` only relabels: the two coordinate
pairs swap.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .characters import (_kronecker_prime, char_from_kronecker,
                         is_fundamental_discriminant)
from .padic import (PadicContext, _is_prime, hensel_lift, iwasawa_log,
                    sqrt_mod_prime, sqrt_unit)

__all__ = [
    "MAX_ABS_DISCRIMINANT",
    "QuadFieldData",
    "SplitPrimeData",
    "quad_field_data",
    "quad_field_from_discriminant",
    "split_behavior",
    "pi_bar",
    "reduced_forms",
]


class QuadFieldData(namedtuple("QuadFieldData", "d D h w")):
    """Q(sqrt(-d)): fundamental discriminant D < 0, class number h, unit count w."""

    __slots__ = ()

    def character(self):
        """The odd quadratic character attached to the field."""
        return char_from_kronecker(self.D)


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced forms (a, b, c) of discriminant D < 0."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError("D must be a negative discriminant")
    out = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            out.append((a, b, c))
    return out


# The largest |D| a field may have.  `reduced_forms` takes about |D|/3 steps
# and the squarefree test about sqrt|D|: with Python 3.11 on a 2-vCPU VM,
# a field with D = -999995 (h = 480) takes 0.04 s and D = -9999995 0.4 s.
MAX_ABS_DISCRIMINANT = 10**6


def _check_ceiling(D: int) -> None:
    # before any trial division, which a 200-digit D would never leave
    if -D > MAX_ABS_DISCRIMINANT:
        raise ValueError(f"|D| must be at most {MAX_ABS_DISCRIMINANT}")


def quad_field_data(d: int) -> QuadFieldData:
    """Invariants of Q(sqrt(-d)) for squarefree d > 0 with |D| <= MAX_ABS_DISCRIMINANT."""
    D = -d if d % 4 == 3 else -4 * d
    _check_ceiling(D)
    if d < 1 or not is_fundamental_discriminant(D):
        raise ValueError(f"d must be a squarefree positive integer, got {d}")
    h = len(reduced_forms(D))
    w = 6 if D == -3 else 4 if D == -4 else 2
    return QuadFieldData(d=d, D=D, h=h, w=w)


def quad_field_from_discriminant(D: int) -> QuadFieldData:
    """Same data keyed by a fundamental discriminant D < 0."""
    _check_ceiling(D)
    if D >= 0 or not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a negative fundamental discriminant")
    d = -D if D % 4 == 1 else -D // 4
    return quad_field_data(d)


def split_behavior(F: QuadFieldData, p: int) -> str:
    """'split', 'inert', or 'ramified' at a prime p; p = 2 handled through (D/2)."""
    if not _is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    s = _kronecker_prime(F.D, p)
    return "split" if s == 1 else "inert" if s == -1 else "ramified"


def _check_split(F: QuadFieldData, p: int) -> None:
    if split_behavior(F, p) != "split":
        raise ValueError(f"p = {p} does not split in Q(sqrt({F.D}))")


class SplitPrimeData(namedtuple(
        "SplitPrimeData",
        "sqrt_disc pi_coords pibar_coords pibar_unit log_pibar")):
    """The split-prime package at p.

    Coordinates (x, y) encode (x + y*sqrt(D))/2; pibar_coords is the
    conjugate whose embedding image is a unit and generates the h-th power
    of the prime missed by the embedding.  sqrt_disc, pibar_unit and
    log_pibar are PadicNumbers; the coordinates are integer pairs.
    """

    __slots__ = ()


def _norm_solution(F: QuadFieldData, p: int, r0: int) -> tuple[int, int]:
    # Cornacchia on x^2 + |D| y^2 = 4 p^h from r^2 = D mod 4 p^h, r = r0 mod p.
    # The Euclidean remainders of (2 p^h, r) are the relative minima of the
    # lattice x = r y mod 2 p^h, which holds every unit associate of one
    # prime's generator; so the first remainder below 2 p^(h/2) is the
    # primitive solution with the least |y|, and conjugates share its |y|
    D, q = F.D, p**F.h
    r = hensel_lift(lambda x, m: x * x - D, lambda x, m: 2 * x, r0, p, F.h)
    a, b, bound = 2 * q, r + q * ((r - D) % 2), isqrt(4 * q)
    while b > bound:
        a, b = b, a % b
    return b, isqrt((4 * q - b * b) // -D)


def pi_bar(F: QuadFieldData, p: int, ctx: PadicContext,
           conjugate_lift: bool = False,
           representation: tuple[int, int] | None = None) -> SplitPrimeData:
    """Generator data for the h-th power of the conjugate prime above p.

    Needs p split in F.  Solves the norm equation (a Hensel lift, then
    Cornacchia) and keeps the primitive solution x, y >= 0 with the least
    y.  Any primitive representation gives the same log_pibar because
    generators differ by roots of unity, which the Iwasawa log kills; pass
    `representation` to check that explicitly.  `conjugate_lift` names
    the other embedding, which sends sqrt(D) to the other square root of
    D, so sqrt_disc changes sign and the coordinate pairs swap, while
    pibar_unit and log_pibar are the same.
    """
    if ctx.p != p:
        raise ValueError("context prime and p disagree")
    _check_split(F, p)
    D, h = F.D, F.h
    r0 = sqrt_mod_prime(D, p)
    w = sqrt_unit(ctx.from_int(D), residue=r0)
    if conjugate_lift:
        w = -w
    # a found representation passes the same checks as a given one
    x, y = _norm_solution(F, p, r0) if representation is None else representation
    if (x * x - D * y * y) != 4 * p**h or (x - y * D) % 2:
        raise ValueError("not a valid norm representation")
    if x % p == 0 and y % p == 0:
        raise ValueError("representation is not primitive")
    plus = (w * y + x) / 2
    minus = (w * (-y) + x) / 2
    if plus.is_unit() == minus.is_unit():
        raise ArithmeticError("exactly one conjugate must be a unit")
    if plus.is_unit():
        pibar_coords, pi_coords, pibar_img = (x, y), (x, -y), plus
    else:
        pibar_coords, pi_coords, pibar_img = (x, -y), (x, y), minus
    return SplitPrimeData(
        sqrt_disc=w, pi_coords=pi_coords, pibar_coords=pibar_coords,
        pibar_unit=pibar_img, log_pibar=iwasawa_log(pibar_img))
