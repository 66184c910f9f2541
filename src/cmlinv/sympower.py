"""Symmetric-power layer: decomposition into a Dirichlet factor and
twisted modular factors, critical integers, trivial-zero prediction,
and the non-vanishing interpolation product.

For an even power n = 2m the weight-0 normalization splits off the
quadratic character of the CM field raised to the m-th power plus m
modular factors; factor j comes from the 2j-th power of the Hecke
character, has weight 2j(k-1) + 1, cyclotomic shift j(k-1), twist
psi^(-j) theta^(m-j), and Hecke roots

    alpha_j = psi(p)^(-j) alpha^(2j),   beta_j = psi(p)^(-j) beta^(2j),

using theta(p) = 1 at split p.  Odd powers decompose into modular
factors only (odd Hecke-character powers).  A trivial zero comes from
an odd Dirichlet factor theta^m: where it lies depends on n alone, and
its order-1 certificate, theta's branch series at s = 0 or 1, on theta and p.
"""

from __future__ import annotations

from collections import namedtuple

from .characters import DirichletCharacter, char_product
from .cmform import CMFormSpec, unit_root
from .kl import BranchSeries, branch_series
from .padic import PadicContext, PadicNumber

__all__ = [
    "SymPowerFactor",
    "decompose",
    "MAX_DECOMPOSE_DIGITS",
    "MAX_CRITICAL_WEIGHT",
    "critical_integers",
    "trivial_zero_locations",
    "trivial_zero_certificates",
    "e_plus",
]


class SymPowerFactor(namedtuple(
        "SymPowerFactor", "eta_power weight shift twist alpha beta")):
    """One modular factor of the decomposed symmetric power: the Hecke-character
    power r, the weight r(k-1) + 1, and the cyclotomic shift, twist character and
    Hecke roots of the twisted form."""

    __slots__ = ()


def decompose(spec: CMFormSpec, n: int
              ) -> tuple[DirichletCharacter | None, tuple[SymPowerFactor, ...]]:
    """The Dirichlet factor theta^m (None at odd n) and the modular factors of the
    weight-0-normalized n-th symmetric power, n = 2m or 2m + 1."""
    ctx = spec.context
    _check_decompose(n, ctx.N)
    theta = spec.field.character()
    psi = spec.nebentypus
    roots = unit_root(spec)
    psi_p = ctx.from_int(psi.value_exact(ctx.p))  # exact: p is prime to psi's modulus
    # block i holds the Hecke-character power r = n - 2i, and m - i = r // 2:
    # twist psi^(-r//2) theta^i, cyclotomic shift (r // 2)(k - 1)
    k = spec.weight
    factors = []
    for r in range(n, 0, -2):
        i, j = (n - r) // 2, r // 2
        scale = psi_p ** -j
        factors.append(SymPowerFactor(
            eta_power=r, weight=r * (k - 1) + 1, shift=j * (k - 1),
            twist=char_product(psi.power(-j), theta.power(i)),
            alpha=scale * roots.alpha**r, beta=scale * roots.beta**r))
    return (None if n % 2 else theta.power(n // 2)), tuple(factors)


# The largest n * (N + _DECOMPOSE_OVERHEAD) `decompose` builds, n/2
# factors of two N-digit roots.  Each factor also writes about 100 bytes and
# holds about 1 KB whatever N is: at p = 5 and n = 10^4 the output is 1.10 MB
# at N = 1 and 1.29 MB at N = 10, about 2.1 n (N + 50) bytes.  With Python 3.11
# on a 2-vCPU VM the ceiling lets through at most about 0.2 MB and 0.2-0.5 s
# (n = 2, N = 49950: 0.5 s); n = 10^5 at N = 1 took 2.4 s, 11 MB and 107 MB RSS
# under the n * N ceiling, and 10^6 at N = 10 would need about 1.1 GB.
MAX_DECOMPOSE_DIGITS = 10**5
_DECOMPOSE_OVERHEAD = 50


def _check_decompose(n: int, N: int) -> None:
    # decompose's refusals, which its callers also run before the point count
    if n < 1:
        raise ValueError("n must be >= 1")
    digits = n * (N + _DECOMPOSE_OVERHEAD)
    if digits > MAX_DECOMPOSE_DIGITS:
        raise ValueError(f"decompose lists n * (N + {_DECOMPOSE_OVERHEAD}) up to "
                         f"{MAX_DECOMPOSE_DIGITS} digits; n = {n} at N = {N} digits is {digits}")


# The largest weight `critical_integers` lists, about k integers: with Python 3.11
# on a 2-vCPU VM, `cmlinv critical --n 4` takes 0.35-0.39 s and writes 7.4 MB
# at k = 10^6; the output grows with k, to 84 MB at k = 10^7.
MAX_CRITICAL_WEIGHT = 10**6


def critical_integers(n: int, k: int) -> list[int]:
    """The critical set for the even power n; refuses odd n and k over MAX_CRITICAL_WEIGHT.

    Worked out from the Gamma factors of the weight-0 motive: the
    smallest modular factor confines a to [2-k, k-1], and the real
    Gamma factor of the middle line fixes the parity -- for m odd
    (odd character) non-positive evens and positive odds, for m even
    (trivial character) negative odds and positive evens with 0 and 1
    excluded.  The result is symmetric under a -> 1 - a, as the
    functional equation of a self-dual weight-0 motive demands.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and at least 2, got {n}")
    if k < 2:
        raise ValueError("weight must be >= 2")
    if k > MAX_CRITICAL_WEIGHT:
        raise ValueError(f"critical integers are listed for weights up to {MAX_CRITICAL_WEIGHT}")
    if n // 2 % 2:  # non-positive evens and positive odds
        return [*range(2 - k + k % 2, 1, 2), *range(1, k, 2)]
    return [*range(3 - k - k % 2, 0, 2), *range(2, k, 2)]  # negative odds, positive evens


def trivial_zero_locations(n: int) -> tuple[tuple[int, int], ...]:
    """The (branch, s) trivial zeroes of the n-th power: (0, 0) and (1, 1), both of
    order 1, when n = 2m with m odd (theta^m odd); none otherwise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ((0, 0), (1, 1)) if n % 4 == 2 else ()


def trivial_zero_certificates(theta: DirichletCharacter,
                              ctx: PadicContext) -> tuple[BranchSeries, ...]:
    """The order-1 certificates of the two trivial zeroes: theta's branch series i at
    s = i to order 2 and ctx.N digits, checked to have coefficients c0 = 0 and c1 != 0
    mod p^N.  They read theta and p alone, so take no n, and both read g' at 0."""
    certs = []
    for i in (0, 1):
        bs = branch_series(i, theta, i, 2, ctx, n_cert=ctx.N)
        c0, c1 = bs.coefficients
        if c0.min_valuation() < bs.n_cert:
            raise ArithmeticError("predicted trivial zero has a nonvanishing value")
        if c1.is_zero() or c1.valuation() >= bs.n_cert:
            raise ArithmeticError(f"c1 = 0 mod {ctx.p}^{bs.n_cert}, so the predicted "
                                  f"order-1 zero is not certified at N_cert = {bs.n_cert}")
        certs.append(bs)
    return tuple(certs)


def e_plus(spec: CMFormSpec, factors: tuple[SymPowerFactor, ...], i: int) -> PadicNumber:
    """Interpolation product with the vanishing Dirichlet factor removed:

        prod_{j=1..m} (1 - p^(i + j(k-1) - 1)/alpha_j)(1 - p^(-i - j(k-1)) beta_j)

    at the trivial twist, over the modular factors decompose(spec, n)[1].
    Defined only at a genuine trivial zero (n = 2m, m odd, i in {0, 1}),
    which the caller names; every factor is p-integral and the product is
    nonzero at working precision.
    """
    if i not in (0, 1):
        raise ValueError("branch index must be 0 or 1")
    ctx = spec.context
    p = ctx.p
    acc = ctx.one()
    for f in factors:
        acc = acc * (1 - ctx.from_int(p) ** (i + f.shift - 1) / f.alpha)
        acc = acc * (1 - ctx.from_int(p) ** (-i - f.shift) * f.beta)
    if acc.is_zero():
        raise ArithmeticError("interpolation product vanished at working precision")
    return acc
