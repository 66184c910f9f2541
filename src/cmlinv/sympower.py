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
its order-1 certificate, theta's branch series at s = 0 or 1, on theta.
"""

from __future__ import annotations

from collections import namedtuple

from .characters import char_product, trivial_character
from .cmform import CMFormSpec, unit_root
from .kl import branch_series
from .padic import PadicNumber

__all__ = [
    "SymPowerFactor",
    "TrivialZeroCertificate",
    "decompose",
    "MAX_DECOMPOSE_DIGITS",
    "MAX_CRITICAL_WEIGHT",
    "critical_integers",
    "trivial_zero_locations",
    "trivial_zero_certificates",
    "e_plus",
]


class SymPowerFactor(namedtuple(
        "SymPowerFactor", "kind character eta_power weight shift twist alpha beta",
        defaults=(None,) * 7)):
    """One factor of the decomposed symmetric power.

    kind is "dirichlet" (then only `character` is set) or "modular" (then
    the Hecke-character power r determines the weight r(k-1) + 1, and the
    cyclotomic shift, twist character, and Hecke roots of the twisted form
    are stored explicitly).  Unset fields are None.
    """

    __slots__ = ()


def decompose(spec: CMFormSpec, n: int) -> tuple[SymPowerFactor, ...]:
    """The factors of the weight-0-normalized n-th symmetric power, n = 2m or 2m + 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = spec.context
    m = n // 2
    theta = spec.field.character()
    psi = spec.nebentypus
    roots = unit_root(spec)
    psi_p = ctx.from_int(psi.value_exact(ctx.p))  # exact: p is prime to psi's modulus
    factors: list[SymPowerFactor] = []
    if n % 2 == 0:
        factors.append(SymPowerFactor(
            kind="dirichlet",
            character=theta if m % 2 else trivial_character()))
    # block i holds the Hecke-character power r = n - 2i; twist psi^(i-m) theta^i,
    # cyclotomic shift (m - i)(k - 1) for even n, ((r-1)/2)(k - 1) for odd n
    r_values = range(n, 1, -2) if n % 2 == 0 else range(n, 0, -2)
    for r in r_values:
        i = (n - r) // 2
        twist = char_product(psi.power(i - m), theta.power(i % 2))
        scale = psi_p ** (i - m)
        shift = ((m - i) if n % 2 == 0 else (r - 1) // 2) * (spec.weight - 1)
        factors.append(SymPowerFactor(
            kind="modular", eta_power=r,
            weight=r * (spec.weight - 1) + 1,
            shift=shift, twist=twist,
            alpha=scale * roots.alpha**r,
            beta=scale * roots.beta**r))
    return tuple(factors)


# The largest n * (N + _DECOMPOSE_OVERHEAD) `cmlinv decompose` lists, n/2
# factors of two N-digit roots.  Each factor also writes about 100 bytes and
# holds about 1 KB whatever N is: at p = 5 and n = 10^4 the output is 1.10 MB
# at N = 1 and 1.29 MB at N = 10, about 2.1 n (N + 50) bytes.  With Python 3.11
# on a 2-vCPU VM the ceiling lets through at most about 0.2 MB and 0.2-0.5 s
# (n = 2, N = 49950: 0.5 s); n = 10^5 at N = 1 took 2.4 s, 11 MB and 107 MB RSS
# under the n * N ceiling, and 10^6 at N = 10 would need about 1.1 GB.
MAX_DECOMPOSE_DIGITS = 10**5
_DECOMPOSE_OVERHEAD = 50


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
        raise ValueError(
            "critical integers are tabulated for even symmetric powers only")
    if k < 2:
        raise ValueError("weight must be >= 2")
    if k > MAX_CRITICAL_WEIGHT:
        raise ValueError(f"critical integers are listed for weights up to {MAX_CRITICAL_WEIGHT}")
    if n // 2 % 2:  # non-positive evens and positive odds
        return [*range(2 - k + k % 2, 1, 2), *range(1, k, 2)]
    return [*range(3 - k - k % 2, 0, 2), *range(2, k, 2)]  # negative odds, positive evens


class TrivialZeroCertificate(namedtuple("TrivialZeroCertificate", "branch c0 c1")):
    """Series coefficients c0 = 0 and c1 != 0 mod p^n_cert of branch `branch` at
    s = branch: an order-1 zero, certified to the caller's n_cert digits."""

    __slots__ = ()


def trivial_zero_locations(n: int) -> tuple[tuple[int, int], ...]:
    """The (branch, s) trivial zeroes of the n-th power: (0, 0) and (1, 1), both of
    order 1, when n = 2m with m odd (theta^m odd); none otherwise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ((0, 0), (1, 1)) if n % 4 == 2 else ()


def trivial_zero_certificates(spec: CMFormSpec,
                              n_cert: int) -> tuple[TrivialZeroCertificate, ...]:
    """The order-1 certificates of the two trivial zeroes, from the series of
    theta's branch i at s = i: they read theta alone, so take no n."""
    theta = spec.field.character()
    certs = []
    for i in (0, 1):
        bs = branch_series(i, theta, i, 2, spec.context, n_cert=n_cert)
        c0, c1 = bs.coefficients[0], bs.coefficients[1]
        if c0.min_valuation() < bs.n_cert:
            raise ArithmeticError("predicted trivial zero has a nonvanishing value")
        if c1.is_zero() or c1.valuation() >= bs.n_cert:
            raise ArithmeticError(f"c1 = 0 mod {spec.context.p}^{bs.n_cert}, so the predicted "
                                  f"order-1 zero is not certified at N_cert = {bs.n_cert}")
        certs.append(TrivialZeroCertificate(branch=i, c0=c0, c1=c1))
    return tuple(certs)


def e_plus(spec: CMFormSpec, n: int, i: int) -> PadicNumber:
    """Interpolation product with the vanishing Dirichlet factor removed:

        prod_{j=1..m} (1 - p^(i + j(k-1) - 1)/alpha_j)(1 - p^(-i - j(k-1)) beta_j)

    at the trivial twist.  Defined only at a genuine trivial zero
    (n = 2m, m odd, i in {0, 1}); every factor is p-integral and the
    product is nonzero at working precision.
    """
    if i not in (0, 1):
        raise ValueError("branch index must be 0 or 1")
    if not trivial_zero_locations(n):
        raise ValueError(f"no trivial zero at n = {n}; the product is not defined")
    ctx = spec.context
    p = ctx.p
    acc = ctx.one()
    for f in decompose(spec, n):
        if f.kind != "modular":
            continue
        acc = acc * (1 - ctx.from_int(p) ** (i + f.shift - 1) / f.alpha)
        acc = acc * (1 - ctx.from_int(p) ** (-i - f.shift) * f.beta)
    if acc.is_zero():
        raise ArithmeticError("interpolation product vanished at working precision")
    return acc
