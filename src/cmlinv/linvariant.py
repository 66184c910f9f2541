"""The L-invariant engine.

Two independent computations of the same constant:

  * analytic route:  -2 log_p(pibar) / h  from the split-prime package,
    with the value at the s = 0 zero being the negative of the value at
    s = 1;
  * unit-root route: -2 log_p(alpha_p) / (k - 1)  from the Hecke unit
    root of any ordinary CM form over the same field.

`verify_ferrero_greenberg` checks the derivative of the 0th branch at 0
against (4/w) log_p(pibar), the two sides coming from the interpolation
series and the norm-equation/Iwasawa-log path respectively.
`verify_trivial_zero_formula` certifies the derivative identity on the
Dirichlet factor numerically (the archimedean value L(0, theta) = 2h/w
is exact, the period is 1 in this range) and attaches the modular
factors symbolically through the non-vanishing interpolation product.

Both embeddings of F into Q_p send the unit conjugate pibar to the same
p-adic number, and every check here reads the embedding only through
that image, so none of them takes a choice of embedding.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .characters import dirichlet_L_nonpositive
from .cmform import CMFormSpec, unit_root
from .kl import branch_derivative
from .padic import PadicContext, PadicNumber, iwasawa_log
from .quadfield import QuadFieldData, pi_bar
from .sympower import e_plus, trivial_zero_locations

__all__ = [
    "FGCheck",
    "LInvariantReport",
    "TrivialZeroFormulaReport",
    "l_invariant_analytic",
    "l_invariant_via_alpha",
    "verify_ferrero_greenberg",
    "verify_trivial_zero_formula",
    "full_report",
]


@dataclass(frozen=True)
class FGCheck:
    lhs: PadicNumber
    rhs: PadicNumber
    residual_valuation: float
    target: int
    passed: bool


class LInvariantReport(namedtuple(
        "LInvariantReport",
        "l_at_1 l_at_0 l_via_alpha agreement_valuation fg_check",
        defaults=(None, None, None))):
    """The L-invariant at s = 1 and at s = 0.

    `full_report` also fills in the unit-root value, its agreement
    valuation and the FGCheck; `l_invariant_analytic` leaves them None.
    """

    __slots__ = ()


def l_invariant_analytic(F: QuadFieldData, p: int, ctx: PadicContext) -> LInvariantReport:
    """-2 log_p(pibar)/h at s = 1, and its negative at s = 0 (split p only)."""
    l1 = -2 * pi_bar(F, p, ctx).log_pibar / F.h
    return LInvariantReport(l_at_1=l1, l_at_0=-l1)


def l_invariant_via_alpha(spec: CMFormSpec) -> PadicNumber:
    """-2 log_p(alpha_p)/(k - 1) from the Hecke unit root."""
    roots = unit_root(spec)
    return -2 * iwasawa_log(roots.alpha) / (spec.weight - 1)


def _check_target(target: int) -> None:
    # a residual compared to p^0 or below passes whatever the values are
    if target < 1:
        raise ValueError("target must be >= 1")


def verify_ferrero_greenberg(F: QuadFieldData, p: int, ctx: PadicContext,
                             target: int = 6) -> FGCheck:
    """Branch-derivative vs (4/w) log_p(pibar), compared to p^-target."""
    _check_target(target)
    if target > ctx.N:
        raise ValueError("target precision exceeds the context")
    # certify as much as the context carries, so the residual scales with N;
    # its plan is checked before pi_bar runs
    lhs = branch_derivative(0, F.character(), 0, ctx, n_cert=ctx.N)
    rhs = ctx.from_rational(Fraction(4, F.w)) * pi_bar(F, p, ctx).log_pibar
    resid = (lhs - rhs).min_valuation()
    return FGCheck(lhs=lhs, rhs=rhs, residual_valuation=resid,
                   target=target, passed=resid >= target)


class TrivialZeroFormulaReport(namedtuple(
        "TrivialZeroFormulaReport",
        "l_invariant derivative archimedean_value e_plus_value "
        "modular_symbols functional_equation_note residual_valuation passed")):
    """Certificate for the derivative identity at one trivial zero.

    The Dirichlet core is numeric: derivative of branch i at s = i equals
    the L-invariant at i times the exact archimedean value (period 1).
    Modular factors enter as the numeric non-vanishing product e_plus and
    a list of symbolic L-value names, exactly as the derivative of the
    product decomposition dictates.
    """

    __slots__ = ()


def verify_trivial_zero_formula(spec: CMFormSpec, n: int, i: int,
                                target: int = 6) -> TrivialZeroFormulaReport:
    """Numeric check of the derivative identity's Dirichlet core at (branch i, s=i).

    Requires a genuine trivial zero (n = 2m, m odd, i in {0,1}).
    """
    _check_target(target)
    if (i, i) not in trivial_zero_locations(n):
        raise ValueError(f"no trivial zero at branch {i} for n = {n}")
    ctx = spec.context
    F = spec.field
    theta = F.character()
    deriv = branch_derivative(i, theta, i, ctx, n_cert=ctx.N)  # its plan before pi_bar
    linv = l_invariant_analytic(F, ctx.p, ctx)
    l_at_i = linv.l_at_0 if i == 0 else linv.l_at_1
    arch = dirichlet_L_nonpositive(0, theta)  # exact 2h/w, with period 1
    rhs = l_at_i * ctx.from_rational(arch)
    resid = (deriv - rhs).min_valuation()
    eplus = e_plus(spec, n, i)
    m = n // 2
    k = spec.weight
    symbols = tuple(
        f"Lp[branch {i}]({i + j * (k - 1)}, f_{j})" for j in range(1, m + 1))
    note = None
    if i == 1:
        note = ("functional equation: the archimedean fraction at s = 1 "
                "reduces to the exact value at s = 0")
    return TrivialZeroFormulaReport(
        l_invariant=l_at_i, derivative=deriv, archimedean_value=arch, e_plus_value=eplus,
        modular_symbols=symbols, functional_equation_note=note, residual_valuation=resid,
        passed=resid >= target)


def full_report(spec: CMFormSpec, target: int = 6) -> LInvariantReport:
    """Analytic and unit-root L-invariants with their agreement valuation."""
    _check_target(target)
    ctx = spec.context
    # first: it checks the closed form's plan before pi_bar and the unit root
    fg = verify_ferrero_greenberg(spec.field, ctx.p, ctx, target=target)
    base = l_invariant_analytic(spec.field, ctx.p, ctx)
    via_alpha = l_invariant_via_alpha(spec)
    agreement = (via_alpha - base.l_at_1).min_valuation()
    return base._replace(l_via_alpha=via_alpha, agreement_valuation=agreement,
                         fg_check=fg)
