"""Kubota-Leopoldt p-adic L-functions: exact interpolation values and
certified branch series.

Interpolation.  For an even branch character chi and n >= 1,

    L_p(1-n, chi) = -(1 - chi_n(p) p^(n-1)) * B_{n, chi_n} / n,
    chi_n = primitive character of chi * omega^(-n),

with chi_n(p) = 0 when p divides the conductor of chi_n.

Branch bookkeeping for an odd quadratic theta of conductor prime to p
(the only case this artifact evaluates numerically):

    branch i = 0:  L_{p,0}(s, theta) = L_p^KL(s, theta*omega)
    branch i = 1:  L_{p,1}(s, theta) = L_p^KL(1-s, theta*omega)

so both branches read the single function g(s) = L_p^KL(s, theta*omega).
One `KLFunction` table holds g per (D, p, n_cert, J), and a branch series
is a view of it: an expansion point plus a sign flip, so
L_{p,0}(s) = L_{p,1}(1-s) holds by construction; AC-7 compares the
truncated Taylor route against the Newton route of that table.  The trivial
character's branch has a pseudo-measure pole and is never evaluated;
no trivial zero occurs there.

Reconstruction.  g(s) = f(u) with u = (1+p)^s - 1 and f a power series
with p-integral coefficients (Iwasawa), so Newton divided differences
of f at the nodes u_n = (1+p)^(1-n) - 1, n = 1..J, computed from exact
interpolation values, recover f with coefficient-j truncation error of
valuation >= J - j (the omitted remainder is a p-integral multiple of
prod (u - u_n), and every u - u_n has valuation >= 1 on pZ_p).  Taking
J >= N_cert + T certifies T series coefficients to N_cert digits.  The
series in s - s0 comes from composing with
u - u0 = (1 + u0)(exp_p((s - s0) log_p(1+p)) - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .characters import (DirichletCharacter, char_product,
                         char_teichmuller_power, gen_bernoulli)
from .padic import PadicContext, PadicNumber, iwasawa_log, ordp, padic_exp

__all__ = ["BranchSeries", "KLFunction", "kl_value", "branch_series",
           "branch_derivative"]


def kl_value(n: int, chi: DirichletCharacter, ctx: PadicContext) -> PadicNumber:
    """Exact L_p(1-n, chi) for an even branch character chi and n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if chi.parity() != 1:
        raise ValueError("branch characters of the Kubota-Leopoldt function are even")
    chi_n = char_product(chi, char_teichmuller_power(-n, ctx))
    B = gen_bernoulli(n, chi_n, ctx)
    pair = chi_n.value_pair(ctx.p)
    if pair is None or chi_n.is_rational():
        # chi_n(p) is exact (0 when p divides the conductor), so a trivial
        # zero's vanishing factor is an exact rational 0
        at_p = 0 if pair is None else chi_n.value_exact(ctx.p)
        euler = Fraction(1) - at_p * Fraction(ctx.p) ** (n - 1)
        if isinstance(B, Fraction):
            return ctx.from_rational(-euler * B / n)
        return -(ctx.from_rational(euler) * B) / n
    euler = ctx.one() - chi_n.value_padic(ctx.p, ctx) * ctx.from_int(ctx.p) ** (n - 1)
    return -(euler * B) / n


def _u(ctx: PadicContext, s: int) -> PadicNumber:
    # u = (1+p)^s - 1 for an integer s; its valuation is 1 + ord_p(s), so
    # N + 1 + ord_p(s) digits of (1+p)^s fix every digit the context keeps
    if s == 0:
        return ctx.zero()
    p = ctx.p
    return ctx.from_int(pow(1 + p, s, p ** (ctx.N + 1 + ordp(s, p))) - 1)


def _series_mul(a: list, b: list, order: int, zero):
    out = [zero] * order
    for i in range(order):
        for j in range(order - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


@dataclass(frozen=True)
class KLFunction:
    """g(s) = L_p(s, theta*omega) in Newton form on the nodes u_n, n = 1..J.

    Built, checked for p-integrality and validated on the held-out nodes
    J+1..2J once per (D, p, n_cert, J) by `_kl_function`; every branch
    series reads it.
    """

    ctx: PadicContext
    chi: DirichletCharacter
    nodes: tuple
    newton: tuple
    log1p: PadicNumber

    def node_value(self, n: int) -> PadicNumber:
        """Exact g(1-n) = L_p(1-n, theta*omega), n >= 1."""
        return kl_value(n, self.chi, self.ctx)

    def value(self, s) -> PadicNumber:
        """g(s) at s in Z_p via the Newton form, whose truncation error on
        Z_p has valuation >= the node count J."""
        ctx = self.ctx
        if isinstance(s, int):
            u = _u(ctx, s)
        else:
            s = ctx.convert(s)
            if not s.is_zero() and s.valuation() < 0:
                raise ValueError("evaluation point must lie in Z_p")
            u = padic_exp(s * self.log1p) - 1
        acc = self.newton[-1]
        for r in range(len(self.newton) - 2, -1, -1):
            acc = acc * (u - self.nodes[r]) + self.newton[r]
        return acc.truncate_abs(len(self.nodes))


_TABLES = 16  # holds one command's tables: `cmlinv acceptance` reads 11


@lru_cache(maxsize=_TABLES)
def _kl_function(D: int, p: int, n_cert: int, J: int) -> KLFunction:
    # internal precision: n_cert + J for the certificate, plus the
    # divided-difference losses (about J + 2J/(p-1) digits), plus slack
    work = PadicContext(p, n_cert + 2 * J + 2 * ((J // (p - 1)) + 1) + 8)
    chi = DirichletCharacter(D, 1, work)
    nodes = tuple(_u(work, 1 - n) for n in range(1, J + 1))
    row = [kl_value(n, chi, work) for n in range(1, J + 1)]

    # divided-difference table; keep the top diagonal
    newton = [row[0]]
    for r in range(1, J):
        row = [(row[l + 1] - row[l]) / (nodes[l + r] - nodes[l])
               for l in range(J - r)]
        newton.append(row[0])
    for r, c in enumerate(newton):
        if not c.is_zero() and c.valuation() < 0:
            raise ArithmeticError(
                f"divided difference {r} is not p-integral; normalization broken")

    g = KLFunction(work, chi, nodes, tuple(newton),
                   iwasawa_log(work.from_int(1 + p)))
    for n in range(J + 1, 2 * J + 1):
        resid = (g.value(1 - n) - g.node_value(n)).min_valuation()
        if resid < n_cert:
            raise ArithmeticError(
                f"held-out node {n} reproduced only to {resid} digits (need {n_cert})")
    return g


@dataclass
class BranchSeries:
    """Certified expansion of a branch of the p-adic L-function.

    coefficients[j] multiplies (s - s0)^j; each is certified to absolute
    precision n_cert.  The branch is a view of g: branch 1 reads g(1-s).
    """

    branch: int
    character: DirichletCharacter
    s0: int
    coefficients: list
    n_cert: int
    nodes_used: int
    g: KLFunction = field(repr=False)
    _flip: bool = field(repr=False)

    def series_value(self, s) -> PadicNumber:
        """Partial sum of the certified series at s.

        Meaningful when s - s0 lies in pZ_p, where the dropped tail has
        valuation >= the series order; complements `evaluate`, which uses
        the Newton form instead of the truncated coefficients.
        """
        ctx = self.coefficients[0].context
        t = ctx.convert(s) - self.s0
        if not t.is_zero() and t.valuation() < 1:
            raise ValueError("series_value needs s - s0 in pZ_p")
        acc = ctx.zero()
        for c in reversed(self.coefficients):
            acc = acc * t + c
        order = len(self.coefficients)
        tail = order if t.is_zero() else order * t.valuation()
        return acc.truncate_abs(min(acc.abs_prec, tail, self.n_cert))

    def evaluate(self, s) -> PadicNumber:
        """Value at s in Z_p via the Newton form (not the truncated series)."""
        return self.g.value(1 - s if self._flip else s)


def branch_series(i: int, theta: DirichletCharacter, s0: int, order: int,
                  ctx: PadicContext, n_cert: int = 8,
                  node_budget: int = 40) -> BranchSeries:
    """Series of L_{p,i}(s, theta) around s0 in {0, 1}, certified to n_cert digits.

    Requires theta odd, quadratic, of conductor prime to p, and i in {0, 1}.
    Uses J = n_cert + order interpolation nodes plus J held-out nodes for
    validation; raises if that exceeds `node_budget` or if the certificate
    cannot be met.
    """
    if i not in (0, 1):
        raise ValueError("branch index must be 0 or 1")
    if s0 not in (0, 1):
        raise ValueError("expansion point must be 0 or 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    if not theta.is_odd() or not theta.is_rational() or theta.is_trivial():
        raise ValueError("theta must be an odd quadratic character")
    if theta.conductor() % ctx.p == 0:
        raise ValueError("theta must have conductor prime to p")
    if n_cert > ctx.N:
        raise ValueError("cannot certify more digits than the context carries")
    J = n_cert + order
    if J > node_budget:
        raise ValueError(
            f"(order={order}, n_cert={n_cert}) needs J={J} nodes, over the budget {node_budget}")

    g = _kl_function(theta.D, ctx.p, n_cert, J)
    work = g.ctx
    # base point: branch 1 reads g(1-s), so expand g at 1-s0 and flip signs
    flip = (i == 1)
    u0 = _u(work, 1 - s0 if flip else s0)

    # Horner on the Newton form with u - u0 = X(t) = (1+u0)(exp(L t) - 1)
    # as a series in t = s - s0, truncated to `order` terms
    zero = work.zero()
    X = [zero] * order
    term = work.one()
    fact = 1
    for r in range(1, order):
        term = term * g.log1p
        fact *= r
        X[r] = (1 + u0) * term / fact
    series = [g.newton[-1]] + [zero] * (order - 1)
    for r in range(J - 2, -1, -1):
        series = _series_mul(series, [u0 - g.nodes[r]] + X[1:], order, zero)
        series[0] = series[0] + g.newton[r]
    if flip:
        series = [(-c if j % 2 else c) for j, c in enumerate(series)]

    # certification: coefficient j carries truncation error of valuation >= J - j
    coeffs = []
    for j, c in enumerate(series):
        cert_j = min(c.abs_prec, J - j)
        if cert_j < n_cert:
            raise ValueError(
                f"coefficient {j} certified only to {cert_j} digits; "
                f"increase the node budget or lower n_cert")
        coeffs.append(ctx.convert(c.truncate_abs(n_cert)))

    return BranchSeries(branch=i, character=theta, s0=s0, coefficients=coeffs,
                        n_cert=n_cert, nodes_used=J, g=g, _flip=flip)


def branch_derivative(i: int, theta: DirichletCharacter, s0: int,
                      ctx: PadicContext, n_cert: int = 8,
                      node_budget: int = 40) -> PadicNumber:
    """d/ds L_{p,i}(s, theta) at s0: coefficient c_1 of the branch series."""
    return branch_series(i, theta, s0, 2, ctx, n_cert=n_cert,
                         node_budget=node_budget).coefficients[1]
