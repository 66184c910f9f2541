"""Kubota-Leopoldt p-adic L-functions: exact interpolation values and
certified branch series.

Interpolation.  For an even branch character chi and n >= 1,

    L_p(1-n, chi) = -(1 - chi_n(p) p^(n-1)) * B_{n, chi_n} / n,
    chi_n = primitive character of chi * omega^(-n),

with chi_n(p) = 0 when p divides the conductor of chi_n.  Here chi =
theta*omega, and `kl_value` reads it only at n = 1 mod p - 1, where
chi_n = theta and the value -(1 - theta(p) p^(n-1)) B_{n,theta}/n is
rational.  At those n the closed form below matches it only through the
distribution relation for B_{n,theta} (Washington, GTM 83, Prop. 4.1),
which holds for the true Bernoulli numbers alone.

Branch bookkeeping for an odd quadratic theta of conductor prime to p
(the only case this artifact evaluates numerically):

    branch i = 0:  L_{p,0}(s, theta) = L_p^KL(s, theta*omega)
    branch i = 1:  L_{p,1}(s, theta) = L_p^KL(1-s, theta*omega)

so both branches read the single function g(s) = L_p^KL(s, theta*omega).
One certified table of g at 0 is kept per (D, p, n_cert, J); a branch
series reads it, or the closed form at 1.  Branch 1 reads g(1-s) through a
sign flip of the odd coefficients, so L_{p,0}(s) = L_{p,1}(1-s) holds by
construction.  The trivial character's branch has a pseudo-measure pole
and is never evaluated; no trivial zero occurs there.

Closed form (Washington, GTM 83, Thm 5.11).  With chi = theta*omega,
F = |D| p and A the a in [1, F] prime to F,

    g(s) = (1/F) (1/(s-1)) sum_{a in A} chi(a) <a>^(1-s) sum_j C(1-s, j) (F/a)^j B_j.

Around an integer s0, with t = s - s0, chi(a) <a>^(1-s0) = w_a =
theta(a) a^(1-s0) omega(a)^s0 and <a>^(-t) = exp(-t log_p a), so
H(s0 + t) = F (s - 1) g(s) has the Taylor coefficients

    h_m = sum_j sum_{i+k=m} K_{j,i} (-1)^k P_{j,k} / k!,
    K_{j,i} = B_j F^j [t^i] C(1-s0-t, j),  P_{j,k} = sum_{a in A} w_a a^(-j) (log_p a)^k.

Pairing a with F - a.  Write H_p(s, a, F) = (1/(s-1)) <a>^(1-s) sum_j
C(1-s, j) (F/a)^j B_j for Washington's partial zeta function, so that
H = sum_{a in A} chi(a) (s-1) H_p(s, a, F).  At s = 1-n, n >= 1, the
inner sum is (F/a)^n B_n(a/F) and <a> = a omega(a)^(-1), so

    H_p(1-n, a, F) = -(F^n / n) omega(a)^(-n) B_n(a/F).

B_n(1-x) = (-1)^n B_n(x) and omega(F-a) = -omega(a) (p | F) give
H_p(1-n, F-a, F) = H_p(1-n, a, F) for every n >= 1.  Both sides times
s - 1 are continuous in s on Z_p and the points 1-n are dense there, so
the two functions are equal.  theta is odd and its modulus |D| divides
F, so theta(F-a) omega(F-a) = -theta(a) * -omega(a) = chi(a): a and
F - a contribute the same function to H, hence the same h_m.  Each
unit's contribution, truncated at n_j and reduced as below, lies within
p^T of its exact value (the bounds that follow hold term by term, for
one unit as for the sum).  So the sum over the a in A below F/2 (F/2
itself is never prime to F), doubled, is h mod p^T: the pass visits
phi(F)/2 units and gives the same residues as the full pass.  This
needs chi even, that is D < 0; for D > 0 the two halves would cancel,
and `_closed_form` refuses it.

One pass over the half of A below F/2 gives every P_{j,k} for k < K,
all in integers: theta(a) is read from the Kronecker row of D, log_p a
comes by additivity from the integer series of `iwasawa_log` at the
primes, and the odd j > 1 are skipped, since B_j = 0 there, so the
column w_a a^(-j) steps by a^(-2) from j = 2 on.  The factor B_j F^j / j! is formed mod p^T without
rationals: |D|^j is carried along, the p-free part of j! is inverted one
factor j / p^v(j) at a time, and the p-power j - v(j!) - [(p-1) | j] is
counted exactly, the denominator of B_j having one factor p exactly when
(p-1) | j (von Staudt-Clausen; B_j itself comes from the exact table).
Then g = H / (F (s0 - 1 + t)): at s0 = 1 the pole cancels (h_0 =
sum chi(a) = 0) and g_m = h_{m+1}/F, which takes K = order + 1 powers of
the log; otherwise g_0 = h_0 / (F (s0-1)) and
g_m = (h_m - F g_{m-1}) / (F (s0-1)), with K = order.

Bounds (`_closed_form_plan`).  v(F) = 1, j! [t^i] C(1-s0-t, j) is an
integer, v(j!) <= floor((j-1)/(p-1)), and v(B_j) >= -1 with equality
only where (p-1) | j (von Staudt-Clausen), so for j - 1 = q(p-1) + r >= 0

    v(K_{j,i}) >= kappa(j) = j - [(p-1) | j] - floor((j-1)/(p-1))
                           = q(p-2) + r + 1 - [r = p-2]    (0 <= r < p-1),

which never decreases in j and stays put only where (p-1) | j.
v(log_p a) >= 1 makes P_{j,k} a multiple of p^k, so P_{j,k} / k! is an
exact division that costs v(k!) digits.  For g_m mod p^n, H is needed
mod p^T with T = n + 1 + order * v(s0 - 1) (the 1/F digit and the
divisions by s0 - 1; at s0 = 1 only the 1/F digit).  The least j with
kappa(j) = T is n_j = q(p-1) + r + 1, (q, r) = divmod(T - 1, p - 2); the
terms j >= n_j are dropped, and P is summed mod p^M, M = T + v((K-1)!) =
T + sum_i floor((K-1)/p^i) (Legendre).

Working modulus in j.  The integer K_{j,i} mod p^T is a multiple of
p^kappa(j), so K_{j,i} P_{j,k} / k! mod p^T needs P_{j,k} / k! only mod
p^(T - kappa(j)), hence P_{j,k} only mod p^(M - kappa(j)): M - T >= v(k!)
digits go to the division, and M - kappa(j) > M - T >= v(k!) keeps P a
multiple of p^v(k!), so the division stays exact.  Since kappa(j) < T
for every kept j, M - kappa(j) >= 1.  The column, the step a^(-2) and
the log powers enter P only, so they are kept mod p^Mc for some
Mc >= M - kappa(j), and re-reduced to Mc = M - kappa(j) whenever that
modulus has fallen by a quarter: the products shrink with j, at the
cost of one reduction pass per quarter.

Cost (`_closed_form_plan`).  Per unit the pass makes K products for each
kept j (the column step and K - 1 log powers) and about 2K in its setup
(the omega(a)^s0 table adds p - 1 products), on operands of at most M
digits, w = floor(M bitlen(p) / 64) + 1 words: each costs about (w + 8)^2
word steps, 8 being the interpreter's share.  The exact Bernoulli table
to n_j and the factors B_j F^j / j! grow as n_j^3.  So, in integers,

    cost = phi(F)/2 * (kept + 2) * K * (w + 8)^2 + n_j^3 / 16.

Time per unit of cost stays within a factor 3 over |D| from 3 to 163, p
from 3 to 10^5, 4 to 1500 digits and K from 2 to 9.  Callers check the
plans of all the tables they read before their first stage.

Run-time check.  g(0) = -(1 - theta(p)) B_{1,theta} exactly.  Each table
compares its closed-form constant term with that value and keeps the
exact value.  When p splits, the Euler factor 1 - theta(p) is an exact 0,
so `kl_value` returns the exact zero without computing B_{1,theta}; when
p is inert, B_{1,theta} comes from the Bernoulli numbers of
`characters`, which share no code with the sum.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .characters import (DirichletCharacter, _kronecker_row, _smallest_prime_factors,
                         bernoulli_number, gen_bernoulli)
from .padic import PadicContext, PadicNumber, _check_prime, _log_units, ordp, teichmuller

__all__ = ["BranchSeries", "kl_value", "branch_series", "branch_derivative"]


def kl_value(n: int, theta: DirichletCharacter, ctx: PadicContext) -> PadicNumber:
    """Exact g(1-n) = -(1 - theta(p) p^(n-1)) B_{n,theta}/n for n = 1 mod p - 1, theta odd."""
    p = ctx.p
    if n < 1 or (n - 1) % (p - 1):
        raise ValueError(f"g is read exactly at 1 - n for n = 1 mod {p - 1} only, not n = {n}")
    if theta.parity() != -1:
        raise ValueError("theta must be odd, so that theta*omega is even")
    # at a trivial zero the Euler factor is an exact 0 that B_{n,theta} cannot change
    euler = 1 - theta.value_exact(p) * p ** (n - 1)
    if not euler:
        return ctx.zero()
    return ctx.from_rational(-euler * gen_bernoulli(n, theta) / n)


def _prime_factors(n: int) -> list:
    # the distinct prime factors of n >= 1, ascending, by trial division
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] if n > 1 else out


def _primitive_root(p: int) -> int:
    facs = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in facs):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")


def _kappa(j: int, p: int) -> int:
    # kappa(j) <= v(K_{j,i}) for every i (kappa(0) = 0: K_{0,i} is an integer)
    return j - (j % (p - 1) == 0) - (j - 1) // (p - 1) if j else 0


def _logs(units: list, p: int, M: int) -> list:
    # log_p a mod p^M for each unit a (ascending, from 1): the integer kernel
    # of iwasawa_log at the primes, additivity elsewhere; every factor of a
    # unit is a smaller unit
    m = p**M
    spf = _smallest_prime_factors(units[-1] + 1)
    primes = [a for a in units[1:] if spf[a] == a]
    log = dict(zip(primes, _log_units(primes, p, M)))
    log[1] = 0
    for a in units[1:]:
        q = spf[a]
        if q < a:
            log[a] = (log[q] + log[a // q]) % m
    return [log[a] for a in units]


# The largest plan cost.  With Python 3.11 on a 2-vCPU VM, `_closed_form`
# took 2.2 to 6.5 ns per unit of cost over 16 inputs (fresh processes,
# Bernoulli table included), so an input at the ceiling takes 0.55 to 1.6 s;
# `verify-fg --D -40 --p 13 --prec 714` (cost 2.4e8) takes 1.1 s in all, and
# `--prec 2048` (4.7e9) ran past 20 s.  The largest input of the tests, CI,
# `acceptance` and the benchmark costs 0.5e8 (`verify-fg --D -40 --p 13 --prec 384`).
MAX_CLOSED_FORM_COST = 25 * 10**7


ClosedFormPlan = namedtuple("ClosedFormPlan", "T K M n_j cost")


def _closed_form_plan(D: int, p: int, s0: int, order: int, n: int) -> ClosedFormPlan:
    """(T, K, M, n_j, cost) of `_closed_form(D, p, s0, order, n)`, with no loop over j or k.

    Raises ValueError for D > 0 and when the cost is over MAX_CLOSED_FORM_COST.
    """
    if D > 0:
        raise ValueError("the closed form needs D < 0, so that theta*omega is even")
    K = order + (s0 == 1)
    T = n + 1 + order * (ordp(s0 - 1, p) if s0 != 1 else 0)
    q, r = divmod(T - 1, p - 2)
    n_j = q * (p - 1) + r + 1  # the least j with kappa(j) = T
    M, k = T, K - 1  # M = T + v((K-1)!) by Legendre's formula
    while (k := k // p) > 0:
        M += k
    units = -D * (p - 1) // 2  # phi(F) / 2
    for prime in _prime_factors(-D):
        units -= units // prime
    kept = 1 + (n_j > 1) + (n_j - 1) // 2
    cost = units * (kept + 2) * K * (M * p.bit_length() // 64 + 9) ** 2 + n_j**3 // 16
    if cost > MAX_CLOSED_FORM_COST:
        raise ValueError(f"the closed form for (D, p) = ({D}, {p}) to {n} digits costs "
                         f"{cost}, over the ceiling {MAX_CLOSED_FORM_COST}")
    return ClosedFormPlan(T, K, M, n_j, cost)


def _closed_form(D: int, p: int, s0: int, order: int, n: int) -> list:
    """The first `order` Taylor coefficients of g at the integer s0, each mod p^n.

    Raises the ValueError of its plan: for D > 0 and over the cost ceiling.
    """
    T, K, M, n_j, _ = _closed_form_plan(D, p, s0, order, n)
    A = -D
    F = A * p
    bernoulli_number(n_j - 1)  # the table in one build, not doubled past n_j
    m, mT = p**M, p**T

    theta = _kronecker_row(D)  # theta(a) for a mod |D|, 0 off the units
    # the units a < F/2 only: F - a contributes what a does (module docstring)
    half = (F + 1) // 2
    signs = [theta[a % A] if a % p else 0 for a in range(half)]
    units = [a for a in range(1, half) if signs[a]]
    # omega(a)^e mod p^M by a mod p: omega(g^i)^e = (omega(g)^e)^i, g a primitive root
    e, omega = s0 % (p - 1), [1] * p
    if e:
        root, x, y = _primitive_root(p), 1, 1
        t = pow(teichmuller(PadicContext(p, M).from_int(root)).unit_int(), e, m)
        for _ in range(p - 1):
            omega[x] = y
            x, y = x * root % p, y * t % m
    col = [signs[a] * pow(a, 1 - s0, m) * omega[a % p] % m for a in units]
    inverses = [pow(a, -1, m) for a in units]
    lam = [None]  # lam[k] = (log_p a)^k over the units, k >= 1
    if K > 1:
        lam.append(_logs(units, p, M))
        for k in range(2, K):
            lam.append([x * y % m for x, y in zip(lam[-1], lam[1])])
    # (-1)^k / k! as (its p-power, divided out exactly; the rest inverted mod p^T)
    fact, facts = 1, []
    for k in range(K):
        fact *= k or 1
        w = ordp(fact, p)
        facts.append((p**w, (-1) ** k * pow(fact // p**w, -1, mT)))

    h = [0] * K
    c = [1] + [0] * (K - 1)  # j! C(1-s0-t, j) in t, truncated to K terms
    # A^j, v(j!) and the inverse of j!/p^v(j!), all mod p^T
    Aj, vfact, inv_fact = 1, 0, 1
    # col, step and lam are kept mod p^Mc, Mc >= M - kappa(j)
    Mc, mc, step = M, m, inverses
    for j in range(n_j):
        if j:
            c = [((2 - s0 - j) * c[i] - (c[i - 1] if i else 0)) % mT for i in range(K)]
            Aj = Aj * A % mT
            w = ordp(j, p)
            vfact += w
            inv_fact = inv_fact * pow(j // p**w, -1, mT) % mT
        if j > 1 and j % 2:
            continue  # B_j = 0
        Mj = M - _kappa(j, p)
        if 4 * Mj <= 3 * Mc:  # fallen by a quarter: re-reduce
            Mc, mc = Mj, p**Mj
            col, step = [x % mc for x in col], [x % mc for x in step]
            lam = [None, *([x % mc for x in lk] for lk in lam[1:])]
        if j == 4:
            step = [x * x % mc for x in inverses]
        if j:
            col = [x * y % mc for x, y in zip(col, step)]  # w_a a^(-j)
        # B_j F^j / j! = p^u N A^j / (Q/p^[(p-1)|j] * j!/p^v(j!)), B_j = N/Q:
        # by von Staudt-Clausen p divides Q exactly when (p-1) | j, j >= 1
        B = bernoulli_number(j)
        wq = 1 if j and j % (p - 1) == 0 else 0
        u = j - vfact - wq  # >= kappa(j)
        r = (B.numerator * Aj * pow(p, u, mT) * pow(B.denominator // p**wq, -1, mT)
             * inv_fact % mT)
        row = [r * x % mT for x in c]
        for k in range(K):
            P = sum(col) if k == 0 else sum(map(mul, col, lam[k]))
            div, inv = facts[k]
            Pk = P % mc // div * inv
            for i in range(K - k):
                h[i + k] += row[i] * Pk
    h = [2 * x % mT for x in h]  # the units above F/2

    # divide by F = |D| p: exactly by the p-power, by inverting the rest
    if s0 == 1:
        if h[0]:
            raise ArithmeticError("the pole of g at s = 1 does not cancel")
        inv = pow(A, -1, mT)
        g = [x // p * inv for x in h[1:]]
    else:
        v = ordp(s0 - 1, p)
        inv, q = pow(A * ((s0 - 1) // p**v), -1, mT), p ** (1 + v)
        g, prev = [], 0
        for x in h:
            prev = (x - F * prev) % mT // q * inv % mT
            g.append(prev)
    return [x % p**n for x in g]


def _from_residue(ctx: PadicContext, r: int, n: int) -> PadicNumber:
    # r mod p^n as a p-adic number known to absolute precision n
    return ctx.from_int(r).truncate_abs(n) if r else ctx.inexact_zero(n)


# measured reuse: `acceptance` 9 hits from 11 tables, `linvariant` 2 from 1,
# `trivial-zeros --certificates` 1 from 1, `klp` none from 1
_TABLES = 16


@lru_cache(maxsize=_TABLES)
def _g_at_zero(D: int, p: int, n_cert: int, J: int) -> tuple:
    # the J - n_cert Taylor coefficients of g at 0, certified to n_cert digits
    # in a J-digit context; the constant term is the exact g(0), checked
    # against the closed form once per key
    ctx = PadicContext(p, J)
    closed = _closed_form(D, p, 0, J - n_cert, n_cert)
    c0 = kl_value(1, DirichletCharacter(D), ctx)
    if (c0 - closed[0]).min_valuation() < n_cert:
        raise ArithmeticError(
            f"closed form g(0) = {closed[0]} disagrees with the exact {c0} mod p^{n_cert}")
    return (c0.truncate_abs(n_cert), *(_from_residue(ctx, r, n_cert) for r in closed[1:]))


class BranchSeries(namedtuple(
        "BranchSeries", "branch character s0 coefficients n_cert nodes_used")):
    """Certified expansion of a branch of the p-adic L-function.

    coefficients[j] multiplies (s - s0)^j; each is certified to absolute
    precision n_cert.  Both branches read g: branch 1 reads g(1-s).
    """

    __slots__ = ()

    def series_value(self, s) -> PadicNumber:
        """Partial sum of the certified series at s.

        Meaningful when s - s0 lies in pZ_p, where the dropped tail has
        valuation >= the series order; complements `evaluate`, which sums
        the closed form at s instead of the truncated coefficients.
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

    def evaluate(self, s: int) -> PadicNumber:
        """Value at the integer s from the closed form (not the truncated series), to J digits."""
        if not isinstance(s, int):
            raise TypeError(f"g is evaluated at integers only, not at {s!r}")
        p, J = self.coefficients[0].context.p, self.nodes_used
        r = _closed_form(self.character.D, p, 1 - s if self.branch else s, 1, J)[0]
        return _from_residue(PadicContext(p, J), r, J)


def _check_branch(i: int, theta: DirichletCharacter, s0: int, order: int, p: int,
                  N: int, n_cert: int) -> None:
    # `branch_series`' checks for N digits of p; last, the plans of g at 0 and where it expands
    _check_prime(p)  # first: the plans divide by p - 2
    if i not in (0, 1):
        raise ValueError("branch index must be 0 or 1")
    if s0 not in (0, 1):
        raise ValueError("expansion point must be 0 or 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    if n_cert < 1:
        raise ValueError("n_cert must be >= 1")
    if theta.parity() != -1:
        raise ValueError("theta must be an odd quadratic character")
    if theta.modulus % p == 0:
        raise ValueError("theta must have conductor prime to p")
    if n_cert > N:
        raise ValueError("cannot certify more digits than the context carries")
    for s in {0, 1 - s0 if i else s0}:
        _closed_form_plan(theta.D, p, s, order, n_cert)


def branch_series(i: int, theta: DirichletCharacter, s0: int, order: int,
                  ctx: PadicContext, n_cert: int = 8) -> BranchSeries:
    """Series of L_{p,i}(s, theta) around s0 in {0, 1}, certified to n_cert digits.

    Requires p an odd prime, theta odd, quadratic, of conductor prime to
    p, i in {0, 1} and n_cert >= 1.  J = n_cert + order is the precision
    `evaluate` reports.  Raises ValueError, before any table is built, when
    a closed form it reads costs more than MAX_CLOSED_FORM_COST.
    """
    _check_branch(i, theta, s0, order, ctx.p, ctx.N, n_cert)
    J = n_cert + order
    at0 = _g_at_zero(theta.D, ctx.p, n_cert, J)  # every call: the g(0) check, once per key
    # branch 1 reads g(1-s), so expand g at 1-s0 (at 0 exactly when s0 == i)
    # and flip the odd coefficients
    series = at0 if s0 == i else [_from_residue(ctx, r, n_cert) for r in
                                  _closed_form(theta.D, ctx.p, 1, order, n_cert)]
    coeffs = [ctx.convert(-c if i and j % 2 else c) for j, c in enumerate(series)]
    return BranchSeries(branch=i, character=theta, s0=s0, coefficients=coeffs,
                        n_cert=n_cert, nodes_used=J)


def branch_derivative(i: int, theta: DirichletCharacter, s0: int,
                      ctx: PadicContext, n_cert: int = 8) -> PadicNumber:
    """d/ds L_{p,i}(s, theta) at s0: coefficient c_1 of the branch series."""
    return branch_series(i, theta, s0, 2, ctx, n_cert=n_cert).coefficients[1]
