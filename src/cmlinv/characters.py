"""p-adically valued Dirichlet characters and their Bernoulli numbers.

Every character in scope is theta_D * omega^i: the Kronecker character
of a fundamental discriminant D (D = 1 for none) times a power of the
Teichmuller character mod p, with i taken mod p - 1.  The closed form
is all that is stored.  When p does not divide D the character is
primitive of conductor |D| * (p if i else 1), its parity is
sign(D) * (-1)^i, and its value at a unit a is the pair (sign, e)
meaning sign * zeta^e, with sign = (D/a), e = i * ind(a) mod p - 1 and
zeta the Teichmuller lift of a fixed primitive root mod p.  Characters
with 2i = 0 mod p - 1 are rational-valued, need no p-adic context and
stay exact.

Generalized Bernoulli numbers B_{n,chi} = f^{n-1} sum_a chi(a) B_n(a/f)
(Washington, GTM 83, Prop. 4.1) are computed as
sum_j C(n,j) B_j f^{j-1} sum_a chi(a) a^{n-j}: one pass over the units
a mod f sums the integer powers a^k per class chi(a) = +-zeta^e, and each
class total W_e is an exact Fraction.  For rational-valued chi the result
is W_0, exact; otherwise it is sum_e zeta^e W_e as a tracked p-adic number
whose only truncations are the Teichmuller powers and one from_rational
per class, so it agrees with the termwise sum over a on every digit that
sum carries and never has a lower absolute precision.  L(a, chi) at
integers a <= 0 is -B_{1-a,chi}/(1-a).  The trivial character has
B_{1,1} = B_1(1) = +1/2, while B_1 = -1/2.  B_n itself is read from a
table built from the integer tangent numbers (Brent and Harvey, "Fast
computation of Bernoulli, tangent and secant numbers", 2011).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, gcd, isqrt, lcm
from operator import add, mul

from .padic import PadicContext, teichmuller

__all__ = [
    "is_fundamental_discriminant",
    "DirichletCharacter",
    "char_from_kronecker",
    "char_teichmuller_power",
    "char_product",
    "trivial_character",
    "gen_bernoulli",
    "dirichlet_L_nonpositive",
    "bernoulli_number",
]


def _kronecker_prime(D: int, q: int) -> int:
    """Kronecker symbol (D/q) at a prime q: by D mod 8 at 2, else Euler's criterion."""
    if q == 2:
        return 0 if D % 2 == 0 else 1 if D % 8 in (1, 7) else -1
    r = pow(D, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


def _fundamental_part(n: int) -> int:
    """The discriminant of Q(sqrt(n)) for n != 0 (1 when n is a square)."""
    q = 2
    while q * q <= abs(n):
        while n % (q * q) == 0:
            n //= q * q
        q += 1
    return n if n % 4 == 1 else 4 * n


def is_fundamental_discriminant(D: int) -> bool:
    return D not in (0, 1) and _fundamental_part(D) == D


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


@lru_cache(maxsize=None)
def _index_table(p: int) -> dict:
    # ind(a) for the units a mod p; measured reuse: `acceptance` gets 70 hits from 2 tables
    g = _primitive_root(p)
    tab = {}
    x = 1
    for k in range(p - 1):
        tab[x] = k
        x = x * g % p
    return tab


def _smallest_prime_factors(top: int) -> list:
    # spf[a] = the least prime factor of a for 2 <= a < top (spf[a] = a for
    # a < 2): sieving with every q from isqrt(top - 1) down to 2 leaves the
    # least q | a with q^2 <= a, which is prime, and leaves primes untouched
    spf = list(range(top))
    for q in range(isqrt(top - 1), 1, -1):
        spf[q * q::q] = [q] * len(range(q * q, top, q))
    return spf


@lru_cache(maxsize=None)
def _kronecker_row(D: int) -> tuple:
    # (D/a) for a mod |D|; slot 0 holds (D/|D|), which is 0 unless D = 1.
    # (D/a) is completely multiplicative in a >= 1, so one symbol per prime
    # q < |D| gives the rest over the least prime factors.  Measured reuse:
    # 130 hits from 63 rows in `acceptance`, 31 from 1 in field-twoway
    m = abs(D)
    if m == 1:
        return (1,)
    spf = _smallest_prime_factors(m)
    row = [0, 1] + [0] * (m - 2)
    for a in range(2, m):
        q = spf[a]
        row[a] = row[q] * row[a // q] if q < a else _kronecker_prime(D, a)
    return tuple(row)


class DirichletCharacter:
    """theta_D * omega^i, primitive of modulus |D| * (p if i else 1).

    D is a fundamental discriminant or 1, and i is reduced mod p - 1,
    so a non-zero i needs the context that names p; p must not divide D
    then.  A character with i = 0 keeps no context.
    """

    __slots__ = ("D", "i", "context", "modulus")

    def __init__(self, D: int = 1, i: int = 0, context: PadicContext | None = None):
        if D != 1 and not is_fundamental_discriminant(D):
            raise ValueError(f"{D} is not a fundamental discriminant")
        if context is not None:
            i %= context.p - 1
        elif i:
            raise ValueError("Teichmuller components need a p-adic context")
        if i and D % context.p == 0:
            raise ValueError(f"p = {context.p} divides D = {D} under a Teichmuller component")
        self.D = D
        self.i = i
        self.context = context if i else None
        self.modulus = abs(D) * (context.p if i else 1)

    # --- evaluation -------------------------------------------------------

    def value_pair(self, a: int):
        """(sign, teich exponent) at a, or None when gcd(a, f) > 1."""
        if gcd(a, self.modulus) != 1:
            return None
        s = _kronecker_row(self.D)[a % abs(self.D)]
        if not self.i:
            return (s, 0)
        p = self.context.p
        return (s, self.i * _index_table(p)[a % p] % (p - 1))

    def is_rational(self) -> bool:
        return not self.i or 2 * self.i == self.context.p - 1

    def value_exact(self, a: int) -> int:
        """Value in {-1, 0, 1}; only for rational-valued characters."""
        pair = self.value_pair(a)
        if pair is None:
            return 0
        s, e = pair
        if e == 0:
            return s
        if 2 * e == self.context.p - 1:
            return -s
        raise ValueError("character is not rational-valued at this argument")

    def parity(self) -> int:
        """chi(-1) = sign(D) * (-1)^i."""
        return (-1 if self.D < 0 else 1) * (-1) ** self.i

    def is_trivial(self) -> bool:
        return self.D == 1 and not self.i

    def power(self, e: int) -> "DirichletCharacter":
        """chi^e = theta_D^(e mod 2) * omega^(i e)."""
        return DirichletCharacter(self.D if e % 2 else 1, self.i * e, self.context)

    def __repr__(self):
        p = f", p={self.context.p}" if self.i else ""
        return f"DirichletCharacter(D={self.D}, i={self.i}{p})"


def trivial_character() -> DirichletCharacter:
    return DirichletCharacter()


def char_from_kronecker(D: int) -> DirichletCharacter:
    """Quadratic character a -> (D/a) mod |D|, for a fundamental discriminant."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    return DirichletCharacter(D)


def char_teichmuller_power(i: int, ctx: PadicContext) -> DirichletCharacter:
    """omega^i as a character mod p; i = 0 collapses to the trivial character mod 1."""
    return DirichletCharacter(1, i, ctx)


def char_product(chi1: DirichletCharacter, chi2: DirichletCharacter) -> DirichletCharacter:
    """theta_{D1 D2 / square} * omega^(i1 + i2), the primitive product."""
    if chi1.context and chi2.context and chi1.context.p != chi2.context.p:
        raise ValueError("cannot multiply characters over different primes")
    return DirichletCharacter(_fundamental_part(chi1.D * chi2.D), chi1.i + chi2.i,
                              chi1.context or chi2.context)


# --- Bernoulli machinery ------------------------------------------------------


def _bernoulli_table(n: int) -> tuple:
    # B_0..B_n from the tangent numbers T_1..T_m, m = n // 2, by Brent and
    # Harvey's in-place recurrence (O(m^2) integer multiply-adds), then
    # B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)); B_odd = 0 past B_1
    m = n // 2
    t = [1] * m  # t[i] = T_(i+1)
    for i in range(1, m):
        t[i] = i * t[i - 1]
    for k in range(1, m):
        for i in range(k, m):
            t[i] = (i - k) * t[i - 1] + (i - k + 2) * t[i]
    table = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, m + 1):
        q = 4**k
        table += [Fraction((-1) ** (k - 1) * 2 * k * t[k - 1], q * (q - 1)), Fraction(0)]
    return tuple(table[:n + 1])


_bernoulli = _bernoulli_table(1)  # B_0..B_n built so far; only ever grows


def bernoulli_number(n: int) -> Fraction:
    """B_n, first convention (B_1 = -1/2)."""
    global _bernoulli
    if n < 0:
        raise ValueError("n must be >= 0")
    table = _bernoulli
    if n >= len(table):
        # at least double, so the rebuilds cost O(n^2) steps in all
        table = _bernoulli = _bernoulli_table(max(n, 2 * len(table)))
    return table[n]


def gen_bernoulli(n: int, chi: DirichletCharacter,
                  ctx: PadicContext | None = None):
    """Generalized Bernoulli number B_{n,chi}.

    Exact Fraction for rational-valued chi, tracked PadicNumber otherwise
    (the character values force a context).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = chi.modulus
    # S[e][k] sums chi(a) zeta^-e a^k over the units a mod f with
    # chi(a) = +-zeta^e, 0 <= e < half
    if chi.i:
        half = chi.context.p // 2  # zeta^half = -1
        S = {}
        for a in range(1, f + 1):
            pair = chi.value_pair(a)
            if pair is None:
                continue
            flip, e = divmod(pair[1], half)
            powers = accumulate(repeat(a, n), mul, initial=-pair[0] if flip else pair[0])
            row = S.get(e)
            S[e] = list(powers) if row is None else list(map(add, row, powers))
    else:
        # theta_D alone: the values are the Kronecker row (a = f sits in
        # slot 0), all in class e = 0
        row = _kronecker_row(chi.D)
        units = list(zip(range(1, f + 1), row[1:] + row[:1]))
        plus = [a for a, s in units if s == 1]
        minus = [a for a, s in units if s == -1]
        S = {0: [sum(map(pow, plus, repeat(k))) - sum(map(pow, minus, repeat(k)))
                 for k in range(n + 1)]}
    # W_e = sum_j C(n,j) B_j f^(j-1) S[e][n-j], in integers over a common denominator
    coeffs = [comb(n, j) * bernoulli_number(j) * Fraction(f) ** (j - 1) for j in range(n + 1)]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    W = {e: Fraction(sum(map(mul, ints, reversed(row))), den) for e, row in S.items()}
    if chi.is_rational():
        return W[0]  # every value is +-1, so every unit lands in class 0
    ctx = ctx or chi.context
    zeta = teichmuller(ctx.from_int(_primitive_root(ctx.p)))
    return sum((zeta**e * ctx.from_rational(w) for e, w in W.items()), ctx.zero())


def dirichlet_L_nonpositive(a: int, chi: DirichletCharacter):
    """L(a, chi) = -B_{1-a,chi}/(1-a) for integers a <= 0."""
    if a > 0:
        raise ValueError("only non-positive integers are supported")
    n = 1 - a
    return -gen_bernoulli(n, chi) / n
