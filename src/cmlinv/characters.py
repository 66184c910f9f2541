"""Kronecker characters and their Bernoulli numbers.

Every character in scope is theta_D: the Kronecker character a -> (D/a)
of a fundamental discriminant D (D = 1 for the trivial character),
primitive of modulus |D| and of parity sign(D).  D is all that is
stored, and the values are read off one row of Kronecker symbols per D.
The Teichmuller character omega never needs a value here: the branch
function g(s) = L_p(s, theta*omega) of `kl` is read at s = 1 - n only
where n = 1 mod p - 1, and there theta*omega^(1-n) = theta.

Generalized Bernoulli numbers B_{n,chi} = f^{n-1} sum_a chi(a) B_n(a/f)
(Washington, GTM 83, Prop. 4.1) are computed exactly as
sum_j C(n,j) B_j f^{j-1} sum_a chi(a) a^{n-j}: one pass over the units
a mod f sums the integer powers a^k with sign chi(a).  L(0, chi) is
-B_{1,chi}.  The trivial character has
B_{1,1} = B_1(1) = +1/2, while B_1 = -1/2.  B_n itself is read from a
table built from the integer tangent numbers (Brent and Harvey, "Fast
computation of Bernoulli, tangent and secant numbers", 2011).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, isqrt, lcm
from operator import mul

__all__ = [
    "is_fundamental_discriminant",
    "DirichletCharacter",
    "char_from_kronecker",
    "char_teichmuller_power",
    "char_product",
    "trivial_character",
    "gen_bernoulli",
    "dirichlet_L_at_zero",
    "bernoulli_number",
]


def _kronecker_prime(D: int, q: int) -> int:
    """Kronecker symbol (D/q) at a prime q: by D mod 8 at 2, else Euler's criterion."""
    if q == 2:
        return 0 if D % 2 == 0 else 1 if D % 8 in (1, 7) else -1
    r = pow(D, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


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


def _fundamental_part(n: int) -> int:
    """The discriminant of Q(sqrt(n)) for n != 0 (1 when n is a square)."""
    for q in _prime_factors(abs(n)):
        while n % (q * q) == 0:
            n //= q * q
    return n if n % 4 == 1 else 4 * n


def is_fundamental_discriminant(D: int) -> bool:
    return D not in (0, 1) and _fundamental_part(D) == D


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
    # 71 hits from 63 rows in `acceptance`, 31 from 1 in field-twoway
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
    """theta_D, the Kronecker character a -> (D/a), primitive of modulus |D|.

    D is a fundamental discriminant or 1 (the trivial character mod 1).
    """

    __slots__ = ("D", "modulus")

    def __init__(self, D: int = 1):
        if D != 1 and not is_fundamental_discriminant(D):
            raise ValueError(f"{D} is not a fundamental discriminant")
        self.D = D
        self.modulus = abs(D)

    # --- evaluation -------------------------------------------------------

    def value_exact(self, a: int) -> int:
        """(D/a) in {-1, 0, 1}: 0 when gcd(a, |D|) > 1."""
        return _kronecker_row(self.D)[a % self.modulus]

    def value_pair(self, a: int):
        """(value, 0) at a unit a, or None when gcd(a, |D|) > 1."""
        # the pair form of an omega-valued character; kept because
        # perfbench/tracer.py keys its probes on it
        s = self.value_exact(a)
        return (s, 0) if s else None

    def parity(self) -> int:
        """chi(-1) = sign(D)."""
        return -1 if self.D < 0 else 1

    def power(self, e: int) -> "DirichletCharacter":
        """chi^e = theta_D^(e mod 2)."""
        return DirichletCharacter(self.D if e % 2 else 1)

    def __repr__(self):
        return f"DirichletCharacter(D={self.D})"


def trivial_character() -> DirichletCharacter:
    return DirichletCharacter()


def char_from_kronecker(D: int) -> DirichletCharacter:
    """Quadratic character a -> (D/a) mod |D|, for a fundamental discriminant."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    return DirichletCharacter(D)


def char_teichmuller_power(i: int, ctx) -> DirichletCharacter:
    """omega^i mod p where it is rational: trivial at i = 0 and the Legendre symbol
    theta_{p*}, p* = (-1)^((p-1)/2) p, at 2i = 0 mod p - 1; ValueError otherwise."""
    # no program path builds omega^i; kept because perfbench/tracer.py wraps it by name
    p = ctx.p
    i %= p - 1
    if not i:
        return DirichletCharacter()
    if 2 * i == p - 1:
        return DirichletCharacter(p if p % 4 == 1 else -p)
    raise ValueError(f"omega^{i} mod {p} is not rational-valued")


def char_product(chi1: DirichletCharacter, chi2: DirichletCharacter) -> DirichletCharacter:
    """theta_{D1 D2 / square}, the primitive product."""
    return DirichletCharacter(_fundamental_part(chi1.D * chi2.D))


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


def _bernoulli_upto(n: int) -> None:
    # the table to B_n at least, rebuilt to exactly n when shorter: a caller that
    # reads a whole table to n pays for that table alone, never for one doubled past it
    global _bernoulli
    if n >= len(_bernoulli):
        _bernoulli = _bernoulli_table(n)


def gen_bernoulli(n: int, chi: DirichletCharacter) -> Fraction:
    """Generalized Bernoulli number B_{n,chi}, exact."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f = chi.modulus
    # S[k] sums chi(a) a^k over the units a mod f, chi read off the
    # Kronecker row (a = f sits in slot 0)
    row = _kronecker_row(chi.D)
    units = list(zip(range(1, f + 1), row[1:] + row[:1]))
    plus = [a for a, s in units if s == 1]
    minus = [a for a, s in units if s == -1]
    S = [sum(map(pow, plus, repeat(k))) - sum(map(pow, minus, repeat(k)))
         for k in range(n + 1)]
    # sum_j C(n,j) B_j f^(j-1) S[n-j], in integers over a common denominator
    coeffs = [comb(n, j) * bernoulli_number(j) * Fraction(f) ** (j - 1) for j in range(n + 1)]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    return Fraction(sum(map(mul, ints, reversed(S))), den)


def dirichlet_L_at_zero(chi: DirichletCharacter) -> Fraction:
    """L(0, chi) = -B_{1,chi}, exactly."""
    return -gen_bernoulli(1, chi)
