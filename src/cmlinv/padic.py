"""Exact arithmetic in Q_p with per-value precision tracking.

Every number is either an exact zero, an inexact zero O(p^A), or
p^v * u with the unit u kept modulo p^r; r is the relative precision
and v + r the absolute precision.  Arithmetic never reports more
precision than the operands justify: addition works at the minimum
absolute precision, multiplication and division at the minimum
relative precision, and the exp series inherits the per-term losses
from the division operators it uses.  An int operand is an exact
integer kept to the context's N digits, as `from_int` gives it.

Special functions: Teichmuller lift, the Iwasawa branch of log_p
(log_p(p) = 0; an integer series after argument reduction, with the
precision stated up front), the p-adic exponential on pZ_p, and square
roots of units.  Both roots start mod p (the square root from a given
root mod p, which `sqrt_mod_prime` finds by Tonelli-Shanks) and are
Newton-lifted, doubling the correct digits each step.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "PadicContext",
    "PadicNumber",
    "make_context",
    "teichmuller",
    "iwasawa_log",
    "padic_exp",
    "sqrt_unit",
    "sqrt_mod_prime",
    "hensel_lift",
    "json_valuation",
]

_INF = math.inf


# Miller-Rabin to the bases 2 to 41 is deterministic below psi_13, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017); bases 2 to 37
# pass psi_12 = 318665857834031151167461 = 399165290221 * 798330580441
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    # proved for n < _PSI13, which `_check_prime` enforces
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p) -> None:
    if isinstance(p, int) and p >= _PSI13:
        raise ValueError(f"p must be below {_PSI13}, where the primality test is proved, "
                         f"got {p}")
    if not isinstance(p, int) or p < 3 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def _check_precision(N) -> None:
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"precision N must be a positive integer, got {N}")


def ordp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("ord_p(0) is infinite")
    return _split_p(n, p)[0]


def _split_p(n: int, p: int) -> tuple[int, int]:
    # (v, n / p^v) with v = ord_p(n), for a nonzero integer n
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def json_valuation(v):
    """A valuation as JSON carries it: math.inf, that of an exact zero, is null."""
    return None if v == _INF else v


# Up to this many digits the per-digit divmod loop wins; above it splitting
# does.  Timed with Python 3.11 on a 2-vCPU VM at p = 29: 100 digits take
# 0.03 ms either way, 16384 digits 178 ms by the loop and 9 ms split.
_DIGIT_LEAF = 32


def _base_p_digits(u: int, p: int, n: int, squares=None) -> list[int]:
    # the n lowest base-p digits of u >= 0, least significant first.  Longer
    # runs split at p^(2^j), 2^j the largest power of two below n: the low
    # part has exactly 2^j digits, so every divisor is one of the repeated
    # squarings of p, and the cost is that of a few divisions at full size
    # rather than n divisions by p
    if n <= _DIGIT_LEAF:
        out = []
        for _ in range(n):
            u, d = divmod(u, p)
            out.append(d)
        return out
    if squares is None:
        squares = [p]  # squares[j] = p^(2^j)
        while 1 << len(squares) < n:
            squares.append(squares[-1] * squares[-1])
    j = (n - 1).bit_length() - 1
    hi, lo = divmod(u, squares[j])
    out = _base_p_digits(lo, p, 1 << j, squares)
    out += _base_p_digits(hi, p, n - (1 << j), squares)
    return out


class PadicContext:
    """A fixed odd prime p and a working precision of N p-adic digits.

    Building one checks p and N and nothing more: p^N, the modulus of a unit
    kept to the full N digits, is computed on its first use and kept in `_pN`.
    """

    __slots__ = ("p", "N", "_pN")

    def __init__(self, p: int, N: int = 32):
        _check_prime(p)
        _check_precision(N)
        self.p = p
        self.N = N
        self._pN = None

    def __repr__(self):
        return f"PadicContext(p={self.p}, N={self.N})"

    def _modulus(self, rel: int) -> int:
        # p^rel, read off the context at the full N digits: every use of p^N is a call here
        if rel != self.N:
            return self.p**rel
        if self._pN is None:
            self._pN = self.p**rel
        return self._pN

    def _int_parts(self, n: int) -> tuple:
        # (valuation, unit, abs_prec) of the exact integer n, kept to N digits.
        # The unit is n / p^v itself unless that reaches p^N: every operator
        # reduces it, and a small signed unit such as -2 keeps a product or a
        # quotient linear in the size of the other operand
        if n == 0:
            return None, 0, _INF
        v, n = _split_p(n, self.p)
        m = self._modulus(self.N)
        if not -m < n < m:
            n %= m
        return v, n, v + self.N

    # --- element factories ---------------------------------------------

    def zero(self) -> "PadicNumber":
        return _number(self, None, 0, _INF)

    def inexact_zero(self, abs_prec: int) -> "PadicNumber":
        return PadicNumber(self, None, 0, abs_prec)

    def one(self) -> "PadicNumber":
        return _number(self, 0, 1, self.N)

    def from_int(self, n: int) -> "PadicNumber":
        v, u, a = self._int_parts(n)
        if v is None:
            return self.zero()
        return _number(self, v, u if u > 0 else u + self._modulus(self.N), a)

    def from_rational(self, q) -> "PadicNumber":
        q = Fraction(q)
        if q == 0:
            return self.zero()
        vn, num = _split_p(q.numerator, self.p)
        vd, den = _split_p(q.denominator, self.p)
        v, m = vn - vd, self._modulus(self.N)
        return _number(self, v, num * pow(den, -1, m) % m, v + self.N)

    def convert(self, x) -> "PadicNumber":
        if isinstance(x, PadicNumber):
            if x.context.p != self.p:
                raise ValueError("cannot mix p-adic numbers for different primes")
            if x.context.N == self.N:
                return x
            return x._retag(self)
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"cannot convert {type(x).__name__} to a p-adic number")


def make_context(p: int, N: int = 32) -> PadicContext:
    """Context for exact computation in Q_p; rejects p = 2, composite p, N < 1."""
    return PadicContext(p, N)


class PadicNumber:
    """Element of Q_p known to a stated absolute precision.

    States:
      * exact zero           -- abs_prec is +infinity
      * inexact zero O(p^A)  -- zero modulo p^A, nothing more known
      * p^v * u + O(p^(v+r)) -- unit u coprime to p, kept modulo p^r
    """

    __slots__ = ("context", "_val", "_unit", "_abs")

    def __init__(self, context, val, unit, abs_prec):
        self.context = context
        if val is None:
            self._val = None
            self._unit = 0
            self._abs = abs_prec
        else:
            rel = abs_prec - val
            if rel <= 0:
                # value indistinguishable from zero at this precision
                self._val = None
                self._unit = 0
                self._abs = abs_prec
                return
            rel = min(rel, context.N)
            unit %= context._modulus(rel)
            if unit == 0 or unit % context.p == 0:
                raise ValueError("unit part must be coprime to p")
            self._val = val
            self._unit = unit
            self._abs = val + rel

    # --- state queries ---------------------------------------------------

    def is_zero(self) -> bool:
        """True when the value is indistinguishable from 0 at its precision."""
        return self._val is None

    def is_exact_zero(self) -> bool:
        return self._val is None and self._abs == _INF

    @property
    def abs_prec(self):
        return self._abs

    @property
    def rel_prec(self) -> int:
        if self._val is None:
            return 0
        return self._abs - self._val

    def valuation(self):
        """Exact valuation; math.inf for the exact zero.

        Raises on an inexact zero, whose valuation is only bounded below
        (use min_valuation for the bound).
        """
        if self._val is not None:
            return self._val
        if self._abs == _INF:
            return _INF
        raise ValueError(f"valuation of O(p^{self._abs}) is only bounded below")

    def min_valuation(self):
        """Largest k with the value provably in p^k Z_p."""
        return self._abs if self._val is None else self._val

    def is_unit(self) -> bool:
        return self._val == 0

    def unit_int(self) -> int:
        """The unit part as an integer in [1, p^rel)."""
        if self._val is None:
            raise ValueError("zero has no unit part")
        return self._unit

    def residue(self, k: int) -> int:
        """Integer representative modulo p^k (requires valuation >= 0 and abs_prec >= k)."""
        if k > self._abs:
            raise ValueError(f"residue mod p^{k} not determined at O(p^{self._abs})")
        if self._val is None:
            return 0
        if self._val < 0:
            raise ValueError("residue undefined at negative valuation")
        ctx = self.context
        return self._unit * ctx.p**self._val % ctx._modulus(k)

    def digits(self) -> list[int]:
        """Base-p digits of the unit part, length rel_prec (empty for zero)."""
        if self._val is None:
            return []
        return _base_p_digits(self._unit, self.context.p, self.rel_prec)

    # --- precision management ---------------------------------------------

    def _retag(self, ctx: PadicContext) -> "PadicNumber":
        if self._val is None:
            return PadicNumber(ctx, None, 0, self._abs)
        return PadicNumber(ctx, self._val, self._unit, self._abs)

    def truncate_abs(self, k: int) -> "PadicNumber":
        """Forget everything beyond absolute precision k (exact zeros stay exact)."""
        if self._val is None:
            if self._abs == _INF:
                return self
            return PadicNumber(self.context, None, 0, min(self._abs, k))
        if k >= self._abs:
            return self
        return PadicNumber(self.context, self._val, self._unit, k)

    # --- arithmetic --------------------------------------------------------
    #
    # Each binary operator reads its other operand as (valuation, unit,
    # abs_prec) parts and runs one body, `_sum`, `_product` or `_quotient`,
    # on the parts of both sides.  An int operand is read exactly as
    # ctx.from_int gives it, with no PadicNumber built.

    def _parts(self) -> tuple:
        return self._val, self._unit, self._abs

    def _operand(self, other):
        # the other operand's parts, or None for a type Q_p does not take in
        if isinstance(other, PadicNumber):
            if other.context.p != self.context.p:
                raise ValueError("cannot mix p-adic numbers for different primes")
            return other._val, other._unit, other._abs
        if isinstance(other, int):
            return self.context._int_parts(other)
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _sum(self.context, self._parts(), o)

    __radd__ = __add__

    def __neg__(self):
        if self._val is None:
            return self
        return _number(self.context, self._val,
                       -self._unit % self.context._modulus(self.rel_prec), self._abs)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        v, u, a = o
        return _sum(self.context, self._parts(), (v, -u, a))

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _sum(self.context, (self._val, -self._unit, self._abs), o)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _product(self.context, self._parts(), o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _quotient(self.context, self._parts(), o)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        ctx = self.context
        if e == 0:
            return ctx.one()
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            if self.is_exact_zero():
                return ctx.zero()
            return PadicNumber(ctx, None, 0, self._abs * e)
        rel = self.rel_prec
        m = ctx._modulus(rel)
        u = pow(self._unit if e > 0 else _inverse(self._unit, ctx.p, rel, m), abs(e), m)
        v = self._val * e
        return _number(ctx, v, u, v + rel)

    def __eq__(self, other):
        """Equality at the shared precision."""
        d = self.__sub__(other)
        return d if d is NotImplemented else d.is_zero()

    __hash__ = None

    def __repr__(self):
        p = self.context.p
        if self.is_exact_zero():
            return f"0 (exact, {p}-adic)"
        if self.is_zero():
            return f"O({p}^{self._abs})"
        return f"{self._unit}*{p}^{self._val} + O({p}^{self._abs})"


def _number(ctx, val, unit, abs_prec) -> PadicNumber:
    # a PadicNumber from parts already in normal form: an exact zero, or a
    # unit in [1, p^r) prime to p with 1 <= r = abs_prec - val <= N
    x = object.__new__(PadicNumber)
    x.context, x._val, x._unit, x._abs = ctx, val, unit, abs_prec
    return x


def _sum(ctx, x, y) -> PadicNumber:
    # x + y on (valuation, unit, abs_prec) parts: at the lesser abs_prec
    (xv, xu, xa), (yv, yu, ya) = x, y
    a = min(xa, ya)
    if xv is None or yv is None:
        v, u = (yv, yu) if xv is None else (xv, xu)
        if v is None or v >= a:
            return PadicNumber(ctx, None, 0, a)
        return PadicNumber(ctx, v, u, a)
    p = ctx.p
    m = min(xv, yv)
    k = a - m
    if k <= 0:
        return PadicNumber(ctx, None, 0, a)
    s = (xu * p ** (xv - m) + yu * p ** (yv - m)) % ctx._modulus(k)
    if s == 0:
        return PadicNumber(ctx, None, 0, a)
    w, s = _split_p(s, p)
    return PadicNumber(ctx, m + w, s, a)


def _product(ctx, x, y) -> PadicNumber:
    # x * y on parts: at the lesser relative precision
    (xv, xu, xa), (yv, yu, ya) = x, y
    if xv is None or yv is None:
        if xa == _INF and xv is None or ya == _INF and yv is None:
            return ctx.zero()
        # O(p^A) * (p^v * unit) = O(p^(A+v)); O(p^A) * O(p^B) = O(p^(A+B))
        return PadicNumber(ctx, None, 0, (xa if xv is None else xv) + (ya if yv is None else yv))
    v = xv + yv
    rel = min(xa - xv, ya - yv)
    return _number(ctx, v, xu * yu % ctx._modulus(rel), v + rel)


def _quotient(ctx, x, y) -> PadicNumber:
    # x / y on parts: at the lesser relative precision
    (xv, xu, xa), (yv, yu, ya) = x, y
    if yv is None:
        raise ZeroDivisionError("division by (inexact) zero")
    if xv is None:
        return ctx.zero() if xa == _INF else PadicNumber(ctx, None, 0, xa - yv)
    v = xv - yv
    rel = min(xa - xv, ya - yv)
    m = ctx._modulus(rel)
    return _number(ctx, v, _divide(xu, yu, ctx.p, rel, m), v + rel)


# --- special functions ------------------------------------------------------


def teichmuller(a: PadicNumber) -> PadicNumber:
    """Teichmuller lift: the (p-1)-st root of unity congruent to a mod p.

    Requires a unit; the result is exact, so it carries full context
    precision.  Computed by Newton's method on x^(p-1) = 1 from the
    residue mod p, which doubles the number of correct digits each step.
    """
    if a.is_zero() or not a.is_unit():
        raise ValueError("teichmuller requires a p-adic unit")
    ctx = a.context
    p, N = ctx.p, ctx.N
    x = hensel_lift(lambda x, m: pow(x, p - 1, m) - 1,
                    lambda x, m: (p - 1) * pow(x, p - 2, m), a.unit_int() % p, p, N)
    return PadicNumber(ctx, 0, x, N)


def _floor_log(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1, in integers."""
    e = 0
    while p ** (e + 1) <= n:
        e += 1
    return e


def _log_terms(v: int, target: int, p: int) -> int:
    # terms of log(1+z), ord_p(z) = v >= 1, that reach p^target: term r has
    # valuation r*v - ord_p(r) >= r*v - floor(log_p r), which never decreases
    # in r, so every term past the returned count lies above the target
    n = target // v  # every count up to here falls short: n*v <= target
    while n * v - _floor_log(n + 1, p) <= target:
        n += 1
    return n


def _log_reduction(T: int, p: int) -> tuple[int, int, int, int]:
    # (k, n, e, s) for log<u> mod p^T: w = u^((p-1) p^k) - 1 has ord_p(w) >= k+1,
    # n terms of log(1+w) reach p^(T+k), e = floor(log_p n) = ord_p(lcm(1..n)),
    # and the series is summed in blocks of s terms; `iwasawa_log` derives k and s
    b = p.bit_length()
    k = 1
    while (k + 1) ** 3 * b * b <= 4 * T:
        k += 1
    n = _log_terms(k + 1, T + k - 1, p)
    e = _floor_log(n, p)
    return k, n, e, max(1, math.isqrt((T + k + e - 1) // (k + 1) // 2))


# Every log at one (p, T) shares the plan: each `_log_value` miss, each
# `kl._logs` call and each pair of product logs of `kl._closed_form` reads it.
# Measured reuse: 16 hits from 16 plans in field-twoway and 7 from 20 in
# `cmlinv acceptance`, as many as an unbounded cache gets.  A plan at 512
# digits of 29 holds about 10 KB, one at 16384 digits about 0.6 MB.
_LOG_PLANS = 16


@lru_cache(maxsize=_LOG_PLANS)
def _log_plan(p: int, T: int) -> tuple:
    # what `_log_units` needs at (p, T) before it sees a unit, a pure function
    # of (p, T): (E, mods, d, lows, cols, shift, scale, p^T) in the notation
    # of the `iwasawa_log` docstring.  It holds no log value; `_log_value` does
    k, n, e, s = _log_reduction(T, p)
    M = T + k + e
    top = (M - 1) // (k + 1)  # < n; later terms vanish mod p^M
    nb = top // s + 1  # block b holds the terms r = bs .. bs+s-1
    d = p ** ((k + 1) * s)
    mods = [p**M]  # mods[b] = p^(M - bs(k+1)), the modulus of block b
    for _ in range(nb - 1):
        mods.append(mods[-1] // d)
    L = math.lcm(*range(1, n + 1))
    c = [0] + [L // r if r % 2 else -(L // r) for r in range(1, top + 1)]
    c += [0] * (nb * s - top - 1)
    lows = tuple(c[::s])  # c_(bs), then c_(bs+i) by b
    cols = tuple(tuple(c[i::s]) for i in range(1, s))
    scale = _inverse(L // p**e * (p - 1), p, T)
    return (p - 1) * p**k, tuple(mods), d, lows, cols, p ** (k + e), scale, p**T


def _log_units(units, p: int, T: int) -> list:
    # log<u> mod p^T in [0, p^T) for each integer u prime to p: the series
    # of `iwasawa_log`, whose docstring proves its bounds, summed by blocks of
    # s terms, with the coefficients +-L/r and the moduli read from the plan
    E, mods, d, lows, cols, shift, scale, mT = _log_plan(p, T)
    m0, nb = mods[0], len(mods)
    logs = []
    for u in units:
        y = w = pow(u, E, m0) - 1
        hs = lows  # becomes hs[b] = sum_(i<s) c_(bs+i) w^i, one power of w at a time
        for col in cols:
            hs = [h + a * y for h, a in zip(hs, col)]
            y = y * w % m0
        x = y // d  # w^s = q^s w1^s mod p^M, so w1^s mod mods[1]
        xs = [x := x % m for m in mods[1:]]  # xs[b] = w1^s mod mods[b+1]
        acc = hs[-1]
        for b in range(nb - 2, -1, -1):
            acc = hs[b] + d * (xs[b] * acc % mods[b + 1])
        logs.append(acc // shift * scale % mT)
    return logs


# log<u> mod p^T is a pure function of (u, p, T), and the two L-invariant
# routes ask for it twice whenever a_p is the trace of the generator of
# pibar^h: the unit root alpha_p and pibar are then one integer mod p^T.
# Measured reuse: 32 hits from 32 logs in field-twoway, none from 12 in
# fg-grid, 28 from 16 in `cmlinv acceptance`.  An entry (unit and value) at
# 512 digits of 29 holds about 0.7 KB, one at 16384 digits about 20 KB.
_LOG_VALUES = 16


@lru_cache(maxsize=_LOG_VALUES)
def _log_value(u: int, p: int, T: int) -> int:
    # log<u> mod p^T in [0, p^T) for one integer u prime to p
    return _log_units((u,), p, T)[0]


def iwasawa_log(x: PadicNumber) -> PadicNumber:
    """Iwasawa branch of log_p: log_p(p) = 0 and roots of unity map to 0.

    Writes x = p^v * omega(u) * <u> and returns log(<u>) to absolute
    precision T = x.rel_prec, the precision of u; the value is an inexact
    zero O(p^T) when <u> = 1 to that precision.  The series runs in
    integers after argument reduction: w = u^((p-1) p^k) - 1 (the power
    p - 1 kills omega(u)) has ord_p(w) >= k + 1 and is known mod p^(T+k),
    and

        log<u> = log(1 + w) / ((p-1) p^k),   log(1 + w) = sum (-1)^(r+1) w^r / r.

    Bounds: term r has valuation r(k+1) - ord_p(r) >= r(k+1) - floor(log_p r),
    so n = _log_terms(k+1, T+k-1, p) terms give log(1 + w) mod p^(T+k).
    The sum is scaled by L = lcm(1..n), whose p-part is p^e with
    e = floor(log_p n) >= ord_p(r) for r <= n: then the coefficients
    c_r = (-1)^(r+1) L/r are small integers, and S = sum_{r<=n} c_r w^r
    is L log(1 + w) mod p^M, M = T + k + e.  L log(1 + w) lies in
    p^(e+k+1) Z_p, so S mod p^M divides exactly by p^(k+e), leaving
    (L/p^e) log(1 + w) / p^k mod p^T; one multiplication by
    ((L/p^e)(p-1))^-1 mod p^T gives log<u>.  Terms with r(k+1) >= M vanish
    mod p^M and are not summed: only r <= top = (M-1) // (k+1), and top < n,
    since n is the first count with n(k+1) - floor(log_p(n+1)) >= T + k.

    Block precision (rectangular splitting, Brent-Zimmermann, Modern
    Computer Arithmetic, 4.4.3).  Cut the terms r <= top into nb =
    top // s + 1 blocks of s, with c_0 = 0 and c_r = 0 for r > top, and
    write w = q w1, q = p^(k+1).  Block b sums h_b = sum_{i<s} c_(bs+i) w^i,
    small multiples of the powers w^i, which are computed once per unit;
    Horner then runs over the blocks in w^s:

        A_(nb-1) = h_(nb-1),   A_b = h_b + w^s A_(b+1),   S = A_0.

    A_b enters S multiplied by w^(bs), which lies in p^(bs(k+1)) Z, so only
    A_b mod p^(M_b), M_b = M - bs(k+1), reaches S mod p^M.  Since w^s =
    q^s w1^s, w^s A_(b+1) mod p^(M_b) is q^s times w1^s A_(b+1) mod
    p^(M_(b+1)): each step multiplies by w1^s reduced mod p^(M_(b+1)) and
    reduces the product there, a modulus that shrinks by s(k+1) digits per
    block (with s = 1 the sums h_b are the bare coefficients, and this is
    Horner term by term at shrinking precision).  M_(nb-1) >= M - top(k+1) >= 1,
    so every block keeps a digit.  The final A_0 is S plus a multiple of
    p^M, which the division by p^(k+e) turns into a multiple of p^T.

    Choice of k and s, in integers: the power costs about (k+1) log2(p)
    squarings at M digits, the blocks s - 1 products for the powers of w
    and nb - 1 for Horner, about 2 sqrt(T/(k+1)) in all; balancing the two
    gives (k+1)^3 ~ T / log2(p)^2.  So k is the least k >= 1 with
    (k+1)^3 bitlen(p)^2 > 4T, and s = max(1, isqrt(top // 2)): below
    top = 8 this is s = 1, where the few products are too small to repay
    a split.

    Plan.  All of the above but the unit -- E = (p-1) p^k, the block
    moduli p^(M_b), the coefficient columns, q^s, the shift p^(k+e), the
    scale ((L/p^e)(p-1))^-1 mod p^T and p^T -- is a pure function of
    (p, T).  `_log_plan(p, T)` builds it once, and an lru_cache of
    _LOG_PLANS entries keeps it.

    Memo.  The value itself is a pure function of (u, p, T), and
    `_log_value` keeps the last _LOG_VALUES of them.  When a_p is the
    trace of the generator of pibar^h, the Hecke unit root alpha_p and
    pibar are the same integer mod p^T, so the two L-invariant routes sum
    one series between them.  A hit needs that same integer at the same
    (p, T), so the check of one route against the other loses nothing:
    units that differ by a root of unity still sum their own series.
    """
    if x.is_zero():
        raise ValueError("iwasawa_log of zero")
    ctx, T = x.context, x.rel_prec
    return _from_residue(ctx, _log_value(x.unit_int(), ctx.p, T), T)


def _from_residue(ctx: PadicContext, r: int, n: int) -> PadicNumber:
    # r mod p^n, 0 <= r < p^n, as a p-adic number known to absolute precision n
    if r == 0:
        return PadicNumber(ctx, None, 0, n)
    v, u = _split_p(r, ctx.p)
    return PadicNumber(ctx, v, u, n)


def padic_exp(x: PadicNumber) -> PadicNumber:
    """exp_p on pZ_p (odd p): sum x^n / n!, with ord(x) >= 1 required."""
    if x.is_zero():
        if x.is_exact_zero() or x.abs_prec >= 1:
            return x.context.one().truncate_abs(
                x.abs_prec if not x.is_exact_zero() else x.context.N)
        raise ValueError("padic_exp requires ord_p(x) >= 1")
    if x.valuation() < 1:
        raise ValueError("padic_exp requires ord_p(x) >= 1")
    ctx = x.context
    p = ctx.p
    v = x.valuation()
    target = min(x.abs_prec, ctx.N)
    # term r has valuation r*v - ord(r!) >= r*v - (r-1)/(p-1), a bound that
    # increases in r, so every term past the first r where it reaches the
    # target can go; r*v - ord(r!) itself does not increase (p = 3, v = 1:
    # 16 at r = 26, 14 at r = 27)
    n_terms = 1
    while (n_terms + 1) * (v * (p - 1) - 1) + 1 < target * (p - 1):
        n_terms += 1
    acc = ctx.one()
    term = ctx.one()
    for r in range(1, n_terms + 1):
        term = term * x / r
        acc = acc + term
    return acc.truncate_abs(target)


def _ladder(k: int) -> list[int]:
    # precisions 1 < j_1 < ... < j_t = k for Newton steps, each at most twice
    # the one before; halving down from k never overshoots k
    steps = []
    while k > 1:
        steps.append(k)
        k = (k + 1) // 2
    return steps[::-1]


# Below this many bits pow(u, -1, p^k) wins: its extended gcd takes about
# as many steps as u has bits, each linear in p^k.  The bits counted are
# those of min(u, p^k - u), since a small negative unit such as -3 is
# stored as p^k - 3 and its gcd is as short as that of 3.  Timed with
# Python 3.11 on a 2-vCPU VM at p = 29: mod 29^528, pow takes 2 us for an
# 8-bit u and 3-5 us for p^k - 3 (78-115 us by Newton), 15 us at 64 bits
# and 26 us at 128 bits, Newton 13-20 us; a full-size u takes 0.99 ms by
# pow and 0.10 ms by Newton.  A divisor this small also divides exactly
# (`_divide`): 3 us for u / 7 with a full-size u, against 30 us for the
# product with 7^-1 and its reduction.
_GCD_INVERSE_BITS = 64
_SMALL = 1 << _GCD_INVERSE_BITS


def _inverse(u: int, p: int, k: int, m: int | None = None) -> int:
    """u^-1 mod p^k for u prime to p: Newton's y <- y(2 - u y), doubling the digits.

    m is p^k when the caller has it at hand.
    """
    if m is None:
        m = p**k
    u %= m
    if min(u, m - u) < _SMALL:
        return pow(u, -1, m)
    y = pow(u % p, -1, p)
    for j in _ladder(k):
        mj = m if j == k else p**j
        y = y * (2 - u * y % mj) % mj
    return y


def _divide(u: int, d: int, p: int, k: int, m: int) -> int:
    # u / d mod m = p^k in [0, m), for d prime to p.  A d with |d| or m - d
    # below 2^_GCD_INVERSE_BITS (an int operand such as 2, -2 or h) divides
    # exactly: with j = -u m^-1 mod |d|, u + j m is a multiple of |d|, and
    # (u + j m) / |d| is u / |d| mod m, for the cost of a pass over u
    if not -_SMALL < d < _SMALL:
        d %= m
        if m - d < _SMALL:
            d -= m
    if -_SMALL < d < _SMALL:
        a = abs(d)
        q = (u + (-u % a) * pow(m, -1, a) % a * m) // a
        return (q if d > 0 else -q) % m
    return u * _inverse(d, p, k, m) % m


def hensel_lift(f, df, x: int, p: int, k: int) -> int:
    """Lift a simple root x of f mod p to p^k by Newton steps; f, df are called as (x, m).

    The inverse y = f'(x)^-1 is carried along rather than recomputed: if x
    is a root mod p^j and y inverts f'(x) mod p^j, then x - f(x) y is a
    root mod p^(2j), and y (2 - f'(x) y) at the new x inverts f' mod
    p^(2j), since the new x agrees with the old mod p^j.  So each step
    costs two products in place of a modular inverse, and only f'(x) mod p
    is inverted.  k <= 1 returns x mod p^k.  Raises ArithmeticError when
    the result is not a root mod p^k, as when x is not a root mod p.
    """
    y = pow(df(x, p), -1, p) if k > 1 else None  # no step, so no inverse, at k <= 1
    for j in _ladder(k):
        m = p**j
        x = (x - f(x, m) * y) % m
        if j < k:
            y = y * (2 - df(x, m) * y % m) % m
    m = p**k
    x %= m
    if f(x, m) % m:
        raise ArithmeticError("Hensel lift failed")
    return x


def sqrt_mod_prime(a: int, p: int) -> int:
    """Least positive square root of a mod an odd prime p (Tonelli-Shanks), or ValueError."""
    _check_prime(p)
    a %= p
    if a == 0 or pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * q, q odd
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, x, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        x, c, t, s = x * b % p, b * b % p, t * b * b % p, i
    return min(x, p - x)


def sqrt_unit(a: PadicNumber, residue: int) -> PadicNumber:
    """Square root of a unit by Hensel lifting (odd p): the root = residue mod p.

    `residue` is a square root of a mod p, say from `sqrt_mod_prime`.
    """
    if a.is_zero() or not a.is_unit():
        raise ValueError("sqrt_unit requires a p-adic unit")
    ctx = a.context
    p = ctx.p
    rel = a.rel_prec
    au = a.unit_int()
    if (residue * residue - au) % p:
        raise ValueError(f"{residue} mod {p} is not a square root class")
    x = hensel_lift(lambda x, m: x * x - au, lambda x, m: 2 * x, residue % p, p, rel)
    return PadicNumber(ctx, 0, x, rel)
