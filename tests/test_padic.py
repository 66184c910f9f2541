"""Exact Q_p arithmetic: constructors, special functions, precision model."""

import hashlib
import importlib
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlinv.cmform import cm_spec_from_curve
from cmlinv.linvariant import l_invariant_analytic, l_invariant_via_alpha
from cmlinv.padic import (_GCD_INVERSE_BITS, _LOG_PLANS, _LOG_VALUES, PadicNumber,
                          _base_p_digits, _floor_log, _inverse, _is_prime,
                          _log_plan, _log_reduction, _log_terms, _log_units,
                          _log_value, hensel_lift, iwasawa_log, make_context, ordp,
                          padic_exp, sqrt_mod_prime, sqrt_unit, teichmuller)
from cmlinv.quadfield import pi_bar, quad_field_from_discriminant

CTX5 = make_context(5, 32)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 of repr(log_pibar) for Q(sqrt(-167)), h = 11, at p = 29 and 1024 digits
LOG_PIBAR_167_29_SHA256 = "67d8fcf0e404b59fdcee1ce41f3cd6344d93b167983b96cbf0cd71d749d349d9"


# --- context gates -----------------------------------------------------------

def test_make_context_echo():
    ctx = make_context(5, 32)
    assert (ctx.p, ctx.N) == (5, 32)


@pytest.mark.parametrize("p", [2, 9, 1, 0, -5, 15, 318665857834031151167461])
def test_make_context_rejects_bad_primes(p):
    with pytest.raises(ValueError):
        make_context(p, 8)


# the least strong pseudoprime to the bases 2, to 2 and 3, ..., to 2 to 37
PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                341550071728321, 3825123056546413051, 318665857834031151167461)


def test_is_prime_agrees_with_a_sieve_and_rejects_strong_pseudoprimes():
    top = 10**5
    sieve = [False, False] + [True] * (top - 2)
    for q in range(2, math.isqrt(top - 1) + 1):
        sieve[q * q::q] = [False] * len(sieve[q * q::q])
    assert [n for n in range(top) if _is_prime(n)] == [n for n in range(top) if sieve[n]]
    assert not any(map(_is_prime, PSEUDOPRIMES))
    # psi_13 = 1287836182261 * 2575672364521, the least strong pseudoprime to the
    # bases 2 to 41, passes every base, so it and every larger p are refused first
    with pytest.raises(ValueError, match="where the primality test is proved"):
        make_context(3317044064679887385961981, 8)


def test_make_context_rejects_bad_precision():
    with pytest.raises(ValueError):
        make_context(5, 0)


def test_p_to_the_n_is_computed_once_on_first_use():
    # 5^(10^7) alone takes 5.5-5.8 s, so building the context must not compute it
    assert make_context(5, 10**7)._pN is None
    ctx = make_context(5, 64)
    assert ctx._pN is None
    x = ctx.from_int(-1)  # the unit p^N - 1, at full precision
    pN = ctx._pN
    assert x.unit_int() == 5**64 - 1 and pN == 5**64
    # later operations at full precision read the kept p^N, not a new power
    assert (x * x + ctx.from_rational(Fraction(1, 3))).rel_prec == 64 and ctx._pN is pN


# --- embeddings and arithmetic ------------------------------------------------

def test_rational_embedding_roundtrip():
    x = CTX5.from_rational(Fraction(7, 3))
    assert x * 3 == 7
    assert (x * 3 - 7).is_zero()


def test_valuation_and_digits():
    x = CTX5.from_int(50)  # 2 * 5^2
    assert x.valuation() == 2
    assert x.digits()[0] == 2
    assert x.residue(3) == 50 % 125


def _digits_oracle(u: int, p: int, n: int) -> list[int]:
    # one divmod by p per digit, as `digits` did before it split at squarings
    out = []
    for _ in range(n):
        u, d = divmod(u, p)
        out.append(d)
    return out


@pytest.mark.parametrize("p", [3, 5, 29, 97])
def test_digits_match_per_digit_oracle(p):
    rng = random.Random(p)
    lengths = {0, 1} | {2**j + e for j in range(1, 12) for e in (-1, 0, 1)}
    for n in sorted(lengths):
        u = rng.randrange(p**n)
        assert _base_p_digits(u, p, n) == _digits_oracle(u, p, n), (p, n)
        if n:
            u += u % p == 0
            x = PadicNumber(make_context(p, n), 0, u, n)
            assert x.digits() == _digits_oracle(u, p, n), (p, n)


def test_addition_cancellation_gives_inexact_zero():
    x = CTX5.from_int(7)
    d = x - CTX5.from_int(7)
    assert d.is_zero() and not d.is_exact_zero()
    assert d.abs_prec == 32


def test_equality_is_at_shared_precision():
    # values agreeing mod 5^4 but constructed with 4 known digits only
    a = PadicNumber(CTX5, 0, 1 + 2 * 5, 4)
    b = PadicNumber(CTX5, 0, 1 + 2 * 5 + 5**4, 4)
    assert a == b
    c = PadicNumber(CTX5, 0, 1 + 3 * 5, 4)
    assert a != c


def test_division_by_inexact_zero_fails():
    z = CTX5.from_int(3) - 3
    with pytest.raises(ZeroDivisionError):
        CTX5.one() / z


def test_negative_powers():
    x = CTX5.from_int(10)
    y = x**-2
    assert y * x * x == 1
    assert y.valuation() == -2


def test_inverse_matches_pow_on_both_sides_of_the_cutoff():
    rng = random.Random(9)
    for p in (3, 29, 97):
        for k in (1, 2, 13, 17, 64, 512):
            m = p**k
            bits = {m.bit_length() + 8, _GCD_INVERSE_BITS + 1, _GCD_INVERSE_BITS, 8, 2}
            us = [2, p - 1, m + 2, *(rng.getrandbits(b) | 1 for b in sorted(bits))]
            for u in us:
                if u % p:
                    assert _inverse(u, p, k) == pow(u, -1, m), (p, k, u)
    # both branches run: a reduced unit of 64 bits and one of 65 bits
    m = 29**512
    for b in (_GCD_INVERSE_BITS, _GCD_INVERSE_BITS + 1):
        u = (1 << (b - 1)) + 1
        assert u % 29 and u.bit_length() == b
        assert _inverse(u, 29, 512) * u % m == 1


def test_inverse_of_small_signed_units():
    # the method is chosen on min(u, p^k - u): -3 is stored as p^k - 3 and
    # takes the gcd as 3 does; a full-size unit takes Newton
    for p in (5, 29):
        for k in (1, 2, 17, 528):
            m = p**k
            full = m // 3 | 1 if (m // 3 | 1) % p else m // 3 + 2
            for u in (1, -1, 3, -3, m - 3, m + 3, full, -full):
                assert _inverse(u, p, k) == pow(u, -1, m), (p, k, u)
                assert _inverse(u, p, k, m) == pow(u, -1, m), (p, k, u)


def _quotient_oracle(x: PadicNumber, y: PadicNumber) -> str:
    # repr of x / y for units known to finite precision, by pow(u, -1, m)
    p, rel = x.context.p, min(x.rel_prec, y.rel_prec)
    m = p**rel
    v = x.valuation() - y.valuation()
    return repr(PadicNumber(x.context, v, x.unit_int() * pow(y.unit_int(), -1, m) % m, v + rel))


def _negative_power_oracle(x: PadicNumber, e: int) -> str:
    m = x.context.p ** x.rel_prec
    v = x.valuation() * e
    return repr(PadicNumber(x.context, v, pow(pow(x.unit_int(), -1, m), -e, m),
                            v + x.rel_prec))


@pytest.mark.parametrize("p", [5, 29])
def test_division_and_negative_powers_match_pow_oracle(p):
    rng = random.Random(p)
    ctx = make_context(p, 512)

    def value(rel):
        # a full-size unit, one below the gcd cutoff, or 2
        u = rng.choice([rng.randrange(1, p**rel), rng.getrandbits(40), 2])
        v = rng.randrange(-3, 4)
        return PadicNumber(ctx, v, u if u % p else u + 1, v + rel)

    for _ in range(60):
        x, y = value(rng.randrange(1, 513)), value(rng.randrange(1, 513))
        assert repr(x / y) == _quotient_oracle(x, y)
        # small divisors of either sign divide exactly; the others invert
        for n in (7, -2, -7 * p, 2**64 - 1, -(2**64 - 1), 2**64 + 1, p**600 + 2):
            assert repr(x / n) == _quotient_oracle(x, ctx.from_int(n)), n
            assert repr(x / ctx.from_int(n)) == _quotient_oracle(x, ctx.from_int(n)), n
        e = -rng.randrange(1, 5)
        assert repr(y**e) == _negative_power_oracle(y, e)


def test_min_valuation_of_inexact_zero():
    z = CTX5.from_int(4) - 4
    assert z.min_valuation() == 32
    with pytest.raises(ValueError):
        z.valuation()


units = st.integers(min_value=1, max_value=10**6).filter(lambda n: n % 5)


@given(units, units)
@settings(max_examples=60, deadline=None)
def test_precision_is_monotone_under_mul_div(a, b):
    x = CTX5.from_int(a)
    y = PadicNumber(CTX5, 0, b, 10)  # only 10 digits known
    assert (x * y).rel_prec <= min(x.rel_prec, y.rel_prec)
    assert (x / y).rel_prec <= min(x.rel_prec, y.rel_prec)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@settings(max_examples=60, deadline=None)
def test_addition_respects_absolute_precision(a, b):
    x, y = CTX5.from_int(a), CTX5.from_int(b)
    s = x + y
    assert s.abs_prec <= min(x.abs_prec, y.abs_prec)
    assert s == a + b


# contexts for the scalar-operand test: a short one, where ints past p^N are
# cheap to draw, and one at full size, where the small-divisor path runs
SCALAR_CTXS = (make_context(5, 6), make_context(29, 64))
X_STATES = ("exact zero", "inexact zero", "unit", "v < 0", "v > 0")


@st.composite
def padic_and_scalar(draw):
    ctx = draw(st.sampled_from(SCALAR_CTXS))
    p, N = ctx.p, ctx.N
    state = draw(st.sampled_from(X_STATES))
    if state == "exact zero":
        x = ctx.zero()
    elif state == "inexact zero":
        x = ctx.inexact_zero(draw(st.integers(-3, N + 3)))
    else:
        v = {"unit": 0, "v < 0": draw(st.integers(-4, -1)),
             "v > 0": draw(st.integers(1, 4))}[state]
        rel = draw(st.integers(1, N))
        u = draw(st.integers(1, p**rel - 1).filter(lambda u: u % p))
        x = PadicNumber(ctx, v, u, v + rel)
    n = draw(st.one_of(
        st.sampled_from([0, 1, -1, p, -p, p**N, p**N - 1, -(p**N) + 1, p ** (N + 2)]),
        st.integers(-10**6, 10**6).map(lambda k: k * p),  # multiples of p
        st.integers(max_value=-1),
        st.integers(p**N, p ** (N + 3))))
    return x, n


def _outcome(op):
    # repr, abs_prec and rel_prec of the result, or the exception type
    try:
        z = op()
    except ZeroDivisionError:
        return ZeroDivisionError
    return repr(z), z.abs_prec, z.rel_prec


@given(padic_and_scalar())
@settings(max_examples=300, deadline=None)
def test_int_operands_match_the_from_int_route(xn):
    x, n = xn
    m = x.context.from_int(n)
    for name, op, via in (
            ("x*n", lambda: x * n, lambda: x * m), ("n*x", lambda: n * x, lambda: m * x),
            ("x/n", lambda: x / n, lambda: x / m),
            ("x+n", lambda: x + n, lambda: x + m), ("n+x", lambda: n + x, lambda: m + x),
            ("x-n", lambda: x - n, lambda: x - m), ("n-x", lambda: n - x, lambda: m - x)):
        assert _outcome(op) == _outcome(via), (name, x, n)


def test_fraction_operands_and_int_dividends_are_refused():
    # a Fraction enters through from_rational, and an int divides only from the right
    x, q = CTX5.from_int(3), Fraction(1, 3)
    for op in (lambda: x * q, lambda: q + x, lambda: x - q, lambda: q / x,
               lambda: CTX5.convert(q), lambda: 3 / x):
        with pytest.raises(TypeError):
            op()
    assert "__rtruediv__" not in vars(PadicNumber)
    assert x * CTX5.from_rational(q) == 1


def test_division_by_int_zero_raises():
    for x in (CTX5.from_int(3), CTX5.zero(), CTX5.inexact_zero(4)):
        with pytest.raises(ZeroDivisionError):
            x / 0


def test_from_int_keeps_n_digits_of_an_exact_int():
    for n in (1, -1, 3 * 5**40, -(5**33) - 2):
        x = CTX5.from_int(n)
        v = ordp(n, 5)
        assert (x.valuation(), x.rel_prec, x.unit_int()) == (v, 32, n // 5**v % 5**32)


# --- Teichmuller -------------------------------------------------------------

def test_teichmuller_rejects_non_units():
    with pytest.raises(ValueError):
        teichmuller(CTX5.from_int(10))


@given(units)
@settings(max_examples=40, deadline=None)
def test_teichmuller_root_of_unity_and_congruence(a):
    t = teichmuller(CTX5.from_int(a))
    assert t**4 == 1
    assert (t**4 - 1).min_valuation() >= 32
    assert t.residue(1) == a % 5


def _teichmuller_oracle(a: int, p: int, N: int) -> int:
    # x -> x^p converges to the lift one digit per step
    m = p**N
    x = a % m
    for _ in range(N):
        x = pow(x, p, m)
    return x


@pytest.mark.parametrize("p", [3, 5, 7, 13, 29, 97])
def test_teichmuller_newton_matches_power_iteration(p):
    for N in (1, 2, 3, 17, 64, 512):
        ctx = make_context(p, N)
        for a in sorted({1, 2, p - 1, (p + 1) // 2, 2 + 3 * p}):
            t = teichmuller(ctx.from_int(a))
            assert t.unit_int() == _teichmuller_oracle(a, p, N), (p, N, a)
            assert t.abs_prec == N


def test_teichmuller_is_a_root_of_unity_at_512_digits():
    for p, a in ((3, 2), (29, 2), (97, 5)):
        ctx = make_context(p, 512)
        t = teichmuller(ctx.from_int(a))
        assert pow(t.unit_int(), p - 1, p**512) == 1


# --- Iwasawa log -------------------------------------------------------------

def test_log_of_p_is_zero():
    assert iwasawa_log(CTX5.from_int(5)).is_zero()
    assert iwasawa_log(CTX5.from_int(250)) == iwasawa_log(CTX5.from_int(2))


def test_log_of_minus_one_is_zero():
    assert iwasawa_log(CTX5.from_int(-1)).is_zero()


def test_log_of_one_plus_p_series_oracle():
    # direct truncated series sum_{r<=40} (-1)^(r+1) 5^r / r, exactly
    s = sum(Fraction((-1) ** (r + 1) * 5**r, r) for r in range(1, 41))
    expected = CTX5.from_rational(s).residue(6)
    assert iwasawa_log(CTX5.from_int(6)).residue(6) == expected
    # leading digits 5 + 2*5^2 + ...
    assert expected % 25 == 5
    assert (expected // 25) % 5 == 2


@given(units, units)
@settings(max_examples=30, deadline=None)
def test_log_additivity(a, b):
    la = iwasawa_log(CTX5.from_int(a))
    lb = iwasawa_log(CTX5.from_int(b))
    lab = iwasawa_log(CTX5.from_int(a * b))
    diff = lab - (la + lb)
    assert diff.is_zero()
    assert diff.min_valuation() >= 28  # log loses at most a few digits at N=32


@given(units)
@settings(max_examples=30, deadline=None)
def test_log_kills_teichmuller_factor(a):
    t = teichmuller(CTX5.from_int(3))
    x = CTX5.from_int(a)
    assert iwasawa_log(t * x) == iwasawa_log(x)


def test_log_term_count_covers_every_dropped_term():
    # every term r past the count has valuation r*v - ord_p(r) above the target
    for p in (3, 5, 7, 13):
        for v in (1, 2, 3, 7):
            for target in range(0, 80, 3):
                n = _log_terms(v, target, p)
                assert all(r * v - ordp(r, p) > target
                           for r in range(n + 1, n + 2 * p**3)), (p, v, target)


def test_log_reduction_bounds_cover_every_term():
    # log(1 + w), ord_p(w) >= k + 1, is summed mod p^(T+k): every dropped term
    # lies at or above p^(T+k), and every kept term r has ord_p(r) <= e =
    # ord_p(lcm(1..n)), so the scaled coefficients lcm(1..n)/r are integers
    for p in (3, 5, 7, 13, 29, 97):
        for T in (*range(1, 40), 64, 100, 128, 257, 512, 1024):
            k, n, e, s = _log_reduction(T, p)
            # the docstring's rule: the least k >= 1 with (k+1)^3 bitlen(p)^2 > 4T
            b2 = p.bit_length() ** 2
            assert (k + 1) ** 3 * b2 > 4 * T and (k == 1 or k**3 * b2 <= 4 * T), (p, T)
            # every r in (n, n + 2 p^3): past n + p only multiples of p can
            # fall below r = n + 1, so the others are skipped
            dropped = [*range(n + 1, n + p + 1), *range(p * (n // p + 1), n + 2 * p**3, p)]
            assert all(r * (k + 1) - ordp(r, p) >= T + k for r in dropped), (p, T)
            assert all(ordp(r, p) <= e for r in range(1, n + 1)), (p, T)
            # the sum stops at top < n: every term past it vanishes mod p^M
            M = T + k + e
            top = (M - 1) // (k + 1)
            assert top < n and (top + 1) * (k + 1) >= M, (p, T)
            # blocks of s terms cover r = 0..top, and the last block's modulus
            # p^(M - (nb-1)s(k+1)) still keeps a digit
            nb = top // s + 1
            assert (nb - 1) * s <= top < nb * s, (p, T)
            assert M - (nb - 1) * s * (k + 1) >= 1, (p, T)
    # k follows p as well as T: at 512 digits of 29, 5 log2(29) ~ 24 squarings
    # and a 104-term series in blocks of 7, against 78 squarings and 32
    # full-size terms at k = isqrt(T // 2) = 16, or 39 squarings and 65
    # shrinking Horner steps at the earlier k = 7
    assert _log_reduction(512, 29)[:2] == (4, 104)


def _log_reduction_horner(T: int, p: int) -> tuple[int, int, int]:
    # the (k, n, e) of the plain Horner sum: k = max(1, isqrt(T // (2 bitlen(p))))
    k = max(1, math.isqrt(T // (2 * p.bit_length())))
    n = _log_terms(k + 1, T + k - 1, p)
    return k, n, _floor_log(n, p)


def _log_units_horner(units, p: int, T: int) -> list:
    # the same scaled series, summed term by term by Horner at shrinking
    # precision: H_r = c_r + p^(k+1) w1 H_(r+1) mod p^(M - r(k+1))
    k, n, e = _log_reduction_horner(T, p)
    q, M = p ** (k + 1), T + k + e
    top = (M - 1) // (k + 1)
    L = math.lcm(*range(1, n + 1))
    mods = [p ** (M - r * (k + 1)) for r in range(top + 1)]
    coeffs = [0] + [L // r if r % 2 else -(L // r) for r in range(1, top + 1)]
    scale = _inverse(L // p**e * (p - 1), p, T)
    logs = []
    for u in units:
        w1 = (pow(u, (p - 1) * p**k, mods[0]) - 1) // q
        acc = coeffs[top]
        for r in range(top - 1, -1, -1):
            acc = coeffs[r] + q * (w1 % mods[r + 1] * acc % mods[r + 1])
        logs.append(acc // p ** (k + e) * scale % p**T)
    return logs


def test_log_units_match_horner_oracle():
    # 7 primes x 45 precisions x 8 units, among them 1, p - 1 (roots of
    # unity, log 0) and 1 + p^(T-1), whose log has valuation T - 1
    rng = random.Random(11)
    for p in (3, 5, 7, 11, 13, 29, 97):
        for T in (*range(1, 41), 64, 128, 257, 512, 1024):
            units = [1, p - 1, 1 + p ** (T - 1),
                     *(rng.randrange(p**T) // p * p + rng.randrange(1, p) for _ in range(5))]
            assert _log_units(units, p, T) == _log_units_horner(units, p, T), (p, T)


def test_log_plan_cold_and_warm_match_horner_oracle():
    rng = random.Random(12)
    for p, T in ((3, 40), (5, 64), (29, 64), (13, 512)):
        units = [1, p - 1, *(rng.randrange(p**T) // p * p + rng.randrange(1, p)
                             for _ in range(3))]
        want = _log_units_horner(units, p, T)
        _log_plan.cache_clear()
        assert _log_units(units, p, T) == want, (p, T)  # cold
        assert _log_plan.cache_info().misses == 1
        assert _log_units(units, p, T) == want, (p, T)  # warm
        assert [_log_units([u], p, T)[0] for u in units] == want, (p, T)
        assert _log_plan.cache_info().misses == 1


def test_both_l_invariant_routes_share_one_log_plan():
    ctx = make_context(5, 64)
    spec = cm_spec_from_curve((0, -1, 0), ctx)
    _log_value.cache_clear()  # a remembered log would skip the plan
    _log_plan.cache_clear()
    l_invariant_analytic(spec.field, 5, ctx)
    l_invariant_via_alpha(spec)
    info = _log_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _field_twoway_item():
    # the first h > 1 item of the field-twoway benchmark at seed 0, built as it builds it
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    item = next(it for it in workloads.plan("field-twoway", 0) if it["h"] > 1)
    return item, workloads.prepare("field-twoway", item)


def test_both_l_invariant_routes_share_one_log_value():
    # a_p is the trace of the generator of pibar^h, so alpha_p is pibar mod p^T
    item, (F, ctx, spec) = _field_twoway_item()
    _log_value.cache_clear()
    l_invariant_analytic(F, item["p"], ctx)
    l_invariant_via_alpha(spec)
    info = _log_value.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_log_value_memo_matches_a_fresh_log():
    _, (_, _, spec) = _field_twoway_item()
    _log_value.cache_clear()
    l_invariant_via_alpha(spec)
    remembered = l_invariant_via_alpha(spec)
    assert _log_value.cache_info().hits == 1
    _log_value.cache_clear()
    assert _same(remembered, l_invariant_via_alpha(spec))
    assert _log_value.cache_info().misses == 1


def test_routes_that_differ_by_a_root_of_unity_sum_their_own_logs():
    # at p = 5 the unit root of y^2 = x^3 - x is pibar times a fourth root of
    # unity: equal logs, but two integers, so two series
    ctx = make_context(5, 64)
    spec = cm_spec_from_curve((0, -1, 0), ctx)
    _log_value.cache_clear()
    l_invariant_analytic(spec.field, 5, ctx)
    l_invariant_via_alpha(spec)
    info = _log_value.cache_info()
    assert (info.misses, info.hits) == (2, 0)


def test_log_value_keys_never_mix_precisions_or_primes():
    _log_value.cache_clear()
    a, b, c = (iwasawa_log(make_context(p, N).from_int(2))
               for p, N in ((29, 64), (29, 32), (31, 64)))
    info = _log_value.cache_info()
    assert (info.misses, info.hits) == (3, 0)
    assert (a.abs_prec, b.abs_prec, c.abs_prec) == (64, 32, 64)
    assert _log_value(2, 29, 32) == b.residue(32) != a.residue(64)
    assert _log_value(2, 31, 64) == c.residue(64) != a.residue(64)


def test_log_value_cache_is_bounded():
    assert _log_value.cache_info().maxsize == _LOG_VALUES
    assert 0 < _LOG_VALUES <= 64


def test_log_plan_holds_no_log_value():
    # two units at one (p, T) through one plan: two logs, each the oracle's
    ctx = make_context(29, 64)
    a, b = ctx.from_int(2), ctx.from_int(3)
    la, lb = iwasawa_log(a), iwasawa_log(b)
    assert repr(la) != repr(lb)
    assert _same(la, _iwasawa_log_oracle(a)) and _same(lb, _iwasawa_log_oracle(b))


def test_log_plan_cache_is_bounded():
    assert _log_plan.cache_info().maxsize == _LOG_PLANS
    assert 0 < _LOG_PLANS <= 64


def test_short_series_does_no_more_work_than_horner():
    # below 65 digits the split sum does no more products than the plain
    # Horner sum: the squarings of the power plus the s - 1 powers of w
    # and nb - 1 block steps, against one Horner step per term
    for p in (5, 7, 11, 13, 17, 29, 97, 1009):
        for T in range(1, 65):
            k, n, e, s = _log_reduction(T, p)
            top = (T + k + e - 1) // (k + 1)
            split = ((p - 1) * p**k).bit_length() + s - 1 + top // s
            ko, no, eo = _log_reduction_horner(T, p)
            horner = ((p - 1) * p**ko).bit_length() + (T + ko + eo - 1) // (ko + 1)
            assert split <= horner, (p, T)


def _iwasawa_log_oracle(x: PadicNumber) -> PadicNumber:
    # the PadicNumber series: divide u by its Teichmuller lift (which the
    # integer kernel never computes) and sum log(1 + z) termwise, each
    # division by r tracked
    ctx = x.context
    p = ctx.p
    u = PadicNumber(ctx, 0, x.unit_int(), x.rel_prec)
    z = u / teichmuller(u) - 1
    if z.is_zero():
        return PadicNumber(ctx, None, 0, z.abs_prec)
    v, target = z.valuation(), z.abs_prec
    acc = ctx.inexact_zero(target)
    r, zpow = 1, z
    while True:
        e = 0  # floor(log_p r)
        while p ** (e + 1) <= r:
            e += 1
        if r * v - e > target:  # this term and every later one lie above the target
            return acc
        term = zpow / r
        acc = acc + (term if r % 2 else -term)
        r, zpow = r + 1, zpow * z


def _same(got: PadicNumber, want: PadicNumber) -> bool:
    return (repr(got) == repr(want) and got.abs_prec == want.abs_prec
            and got.is_zero() == want.is_zero()
            and got.min_valuation() == want.min_valuation())


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97])
def test_iwasawa_log_matches_series_oracle(p):
    rng = random.Random(p)
    for N in (1, 2, 3, 8, 17, 64, 512, *((1024,) if p == 29 else ())):
        ctx = make_context(p, N)
        omega = teichmuller(ctx.from_int(2)).unit_int()
        for T in sorted({1, min(2, N), max(N // 2, 1), N}):
            named = {1: True, p - 1: False, omega: True, 1 + p: False,
                     1 + p ** (N - 1): False}
            units = [*named, *(rng.randrange(1, p**T) * p + rng.randrange(1, p)
                               for _ in range(2))]
            for u in units:
                want = _iwasawa_log_oracle(PadicNumber(ctx, 0, u, T))
                if named.get(u):  # a root of unity: O(p^T)
                    assert want.is_zero() and want.abs_prec == T, (N, T, u)
                for v in range(-2, 4):
                    got = iwasawa_log(PadicNumber(ctx, v, u, v + T))
                    assert _same(got, want), (N, T, u, v, got, want)


def test_log_pibar_pinned_at_1024_digits():
    sp = pi_bar(quad_field_from_discriminant(-167), 29, make_context(29, 1024))
    lp = sp.log_pibar
    assert (lp.valuation(), lp.abs_prec) == (1, 1024)
    assert hashlib.sha256(repr(lp).encode()).hexdigest() == LOG_PIBAR_167_29_SHA256


def test_log_rejects_zero():
    with pytest.raises(ValueError):
        iwasawa_log(CTX5.zero())


# --- exponential --------------------------------------------------------------

def test_exp_at_zero():
    assert padic_exp(CTX5.zero()) == 1


def test_exp_log_roundtrip_on_one_plus_p():
    x = CTX5.from_int(6)
    y = padic_exp(iwasawa_log(x))
    assert (y - x).min_valuation() >= 31  # within 1 digit of context precision


def test_exp_additivity_and_squaring_oracle():
    five = CTX5.from_int(5)
    half_arg = five / 2
    e1 = padic_exp(five)
    e2 = padic_exp(half_arg) ** 2
    assert (e1 - e2).min_valuation() >= 30


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exp_keeps_every_term_below_the_target(p):
    # r v - ord(r!) does not increase in r (p = 3, v = 1: 16 at r = 26, 14 at
    # r = 27), so a term count cut where it first passes the target drops
    # terms that still count; the oracle sums 4N + 8 terms in Fractions,
    # past which every term lies above p^(2N)
    for N in range(1, 41):
        ctx = make_context(p, N)
        for a in (1, 2, p + 1):
            x = p * a
            want = sum(Fraction(x**r, math.factorial(r)) for r in range(4 * N + 8))
            got = padic_exp(ctx.from_int(x))
            assert got.abs_prec == N
            assert (got - ctx.from_rational(want)).min_valuation() >= N, (N, a)


def test_exp_rejects_small_valuation():
    with pytest.raises(ValueError):
        padic_exp(CTX5.from_int(2))


@given(st.integers(1, 10**4))
@settings(max_examples=30, deadline=None)
def test_exp_log_roundtrip_random(t):
    x = CTX5.from_int(1 + 5 * t)
    assert (padic_exp(iwasawa_log(x)) - x).min_valuation() >= 31


# --- square roots ----------------------------------------------------------------

def test_sqrt_unit_residue_selection():
    r = sqrt_unit(CTX5.from_int(-4), residue=4)
    assert r * r == -4
    assert r.residue(1) == 4


def test_sqrt_unit_rejects_non_squares():
    for residue in range(1, 5):  # 2 is not a QR mod 5, so no class is a root
        with pytest.raises(ValueError):
            sqrt_unit(CTX5.from_int(2), residue=residue)


def test_sqrt_unit_rejects_wrong_residue_class():
    for residue in (2, 3, 5, 7):  # roots of -4 mod 5 are 1 and 4
        with pytest.raises(ValueError):
            sqrt_unit(CTX5.from_int(-4), residue=residue)


def _least_roots(p: int, wanted) -> dict:
    # the linear scan: least positive t with t^2 = a mod p, for each wanted a
    roots = {}
    for t in range(1, p):
        a = t * t % p
        if a in wanted:
            roots.setdefault(a, t)
    return roots


def test_sqrt_mod_prime_matches_linear_scan():
    for p in range(3, 200):
        if not _is_prime(p):
            continue
        roots = _least_roots(p, range(p))
        for a in range(-p, 2 * p):
            if a % p in roots:
                assert sqrt_mod_prime(a, p) == roots[a % p], (a, p)
            else:
                with pytest.raises(ValueError):
                    sqrt_mod_prime(a, p)


def test_sqrt_mod_prime_above_a_million():
    p = 1000033  # p = 1 mod 16, so Tonelli-Shanks takes several rounds
    assert _is_prime(p) and (p - 1) % 16 == 0
    residues = {*range(400), *range(p - 400, p), 10**6, 123456}
    roots = _least_roots(p, residues)
    for a in residues:
        if a in roots:
            assert sqrt_mod_prime(a, p) == roots[a], a
        else:
            with pytest.raises(ValueError):
                sqrt_mod_prime(a, p)


def _hensel_lift_oracle(f, df, x: int, p: int, k: int) -> int:
    # one modular inverse of f'(x) per Newton step, each from scratch
    j = 1
    while j < k:
        j = min(2 * j, k)
        m = p**j
        x = (x - f(x, m) * pow(df(x, m), -1, m)) % m
    return x % p**k


def _lift_problems(p: int):
    # (f, df, root mod p): square roots, a Hecke unit root of
    # x^2 - a x + p (weight 2), and Teichmuller lifts
    for a in (4 + 7 * p, 2):
        if pow(a, (p - 1) // 2, p) == 1:
            r0 = sqrt_mod_prime(a, p)
            for r in (r0, p - r0):
                yield (lambda x, m, a=a: x * x - a), (lambda x, m: 2 * x), r
    for a in (1, p - 1, 2 + 11 * p):
        yield (lambda x, m, a=a: x * x - a * x + p), (lambda x, m, a=a: 2 * x - a), a % p
    for a in (2, p - 1):
        yield (lambda x, m: pow(x, p - 1, m) - 1,
               lambda x, m: (p - 1) * pow(x, p - 2, m), a)


@pytest.mark.parametrize("p", [3, 5, 29, 97])
def test_hensel_lift_matches_inverse_per_step_oracle(p):
    for k in (1, 2, 17, 512):
        for f, df, r in _lift_problems(p):
            want = _hensel_lift_oracle(f, df, r, p, k)
            assert hensel_lift(f, df, r, p, k) == want, (p, k, r)
            assert f(want, p**k) % p**k == 0


def test_hensel_lift_to_one_digit_inverts_nothing():
    def df(x, m):
        raise AssertionError("f' evaluated for a lift to p^1")
    for k in (0, 1):
        assert hensel_lift(lambda x, m: x * x - 2, df, 10, 7, k) == 10 % 7**k


def test_hensel_lift_square_roots_and_roots_of_unity():
    for p, a, k in ((5, -4, 1), (5, -4, 30), (3, -23, 41), (29, -647, 23)):
        for r0 in (sqrt_mod_prime(a, p), p - sqrt_mod_prime(a, p)):
            x = hensel_lift(lambda x, m: x * x - a, lambda x, m: 2 * x, r0, p, k)
            assert 0 <= x < p**k and x % p == r0
            assert (x * x - a) % p**k == 0
    x = hensel_lift(lambda x, m: x**4 - 1, lambda x, m: 4 * x**3, 2, 5, 2)
    assert x == 7  # the Teichmuller lift of 2 mod 25


def test_hensel_lift_refuses_a_start_that_is_not_a_root():
    square, dsquare = (lambda x, m: x * x - 2), (lambda x, m: 2 * x)
    for k in (1, 2, 17):
        with pytest.raises(ArithmeticError, match="Hensel lift failed"):
            hensel_lift(square, dsquare, 2, 7, k)  # 2 is not a square root of 2 mod 7
        with pytest.raises(ArithmeticError, match="Hensel lift failed"):
            hensel_lift(lambda x, m: x * x - 6 * x + 5, lambda x, m: 2 * x - 6, 2, 5, k)


def test_sqrt_mod_prime_rejects_composite_moduli():
    for n in (1, 2, 9, 15, 561):
        with pytest.raises(ValueError):
            sqrt_mod_prime(4, n)
