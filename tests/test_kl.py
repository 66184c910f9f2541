"""Interpolation values and certified branch series."""

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlinv import characters, kl
from cmlinv.characters import (DirichletCharacter, bernoulli_number, char_from_kronecker,
                               is_fundamental_discriminant, trivial_character)
from cmlinv.kl import (MAX_CLOSED_FORM_COST, _closed_form, _closed_form_plan, _g_at_zero,
                       _kappa, _logs, _primitive_root, branch_derivative, branch_series,
                       kl_value)
from cmlinv.padic import PadicContext, iwasawa_log, make_context, ordp, teichmuller
from probe import stage_probe
from test_characters import _gen_bernoulli_oracle, kronecker_symbol

CTX5 = make_context(5, 16)
THETA4 = char_from_kronecker(-4)


def _digits(x):
    return (x.min_valuation(), x.digits(), x.abs_prec)


# --- the Newton route, kept as an oracle ---------------------------------------
#
# g(s) = f(u), u = (1+p)^s - 1, f a power series with p-integral coefficients
# (Iwasawa), so Newton divided differences of f at the nodes
# u_n = (1+p)^(1-n) - 1, n = 1..J, computed from exact interpolation values,
# recover f with coefficient-j truncation error of valuation >= J - j.  The
# node values g(1-n) = -(1 - chi_n(p) p^(n-1)) B_{n,chi_n}/n, chi_n =
# theta omega^(1-n), come from the test-side Bernoulli oracle, so the route
# shares no code with `cmlinv.kl`.

def _g_node(D, p, n, work):
    # g(1-n) in `work`: exact where chi_n is rational-valued, else to the
    # absolute precision the oracle's sum carries, less the ord_p(n) digits of /n
    i = (1 - n) % (p - 1)
    B = _gen_bernoulli_oracle(n, D, i, p, work.N)
    if isinstance(B, Fraction):
        # chi_n(p) = theta(p) at i = 0; otherwise p divides the conductor of chi_n
        euler = 1 - kronecker_symbol(D, p) * p ** (n - 1) if i == 0 else 1
        return work.from_rational(-euler * B / n)
    V, A = B
    return work.from_rational(-V / n).truncate_abs(A - ordp(n, p))


def _u(ctx, s):
    # u = (1+p)^s - 1 for an integer s; its valuation is 1 + ord_p(s), so
    # N + 1 + ord_p(s) digits of (1+p)^s fix every digit the context keeps
    if s == 0:
        return ctx.zero()
    p = ctx.p
    return ctx.from_int(pow(1 + p, s, p ** (ctx.N + 1 + ordp(s, p))) - 1)


def _series_mul(a, b, order, zero):
    out = [zero] * order
    for i in range(order):
        for j in range(order - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


def _oracle_value(table, s):
    # the Newton form at the integer s, truncated to the node count J
    work, nodes, newton, _ = table
    u = _u(work, s)
    acc = newton[-1]
    for r in range(len(newton) - 2, -1, -1):
        acc = acc * (u - nodes[r]) + newton[r]
    return acc.truncate_abs(len(nodes))


@lru_cache(maxsize=None)
def _newton_oracle(D, p, n_cert, J):
    # divided differences with hand-tuned slack, the p-integrality check and
    # the held-out nodes J+1..2J; returns (work, nodes, newton, log1p)
    work = PadicContext(p, n_cert + 2 * J + 2 * ((J // (p - 1)) + 1) + 8)
    nodes = tuple(_u(work, 1 - n) for n in range(1, J + 1))
    row = [_g_node(D, p, n, work) for n in range(1, J + 1)]
    newton = [row[0]]
    for r in range(1, J):
        row = [(row[l + 1] - row[l]) / (nodes[l + r] - nodes[l])
               for l in range(J - r)]
        newton.append(row[0])
    assert all(c.is_zero() or c.valuation() >= 0 for c in newton), (D, p, J)
    table = (work, nodes, tuple(newton), iwasawa_log(work.from_int(1 + p)))
    for n in range(J + 1, 2 * J + 1):
        resid = (_oracle_value(table, 1 - n) - _g_node(D, p, n, work)).min_valuation()
        assert resid >= n_cert, (D, p, J, n)
    return table


def _oracle_series(table, point, order):
    # Horner on the Newton form with u - u0 = (1+u0)(exp(L t) - 1) as a
    # series in t = s - point, truncated to `order` terms
    work, nodes, newton, log1p = table
    u0 = _u(work, point)
    zero = work.zero()
    X = [zero] * order
    term, fact = work.one(), 1
    for r in range(1, order):
        term = term * log1p
        fact *= r
        X[r] = (1 + u0) * term / fact
    series = [newton[-1]] + [zero] * (order - 1)
    for r in range(len(nodes) - 2, -1, -1):
        series = _series_mul(series, [u0 - nodes[r]] + X[1:], order, zero)
        series[0] = series[0] + newton[r]
    return series


# --- interpolation values ----------------------------------------------------

def test_vanishing_euler_factor_skips_bernoulli():
    # g(0) = -(1 - theta(p)) B_{1,theta}: at a split p the factor is an exact 0
    # and B_{1,theta} is not computed; at an inert p it is
    ctx7 = make_context(7, 16)
    with stage_probe() as stages:
        v = kl_value(1, THETA4, CTX5)
    zero = CTX5.from_rational(0)  # (1 - theta(5)) kills g(0) exactly
    assert "characters.gen_bernoulli" not in stages
    assert (repr(v), v.abs_prec) == (repr(zero), zero.abs_prec)
    with stage_probe() as stages:
        v = kl_value(1, THETA4, ctx7)
    one = ctx7.from_rational(-(1 - THETA4.value_exact(7)) * Fraction(-1, 2))  # B_{1,theta} = -1/2
    assert stages.count("characters.gen_bernoulli") == 1
    assert (repr(v), v.abs_prec) == (repr(one), one.abs_prec)


def test_node_five_exact_rational():
    # chi omega^(-5) = theta at p = 5; B_{5,theta} summed exactly here
    B5 = sum(kronecker_symbol(-4, a)
             * Fraction(4) ** 4
             * sum(Fraction(_binom(5, j)) * bernoulli_number(j)
                   * Fraction(a, 4) ** (5 - j) for j in range(6))
             for a in (1, 3))
    expected = -(1 - 5**4) * B5 / 5
    assert B5 == Fraction(-25, 2)
    v = kl_value(5, THETA4, CTX5)
    assert v == CTX5.from_rational(expected)


def _binom(n, k):
    from math import comb
    return comb(n, k)


def test_kl_rejects_bad_input():
    # g(1-n) is read only at n = 1 mod p - 1, where theta omega^(1-n) = theta
    for p, n in ((5, 0), (5, 2), (5, 4), (5, 6), (7, 5), (3, 2), (5, -3)):
        with pytest.raises(ValueError, match="n = 1 mod"):
            kl_value(n, THETA4, make_context(p, 8))
    # theta*omega is a branch character only for an odd theta
    for theta in (char_from_kronecker(5), char_from_kronecker(8), trivial_character()):
        with pytest.raises(ValueError, match="odd"):
            kl_value(1, theta, CTX5)


# --- branch series ------------------------------------------------------------

def test_trivial_zero_constant_coefficient():
    bs = branch_series(0, THETA4, 0, 2, CTX5, n_cert=8)
    assert bs.coefficients[0].is_exact_zero()
    assert bs.nodes_used == 10
    assert bs.n_cert == 8


def test_no_trivial_zero_when_inert():
    ctx7 = make_context(7, 16)
    bs = branch_series(0, THETA4, 0, 2, ctx7, n_cert=8)
    c0 = bs.coefficients[0]
    assert not c0.is_zero() and c0.valuation() == 0


def test_branch_one_trivial_zero_at_one():
    bs = branch_series(1, THETA4, 1, 2, CTX5, n_cert=8)
    assert bs.coefficients[0].is_exact_zero()


def test_expansion_away_from_the_zero():
    # branch 0 around s0 = 1 and branch 1 around s0 = 0 both read g near 1,
    # where the pole of the closed form's 1/(s-1) cancels
    b0 = branch_series(0, THETA4, 1, 3, CTX5, n_cert=8)
    b1 = branch_series(1, THETA4, 0, 3, CTX5, n_cert=8)
    assert not b0.coefficients[0].is_zero()
    assert (b0.coefficients[0] - b1.coefficients[0]).min_valuation() >= 8
    assert (b0.coefficients[1] + b1.coefficients[1]).min_valuation() >= 8
    assert (b0.evaluate(1) - b0.coefficients[0]).min_valuation() >= 8


def test_derivative_antisymmetry():
    d0 = branch_derivative(0, THETA4, 0, CTX5, n_cert=8)
    d1 = branch_derivative(1, THETA4, 1, CTX5, n_cert=8)
    assert (d0 + d1).min_valuation() >= 8


def test_series_reproduces_extra_nodes():
    # the exact g(1-n) at n = 1 mod 4: a rational, known to every digit J carries
    bs = branch_series(0, THETA4, 0, 3, CTX5, n_cert=8)
    for n in (25, 29, 33):
        exact = kl_value(n, THETA4, PadicContext(5, bs.nodes_used))
        assert (bs.evaluate(1 - n) - exact).min_valuation() >= 8, n


def test_u_at_integers_matches_exact_rational():
    for ctx in (CTX5, make_context(7, 23)):
        for s in range(-60, 61):
            oracle = ctx.from_rational(Fraction(1 + ctx.p) ** s - 1)
            assert _digits(_u(ctx, s)) == _digits(oracle), (ctx, s)
    assert _u(CTX5, 0).is_exact_zero()


def test_evaluate_at_huge_integer_is_cheap():
    # the plan reads s only through ord_p(s - 1), s mod p - 1 and
    # floor(log_p(n_j + |1 - s|)), so at s = 10^12 it keeps at most the j below
    # kappa's cut, the cut of every s; 10^12 = 0 mod 5^12 and g(0) = 0
    bs = branch_series(0, THETA4, 0, 2, CTX5, n_cert=8)
    J = bs.nodes_used
    far, zero = _closed_form_plan(-4, 5, 10**12, 1, J), _closed_form_plan(-4, 5, 0, 1, J)
    assert far[:3] == zero[:3] and zero.n_j <= far.n_j <= _first_j_past(far.T, 5)
    assert bs.evaluate(10**12).min_valuation() >= J


def test_evaluate_takes_integers_only():
    # g is read at integer points only; any other point is refused before any sum
    for i, s0 in ((0, 0), (1, 1)):
        bs = branch_series(i, THETA4, s0, 2, CTX5, n_cert=8)
        for x in (CTX5.from_int(3), Fraction(1, 3), 0.5):
            with pytest.raises(TypeError, match="integers only"):
                bs.evaluate(x)


def test_certificate_audit_independent_tables():
    # J = 8 and J = 12 tables differ in order, term count and working
    # precision, so agreement on c0 and c1 audits the n_cert certificate
    pairs = [(D, p) for D in range(-3, -25, -1) if is_fundamental_discriminant(D)
             for p in (5, 7) if D % p]
    assert len(pairs) == 17
    for D, p in pairs:
        ctx = make_context(p, 8)
        theta = char_from_kronecker(D)
        short = branch_series(0, theta, 0, 2, ctx, n_cert=6)
        long = branch_series(0, theta, 0, 6, ctx, n_cert=6)
        for j in (0, 1):
            assert (short.coefficients[j] - long.coefficients[j]).min_valuation() >= 6, \
                (D, p, j)
        info = _g_at_zero.cache_info()
        cached = branch_series(0, theta, 0, 2, ctx, n_cert=6)
        assert _g_at_zero.cache_info().hits == info.hits + 1
        _g_at_zero.cache_clear()
        fresh = branch_series(0, theta, 0, 2, ctx, n_cert=6)
        assert _g_at_zero.cache_info().misses == 1  # the table was rebuilt
        assert list(map(_digits, cached.coefficients)) == \
            list(map(_digits, fresh.coefficients)), (D, p)


def test_every_series_checks_g_at_zero_once_per_key(monkeypatch):
    # branch 0 at 1 and branch 1 at 0 read g at 1 only, yet each runs the
    # g(0) check when its table is built, and a cache hit runs none
    calls, exact = [], kl.kl_value

    def counted(n, chi, ctx):
        calls.append(n)
        return exact(n, chi, ctx)

    monkeypatch.setattr(kl, "kl_value", counted)
    for i, s0 in ((0, 1), (1, 0)):
        _g_at_zero.cache_clear()  # the two share a key
        branch_series(i, THETA4, s0, 2, CTX5, n_cert=8)
        assert calls == [1], (i, s0)
        branch_series(i, THETA4, s0, 2, CTX5, n_cert=8)
        assert calls == [1], (i, s0)
        calls.clear()
    monkeypatch.setattr(kl, "kl_value", lambda n, chi, ctx: exact(n, chi, ctx) + 1)
    for i, s0 in ((0, 1), (1, 0)):
        _g_at_zero.cache_clear()
        with pytest.raises(ArithmeticError, match="disagrees"):
            branch_series(i, THETA4, s0, 2, CTX5, n_cert=8)


def test_branch_one_evaluates_g_at_one_minus_s():
    # one J on both branches, so L_{p,1}(s) and L_{p,0}(1-s) agree digit for digit
    for s0 in (0, 1):
        bs1 = branch_series(1, THETA4, s0, 2, CTX5, n_cert=8)
        bs0 = branch_series(0, THETA4, s0, 2, CTX5, n_cert=8)
        assert bs1.nodes_used == bs0.nodes_used
        for s in (-4, 0, 3, 7):
            assert _digits(bs1.evaluate(s)) == _digits(bs0.evaluate(1 - s)), (s0, s)


def test_series_value_matches_newton_on_pzp():
    bs = branch_series(0, THETA4, 0, 8, CTX5, n_cert=8)
    for s in (5, 10, -5):
        taylor = bs.series_value(s)
        newton = bs.evaluate(s)
        assert (taylor - newton).min_valuation() >= 8, s


def test_cert_cannot_exceed_context():
    with pytest.raises(ValueError):
        branch_series(0, THETA4, 0, 2, CTX5, n_cert=20)


def test_rejects_even_or_trivial_theta():
    with pytest.raises(ValueError):
        branch_series(0, char_from_kronecker(5), 0, 2, CTX5, n_cert=6)
    with pytest.raises(ValueError):
        branch_series(0, trivial_character(), 0, 2, CTX5, n_cert=6)


def test_rejects_theta_with_p_in_conductor():
    with pytest.raises(ValueError):
        branch_series(0, char_from_kronecker(-20), 0, 2, CTX5, n_cert=6)


def test_rejects_bad_branch_and_point():
    with pytest.raises(ValueError):
        branch_series(2, THETA4, 0, 2, CTX5)
    with pytest.raises(ValueError):
        branch_series(0, THETA4, 2, 2, CTX5)


def test_rejects_n_cert_below_one():
    with stage_probe() as stages:
        for n_cert in (0, -3):
            with pytest.raises(ValueError, match="n_cert"):
                branch_series(0, THETA4, 0, 4, CTX5, n_cert=n_cert)
    assert stages == []  # no table built


# --- closed form against the Newton oracle ---------------------------------------

_PAIRS = [(D, p) for D in range(-3, -61, -1) if is_fundamental_discriminant(D)
          for p in (3, 5, 7, 11, 13) if D % p]


@given(st.sampled_from(_PAIRS), st.integers(1, 16), st.integers(1, 8),
       st.sampled_from((0, 1)), st.sampled_from((0, 1)), st.integers(-40, 40))
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_newton_oracle(pair, n_cert, order, i, s0, s):
    D, p = pair
    J = n_cert + order
    ctx = make_context(p, n_cert + 4)
    bs = branch_series(i, char_from_kronecker(D), s0, order, ctx, n_cert=n_cert)
    table = _newton_oracle(D, p, n_cert, J)
    series = _oracle_series(table, 1 - s0 if i else s0, order)
    for j, (c, o) in enumerate(zip(bs.coefficients, series)):
        want = (-o if i and j % 2 else o).truncate_abs(n_cert)
        assert c.is_exact_zero() == want.is_exact_zero(), j
        assert c.is_exact_zero() or c.abs_prec == n_cert, j
        assert (c - want).min_valuation() >= n_cert, j
    # integers (1 reads the expansion at 1) and 10**12
    for x in (s, 0, 1, 10**12):
        got = bs.evaluate(x)
        want = _oracle_value(table, 1 - x if i else x)
        assert got.abs_prec >= J, x
        assert (got - want).min_valuation() >= min(got.abs_prec, want.abs_prec), x


@lru_cache(maxsize=None)
def _first_j_past(T, p):
    # the least j >= 1 with kappa(j) >= T, found one j at a time
    j = 1
    while _kappa(j, p) < T:
        j += 1
    return j


def _log_floor_by_powers(x, p):
    # floor(log_p x) for 1 <= x < p^64, the largest e with p^e <= x
    return max(e for e in range(64) if p**e <= x)


def _term_bound(j, p, K, y):
    # v(B_j F^j [t^i] C(y-t, j)) for every i < K is at least kappa(j) and at
    # least j - [(p-1) | j] - K floor(log_p(j + |y|))
    return max(_kappa(j, p),
               j - (j % (p - 1) == 0) - K * _log_floor_by_powers(j + abs(y), p))


@lru_cache(maxsize=None)
def _totient_by_count(F):
    return sum(math.gcd(a, F) == 1 for a in range(1, F))


def _plan_by_search(D, p, s0, order, n):
    # (T, K, M, n_j, cost) of the closed form the long way: the module
    # docstring's bounds step by step, n_j walked down from kappa's cut one j
    # at a time, phi(F) by counting, the kept j listed
    F = abs(D) * p
    d = s0 - 1
    v = ordp(d, p) if d else 0
    K = order + (d == 0)
    T = n + 1 + order * v
    M = T + sum(ordp(k, p) for k in range(2, K))
    n_j = _first_j_past(T, p)
    while _term_bound(n_j - 1, p, K, -d) >= T:
        n_j -= 1
    units = _totient_by_count(F) // 2
    kept = sum(1 for j in range(n_j) if j < 2 or j % 2 == 0)
    words = M * p.bit_length() // 64 + 1
    return T, K, M, n_j, units * (kept + 2) * K * (words + 8) ** 2 + n_j**3 // 16


def _closed_form_at_full_modulus(D, p, s0, order, n):
    # the closed form with every column mod p^M and B_j F^j / j! as an exact
    # Fraction inverted mod p^M, summed to kappa's cut, so the terms the plan
    # drops below it are summed too; theta(a) from the character itself,
    # omega(a) lifted for each residue on its own
    F = abs(D) * p
    d = s0 - 1
    v = ordp(d, p) if d else 0
    T, K, M, _, _ = _plan_by_search(D, p, s0, order, n)
    n_j = _first_j_past(T, p)
    m, mT = p**M, p**T
    theta = DirichletCharacter(D)
    signs = [theta.value_exact(a) if a % p else 0 for a in range(F)]
    units = [a for a in range(1, F) if signs[a]]
    e = s0 % (p - 1)
    omega = [pow(pow(r, p ** (M - 1), m), e, m) if e else 1 for r in range(p)]
    col = [signs[a] * pow(a, 1 - s0, m) * omega[a % p] % m for a in units]
    inverses = [pow(a, -1, m) for a in units]
    lam = [None]
    if K > 1:
        lam.append(_logs(units, p, M))
        for k in range(2, K):
            lam.append([x * y % m for x, y in zip(lam[-1], lam[1])])
    fact, facts = 1, []
    for k in range(K):
        fact *= k or 1
        w = ordp(fact, p)
        facts.append((p**w, (-1) ** k * pow(fact // p**w, -1, mT)))
    h = [0] * K
    c = [1] + [0] * (K - 1)
    fact, step = 1, inverses
    for j in range(n_j):
        if j:
            c = [((2 - s0 - j) * c[i] - (c[i - 1] if i else 0)) % m for i in range(K)]
            fact *= j
        if j > 1 and j % 2:
            continue
        if j == 4:
            step = [x * x % m for x in inverses]
        if j:
            col = [x * y % m for x, y in zip(col, step)]
        r = bernoulli_number(j) * F**j / fact
        r = r.numerator * pow(r.denominator, -1, m)
        row = [r * x % m for x in c]
        for k in range(K):
            P = sum(col) if k == 0 else sum(map(mul, col, lam[k]))
            div, inv = facts[k]
            Pk = P % m // div * inv
            for i in range(K - k):
                h[i + k] += row[i] * Pk
    h = [x % mT for x in h]
    if d == 0:
        assert h[0] == 0
        inv = pow(abs(D), -1, mT)
        g = [x // p * inv for x in h[1:]]
    else:
        inv, q = pow(abs(D) * (d // p**v), -1, mT), p ** (1 + v)
        g, prev = [], 0
        for x in h:
            prev = (x - F * prev) % mT // q * inv % mT
            g.append(prev)
    return [x % p**n for x in g]


_CF_PAIRS = [(-3, 5), (-3, 7), (-4, 5), (-4, 13), (-7, 3), (-7, 11), (-8, 3), (-11, 5),
             (-15, 7), (-20, 3), (-23, 13), (-24, 5), (-39, 5), (-40, 13), (-163, 41)]


# g'(0)'s table past n = 20, where at p = 3 the factors of the kept j stop
# falling in valuation one by one
_DEEP_PAIRS = {(-7, 3), (-8, 3), (-20, 3), (-4, 5), (-3, 7)}


@pytest.mark.parametrize("D, p", _CF_PAIRS)
def test_closed_form_matches_full_modulus_oracle(D, p):
    # 15 pairs x 5 expansion points x 6 orders = 450 keys, the precision
    # stepping through 1..20 (1..3 for the 6480 units of (-163, 41)), and
    # order 2 at 0 to 28, 33 and 64 digits for the five pairs above
    keys = [(s0, order) for s0 in (0, 1, 2, -3, 7) for order in (1, 2, 3, 4, 6, 8)]
    cases = [(s0, order, 1 + (i * 7) % (3 if p == 41 else 20))
             for i, (s0, order) in enumerate(keys)]
    if (D, p) in _DEEP_PAIRS:
        cases += [(0, 2, n) for n in (28, 33, 64)]
    for s0, order, n in cases:
        assert (_closed_form(D, p, s0, order, n)
                == _closed_form_at_full_modulus(D, p, s0, order, n)), (s0, order, n)


@pytest.mark.parametrize("D, p", [(-3, 7), (-4, 5)])
def test_closed_form_visits_half_the_units(monkeypatch, D, p):
    # theta*omega is even, so a and F - a contribute alike: the pass reads
    # the phi(F)/2 units below F/2 and doubles.  F = 21 is odd, F = 20 even.
    # At order 2 and s0 = 0 it takes log_p of two products of them; at order 3
    # it logs each unit
    F = abs(D) * p
    phi = _totient_by_count(F)
    want = {order: _closed_form_at_full_modulus(D, p, 0, order, 6) for order in (2, 3)}
    calls = []

    def probe(name):
        def recorded(units, p, M, f=getattr(kl, name)):
            calls.append((name, list(units)))
            return f(units, p, M)
        return recorded

    for name in ("_logs", "_log_units"):
        monkeypatch.setattr(kl, name, probe(name))
    assert _closed_form(D, p, 0, 2, 6) == want[2]
    assert [(name, len(units)) for name, units in calls] == [("_log_units", 2)]
    calls.clear()
    assert _closed_form(D, p, 0, 3, 6) == want[3]
    logs = [units for name, units in calls if name == "_logs"]
    assert len(logs) == 1
    assert len(logs[0]) == phi // 2 and all(2 * a < F for a in logs[0])


def test_each_closed_form_builds_the_bernoulli_numbers_to_its_own_cut(monkeypatch):
    # to 100 digits at (-4, 5), g at 0 keeps j < 105 and g at 1 (one more log
    # power) j < 107: the second table extends B_j to 106, as its plan counts,
    # not to twice the first table
    monkeypatch.setattr(characters, "_bernoulli", (Fraction(1),))
    cuts = []
    for s0 in (0, 1):
        cuts.append(_closed_form_plan(-4, 5, s0, 2, 100).n_j)
        _closed_form(-4, 5, s0, 2, 100)
        assert len(characters._bernoulli) == cuts[-1], s0
    assert cuts == [105, 107]


def test_closed_form_rejects_positive_discriminant():
    # theta*omega is odd for D > 0, and the halves would cancel
    with pytest.raises(ValueError):
        _closed_form(5, 3, 0, 2, 4)


def test_closed_form_cost_counts_half_the_units_and_the_kept_j():
    # (-40, 13) to 12 digits: phi(520)/2 = 96 units; T = 13 keeps j = 0, 1, 2,
    # 4, ..., 12, 8 of them, plus 2 for the setup; 13 digits of 13 fit in one word
    cost = 96 * (8 + 2) * 2 * (1 + 8) ** 2 + 14**3 // 16
    assert _closed_form_plan(-40, 13, 0, 2, 12) == (13, 2, 13, 14, cost)
    # (-4, 5): phi(20)/2 = 4 units; T = 2 keeps j = 0, 1 in one word, and
    # T = 64 keeps j = 0, 1 and the 32 even j < 66 on 64 * 3 bits, 3 + 1 words:
    # kappa reaches 64 at j = 85, but floor(log_5(65 + 1)) = 2, so every
    # j >= 64 + 2 has j - [4 | j] - 2 >= 64
    assert _closed_form_plan(-4, 5, 0, 1, 1).cost == 4 * (2 + 2) * (1 + 8) ** 2
    assert _closed_form_plan(-4, 5, 0, 1, 63).cost == 4 * (34 + 2) * (4 + 8) ** 2 + 66**3 // 16


_PLAN_GRID = [(D, p) for D in (-3, -4, -7, -40, -163) for p in (3, 5, 7, 13, 41, 101)
              if D % p]


@pytest.mark.parametrize("D, p", _PLAN_GRID)
def test_closed_form_plan_matches_the_search(D, p):
    # the plan's closed forms for n_j and v((K-1)!) against the step-by-step
    # search, over 6 expansion points x 11 orders x 6 precisions
    for s0 in (0, 1, 2, -3, 7, 26):
        for order in range(1, 12):
            for n in (1, 2, 5, 17, 64, 300):
                want = _plan_by_search(D, p, s0, order, n)
                if want[-1] > MAX_CLOSED_FORM_COST:
                    with pytest.raises(ValueError, match="over the ceiling"):
                        _closed_form_plan(D, p, s0, order, n)
                else:
                    assert _closed_form_plan(D, p, s0, order, n) == want, (s0, order, n)


def test_closed_form_plans_are_checked_before_any_table():
    # an order of 3 * 10^7 is refused by its plan alone, before `_g_at_zero`
    # builds a p^J context; branch 1 at 0 also reads g at 1, whose plan is
    # over the ceiling at (-4, 62501) to 4 digits while g at 0's is not
    assert _closed_form_plan(-4, 62501, 0, 6, 4).cost <= MAX_CLOSED_FORM_COST
    with stage_probe() as stages:
        with pytest.raises(ValueError, match="over the ceiling"):
            branch_series(0, THETA4, 0, 3 * 10**7, CTX5, n_cert=4)
        with pytest.raises(ValueError, match="over the ceiling"):
            branch_series(1, THETA4, 0, 6, PadicContext(62501, 12), n_cert=4)
    assert stages == []


def _v(q, p):
    return ordp(q.numerator, p) - ordp(q.denominator, p) if q else None


def test_closed_form_bounds_cover_every_term():
    # H mod p^T is summed mod p^M: every dropped term j >= n_j has
    # v(K_{j,i}) >= T, every kept K_{j,i} has v >= kappa(j) >= 0, and every
    # kept P_{j,k}/k! loses v(k!) <= M - T digits; v(F^j) = j for every
    # F = |D| p.  So P_{j,k} mod p^(M - kappa(j)) gives P_{j,k}/k! mod
    # p^(T - kappa(j)), all that K_{j,i} P_{j,k}/k! mod p^T needs.  The cut
    # also reads v([t^i] C(y-t, j)) >= -(i+1) floor(log_p(j + |y|)), checked
    # on every exact coefficient for eight y = 1 - s0
    for p in (3, 5, 7, 13):
        top = _first_j_past(128 + 1 + 8 * 2, p) + 2 * p  # past kappa's cut for every T
        # B_j p^j / j! carries p^(j - v(j!) - [(p-1) | j]) times the p-part
        # of the numerator of B_j, and g'(0)'s factor B_j p^j / (j (j-1)) carries
        # p^u_j, u_j = j - [(p-1) | j] - v(j (j-1)): the counts the sums use are exact
        fact = 1
        for j in range(top):
            fact *= j or 1
            b = bernoulli_number(j)
            if b:
                wq = j > 0 and j % (p - 1) == 0
                u = j - ordp(fact, p) - wq
                assert _v(b * p**j / fact, p) == u + ordp(b.numerator, p), (p, j)
                assert u >= _kappa(j, p), (p, j)
            if b and j > 1:
                u = j - wq - ordp(j * (j - 1), p)
                assert _v(b * p**j / (j * (j - 1)), p) == u + ordp(b.numerator, p), (p, j)
        sharp = 0  # cases where the new bound sets the cut and the last kept term lies below p^T
        for s0 in (0, 1, 2, -24, 3, -3, 7, 26):
            y = 1 - s0
            # vals[j][i] = v(B_j p^j [t^i] C(y-t, j)), None for a zero term;
            # c[i] = j! [t^i] C(y-t, j), an integer
            vals, c, vfact = [], [1] + [0] * 8, 0
            for j in range(top):
                if j:
                    c = [(y - (j - 1)) * c[i] - (c[i - 1] if i else 0) for i in range(9)]
                    vfact += ordp(j, p)
                if s0 == 0 and j > 1:  # j! C(1-t, j) = -(-1)^j (j-2)! t + O(t^2)
                    assert c[:2] == [0, -(-1) ** j * math.factorial(j - 2)], j
                lam = _log_floor_by_powers(j + abs(y), p) if j else 0  # C(y-t, 0) = 1
                vc = [ordp(x, p) - vfact if x else None for x in c]
                assert all(v >= -(i + 1) * lam for i, v in enumerate(vc) if v is not None), \
                    (p, y, j)
                b = _v(bernoulli_number(j), p)
                vals.append([None if b is None or v is None else b + j + v for v in vc])
            for j, row in enumerate(vals):
                assert all(v >= _kappa(j, p) for v in row if v is not None), (p, s0, j)
            for order in range(1, 9):
                for n_cert in (*range(1, 40), 64, 100, 128):
                    T, K, M, n_j, _ = _closed_form_plan(-4, p, s0, order, n_cert)
                    assert all(ordp(math.factorial(k), p) <= M - T
                               for k in range(1, K)), (p, K, T)
                    assert all(_kappa(j, p) < T for j in range(n_j)), (p, K, T)
                    kept = [v for row in vals[:n_j] for v in row[:K] if v is not None]
                    assert min(kept, default=0) >= 0, (p, s0, K, T)
                    dropped = [v for row in vals[n_j:_first_j_past(T, p) + 2 * p]
                               for v in row[:K] if v is not None]
                    assert min(dropped, default=T) >= T, (p, s0, K, T)
                    last = [v for v in vals[n_j - 1][:K] if v is not None]
                    sharp += n_j < _first_j_past(T, p) and min(last, default=T) < T
        # the cut is sharp: one term fewer would lose a digit somewhere
        assert sharp, p


@pytest.mark.parametrize("p, M", [(3, 1), (5, 2), (7, 12), (13, 33), (29, 64), (5, 1004)])
def test_omega_of_the_primitive_root_matches_the_power_oracle(p, M):
    # _closed_form lifts omega(g) by teichmuller; the lift is unique, so it is
    # the limit of g^(p^k), reached mod p^M at k = M - 1
    g = _primitive_root(p)
    assert (teichmuller(PadicContext(p, M).from_int(g)).unit_int()
            == pow(g, p ** (M - 1), p**M))


@pytest.mark.parametrize("D, p, M", [(-4, 5, 1), (-3, 7, 12), (-39, 5, 40), (-40, 13, 33)])
def test_logs_match_iwasawa_log(D, p, M):
    # additivity over the prime factors, the primes' logs batched, against
    # one iwasawa_log per unit
    theta = DirichletCharacter(D)
    units = [a for a in range(1, abs(D) * p) if a % p and theta.value_exact(a)]
    ctx = PadicContext(p, M)
    assert _logs(units, p, M) == [iwasawa_log(ctx.from_int(a)).residue(M) for a in units]
