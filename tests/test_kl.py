"""Interpolation values and certified branch series."""

import time
from fractions import Fraction

import pytest

from cmlinv.characters import (bernoulli_number, char_from_kronecker,
                               char_product, char_teichmuller_power,
                               is_fundamental_discriminant, kronecker_symbol)
from cmlinv.kl import _kl_function, _u, branch_derivative, branch_series, kl_value
from cmlinv.padic import make_context
from cmlinv.quadfield import pi_bar, quad_field_data

CTX5 = make_context(5, 16)
THETA4 = char_from_kronecker(-4)
THETA3 = char_from_kronecker(-3)


def _digits(x):
    return (x.min_valuation(), x.digits(), x.abs_prec)


def _theta_omega(ctx):
    return char_product(char_from_kronecker(-4), char_teichmuller_power(1, ctx))


# --- interpolation values ----------------------------------------------------

def test_trivial_zero_node_is_exact_zero():
    # (1 - theta(5)) kills the value exactly at the n = 1 node
    v = kl_value(1, _theta_omega(CTX5), CTX5)
    assert v.is_exact_zero()


def test_inert_prime_node_is_one():
    ctx7 = make_context(7, 16)
    chi = char_product(THETA4, char_teichmuller_power(1, ctx7))
    v = kl_value(1, chi, ctx7)
    assert v == 1


def test_node_five_exact_rational():
    # chi omega^(-5) = theta at p = 5; B_{5,theta} summed exactly here
    B5 = sum(kronecker_symbol(-4, a)
             * Fraction(4) ** 4
             * sum(Fraction(_binom(5, j)) * bernoulli_number(j)
                   * Fraction(a, 4) ** (5 - j) for j in range(6))
             for a in (1, 3))
    expected = -(1 - 5**4) * B5 / 5
    assert B5 == Fraction(-25, 2)
    v = kl_value(5, _theta_omega(CTX5), CTX5)
    assert v == CTX5.from_rational(expected)


def _binom(n, k):
    from math import comb
    return comb(n, k)


def test_kl_rejects_bad_input():
    with pytest.raises(ValueError):
        kl_value(0, _theta_omega(CTX5), CTX5)
    with pytest.raises(ValueError):
        kl_value(1, THETA4, CTX5)  # odd character is not a branch character


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
    # exercising the nonzero-base-point shift of the Newton form
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


def test_derivative_against_split_prime_log():
    # (4/w) log(pibar) with w = 4: plain log(pibar)
    sp = pi_bar(quad_field_data(1), 5, CTX5)
    d0 = branch_derivative(0, THETA4, 0, CTX5, n_cert=10)
    assert (d0 - sp.log_pibar).min_valuation() >= 10


def test_derivative_d3_p7():
    ctx7 = make_context(7, 16)
    sp = pi_bar(quad_field_data(3), 7, ctx7)
    d0 = branch_derivative(0, THETA3, 0, ctx7, n_cert=10)
    rhs = ctx7.from_rational(Fraction(4, 6)) * sp.log_pibar
    assert (d0 - rhs).min_valuation() >= 10


def test_series_reproduces_extra_nodes():
    bs = branch_series(0, THETA4, 0, 3, CTX5, n_cert=8)
    for n in range(25, 28):
        got = bs.evaluate(1 - n)
        assert (got - bs.g.node_value(n)).min_valuation() >= 8, n


def test_u_at_integers_matches_exact_rational():
    for ctx in (CTX5, make_context(7, 23)):
        for s in range(-60, 61):
            oracle = ctx.from_rational(Fraction(1 + ctx.p) ** s - 1)
            assert _digits(_u(ctx, s)) == _digits(oracle), (ctx, s)
    assert _u(CTX5, 0).is_exact_zero()


def test_evaluate_at_huge_integer_is_cheap():
    bs = branch_series(0, THETA4, 0, 2, CTX5, n_cert=8)
    t0 = time.perf_counter()
    got = bs.evaluate(10**12)
    assert time.perf_counter() - t0 < 1
    # the p-adic route exp(s log(1+p)) reaches the same certified digits
    assert (got - bs.evaluate(CTX5.from_int(10**12))).min_valuation() >= 8


def test_certificate_audit_independent_tables():
    # J = 8 and J = 12 tables differ in nodes and working precision, so
    # agreement on c0 and c1 audits the n_cert certificate and n_work slack
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
        hits = _kl_function.cache_info().hits
        cached = branch_series(0, theta, 0, 2, ctx, n_cert=6)
        assert _kl_function.cache_info().hits == hits + 1 and cached.g is short.g
        _kl_function.cache_clear()
        fresh = branch_series(0, theta, 0, 2, ctx, n_cert=6)
        assert fresh.g is not short.g
        assert list(map(_digits, cached.coefficients)) == \
            list(map(_digits, fresh.coefficients)), (D, p)


def test_series_value_matches_newton_on_pzp():
    bs = branch_series(0, THETA4, 0, 8, CTX5, n_cert=8)
    for s in (5, 10, -5):
        taylor = bs.series_value(s)
        newton = bs.evaluate(s)
        assert (taylor - newton).min_valuation() >= 8, s


def test_branch_symmetry_three_points():
    bs0 = branch_series(0, THETA4, 0, 8, CTX5, n_cert=8)
    bs1 = branch_series(1, THETA4, 1, 8, CTX5, n_cert=8)
    for s in (5, 10, 15):
        lhs = bs0.series_value(s)
        rhs = bs1.evaluate(1 - s)
        assert (lhs - rhs).min_valuation() >= 6, s


def test_node_budget_gate():
    with pytest.raises(ValueError):
        branch_series(0, THETA4, 0, 4, CTX5, n_cert=8, node_budget=10)


def test_cert_cannot_exceed_context():
    with pytest.raises(ValueError):
        branch_series(0, THETA4, 0, 2, CTX5, n_cert=20)


def test_rejects_even_or_trivial_theta():
    from cmlinv.characters import trivial_character
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
