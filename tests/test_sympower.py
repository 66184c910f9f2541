"""Decomposition, critical sets, trivial-zero prediction, interpolation product."""

import pytest

from cmlinv.characters import char_from_kronecker
from cmlinv.cmform import cm_spec, cm_spec_from_curve, unit_root
from cmlinv.padic import make_context
from cmlinv.quadfield import quad_field_data
from cmlinv.sympower import (MAX_CRITICAL_WEIGHT, critical_integers, decompose, e_plus,
                             trivial_zero_locations)

CURVE = (0, -1, 0)


def frobenius_eigenvalues(spec, decomposition):
    """Multiset of Frobenius eigenvalues at p implied by decompose's (theta^m, factors).

    The twist's value at p is already folded into alpha/beta, so each
    modular factor contributes alpha * p^(-shift) and beta * p^(-shift).
    """
    ctx = spec.context
    theta_m, factors = decomposition
    out = [] if theta_m is None else [ctx.from_int(theta_m.value_exact(ctx.p))]
    for f in factors:
        scale = ctx.from_int(ctx.p) ** (-f.shift)
        out.append(f.alpha * scale)
        out.append(f.beta * scale)
    return out


def inspect_interpolation_factors(spec, n):
    """Direct inspection: which near-central (branch, point) pairs have a
    vanishing Dirichlet interpolation factor and no vanishing modular factor.

    Independent of the trivial-zero predicate: computes the factors
    themselves.  The trivial character contributes no zero because at
    a = 0 or 1 criticality forces an odd twist, killing chi^(-1)(p).
    """
    theta_m, factors = decompose(spec, n)
    ctx = spec.context
    p = ctx.p
    out = []
    if theta_m is None:
        return out
    for (i, a) in ((0, 0), (1, 1)):
        if theta_m.D == 1:
            # criticality at a = 0, 1 for the trivial character needs an odd
            # twist chi, and then chi^(-1)(p) = 0 keeps the factor at 1
            continue
        # Dirichlet factor (1 - p^(-a) theta(p)) at a <= 0, (1 - p^(a-1) theta(p)) at a >= 1
        tp = theta_m.value_exact(p)
        euler = 1 - tp * p**(-a) if a <= 0 else 1 - tp * p**(a - 1)
        if euler != 0:
            continue
        modular_vanishes = False
        for f in factors:
            f1 = 1 - ctx.from_int(p) ** (a + f.shift - 1) / f.alpha
            f2 = 1 - ctx.from_int(p) ** (-a - f.shift) * f.beta
            if f1.is_zero() or f2.is_zero():
                modular_vanishes = True
        if not modular_vanishes:
            out.append((i, a))
    return out


def _spec5(N=16):
    return cm_spec_from_curve(CURVE, make_context(5, N))


# --- decomposition ---------------------------------------------------------------

def test_sym2_factor_list():
    spec = _spec5()
    theta_m, factors = decompose(spec, 2)
    assert len(factors) == 1
    assert theta_m.modulus == 4 and theta_m.parity() == -1
    mod = factors[0]
    assert mod.weight == 3 and mod.shift == 1
    alpha = unit_root(spec).alpha
    assert (mod.alpha - alpha**2).is_zero()
    assert (mod.beta * mod.alpha - 5**2).is_zero()


def test_m_three_keeps_theta():
    assert decompose(_spec5(), 6)[0].parity() == -1


def test_m_even_dirichlet_factor_trivial():
    assert decompose(_spec5(), 4)[0].D == 1


def test_modular_factors_run_down_from_n():
    # one factor per Hecke-character power r = n, n - 2, ..., with shift (r // 2)(k - 1)
    spec = _spec5()
    for n in range(1, 9):
        factors = decompose(spec, n)[1]
        assert [f.eta_power for f in factors] == list(range(n, 0, -2)), n
        assert [f.shift for f in factors] == [f.eta_power // 2 for f in factors], n


def test_frobenius_eigenvalue_oracle():
    # brute force: alpha^(n-r) beta^r (psi(p) p^(k-1))^(-m), r = 0..n; there are n + 1,
    # so theta^m is there exactly at even n, next to n // 2 modular factors
    spec = _spec5()
    roots = unit_root(spec)
    ctx = spec.context
    for n in (2, 3, 4, 6, 7, 8):
        m = n // 2
        got = frobenius_eigenvalues(spec, decompose(spec, n))
        expected = [roots.alpha ** (n - r) * roots.beta**r
                    * ctx.from_int(5) ** (-m * (spec.weight - 1))
                    for r in range(n + 1)]
        assert len(got) == len(expected)
        # compare as multisets at 10 digits
        def key(x):
            return (x.valuation(), (x / ctx.from_int(5) ** x.valuation()).residue(10))
        assert sorted(map(key, got)) == sorted(map(key, expected)), n


def test_weight3_synthetic_decomposition():
    ctx = make_context(5, 16)
    base = unit_root(cm_spec_from_curve(CURVE, ctx))
    spec3 = cm_spec(quad_field_data(1), 3, char_from_kronecker(-4),
                    base.alpha**2 + base.beta**2, 32, ctx)
    mod = decompose(spec3, 2)[1][0]
    assert mod.weight == 5 and mod.shift == 2
    # twist for j=1 at k=3: psi^(-1) theta^0 = theta (psi = theta quadratic)
    assert mod.twist.modulus == 4


# --- critical integers ---------------------------------------------------------------

def test_critical_rejects_odd_n():
    with pytest.raises(ValueError):
        critical_integers(3, 4)
    with pytest.raises(ValueError):
        critical_integers(1, 2)


def test_critical_refuses_weights_over_the_ceiling():
    assert len(critical_integers(4, MAX_CRITICAL_WEIGHT)) == MAX_CRITICAL_WEIGHT - 2
    with pytest.raises(ValueError, match="weights up to"):
        critical_integers(4, MAX_CRITICAL_WEIGHT + 1)
    with pytest.raises(ValueError, match="weight must be >= 2"):
        critical_integers(4, 1)


def test_critical_lists_every_qualifying_integer():
    # the per-a rule over [2 - k, k - 1], as the docstring states it
    def oracle(n, k):
        if n // 2 % 2:
            return [a for a in range(2 - k, k)
                    if (a <= 0 and a % 2 == 0) or (a >= 1 and a % 2 == 1)]
        return [a for a in range(2 - k, k)
                if (a <= -1 and a % 2 == 1) or (a >= 2 and a % 2 == 0)]

    for n in range(2, 21, 2):
        for k in range(2, 200):
            assert critical_integers(n, k) == oracle(n, k), (n, k)


# --- trivial zero prediction -------------------------------------------------------------

def test_locations_match_interpolation_factor_inspection():
    spec = _spec5()
    for n in range(2, 41, 2):
        predicted = list(trivial_zero_locations(n))
        inspected = inspect_interpolation_factors(spec, n)
        assert predicted == inspected, n


# --- interpolation product ----------------------------------------------------------------

def test_e_plus_matches_algebraic_simplification():
    spec = _spec5()
    alpha = unit_root(spec).alpha
    got = e_plus(spec, decompose(spec, 2)[1], 1)
    # (1 - 5/alpha^2)(1 - beta^2/25) = (1 - 5 alpha^(-2))(1 - alpha^(-2))
    simplified = (1 - 5 * alpha**-2) * (1 - alpha**-2)
    assert (got - simplified).min_valuation() >= 14
    assert got.residue(8) == 114732  # frozen from an independent prototype run


def test_e_plus_nonzero_and_i_shift():
    spec = _spec5()
    factors = decompose(spec, 2)[1]
    v0 = e_plus(spec, factors, 0)
    v1 = e_plus(spec, factors, 1)
    assert not v0.is_zero() and not v1.is_zero()
    # m = 1: exchanging i = 0 and 1 swaps the two exponents, same product
    assert (v0 - v1).min_valuation() >= 14


def test_e_plus_larger_power():
    spec = _spec5()
    v = e_plus(spec, decompose(spec, 6)[1], 0)
    assert not v.is_zero()
    assert v.valuation() == 0


def test_e_plus_rejects_non_exceptional():
    spec = _spec5()
    # the n with no trivial zero get no product: full_report(spec, n).formulas == ()
    # (test_linvariant); a branch other than 0 and 1 is refused here
    with pytest.raises(ValueError, match="branch index"):
        e_plus(spec, decompose(spec, 2)[1], 2)
