"""Decomposition, critical sets, trivial-zero prediction, interpolation product."""

import pytest

from cmlinv.characters import char_from_kronecker
from cmlinv.cmform import cm_spec, cm_spec_from_curve, unit_root
from cmlinv.padic import make_context
from cmlinv.quadfield import quad_field_data
from cmlinv.sympower import (MAX_CRITICAL_WEIGHT, critical_integers, decompose, e_plus,
                             trivial_zero_certificates, trivial_zero_locations)

CURVE = (0, -1, 0)


def dirichlet_factor(factors):
    """The factor of kind "dirichlet" in a decomposition, or None (odd n)."""
    return next((f for f in factors if f.kind == "dirichlet"), None)


def frobenius_eigenvalues(spec, factors):
    """Multiset of Frobenius eigenvalues at p implied by the factor list.

    The twist's value at p is already folded into alpha/beta, so each
    modular factor contributes alpha * p^(-shift) and beta * p^(-shift).
    """
    ctx = spec.context
    out = []
    for f in factors:
        if f.kind == "dirichlet":
            out.append(ctx.from_int(f.character.value_exact(ctx.p)))
        else:
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
    factors = decompose(spec, n)
    ctx = spec.context
    p = ctx.p
    out = []
    dirichlet = dirichlet_factor(factors)
    if dirichlet is None:
        return out
    theta_m = dirichlet.character
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
            if f.kind != "modular":
                continue
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
    factors = decompose(spec, 2)
    assert len(factors) == 2
    dirichlet = dirichlet_factor(factors)
    assert dirichlet.character.modulus == 4 and dirichlet.character.parity() == -1
    mod = [f for f in factors if f.kind == "modular"][0]
    assert mod.weight == 3 and mod.shift == 1
    alpha = unit_root(spec).alpha
    assert (mod.alpha - alpha**2).is_zero()
    assert (mod.beta * mod.alpha - 5**2).is_zero()


def test_odd_power_has_no_dirichlet_factor():
    spec = _spec5()
    assert dirichlet_factor(decompose(spec, 3)) is None
    assert dirichlet_factor(decompose(spec, 7)) is None


def test_even_power_factor_count():
    spec = _spec5()
    for n in (2, 4, 6, 8):
        assert len(decompose(spec, n)) == n // 2 + 1, n


def test_m_three_keeps_theta():
    assert dirichlet_factor(decompose(_spec5(), 6)).character.parity() == -1


def test_m_even_dirichlet_factor_trivial():
    assert dirichlet_factor(decompose(_spec5(), 4)).character.D == 1


def test_frobenius_eigenvalue_oracle():
    # brute force: alpha^(n-r) beta^r (psi(p) p^(k-1))^(-m), r = 0..n
    spec = _spec5()
    roots = unit_root(spec)
    ctx = spec.context
    for n in (2, 3, 4, 6):
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
    mod = [f for f in decompose(spec3, 2) if f.kind == "modular"][0]
    assert mod.weight == 5 and mod.shift == 2
    # twist for j=1 at k=3: psi^(-1) theta^0 = theta (psi = theta quadratic)
    assert mod.twist.modulus == 4


# --- critical integers ---------------------------------------------------------------

def test_critical_basic_cases():
    assert critical_integers(2, 2) == [0, 1]
    # the displayed left endpoint -(k-1) fails the weight-3 factor's strip;
    # the Hodge-correct set drops it (see the decisions ledger)
    assert critical_integers(2, 3) == [0, 1]
    assert critical_integers(4, 4) == [-1, 2]
    assert critical_integers(2, 5) == [-2, 0, 1, 3]
    assert critical_integers(2, 8) == [-6, -4, -2, 0, 1, 3, 5, 7]


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


def test_critical_functional_equation_symmetry():
    for n in (2, 4, 6, 8, 10):
        for k in range(2, 9):
            C = critical_integers(n, k)
            assert sorted(1 - a for a in C) == C, (n, k)


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


def test_critical_containment_all_factors():
    for n in (2, 4, 6, 8, 10):
        m = n // 2
        for k in range(2, 9):
            for a in critical_integers(n, k):
                for j in range(1, m + 1):
                    assert 1 <= a + j * (k - 1) <= 2 * j * (k - 1), (n, k, a, j)
                if m % 2:
                    assert (a > 0 and a % 2) or (a <= 0 and a % 2 == 0)
                else:
                    assert (a > 0 and a % 2 == 0) or (a < 0 and a % 2)


def test_near_central_points_iff_m_odd():
    for n in (2, 4, 6, 8, 10):
        C = critical_integers(n, 4)
        if (n // 2) % 2:
            assert 0 in C and 1 in C
        else:
            assert 0 not in C and 1 not in C


# --- trivial zero prediction -------------------------------------------------------------

def test_locations_match_theorem():
    for n in range(1, 13):
        locs = trivial_zero_locations(n)
        if n in (2, 6, 10):
            assert locs == ((0, 0), (1, 1)), n
        else:
            assert locs == (), n


def test_locations_second_prime():
    spec = cm_spec_from_curve(CURVE, make_context(13, 16))
    for n in range(1, 13):
        locs = trivial_zero_locations(n)
        assert bool(locs) == (n in (2, 6, 10)), n
    for cert in trivial_zero_certificates(spec, 8):
        assert cert.c0.min_valuation() >= 8
        assert cert.c1.valuation() < 8


def test_locations_match_interpolation_factor_inspection():
    spec = _spec5()
    for n in range(2, 41, 2):
        predicted = list(trivial_zero_locations(n))
        inspected = inspect_interpolation_factors(spec, n)
        assert predicted == inspected, n


def test_certificates_order_one():
    spec = _spec5()
    certs = trivial_zero_certificates(spec, 8)
    assert len(certs) == 2
    assert [cert.branch for cert in certs] == [0, 1]
    for cert in certs:
        assert cert.c0.min_valuation() >= 8
        assert cert.c1.valuation() < 8


# --- interpolation product ----------------------------------------------------------------

def test_e_plus_matches_algebraic_simplification():
    spec = _spec5()
    alpha = unit_root(spec).alpha
    got = e_plus(spec, 2, 1)
    # (1 - 5/alpha^2)(1 - beta^2/25) = (1 - 5 alpha^(-2))(1 - alpha^(-2))
    simplified = (1 - 5 * alpha**-2) * (1 - alpha**-2)
    assert (got - simplified).min_valuation() >= 14
    assert got.residue(8) == 114732  # frozen from an independent prototype run


def test_e_plus_nonzero_and_i_shift():
    spec = _spec5()
    v0 = e_plus(spec, 2, 0)
    v1 = e_plus(spec, 2, 1)
    assert not v0.is_zero() and not v1.is_zero()
    # m = 1: exchanging i = 0 and 1 swaps the two exponents, same product
    assert (v0 - v1).min_valuation() >= 14


def test_e_plus_larger_power():
    spec = _spec5()
    v = e_plus(spec, 6, 0)
    assert not v.is_zero()
    assert v.valuation() == 0


def test_e_plus_rejects_non_exceptional():
    spec = _spec5()
    with pytest.raises(ValueError):
        e_plus(spec, 4, 0)
    with pytest.raises(ValueError):
        e_plus(spec, 3, 0)
    with pytest.raises(ValueError):
        e_plus(spec, 2, 2)
