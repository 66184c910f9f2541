"""cmlinv: exact p-adic verification of trivial-zero derivative identities
for symmetric powers of ordinary CM eigenforms.

The layers, bottom up: padic (exact Q_p with precision tracking),
characters (Kronecker characters theta_D and Bernoulli numbers),
quadfield (class numbers and the split-prime package), cmform (point
counts and Hecke unit roots), kl (exact Kubota-Leopoldt values at
n = 1 mod p - 1 and certified branch series), sympower (decomposition,
critical sets, trivial zeroes), linvariant (the L-invariant computed
two ways plus the verification battery), cli (JSON front end).
"""

from .characters import (DirichletCharacter, char_from_kronecker, char_product,
                         dirichlet_L_nonpositive, gen_bernoulli, trivial_character)
from .cmform import (CMFormSpec, HeckeRoots, ap_point_count, cm_spec,
                     cm_spec_from_curve, unit_root)
from .kl import BranchSeries, branch_derivative, branch_series, kl_value
from .linvariant import (FGCheck, LInvariantReport, full_report,
                         l_invariant_analytic, l_invariant_via_alpha,
                         verify_ferrero_greenberg, verify_trivial_zero_formula)
from .padic import (PadicContext, PadicNumber, iwasawa_log, make_context,
                    padic_exp, sqrt_unit, teichmuller)
from .quadfield import (QuadFieldData, SplitPrimeData, pi_bar,
                        quad_field_data, quad_field_from_discriminant,
                        split_behavior)
from .sympower import (SymPowerDecomposition, SymPowerFactor, critical_integers,
                       decompose, e_plus, trivial_zero_locations)

__version__ = "0.1.0"

__all__ = [
    "BranchSeries", "CMFormSpec", "DirichletCharacter",
    "FGCheck", "HeckeRoots", "LInvariantReport", "PadicContext", "PadicNumber",
    "QuadFieldData", "SplitPrimeData", "SymPowerDecomposition", "SymPowerFactor",
    "ap_point_count", "branch_derivative", "branch_series", "char_from_kronecker",
    "char_product", "cm_spec", "cm_spec_from_curve",
    "critical_integers", "decompose", "dirichlet_L_nonpositive", "e_plus",
    "full_report", "gen_bernoulli", "iwasawa_log", "kl_value", "l_invariant_analytic",
    "l_invariant_via_alpha", "make_context", "padic_exp", "pi_bar", "quad_field_data",
    "quad_field_from_discriminant", "split_behavior", "sqrt_unit",
    "teichmuller", "trivial_character", "unit_root",
    "verify_ferrero_greenberg", "verify_trivial_zero_formula",
]
