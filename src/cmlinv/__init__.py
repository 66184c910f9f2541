"""cmlinv: exact p-adic verification of trivial-zero derivative identities
for symmetric powers of ordinary CM eigenforms.

The layers, bottom up: padic (exact Q_p with precision tracking),
characters (Kronecker characters theta_D and Bernoulli numbers),
quadfield (class numbers and the split-prime package), cmform (point
counts and Hecke unit roots), kl (exact Kubota-Leopoldt values at
n = 1 mod p - 1 and certified branch series), sympower (decomposition,
critical sets, trivial zeroes), linvariant (the L-invariant computed
two ways plus the verification battery), cli (JSON front end).  The root
names four functions; everything else is read from its layer.
"""

# perfbench/tracer.py looks each layer up in sys.modules right after
# `import cmlinv`, so the root imports every layer
from . import kl, linvariant, sympower  # noqa: F401
from .characters import trivial_character
from .cmform import cm_spec
from .padic import make_context
from .quadfield import quad_field_from_discriminant

__all__ = ["cm_spec", "make_context", "quad_field_from_discriminant", "trivial_character"]
