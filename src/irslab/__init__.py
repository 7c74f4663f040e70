"""irslab: exact envelope probabilities, certified enclosures and samplers
for co-induced invariant random subgroups of the free group on two
generators."""

__version__ = "0.1.0"

from irslab.dyadic import (  # noqa: F401
    Dyadic,
    Enclosure,
    Exact,
    Interval,
    certified_product,
    one_minus_pow2,
)
from irslab.grid import GridPoint, coset, idx, point, transversal_word  # noqa: F401
from irslab.measures import (  # noqa: F401
    MU_F,
    MU_G,
    CertifiedBool,
    CoinducedProduct,
    Convex,
    DiracGamma,
    DiracTrivial,
    GeneratePower,
    GeomGamma,
    IntersectPower,
    ParamFamily,
    Pushforward,
    Region,
    chain_env_weight,
    env_prob,
    essential,
    family_measure,
    kernel_contains,
    mixing_defect,
    supported_in,
)
from irslab.sampler import SampledSubgroup, membership_matrix, sample  # noqa: F401
from irslab.words import Word, commutator, conjugate  # noqa: F401
from irslab.ywords import (  # noqa: F401
    NotInCommutatorSubgroup,
    YWord,
    depth,
    expand,
    phi_k,
    rewrite_to_y,
)
