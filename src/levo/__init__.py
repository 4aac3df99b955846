"""Symbolic engine for enriched characteristic cycles.

Exact-rational Groebner arithmetic, cycles weighted by finitely
generated abelian groups, proper intersection theory on the cotangent
ring, the inductive residual/distinguished decomposition along a
gradient graph with its point modules, and genericity diagnostics.
"""

from .abgroups import AbGroup, Z, ZERO_GROUP, Zmod
from .cycles import EnrichedCycle, GradedEnrichedCycle
from .errors import (
    EngineError,
    GenericityError,
    ImproperIntersectionError,
    InputError,
    InternalError,
    PolynomialParseError,
    RingMismatchError,
)
from .gecc import (
    SheafSpec,
    StratumSpec,
    build_gecc,
    critical_locus,
    isolated_vanishing_stalk,
    nearby_gecc,
    support_of_gecc,
)
from .geom import (
    conormal_ideal,
    graph_ideal,
    graph_pushforward,
    intersect_hypersurface,
    local_multiplicity_at_point,
    multiplicity_along,
    relative_conormal_ideal,
)
from .diagnostics import (
    GenericityCertificate,
    ZawatskyComplex,
    essential_transversality,
    euler_check,
    isolating_certificate,
    zawatsky_complex,
)
from .ideals import (
    Ideal,
    eliminate,
    krull_dimension,
    quotient_dimension,
    radical_member,
    saturate,
    split_components,
)
from .poly import PolyRing, Polynomial
from .vogel import (
    VogelDecomposition,
    decompose_all_degrees,
    levo_cycles,
    levo_modules,
    polar_levels,
    polar_modules_iterative,
    polar_package,
    polar_support_sets,
    vogel_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "AbGroup",
    "Z",
    "ZERO_GROUP",
    "Zmod",
    "EnrichedCycle",
    "GradedEnrichedCycle",
    "EngineError",
    "GenericityError",
    "ImproperIntersectionError",
    "InputError",
    "InternalError",
    "PolynomialParseError",
    "RingMismatchError",
    "SheafSpec",
    "StratumSpec",
    "build_gecc",
    "critical_locus",
    "isolated_vanishing_stalk",
    "nearby_gecc",
    "support_of_gecc",
    "conormal_ideal",
    "graph_ideal",
    "graph_pushforward",
    "intersect_hypersurface",
    "local_multiplicity_at_point",
    "multiplicity_along",
    "relative_conormal_ideal",
    "GenericityCertificate",
    "ZawatskyComplex",
    "essential_transversality",
    "euler_check",
    "isolating_certificate",
    "zawatsky_complex",
    "Ideal",
    "eliminate",
    "krull_dimension",
    "quotient_dimension",
    "radical_member",
    "saturate",
    "split_components",
    "PolyRing",
    "Polynomial",
    "VogelDecomposition",
    "decompose_all_degrees",
    "levo_cycles",
    "levo_modules",
    "polar_levels",
    "polar_modules_iterative",
    "polar_package",
    "polar_support_sets",
    "vogel_decompose",
]
