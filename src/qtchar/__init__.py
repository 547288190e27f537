"""t-analogs of q-characters for simply-laced quantum loop algebras.

Computes characters of standard, simple and string (Kirillov-Reshetikhin)
modules with coefficients in Z[t,t^-1], and verifies the tensor
recursions, stabilization, restriction and configuration-sum identities
they satisfy, all in exact integer arithmetic.
"""

from .errors import (
    DomainError,
    InconsistentExpansion,
    InternalError,
    NotComparable,
    NotDominant,
    NotInRootLattice,
    ParseError,
    QtcharError,
    UnsupportedType,
)
from .roots import (
    LieType,
    build_lie_type,
    diagram_automorphisms,
    dual_nodes,
    positive_roots,
    root_to_weight,
    two_rho,
    weight_to_root_coords,
)
from .tpoly import TPoly, gen_binomial, parse_tpoly
from .monomial import (
    EpsilonTable,
    YMonomial,
    a_monomial,
    parse_monomial,
    v_factorization,
)
from .character import (
    DrinfeldPoly,
    GCharacter,
    QtCharacter,
    dominant_product,
    dumps_qtc,
    loads_qtc,
    normalized_in_A,
    read_qtc,
    restrict_to_g,
    specialize_t1,
    star_product,
    write_qtc,
)
from .engine import Engine, KLResult
from .systems import (
    VerifyReport,
    fermionic_rhs,
    irreducible_g_char,
    q_character_Q,
    strip_to_irreducibles,
    verify_convergence,
    verify_kr_formula,
    verify_kr_tensor_split,
    verify_q_system,
    verify_t_system_t,
    verify_t_system_t1,
)

__version__ = "0.1.0"
