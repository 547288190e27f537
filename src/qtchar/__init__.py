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
    positive_roots,
    root_to_weight,
    two_rho,
    weight_to_root_coords,
)
from .tpoly import TPoly, gen_binomial, parse_tpoly, t_binomial
from .monomial import (
    EpsilonTable,
    YMonomial,
    a_monomial,
    epsilon,
    pairing_d,
    pairing_d_alt,
    parse_monomial,
    tilde_d,
    tilde_u,
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
from .engine import (
    Engine,
    KLResult,
    default_engine,
    fundamental_char,
    in_span_all_nodes,
    kl_decompose,
    kr_char_direct,
    simple_char,
    standard_char,
)
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
