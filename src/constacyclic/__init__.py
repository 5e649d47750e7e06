"""Duadic constacyclic codes over finite fields.

Construction, verification, and exhaustive-search tooling for
multiplier splittings of constacyclic index sets, the codes they
define, their isometries and duals, and the length-(q+1) MDS family.
"""

from .arith import CosetPartition, cosets_of, nu2, orbits_on_cosets
from .codes import (
    CodeSetting,
    ConstaCode,
    IndexSet,
    IsometryDesc,
    annihilator,
    apply_isometry,
    code_report,
    distance_lower_bound,
    dual,
    isometry,
    make_setting,
    min_distance,
)
from .duadic import (
    ExistenceVerdict,
    Splitting,
    SplittingKind,
    VerifyResult,
    c0_check_poly,
    certificate,
    construct_type1,
    construct_type2,
    even_dual_is_odd,
    exists_type1,
    exists_type2,
    is_iso_orthogonal,
    max_iso_orthogonal_dim,
    multiplier_group,
    odd_like_pair,
    p0_set,
    verify_certificate,
    verify_splitting,
)
from .gf import (
    FieldElement,
    FieldSpec,
    FieldTower,
    Poly,
    build_tower,
    element_from_text,
    element_to_text,
    field_for_order,
    make_field,
    poly_from_root_set,
    poly_to_text,
)
from .mds import (
    GrsPlan,
    default_lambda,
    grs_plan,
    grs_splitting,
    mds_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
