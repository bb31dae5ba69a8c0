"""mvsynth: a verifying compiler from piecewise-linear descriptions on the
unit cube to many-valued (Lukasiewicz) logic terms.

Every synthesized term comes with an exact certificate: the decision
procedure here works over arbitrary-precision rationals, so "equal" means
equal at every point, not equal up to tolerance.
"""

from .errors import (
    CapExceededError,
    CertificationError,
    DescriptionError,
    DomainError,
    InvalidDescriptionError,
    MvSynthError,
    NotCongruentError,
    NotMemberError,
    TermSyntaxError,
)
from .geometry import (
    AffineForm,
    Cell,
    CellDecomposition,
    LpResult,
    Polytope,
    affine,
    clamp01,
    const_form,
    cube,
    dedup_canonical_forms,
    enumerate_cells,
    interior_point,
    is_feasible,
    lp_optimize,
    unit_form,
)
from .terms import (
    Term,
    ZERO,
    ONE,
    as_point,
    dist,
    eval_term,
    expand_derived,
    iterate_oplus,
    max_var_index,
    neg,
    ominus,
    oplus,
    otimes,
    parse_term,
    print_term,
    term_node_count,
    term_oplus_depth,
    var,
    vee,
    wedge,
)
from .pwl import (
    Decision,
    Leaf,
    MaxOf,
    MinOf,
    PwlExpr,
    eval_pwl,
    function_eq,
    function_leq,
    leaf,
    max_of,
    min_of,
    pwl_arity,
    pwl_leaves,
    truncate_affine,
)
from .linear import linear_term
from .crt import (
    DEFAULT_CAP,
    CombineRecord,
    PrincipalIdeal,
    RegionGroup,
    SynthesisTrace,
    analyze_regions,
    chinese_glue,
    combine_pair,
    ideal_for_order,
    intersect_principal,
    membership_bound,
    synthesize_crt,
    synthesize_direct,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
