"""Exact-arithmetic toolkit for quasismooth terminal weighted Fano 3-fold
hypersurfaces: weighted monomial combinatorics, the bounded classification
search, coordinate normalization pipelines, diagonal symmetry groups, and the
degree-of-irrationality decision procedure."""

from .wspace import (
    Monomial,
    WeightSystem,
    count_monomials,
    enumerate_monomials,
    format_monomial,
    parse_monomial,
    weight_system,
    wps_well_formed,
)
from .membership import (
    MembershipReport,
    hypersurface_well_formed,
    is_linear_cone,
    membership_report,
    quasismooth_general,
    rejection,
)
from .singular import (
    QuotientSingularity,
    SingularityBasket,
    singular_points_general,
    terminal_general,
    terminal_type,
)
from .catalog import (
    EXCEPTIONAL_EIGHT,
    FamilyRecord,
    SearchBounds,
    classify,
    load_catalog,
    save_catalog,
)
from .symalg import (
    GradedPolynomial,
    NormalizationPlan,
    Substitution,
    builtin_plan,
    normalize,
    quasismooth_member,
    reference_support,
    sample_general_member,
    substitute,
)
from .symmetry import (
    DiagonalSymmetryGroup,
    certify_trivial_automorphisms,
    diagonal_symmetry_group,
    has_diagonal_involution,
    pgl2_set_stabilizer,
)
from .irrational import IrrationalityVerdict, decide

__version__ = "0.1.0"
