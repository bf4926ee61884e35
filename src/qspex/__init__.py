"""Spectral extremality of the signless Laplacian under edge-count and
matching-number constraints: exact graph machinery, certified eigensolves,
extremal-family constructions, radius-increasing rewirings, and exhaustive
desk-scale verification."""

from .graphs import (
    GRAPH6_MAX_N,
    Graph,
    Graph6Error,
    canonical_form,
    canonical_graph,
    components,
    from_graph6,
    induced_subgraph,
    is_isomorphic,
    strip_isolated,
    to_graph6,
    union_all,
)
from .spectral import (
    Q_MARGIN,
    RESIDUAL_TOL,
    SpectralData,
    eigen_equation_check,
    q_matrix,
    q_radius,
    rayleigh_sum,
)
from .matching import (
    Matching,
    OrderedMatching,
    all_maximum_matchings,
    edge_partition,
    extremal_matching,
    matching_number,
    matching_weight,
    maximum_matching,
    proper_ordering,
)
from .family import (
    FamilyParams,
    build_h,
    build_s,
    extremal_params,
    predicted_extremal,
    predicted_maximizers,
)
from .transform import (
    ROTATION_MARGIN,
    RewireResult,
    kelmans_swap,
    pendant_collapse,
    rotate,
)
from .search import (
    ARGMAX_BAND,
    DEFAULT_GUARD,
    ClimbStep,
    ClimbTrace,
    EnumerationQuery,
    brute_force_max,
    class_size,
    connected_catalog,
    enumerate_graphs,
    hill_climb,
)
from .verify import (
    LEMMA_MARGIN,
    VerificationReport,
    check_lemma2,
    check_lemma3,
    emit_report,
    verify_beta1,
    verify_theorem1,
)

__version__ = "0.1.0"
