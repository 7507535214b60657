"""Exact Gromov-Hausdorff distances between simplexes and two-distance spaces.

The package computes, in exact rational arithmetic:

* validated finite metric spaces and their two-distance specialization,
* Hausdorff distances between subsets and minimal-distance graphs,
* the closed-form case table for 2 d_GH(lambda simplex_m, X) on
  two-distance spaces, as an exact piecewise-linear lambda-curve,
* a partition oracle for the same quantity on any finite metric space,
  used as an independent cross-check and with a lambda-curve of its
  own: threshold graphs and clique covers find the extreme (separation,
  diameter) pairs, and brute-force enumeration of the partitions stays
  as the reference,
* the generalized Borsuk decision (split into m parts of strictly
  smaller diameter?) with witness partitions,
* exact clique covering and chromatic numbers, both directly and
  recovered through distances to simplexes.
"""

from .closed_form import (
    GHCase,
    GHCaseTag,
    GHValue,
    borsuk_feasible,
    chromatic_via_gh,
    classify_case,
    classify_case_from_params,
    clique_cover_via_gh,
    gh_curve,
    gh_two_distance,
    graph_invariants,
)
from .curves import CurveSegment, PiecewiseLinearCurve
from .errors import (
    Asymmetric,
    BadParameters,
    DegenerateGraph,
    EmptyInput,
    EmptySubset,
    GHError,
    InvalidM,
    MetricError,
    NodeLimitExceeded,
    NonPositiveLambda,
    NonPositiveOffDiagonal,
    NonZeroDiagonal,
    NotTwoDistance,
    ParseError,
    SelfLoop,
    SinglePoint,
    TriangleViolation,
    VertexOutOfRange,
)
from .formats import (
    parse_graph,
    parse_space,
    serialize_graph,
    serialize_space,
    sniff_graph_format,
)
from .graphs import (
    CliqueCover,
    SimpleGraph,
    chromatic_number,
    clique_cover_direct,
    clique_cover_number,
    coloring_is_proper,
    complement,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cover_is_valid,
    cycle_graph,
    empty_graph,
    graph_from_edges,
    is_clique,
    is_cluster_graph,
    petersen_graph,
)
from .metric import (
    ADPoint,
    FiniteMetricSpace,
    TwoDistanceSpace,
    as_two_distance,
    diameter,
    hausdorff_distance,
    min_distance_graph,
    two_distance_space_from_graph,
    validate_metric,
)
from .partitions import (
    Partition,
    ad_set,
    ad_set_parallel,
    enumerate_partitions,
    extreme_points,
    gh_oracle,
    gh_oracle_curve,
    h_value,
    partition_alpha,
    partition_diameter,
    partition_from_blocks,
    scan_prefixes,
)
from .rationals import INF, RationalOrInf

__version__ = "0.1.0"
