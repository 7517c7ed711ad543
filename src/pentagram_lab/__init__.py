"""Exact-arithmetic laboratory for the pentagram map family.

Planar pentagram map on axis-aligned polygons, its corrugated generalization
in P^m, the mirror variant MP, the lower 1-dimensional map T_1, frieze
patterns, and the parallel-lifting machinery that certifies the collapse of
all of them to the center of mass.  Every computation is over the rationals;
nothing here is approximate.
"""

from .corrugated import (
    AxisAlignedM,
    CollapseReportM,
    PolygonM,
    center_of_mass_m,
    collapse_orbit_m,
    corrugated_step,
    is_corrugated,
    random_axis_aligned_m,
)
from .errors import (
    DegeneracyError,
    DegenerateJoin,
    DegenerateMeet,
    DegenerateSpan,
    DimensionMismatch,
    ExhaustedSampling,
    InconsistentTags,
    IndeterminateCrossRatio,
    InfiniteVertex,
    NonCoplanarDiagonals,
    NonOrthogonalNormal,
    NonTransverse,
    NotAJoint,
    NotAxisAligned,
    PentagramError,
    UndefinedProjection,
    UsageError,
    VariantMismatch,
    ZeroDenominator,
)
from .frieze import (
    FriezePattern,
    build_pattern,
    diamond_soundness,
    random_a1,
    render_staggered,
    row_from_values,
    verify_embedding,
    verify_T005,
)
from .lifting import (
    AffineFlat,
    Joint,
    NPoint,
    Polyjoint,
    Prism,
    build_A_sequences,
    collapse_line_check,
    centroid_coincidence_check,
    flat_H,
    fully_sliced_check,
    general_position_check,
    hyperplane_normal,
    lemma32_check,
    lift_report,
    mating,
    mating_orbit_check,
    parallel_lift,
    prism_independence_check,
    slices_check,
    star,
)
from .lower1d import (
    AxisAlignedPair1,
    PairState1D,
    center_of_mass_p1,
    random_b,
    t1_step,
    verify_T008,
)
from .mirror import (
    AxisAlignedMirrorPair,
    MirrorPair,
    mp_inverse,
    mp_step,
    random_axis_aligned_mirror,
    random_mirror_pair,
    verify_correspondence,
    verify_T007,
)
from .pentagram2d import (
    AxisAligned2,
    CollapseReport2,
    LabeledPolygon2,
    center_of_mass_affine,
    center_of_mass_projective,
    collapse_orbit,
    is_axis_aligned,
    pentagram_step,
    random_axis_aligned,
)
from .projcore import (
    INF,
    P1_INFINITY,
    ProjLine2,
    ProjMap,
    ProjPoint,
    cross_ratio4,
    cross_ratio6,
    format_rational,
    is_harmonic4,
    is_harmonic6,
    join_points,
    meet_coplanar_lines,
    meet_lines,
    project_vertical,
    reflect_r,
    solve_harmonic4,
    solve_harmonic6,
)
from .rng import SplitMix64, trial_seed
from .serde import dumps, load_instance, loads, parse_rational, save_instance

__version__ = "0.1.0"
