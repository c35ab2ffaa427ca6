"""Lattice coding for distributed reconstruction of linear functions.

Closed-form rate-distortion regions for correlated Gaussian sources whose
linear combination is reconstructed from separately encoded descriptions,
plus Monte Carlo simulation of the nested-lattice codecs that realize them
and of the quantize-and-bin baseline they are compared against.
"""

from . import kernels
from .errors import (
    CoordinateOutOfRange,
    DegenerateSideInfo,
    DimensionMismatch,
    DistortionOutOfRange,
    IllConditionedLattice,
    InvalidCount,
    InvalidPrime,
    LatfunError,
    MissingMomentEstimate,
    MomentOverflow,
    NonFiniteSum,
    NonFiniteTarget,
    NonPositiveQ,
    NonPositiveTarget,
    OrthogonalScaling,
    QOutOfRange,
    SingularLattice,
    SingularObservationGram,
    TooManyCosets,
    UnresolvableDistortion,
    UnsupportedDimension,
    VarianceOverflow,
)
from .gaussian import (
    PartitionPlan,
    SideInfoModel,
    SourceModel,
    final_estimator,
    function_variance,
    independent_side_model,
    mmse_coeffs,
    noisy_function_side_model,
    sigma_theta,
    single_cell_plan,
    singleton_plan,
    two_user_model,
)
from .lattices import (
    CodeConstruction,
    Lattice,
    MomentEstimate,
    NestedPair,
    construction_a,
    coset_leaders,
    hexagonal_lattice,
    integer_lattice,
    mod_lattice,
    nearest_point,
    nearest_point_coords,
    normalized_second_moment,
    sample_dither,
    scale_to_second_moment,
    second_moment,
)
from .regions import (
    BtOptimum,
    BtRegionPoint,
    RatePoint,
    ScalingOptimum,
    SideInfoRegion,
    bt_min_sum_curve,
    bt_min_sum_rate,
    bt_min_sum_rates,
    bt_optimal_q,
    bt_rate_point,
    bt_regime,
    k_user_rates,
    lattice_min_sum_rate,
    lower_convex_envelope,
    optimal_scaling,
    scaling_region_rhs,
    side_info_region,
)
from .simulate import (
    SimReport,
    SideInfoCodec,
    TwoUserCodec,
    build_k_user_codec,
    build_side_info_codec,
    build_two_user_codec,
    epi_entropy_sandwich,
    run_k_user_experiment,
    run_side_info_experiment,
    run_two_user_experiment,
)

__version__ = "0.1.0"

KERNEL_BACKEND = kernels.BACKEND
