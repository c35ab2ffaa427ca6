"""Exception types shared across the package."""


class LatfunError(ValueError):
    """Base class for all domain errors raised by latfun."""


class DimensionMismatch(LatfunError):
    """Vector length does not match the lattice dimension."""


class NonFiniteTarget(LatfunError):
    """A query point has a NaN or infinite coordinate."""


class NonFiniteSum(LatfunError):
    """A codec chunk's sums hold a NaN or an infinity."""


class CoordinateOutOfRange(LatfunError):
    """A closest-point coordinate is beyond the integers its array type holds exactly."""


class UnsupportedDimension(LatfunError):
    """Operation not available at this dimension (exact search is n <= 8)."""


class SingularLattice(LatfunError):
    """Generator matrix is singular or numerically rank deficient."""


class IllConditionedLattice(LatfunError):
    """Generator's condition number is beyond what the closest-point search can answer."""


class MomentOverflow(LatfunError):
    """A second moment inflated by the margin is not a finite number."""


class UnresolvableDistortion(LatfunError):
    """Target distortion too small for the float64 rounding of the codec's sources."""


class VarianceOverflow(LatfunError):
    """The variance of the target function is not a finite number."""


class NonPositiveTarget(LatfunError):
    """Requested second moment must be strictly positive."""


class MissingMomentEstimate(LatfunError):
    """Lattice has neither an exact nor an estimated second moment."""


class InvalidPrime(LatfunError):
    """Modulus for the linear-code construction must be prime."""


class TooManyCosets(LatfunError):
    """Nesting index exceeds the enumeration guard."""


class SingularObservationGram(LatfunError):
    """Observation covariance is singular beyond the conditioning guard."""


class DistortionOutOfRange(LatfunError):
    """Distortion outside the valid range for the requested quantity."""


class InvalidCount(LatfunError):
    """Counts (trials, chunk size, sweep grid points) must be at least 1."""


class NonPositiveQ(LatfunError):
    """Quantization-noise variances must be strictly positive."""


class QOutOfRange(LatfunError):
    """q1 outside the open interval admitted by the codec construction."""


class OrthogonalScaling(LatfunError):
    """Scaling direction is orthogonal to the target function under the source covariance."""


class DegenerateSideInfo(LatfunError):
    """Side information determines the target function exactly; region is empty."""
