"""Typed errors.

Everything geometric in this package is exact, so failure is never a rounding
artifact: an operation either succeeds or the input sits on the non-generic
locus where the construction is undefined.  Those cases raise a subclass of
``DegeneracyError`` naming the degeneracy.  Interface misuse (wrong dimension,
wrong instance kind for a check) raises the non-degeneracy subclasses.
"""


class PentagramError(Exception):
    """Base class for all errors raised by this package."""


class DegeneracyError(PentagramError):
    """The input lies on a measure-zero locus where the construction degenerates."""


class DegenerateJoin(DegeneracyError):
    """Join of two coincident points requested."""


class DegenerateMeet(DegeneracyError):
    """Meet of two identical lines requested."""


class NonCoplanarDiagonals(DegeneracyError):
    """The two segments span a 3-space, so they cannot intersect."""


class IndeterminateCrossRatio(DegeneracyError):
    """Cross ratio of the form 0/0: too many of the arguments coincide."""


class ZeroDenominator(DegeneracyError):
    """A harmonic-conjugate solve has no determinate solution."""


class UndefinedProjection(DegeneracyError):
    """Vertical projection applied to the vertical direction itself."""


class InfiniteVertex(DegeneracyError):
    """An affine quantity (mean, coordinate) was requested at a point at infinity."""


class NotAxisAligned(DegeneracyError):
    """An axis-aligned instance was required but the data is not axis aligned."""


class ExhaustedSampling(DegeneracyError):
    """A rejection sampler ran out of retry budget."""


class NotAJoint(DegeneracyError):
    """A lifted point sequence is not affinely independent."""


class DegenerateSpan(DegeneracyError):
    """An affine span came out lower-dimensional than the construction requires."""


class NonTransverse(DegeneracyError):
    """Flats met non-transversally where the construction needs transversality."""


class NonOrthogonalNormal(PentagramError):
    """A computed hyperplane normal is not orthogonal to its joint."""


class InconsistentTags(PentagramError):
    """Mated sequences carry labels whose four-way average is not a label."""


class DimensionMismatch(PentagramError):
    """Operands live in projective/affine spaces of different dimensions."""


class VariantMismatch(PentagramError):
    """An instance was passed to machinery for a different map variant."""


class MissingHyperplane(PentagramError):
    """A flat H_{g,k} needs a joint hyperplane at a label the polyjoint does
    not lift, as on a polyjoint of fewer than n - 1 sequences."""


class UsageError(PentagramError):
    """Bad command-line invocation."""
