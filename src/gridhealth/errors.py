"""Exception types shared across the pipeline.

Every operation raises one of these (or a plain ValueError for violated
preconditions that have no named error in its contract), so callers can
catch `GridHealthError` at the boundary and surface the message verbatim.
"""


class GridHealthError(Exception):
    """Base class for all pipeline errors."""


# --- ingest ---------------------------------------------------------------

class MalformedRow(GridHealthError):
    """A CSV row has the wrong arity or an unparseable value."""


class UnmappedLabel(GridHealthError):
    """A raw column label is absent from the fuel category map."""


class NonMonotonicTimestamp(GridHealthError):
    """Timestamps are not strictly increasing in 1-hour steps."""


class UnimputableSeries(GridHealthError):
    """Some (fuel, hour-of-period) position has no observed value at all."""


class ZeroRowSum(GridHealthError):
    """A record's shares sum to zero and cannot be normalized."""


class NegativeShare(GridHealthError):
    """A share is negative where nonnegativity is required."""


class NoPlantForFuel(GridHealthError):
    """A fuel has positive share but no plant with positive capacity basis."""


class DatasetGap(GridHealthError):
    """A dataset given to train, sweep or predict has a missing entry `ingest` would fill."""


# --- emissions / dispersion / health --------------------------------------

class DimensionMismatch(GridHealthError):
    """Vector/matrix dimensions or pollutant orderings do not agree."""


class UnknownPlant(GridHealthError):
    """An allocation references a plant id that is not in the registry."""


class InvalidParams(GridHealthError):
    """Plume, synthesis or health-chain parameters violate their invariants."""


class EmptyTrainingSet(GridHealthError):
    """A fit was requested with no training pairs."""


class UnknownReceptor(GridHealthError):
    """A cost entry references a receptor id with no profile."""


class MissingValuation(GridHealthError):
    """An endpoint has cases but no dollars-per-case valuation."""


# --- forecaster -----------------------------------------------------------

class NonFiniteValue(GridHealthError):
    """A NaN or infinity appeared where a finite value is required."""


class GraphReleased(GridHealthError):
    """backward() reached a graph node an earlier backward() already freed."""


class ShortHistory(GridHealthError):
    """Forecast input window is shorter than the model's context length."""


class ShapeMismatch(GridHealthError):
    """Tensor shapes passed to a loss or model do not agree."""


class BetaOutOfRange(GridHealthError):
    """Composite-loss beta outside (0, 0.998]."""


class InsufficientData(GridHealthError):
    """Dataset too short to carve even one training window."""


class DivergedLoss(GridHealthError):
    """Training loss became non-finite; the run is aborted."""


class ZeroNormalizer(GridHealthError):
    """NMAE normalizer (mean absolute truth) is zero."""


class CorruptCheckpoint(GridHealthError, ValueError):
    """A checkpoint file is unreadable or does not match the networks it declares."""


# --- scheduler ------------------------------------------------------------

class InfeasibleSession(GridHealthError):
    """A charging session cannot meet its demand inside its window."""


class WindowTooLarge(GridHealthError):
    """Brute-force enumeration requested beyond the window bound."""


class SignalCoverageGap(GridHealthError):
    """A session's window is not fully covered by the health signal."""


class DegenerateDistribution(GridHealthError):
    """A sampling distribution has no mass or is otherwise unusable."""
