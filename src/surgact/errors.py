"""Exception hierarchy for the surgact package.

Three tiers matter to callers (and to the CLI exit codes):

* ConfigError   -> the request itself is malformed (exit code 1)
* DataError     -> the inputs on disk or in memory are malformed (exit code 2)
* SurgactError  -> anything else that went wrong at runtime (exit code 3)
"""


class SurgactError(Exception):
    """Base class for all package errors."""


class ConfigError(SurgactError):
    """The experiment request or configuration is invalid."""


class DataError(SurgactError):
    """Input data violates a documented contract."""


# --- dataset ---------------------------------------------------------------

class MissingFile(DataError):
    pass


class RaggedRows(DataError):
    pass


class NonNumericCell(DataError):
    pass


class ChannelMismatch(DataError):
    """Channel/column count differs from what the caller declared."""


class OverlappingSegments(DataError):
    pass


class OutOfOrderSegments(DataError):
    pass


class UnknownLabel(DataError):
    pass


class SegmentBeyondTrial(DataError):
    pass


class UnattributedSegment(DataError):
    """A non-Idle motion primitive names no tool side to assign it to."""


class UntiledTranscript(DataError):
    """A per-arm transcript must label every frame exactly once."""


class IndexOutOfRange(DataError):
    pass


class DuplicateColumn(DataError):
    pass


class MissingTranscript(DataError):
    pass


class DuplicateTrialKey(DataError):
    pass


# --- network core ----------------------------------------------------------

class TooShort(DataError):
    """Sequence too short for the requested operation."""


class TargetOutOfRange(DataError):
    pass


class AllFramesMasked(DataError):
    pass


class ShapeMismatch(DataError):
    pass


# --- model / training ------------------------------------------------------

class EmptyTranscripts(DataError):
    pass


class InvalidConfig(ConfigError):
    pass


class VocabularyMismatch(DataError):
    pass


class NonFiniteLoss(SurgactError):
    """Training produced a NaN/Inf loss; carries fold/epoch/trial context."""


# --- metrics ---------------------------------------------------------------

class LengthMismatch(DataError):
    pass


class EmptyInput(DataError):
    pass


class NoPositives(DataError):
    """No positive frames for the class; average precision is undefined."""


class NoDefinedClasses(DataError):
    pass


# --- cross-validation planning ---------------------------------------------

class UnknownCombo(ConfigError):
    pass


class EmptySelection(ConfigError):
    pass


class TaskOverlap(ConfigError):
    pass


class UnknownTask(ConfigError):
    pass


class MissingTask(ConfigError):
    pass


class CrossDatasetGestures(ConfigError):
    """Gesture-level transfer is only defined within one source dataset."""


# --- runner ----------------------------------------------------------------

class IoFailure(SurgactError):
    pass


class FoldFailure(SurgactError):
    """A cross-validation fold failed; message carries the fold name."""
