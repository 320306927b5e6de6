"""Exception classes for the surgact package: one per CLI exit code, and
the one failure a caller tells apart by type.

* ConfigError   -> the request itself is malformed (exit code 1)
* DataError     -> the inputs on disk or in memory are malformed (exit code 2)
* SurgactError  -> anything else that went wrong at runtime (exit code 3)

NonFiniteLoss is a SurgactError: training produced a non-finite loss or
non-finite parameters. A fold that raises it is recorded as diverged, not
failed. The message says which file, line, fold or setting is at fault.
"""


class SurgactError(Exception):
    """Base class for all package errors."""


class ConfigError(SurgactError):
    """The experiment request or configuration is invalid."""


class DataError(SurgactError):
    """Input data violates a documented contract."""


class NonFiniteLoss(SurgactError):
    """Training produced a NaN/Inf loss; carries fold/epoch/trial context."""
