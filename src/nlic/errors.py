"""Exception taxonomy shared across the codec.

The CLI maps these onto exit codes: usage problems exit 1, data problems
exit 2, integrity problems exit 3.
"""


class NlicError(Exception):
    """Base class for all codec errors."""


class ContractViolation(NlicError):
    """A caller broke an operation precondition (bad shape, bad symbol, ...)."""


class ConfigError(NlicError):
    """Invalid model or training configuration."""


class DataError(NlicError):
    """Unusable input data: bad image file, undersized training image, ..."""


class PrecisionError(NlicError):
    """Symbol support too large for the fixed-point CDF precision."""


class IntegrityError(NlicError):
    """Bitstream-level corruption (CRC mismatch)."""


class TruncationError(IntegrityError):
    """Coded stream ended before decoding finished."""


class VersionError(IntegrityError):
    """Container format version not supported by this build."""


class HashMismatchError(IntegrityError):
    """Bitstream was produced under a different model config or weights."""


class TrainingDiverged(NlicError):
    """Loss became non-finite; carries the component magnitudes for diagnosis."""

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = dict(components or {})
