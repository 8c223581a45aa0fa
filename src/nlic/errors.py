"""Exception taxonomy shared across the codec.

No CLI exists yet. The planned one maps these onto exit codes: usage
problems exit 1, data problems exit 2, integrity problems exit 3.
"""


class NlicError(Exception):
    """Base class for all codec errors."""


class ContractViolation(NlicError):
    """A caller broke an operation precondition (bad shape, bad symbol, ...)."""


class ConfigError(NlicError):
    """Invalid model or training configuration."""


class DataError(NlicError):
    """Unusable input data: bad image file, undersized training image, ..."""


class IntegrityError(NlicError):
    """A corrupt container, coded stream or weights file: bad magic, CRC
    mismatch, bytes past its declared end, ..."""


class TruncationError(IntegrityError):
    """A container, coded stream or weights file ended too early."""


class VersionError(IntegrityError):
    """Container format version not supported by this build."""


class HashMismatchError(IntegrityError):
    """Bitstream was produced under a different model config or weights."""


class TrainingDiverged(NlicError):
    """Loss became non-finite; carries the component magnitudes for diagnosis."""

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = dict(components or {})
