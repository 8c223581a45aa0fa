"""Learned lossless image codec: GMM entropy models over an autoencoder
with a hyperprior, causal context models, and a deterministic range coder."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractViolation,
    DataError,
    HashMismatchError,
    IntegrityError,
    NlicError,
    PrecisionError,
    TrainingDiverged,
    TruncationError,
    VersionError,
)

__all__ = [
    "ConfigError",
    "ContractViolation",
    "DataError",
    "HashMismatchError",
    "IntegrityError",
    "NlicError",
    "PrecisionError",
    "TrainingDiverged",
    "TruncationError",
    "VersionError",
    "__version__",
]
