"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: validation problems exit with 2,
anything else raised from a pipeline stage exits with 3.
"""


class EmgleamError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(EmgleamError, ValueError):
    """Bad input data or parameters (dimension mismatch, unknown symbol, ...)."""


class NoSyncError(EmgleamError):
    """Frame-rate search found no periodic structure above the noise floor."""


class DivergenceError(EmgleamError):
    """Training produced a non-finite loss."""


class StageError(EmgleamError):
    """A pipeline stage failed; carries the stage name for error reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
