"""Exception types shared across the cipher, attack and recovery layers."""


class McsError(Exception):
    """Base class for all library errors."""


class NonDivisibleLength(McsError):
    """Input length is not a multiple of the required block size."""


class CiphertextTooLong(McsError):
    """Ciphertext covers more blocks than the equivalent key provides."""


class AttackFailed(McsError):
    """A stage of the differential attack failed; carries the stage tag."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


class DomainError(McsError):
    """Parameters outside their legal domain."""
