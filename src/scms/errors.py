"""Shared exception types."""


class ScmsError(Exception):
    """Base class for errors raised by this package."""


class ParseError(ScmsError):
    """Malformed binary input; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.reason, self.offset = message, offset


class DecryptionError(ScmsError):
    """Authenticated decryption failed (wrong key or tampered payload)."""


class InvariantViolation(ScmsError):
    """A structural invariant of the system was broken (e.g. a device
    bypassing the location obscurer proxy)."""
