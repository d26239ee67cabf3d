"""Exception hierarchy for the ABNN2 reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  The subclasses mirror
the major subsystems: protocol-level failures, cryptographic misuse,
configuration mistakes, and network/channel problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """A parameter (ring width, fragment scheme, batch size, ...) is invalid."""


class ProtocolError(ReproError, RuntimeError):
    """A two-party protocol received malformed or out-of-order messages."""


class CryptoError(ReproError, RuntimeError):
    """A cryptographic primitive was misused or failed an internal check."""


class ChannelError(ReproError, RuntimeError):
    """The communication channel was closed or used incorrectly."""


class HandshakeError(ChannelError):
    """The transport-level session handshake failed (version, party, or
    session-id mismatch) — the peers must not exchange protocol traffic."""


class QuantizationError(ReproError, ValueError):
    """A value or model cannot be represented in the requested quantized form."""

