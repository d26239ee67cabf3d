"""Exception hierarchy for the ABNN2 reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  The subclasses mirror
the major subsystems: protocol-level failures, cryptographic misuse,
configuration mistakes, and network/channel problems.

:func:`load_errors` is the one contract every file loader (model bundle,
client meta, bank bundle, trace) keeps: a malformed file raises one
:class:`ConfigError` naming its path.
"""

from __future__ import annotations

import contextlib
import os
import zipfile


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


@contextlib.contextmanager
def load_errors(path, what: str, kind: str):
    """Turn whatever a malformed ``what`` file at ``path`` raises into one
    :class:`ConfigError` naming the path; ``kind`` is what it should be."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{what} {os.fspath(path)}: {exc}") from exc
    except (
        OSError, ValueError, KeyError, TypeError, AttributeError,
        zipfile.BadZipFile, ProtocolError,
    ) as exc:
        raise ConfigError(
            f"{what} {os.fspath(path)} is not a readable {kind} "
            f"({type(exc).__name__}: {exc})"
        ) from exc
