"""Exception hierarchy for the repro package.

Every subsystem raises exceptions rooted at :class:`ReproError` so callers
can catch domain failures without swallowing programming errors.  The
hierarchy deliberately mirrors the system decomposition: TrustZone faults,
OP-TEE (GlobalPlatform-style) results, kernel faults, driver faults, ML
errors, and protocol errors each get their own subtree.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


# ---------------------------------------------------------------------------
# TrustZone machine faults
# ---------------------------------------------------------------------------


class TrustZoneError(ReproError):
    """Base class for TrustZone machine faults."""


class SecureAccessViolation(TrustZoneError):
    """A non-secure access targeted a secure-world memory partition.

    On real hardware this is an external abort raised by the TZASC; in the
    simulator it is the primary security signal used by tests and attack
    models to establish that isolation holds.
    """


class InvalidAddressError(TrustZoneError):
    """An access referenced an address outside every mapped region."""


class SmcError(TrustZoneError):
    """A secure monitor call was malformed or used an unknown function id."""


class WorldStateError(TrustZoneError):
    """An operation was attempted from the wrong world or CPU state."""


# ---------------------------------------------------------------------------
# OP-TEE faults
# ---------------------------------------------------------------------------


class TeeError(ReproError):
    """Base class for OP-TEE errors.

    Mirrors the GlobalPlatform ``TEEC_ERROR_*`` constants: each subclass
    carries the numeric ``code`` of the closest GP result code so client
    code can branch on it the way a real OP-TEE client would.
    """

    code = 0xFFFF0000  # TEEC_ERROR_GENERIC

    def __init__(self, message: str = ""):
        super().__init__(message or self.__class__.__name__)


class TeeItemNotFound(TeeError):
    """Requested TA, PTA, session or storage object does not exist."""

    code = 0xFFFF0008  # TEEC_ERROR_ITEM_NOT_FOUND


class TeeAccessDenied(TeeError):
    """Caller lacks the privilege for the requested operation."""

    code = 0xFFFF0001  # TEEC_ERROR_ACCESS_DENIED


class TeeOutOfMemory(TeeError):
    """The secure heap cannot satisfy an allocation request."""

    code = 0xFFFF000C  # TEEC_ERROR_OUT_OF_MEMORY


class TeeBadParameters(TeeError):
    """Parameters passed to a TA/PTA command were malformed."""

    code = 0xFFFF0006  # TEEC_ERROR_BAD_PARAMETERS


class TeeBusy(TeeError):
    """The TEE cannot service the request right now (e.g. single-session TA)."""

    code = 0xFFFF000D  # TEEC_ERROR_BUSY


class TeeCommunicationError(TeeError):
    """RPC between secure world and the supplicant failed."""

    code = 0xFFFF000E  # TEEC_ERROR_COMMUNICATION


class TeeSecurityError(TeeError):
    """A security policy was violated inside the TEE."""

    code = 0xFFFF000F  # TEEC_ERROR_SECURITY


class TeeTargetDead(TeeError):
    """The TA panicked and its sessions are no longer usable."""

    code = 0xFFFF3024  # TEE_ERROR_TARGET_DEAD


# ---------------------------------------------------------------------------
# Kernel / driver faults
# ---------------------------------------------------------------------------


class KernelError(ReproError):
    """Base class for untrusted-kernel faults."""


class DriverError(KernelError):
    """A device driver operation failed."""


class DeviceNotFound(KernelError):
    """No device/driver is registered under the requested name."""


class DeviceStateError(DriverError):
    """Operation invalid in the device's current state (e.g. read before start)."""


class SyscallError(KernelError):
    """A simulated syscall failed; carries an errno-style symbolic name."""

    def __init__(self, errno_name: str, message: str = ""):
        self.errno_name = errno_name
        super().__init__(f"{errno_name}: {message}" if message else errno_name)


# ---------------------------------------------------------------------------
# Peripheral / bus faults
# ---------------------------------------------------------------------------


class PeripheralError(ReproError):
    """Base class for peripheral/bus faults."""


class BusProtocolError(PeripheralError):
    """An I²S (or other bus) framing/protocol rule was violated."""


class FifoUnderrunError(PeripheralError):
    """Consumer outran the producer and the hardware FIFO drained."""


# ---------------------------------------------------------------------------
# ML faults
# ---------------------------------------------------------------------------


class MlError(ReproError):
    """Base class for machine-learning subsystem errors."""


class ShapeError(MlError):
    """Tensor shapes are inconsistent for the requested operation."""


class VocabularyError(MlError):
    """A token is not representable in the tokenizer's vocabulary."""


class NotFittedError(MlError):
    """A model/preprocessor was used before being trained/fitted."""


# ---------------------------------------------------------------------------
# Crypto / protocol faults
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for (simulation-grade) crypto failures."""


class AuthenticationFailure(CryptoError):
    """AEAD tag or handshake MAC verification failed."""


class HandshakeError(CryptoError):
    """The TLS-like handshake could not be completed."""


class RecordError(CryptoError):
    """A TLS-like record was malformed, replayed or out of sequence."""


# ---------------------------------------------------------------------------
# Pipeline faults
# ---------------------------------------------------------------------------


class PolicyError(ReproError):
    """A filtering policy was misconfigured."""


# ---------------------------------------------------------------------------
# Injected (chaos) faults
# ---------------------------------------------------------------------------


class InjectedFault(ReproError):
    """A fault deliberately raised by the secure-world fault injector.

    Deliberately *not* a :class:`TeeError`: GP status codes pass through a
    TA hook unchanged, whereas an injected fault must look like the
    arbitrary crash it models — so it trips OP-TEE's panic path
    (``TeeTargetDead``) exactly as a wild pointer or assert would.
    """


# ---------------------------------------------------------------------------
# Relay faults
# ---------------------------------------------------------------------------


class RelayError(ReproError):
    """Base class for secure-relay failures."""


class RelayDeliveryError(RelayError):
    """Every delivery attempt (including retries) failed.

    Raised secure-side only: the TA catches it and spills the payload into
    the sealed store-and-forward queue, so the error never crosses the TEE
    boundary during normal operation.
    """

    def __init__(self, message: str = "", attempts: int = 0):
        self.attempts = attempts
        super().__init__(message or f"delivery failed after {attempts} attempts")


class RelayExhaustedError(RelayDeliveryError):
    """The retry policy's whole budget was spent on transient faults.

    The typed form of retry exhaustion: carries how many attempts were
    made and how many cycles the backoff spans burned, so callers (and
    alerts) can distinguish "the network flapped once" from "we retried
    for the full budget and still lost".  Subclasses
    :class:`RelayDeliveryError` so every existing spill-to-queue catch
    site keeps working unchanged.
    """

    def __init__(
        self, message: str = "", attempts: int = 0, backoff_cycles: int = 0
    ):
        self.backoff_cycles = backoff_cycles
        super().__init__(
            message
            or (
                f"delivery exhausted after {attempts} attempts"
                f" ({backoff_cycles} backoff cycles)"
            ),
            attempts=attempts,
        )


class RelayThrottledError(RelayDeliveryError):
    """The cloud admitted the connection but refused the event: backpressure.

    Not a transient fault — the server answered, deliberately, with a
    ``Throttled`` verdict and a deterministic ``retry_after_cycles`` hint.
    Server-directed backoff overrides the client's
    :class:`~repro.relay.relay.RetryPolicy`: the relay must not burn its
    retry budget hammering an overloaded ingestion tier.  ``deferred``
    marks the local short-circuit case — the backpressure window from an
    earlier verdict is still open, so no wire traffic was attempted at
    all.  Subclasses :class:`RelayDeliveryError` so the payload still
    lands in the sealed store-and-forward queue at existing catch sites.
    """

    def __init__(
        self,
        message: str = "",
        retry_after_cycles: int = 0,
        attempts: int = 0,
        deferred: bool = False,
    ):
        self.retry_after_cycles = retry_after_cycles
        self.deferred = deferred
        super().__init__(
            message
            or (
                "cloud backpressure window open"
                if deferred
                else f"cloud throttled; retry after {retry_after_cycles} cycles"
            ),
            attempts=attempts,
        )


class RelayQueueFullError(RelayError):
    """The sealed store-and-forward queue is at its bounded depth.

    The queue fails *closed*: the new enqueue is refused (the newest
    payload is shed, with accounting) rather than growing without limit
    through a long outage or silently evicting older committed payloads.
    """

    def __init__(self, message: str = "", depth: int = 0):
        self.depth = depth
        super().__init__(message or f"store-and-forward queue full at {depth}")
