"""Secure storage (REE-FS model).

OP-TEE's default secure storage keeps objects on the *normal-world*
filesystem, sealed under a key derived from the device's hardware unique
key, so the untrusted OS holds only ciphertext.  We reproduce that shape:
:meth:`SecureStorage.put` seals an object and ships it to the supplicant's
filesystem via RPC; :meth:`get` fetches and unseals it, failing loudly if
the normal world tampered with the blob.

The pipeline uses this to persist the classifier's model weights, so a
device reboot does not require re-provisioning — and so the tests can show
that at-rest model data is unreadable to the normal world.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.crypto.aead import StreamAead
from repro.crypto.kdf import derive_key
from repro.errors import TeeItemNotFound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optee.os import OpTeeOs

# The device's hardware unique key.  On silicon this is fused and readable
# only by the secure world; in the simulator it is a constant the normal
# world has no code path to.
_HARDWARE_UNIQUE_KEY = bytes.fromhex(
    "a7f3b2c1d4e5f60718293a4b5c6d7e8f9aabbccddeeff00112233445566778899"[:64]
)
_STORE_PREFIX = "tee/objects/"


class SecureStorage:
    """Sealed object store for TAs, backed by the untrusted filesystem."""

    def __init__(self, os: "OpTeeOs"):
        self._os = weakref.proxy(os)  # the OS owns its storage
        self._aead = StreamAead(derive_key(_HARDWARE_UNIQUE_KEY, "ree-fs-sealing"))
        self._nonce_counter = 0
        # Secure-side shadow of the object index (REE-FS keeps a sealed
        # "dirfile" for the same reason): TAs can enumerate their objects
        # without paying an RPC round trip or trusting the normal world's
        # answer.  The blobs themselves stay authoritative in the
        # supplicant fs — tampering there still fails loudly on access.
        self._index: set[str] = set()

    def _path(self, name: str) -> str:
        return _STORE_PREFIX + name

    def _next_nonce(self) -> bytes:
        self._nonce_counter += 1
        return self._nonce_counter.to_bytes(12, "little")

    def put(self, name: str, data: bytes) -> None:
        """Seal ``data`` and persist it under ``name``.

        The bytes that reach the supplicant are nonce-prefixed ciphertext;
        the object name is bound as associated data so blobs cannot be
        swapped between names undetected.
        """
        nonce = self._next_nonce()
        sealed = nonce + self._aead.seal(nonce, data, aad=name.encode())
        self._charge(len(sealed))
        self._os.supplicant_rpc("fs", "write", self._path(name), sealed)
        self._index.add(name)

    def get(self, name: str) -> bytes:
        """Fetch and unseal the object ``name``.

        Raises :class:`TeeItemNotFound` if absent and
        :class:`~repro.errors.AuthenticationFailure` if the normal world
        modified the blob.
        """
        if not self._os.supplicant_rpc("fs", "exists", self._path(name)):
            raise TeeItemNotFound(f"no secure object {name!r}")
        sealed = self._os.supplicant_rpc("fs", "read", self._path(name))
        # Injected ``storage`` faults corrupt only this read's copy —
        # transient normal-world fs flakiness, not tampering at rest — so
        # the AEAD rejects it now but a retry can still succeed.
        faults = self._os.machine.secure_faults
        if faults is not None and faults.fires("storage"):
            sealed = faults.corrupt(sealed)
        self._charge(len(sealed))
        nonce, body = sealed[:12], sealed[12:]
        return self._aead.open(nonce, body, aad=name.encode())

    def delete(self, name: str) -> None:
        """Remove the object (no error if absent)."""
        self._os.supplicant_rpc("fs", "delete", self._path(name))
        self._index.discard(name)

    def exists(self, name: str) -> bool:
        """True if an object is persisted under ``name``."""
        return bool(self._os.supplicant_rpc("fs", "exists", self._path(name)))

    def names(self) -> list[str]:
        """Object names from the secure-side index (no supplicant RPC)."""
        return sorted(self._index)

    def list(self) -> list[str]:
        """Names of all persisted objects."""
        paths = self._os.supplicant_rpc("fs", "list", _STORE_PREFIX)
        return [p[len(_STORE_PREFIX):] for p in paths]

    def _charge(self, nbytes: int) -> None:
        costs = self._os.machine.costs
        self._os.machine.cpu.execute(int(nbytes * costs.crypto_cycles_per_byte))
