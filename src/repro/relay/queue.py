"""Sealed store-and-forward queue for undeliverable relay payloads.

When the cloud stays unreachable after every retry, the TA must not lose
the decision — and must not weaken it either: the payload has already been
filtered, but it is still device data, so it may only leave the TEE sealed.
The queue therefore rides :class:`~repro.optee.storage.SecureStorage`
(REE-FS model): each entry is AEAD-sealed under the hardware unique key
before the supplicant's filesystem ever sees it, and the entry name is
bound as associated data so the normal world cannot reorder blobs
undetected.

Entries are named ``relayq/<seq>`` with a zero-padded sequence number, so
lexicographic order is arrival order and a drain preserves FIFO semantics.
The queue survives TA teardown (the backing storage is persistent) and is
restored on the next instantiation; draining happens opportunistically
after the next successful send.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import CryptoError, RelayError, RelayQueueFullError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optee.storage import SecureStorage

_QUEUE_PREFIX = "relayq/"

#: Default backlog bound.  Sized for the longest outage the store should
#: absorb, not for "never reject": an unbounded queue turns a long cloud
#: outage into unbounded sealed-storage growth.
DEFAULT_MAX_DEPTH = 64


class StoreForwardQueue:
    """FIFO of sealed, undelivered payloads in secure storage.

    The entry names are cached in memory so the common case — an empty
    queue consulted after every successful send — costs no supplicant RPC;
    storage is only touched when entries are actually added, read or
    removed.

    The queue is *bounded* at ``max_depth`` entries and fails **closed**:
    a full queue refuses the new enqueue
    (:class:`~repro.errors.RelayQueueFullError`; the TA counts it as
    ``relay.queue.rejected``) instead of growing without limit or silently
    evicting an older entry.  Refusing the newest is the deterministic
    choice — every entry already in the queue was committed and accounted
    before the new one existed, so eviction would retroactively lose a
    decision the device already reported as safe.
    """

    def __init__(
        self, storage: "SecureStorage", max_depth: int = DEFAULT_MAX_DEPTH
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self._storage = storage
        self.max_depth = max_depth
        # Restore any entries a previous TA instance left behind, from the
        # storage's secure-side index — no supplicant RPC, so an (always)
        # empty queue costs the clean path nothing.
        self._names: list[str] = sorted(
            name for name in storage.names() if name.startswith(_QUEUE_PREFIX)
        )
        self._seq = (
            int(self._names[-1][len(_QUEUE_PREFIX):]) + 1 if self._names else 0
        )

    def __len__(self) -> int:
        return len(self._names)

    @property
    def names(self) -> list[str]:
        """Entry names, oldest first (copy)."""
        return list(self._names)

    def enqueue(self, payload: str, meta: dict[str, Any] | None = None) -> str:
        """Seal ``payload`` into the queue; returns the entry name.

        ``meta`` is stored alongside and handed back verbatim on drain —
        the dialog id, prior attempt count and (for trace runs) the
        utterance's ``trace_id`` all ride here, so a drained re-send
        keeps the original event's identity.  The key ``"payload"`` is
        reserved for the payload itself.
        """
        if meta and "payload" in meta:
            raise ValueError('meta key "payload" is reserved')
        if len(self._names) >= self.max_depth:
            raise RelayQueueFullError(depth=len(self._names))
        name = f"{_QUEUE_PREFIX}{self._seq:08d}"
        self._seq += 1
        entry = {"payload": payload, **(meta or {})}
        self._storage.put(name, json.dumps(entry).encode())
        self._names.append(name)
        return name

    def drain(self, send: Callable[[str, dict[str, Any]], Any]) -> int:
        """Deliver queued payloads oldest-first through ``send(payload, meta)``.

        ``meta`` is the entry's stored metadata (e.g. the original dialog
        id and prior attempt count) so re-delivery stays idempotent at the
        receiver.  Stops at the first payload that still cannot be
        delivered (the network may have failed again mid-drain);
        everything already delivered is removed from storage.  Returns the
        number delivered.
        """
        delivered = 0
        while self._names:
            name = self._names[0]
            try:
                entry = json.loads(self._storage.get(name).decode())
            except CryptoError:
                # Unsealing failed — a transiently corrupted read (chaos
                # injection / fs flakiness).  Keep the entry and stop the
                # drain: the payload is still at rest and the next drain
                # re-reads it.  Persistent tampering leaves the entry
                # pinned, which the queue-depth SLO surfaces.
                break
            payload = entry.pop("payload")
            try:
                send(payload, entry)
            except RelayError:
                break
            self._storage.delete(name)
            self._names.pop(0)
            delivered += 1
        return delivered
