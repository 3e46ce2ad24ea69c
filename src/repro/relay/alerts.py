"""Alert routing: ship health violations through the secure relay.

``repro health`` evaluating an SLO violation is only useful if someone
hears about it — and the device's one trustworthy channel to the outside
world is the TA's relay (TLS with a pinned key, retries with backoff, a
sealed store-and-forward queue for outages).  So alerts take that exact
path: :func:`route_health_alert` hands the health report to the
audio-filter TA's ``CMD_ALERT`` command, which sends it as an AVS
``System.Alert`` event and, if the cloud is unreachable, seals it into
the same queue as undelivered decisions (tagged ``kind="alert"``) for
the next drain.

Alerts carry SLO verdicts and watchdog stalls only.  No audio, no
transcripts, no trace ids and no spans: the flight-recorder dump and
the offending trace stay in the local health report (stdout and the
``--dump`` file), because span events carry per-utterance facts such as
the ``sensitive`` flag and trace ids whose gaps mark withheld
utterances.  Routing the alert through normal-world shared memory into
the TA therefore leaks nothing the cloud may not see.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.core.ta_filter import CMD_ALERT
from repro.errors import TeeError
from repro.optee.client import TeeClient
from repro.optee.params import MemRef, Params

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.platform import IotPlatform
    from repro.obs.health import HealthReport
    from repro.optee.uuid import TaUuid


def build_alert_doc(
    report: "HealthReport", device_id: str = "device-0"
) -> dict[str, Any]:
    """The JSON alert document for one health report: its verdicts."""
    return {
        "kind": "health_alert",
        "device": device_id,
        "ok": report.ok,
        "rules": [e.to_doc() for e in report.evaluations],
        "stalled": [a.to_doc() for a in report.stalled],
    }


def route_health_alert(
    platform: "IotPlatform",
    ta_uuid: "TaUuid",
    report: "HealthReport",
    device_id: str = "device-0",
) -> dict[str, Any]:
    """Deliver a health report through the TA's relay path.

    Opens a fresh client session to the (single-instance) audio-filter
    TA — reaping a panicked instance first, since an alert most often
    fires precisely when the TA has been crashing — writes the alert doc
    into shared memory, and invokes ``CMD_ALERT``.  Returns the TA's
    outcome dict (``status`` of ``"sent"`` or ``"queued"``), or
    ``{"status": "failed", ...}`` if even a restarted TA cannot come up.
    """
    payload = json.dumps(
        build_alert_doc(report, device_id), sort_keys=True
    ).encode()
    platform.tee.reap_panicked(ta_uuid)
    client = TeeClient(platform.machine)
    try:
        session = client.open_session(ta_uuid)
        try:
            shm = client.allocate_shared_memory(len(payload))
            shm.write(payload)
            result = session.invoke(
                CMD_ALERT, Params.of(MemRef(shm, 0, len(payload)))
            )
        finally:
            try:
                session.close()
            except TeeError:
                pass
    except TeeError as exc:
        platform.machine.obs.tracer.emit(
            "relay.alerts", "alert_failed", error=type(exc).__name__
        )
        return {"status": "failed", "error": type(exc).__name__}
    finally:
        client.close()
    return dict(result)
