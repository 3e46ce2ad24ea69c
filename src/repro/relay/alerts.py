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

Alerts carry operational telemetry only — SLO verdicts, watchdog stalls
and the flight-recorder span window.  No audio and no transcripts, so
routing them through normal-world shared memory into the TA leaks
nothing (the payload is heading for the cloud anyway, and it leaves the
device under TLS).
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
    """The JSON alert document for one health report.

    When the report identified an offending trace, the alert carries its
    id so the receiver can correlate the alert with the device-side spans
    of the utterance that tripped the SLO.
    """
    doc = {
        "kind": "health_alert",
        "device": device_id,
        "ok": report.ok,
        "rules": [e.to_doc() for e in report.evaluations],
        "stalled": [a.to_doc() for a in report.stalled],
        "flight_recorder": report.flight_dump or "",
    }
    if report.offending_trace:
        doc["trace_id"] = report.offending_trace
    return doc


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
