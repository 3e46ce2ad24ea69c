"""The authoritative secure/normal world partition of the codebase.

The paper's security argument is a *partition*: raw peripheral data lives
only in the secure world (driver → PTA → TA → filter) and crosses to the
untrusted normal world solely through the relay, after filtering.  This
module declares, per module, which side of that line the code stands on —
the ground truth the world-boundary rules (W001/W002/O001) check against.

Worlds
------
``SECURE``
    Code that executes inside the TEE: the OP-TEE OS/TA/PTA framework,
    secure storage and TA signing, the in-enclave filter stack
    (``core.ta_filter``/``pta_audio``/``filter``/``wakeword``), the relay
    module and its sealed queue, the ported drivers, and everything under
    ``repro.ml`` — the in-TEE model code must remain an auditable closed
    set (Offline Model Guard's point), so it is held to secure-world
    import discipline even though training also runs offline.
``NORMAL``
    The untrusted side: the REE kernel, the cloud service, the client
    applications/orchestration (``core.pipeline``/``platform``/
    ``baseline``), provisioning, CLI, and offline tooling (``tcb``,
    ``analysis``, the heavyweight ``obs`` harnesses).
``BOUNDARY``
    Marshalling that exists in both worlds by construction: TEE client
    API, params, sessions, supplicant RPC, TA supervision.
``SHARED``
    World-agnostic substrate both sides may link: errors, the simulated
    hardware (``tz``/``peripherals``), sim clock/rng/faults, crypto
    primitives, the energy model, and the observability *primitives*
    (span/metrics/export) — but not the obs orchestration harnesses,
    which drive whole pipelines and are normal-world tooling.

``core.camera_pipeline`` is deliberately NORMAL: it is the camera guard's
client app with its TA class colocated in the same module (accepted debt,
documented in DESIGN.md); the analyzer treats the module by its dominant
role.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping


class World(enum.Enum):
    """Which side of the TrustZone boundary a module belongs to."""

    SECURE = "secure"
    NORMAL = "normal"
    BOUNDARY = "boundary"
    SHARED = "shared"


@dataclass(frozen=True)
class TaintSpec:
    """Configuration of the W002 taint pass (sources/sinks/declassifiers).

    All call patterns are dotted suffixes matched on component boundaries
    (see :func:`repro.analysis.modgraph.dotted_suffix_match`).
    """

    # Calls producing plaintext peripheral data.
    source_calls: tuple[str, ...] = (
        "read_chunk",          # secure driver FIFO read
        "capture_frame",       # camera frame capture
        "capture_frames",
    )
    # invoke_pta calls whose arguments reference one of these names are
    # sources too (the PTA capture-buffer read, single-frame and block
    # camera captures).
    source_pta_commands: tuple[str, ...] = (
        "CMD_READ",
        "PTA_CMD_CAPTURE",
        "PTA_CMD_CAPTURE_BLOCK",
    )
    # Calls through which data escapes the secure world.
    sink_calls: tuple[str, ...] = (
        "rpc",                 # supplicant RPC — payload transits NS memory
        "write_memref",        # client-provided shared memory
        "log", "emit",         # trace events, exported to normal world
        "span",
        "observe", "inc",      # metrics registry, exported
    )
    # Approved declassification points: the result is considered clean
    # and tainted arguments may legitimately flow in.
    declassifiers: tuple[str, ...] = (
        "filter.apply",        # the sensitive-content decision itself
        "storage.put",         # sealed-storage write
        "enqueue",             # sealed store-and-forward queue
        "send_payload",        # relay send of *filtered* payloads
    )
    # Builtins whose result carries no payload information.
    clean_builtins: tuple[str, ...] = (
        "len", "bool", "isinstance", "hasattr", "type", "id", "repr",
    )
    # Mutating methods that taint their receiver when fed tainted data.
    mutators: tuple[str, ...] = ("append", "extend", "insert", "add", "update")
    # Methods of these classes return values to the *normal-world* client;
    # returning tainted data from them is a sink.  (PTA entry points are
    # invoked from the secure world and are not listed.)
    entry_bases: tuple[str, ...] = ("TrustedApplication",)
    entry_methods: tuple[str, ...] = (
        "on_invoke", "on_open_session", "on_close_session",
    )


@dataclass(frozen=True)
class WorldMap:
    """World assignments plus per-rule configuration for one package.

    ``exact`` maps full module names; ``prefixes`` maps dotted prefixes
    (most specific wins).  A module matching neither is *unmapped* and
    raises rule W000 — growing the tree forces growing the map.
    """

    package: str
    exact: Mapping[str, World] = field(default_factory=dict)
    prefixes: Mapping[str, World] = field(default_factory=dict)
    # O001: these prefixes may only touch the obs package via the
    # machine's facade handle, never by runtime import.
    obs_package: str = "repro.obs"
    obs_restricted: tuple[str, ...] = ("repro.core", "repro.optee", "repro.relay")
    # D001: ambient RNG/clock calls are allowed only under these prefixes.
    rng_exempt: tuple[str, ...] = ("repro.sim",)
    taint: TaintSpec = field(default_factory=TaintSpec)
    # Dead-TCB: calls to these methods dispatch dynamically into every
    # PTA entry point (classes deriving from the listed bases).
    pta_dispatch_calls: tuple[str, ...] = ("invoke_pta",)
    pta_bases: tuple[str, ...] = ("PseudoTa",)

    def world_of(self, module: str) -> World | None:
        """Resolve a module to a world; None if unmapped."""
        if module in self.exact:
            return self.exact[module]
        best: tuple[int, World] | None = None
        for prefix, world in self.prefixes.items():
            if module == prefix or module.startswith(prefix + "."):
                if best is None or len(prefix) > best[0]:
                    best = (len(prefix), world)
        return best[1] if best else None


def load_world_map(path: Path) -> WorldMap:
    """Load a world map from JSON (used for fixture packages and CI).

    The document carries ``package`` plus ``exact``/``prefixes`` maps of
    module name → world value (``"secure"``, ``"normal"``, ``"boundary"``,
    ``"shared"``); ``obs_package``/``obs_restricted``/``rng_exempt`` are
    optional overrides.  The taint spec (sources/sinks/declassifiers)
    stays at its defaults — the fixtures deliberately exercise the same
    spec the real package is held to.
    """
    doc = json.loads(Path(path).read_text())
    return WorldMap(
        package=doc["package"],
        exact={m: World(w) for m, w in doc.get("exact", {}).items()},
        prefixes={m: World(w) for m, w in doc.get("prefixes", {}).items()},
        obs_package=doc.get("obs_package", "repro.obs"),
        obs_restricted=tuple(doc.get("obs_restricted", ())),
        rng_exempt=tuple(doc.get("rng_exempt", ())),
    )


DEFAULT_WORLD_MAP = WorldMap(
    package="repro",
    exact={
        # The root package __init__ wires the demo together: normal world.
        "repro": World.NORMAL,
    },
    prefixes={
        # -- shared substrate --------------------------------------------------
        "repro.errors": World.SHARED,
        "repro.sim": World.SHARED,
        "repro.crypto": World.SHARED,
        "repro.energy": World.SHARED,
        "repro.tz": World.SHARED,
        "repro.peripherals": World.SHARED,
        "repro.obs": World.SHARED,
        # obs harnesses that drive whole pipelines are normal-world tools.
        "repro.obs.fleet": World.NORMAL,
        "repro.obs.profile": World.NORMAL,
        # -- secure world ------------------------------------------------------
        "repro.ml": World.SECURE,
        "repro.drivers": World.SECURE,
        "repro.optee": World.BOUNDARY,       # client API / params / sessions…
        "repro.optee.os": World.SECURE,
        "repro.optee.ta": World.SECURE,
        "repro.optee.pta": World.SECURE,
        "repro.optee.heap": World.SECURE,
        "repro.optee.storage": World.SECURE,
        "repro.optee.signing": World.SECURE,
        "repro.relay": World.SECURE,
        "repro.relay.avs": World.SHARED,     # wire protocol, both sides speak it
        "repro.relay.tls": World.SHARED,     # used by TA relay and cloud server
        "repro.relay.alerts": World.NORMAL,  # client-side alert routing helper
        "repro.core": World.NORMAL,
        "repro.core.ta_filter": World.SECURE,
        "repro.core.pta_audio": World.SECURE,
        "repro.core.filter": World.SECURE,
        "repro.core.model_store": World.SECURE,
        "repro.core.wakeword": World.SECURE,
        # -- normal world / tooling -------------------------------------------
        "repro.kernel": World.NORMAL,
        "repro.cloud": World.NORMAL,
        "repro.provision": World.NORMAL,
        "repro.cli": World.NORMAL,
        "repro.tcb": World.NORMAL,
        "repro.analysis": World.NORMAL,
    },
)
