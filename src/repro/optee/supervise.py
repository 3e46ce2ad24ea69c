"""TA supervision: detect panics, restart, resume from checkpoints.

A panicked TA is terminal in stock OP-TEE — every live session dies and
each further invocation raises :class:`~repro.errors.TeeTargetDead`.  An
always-on voice device cannot afford that, so this module adds the piece
a real deployment runs in its management daemon: a :class:`TaSupervisor`
that owns the client session, watches invocations for ``TeeTargetDead``,
reaps the dead instance (:meth:`~repro.optee.os.OpTeeOs.reap_panicked`
releases the heap the panicked TA can no longer free), and re-opens the
session with capped exponential backoff — which re-instantiates the TA,
whose ``on_create`` restores its state from sealed checkpoints.

Two failure budgets nest here:

* **per restart** — :attr:`SupervisorPolicy.max_restart_attempts` opens
  with backoff (a restart attempt can itself be hit by injected faults);
* **per invocation** — :attr:`SupervisorPolicy.max_invoke_attempts`
  process attempts for one utterance, each preceded by recovery if the
  TA is down.

When both are exhausted :meth:`TaSupervisor.invoke` returns ``None`` —
the *fail-closed degraded* signal: the pipeline suppresses the utterance
as sensitive rather than ever forwarding anything unfiltered.

Determinism: backoff jitter comes from a dedicated RNG fork that is only
drawn when a restart actually backs off, so a run with zero injected
faults consumes no randomness here and stays byte-identical to an
unsupervised run of the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import TeeError, TeeOutOfMemory, TeeTargetDead

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Callable

    from repro.optee.client import ClientSession, TeeClient
    from repro.optee.os import OpTeeOs
    from repro.optee.params import Params
    from repro.optee.uuid import TaUuid
    from repro.sim.rng import SimRng


@dataclass(frozen=True)
class SupervisorPolicy:
    """Restart/backoff budgets for one supervised TA.

    ``checkpoint_every`` is forwarded to the TA factory: the TA seals a
    checkpoint every N committed decisions; the supervisor itself only
    needs it to size the dialog-cursor safety margin on restore.
    """

    max_restart_attempts: int = 5
    max_invoke_attempts: int = 3
    backoff_base_cycles: int = 100_000
    backoff_multiplier: float = 2.0
    backoff_cap_cycles: int = 1_600_000
    jitter_fraction: float = 0.25
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if self.max_restart_attempts < 1:
            raise ValueError("max_restart_attempts must be at least 1")
        if self.max_invoke_attempts < 1:
            raise ValueError("max_invoke_attempts must be at least 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")

    def backoff_cycles(self, attempt: int, rng: "SimRng") -> int:
        """Cycles to wait before restart attempt ``attempt`` (1-based)."""
        base = min(
            self.backoff_cap_cycles,
            self.backoff_base_cycles * self.backoff_multiplier ** (attempt - 1),
        )
        return int(base * (1.0 + self.jitter_fraction * rng.random()))


class TaSupervisor:
    """Owns one TA session and keeps it alive across panics.

    The supervisor is normal-world management code: it holds no secrets
    and sees no data — it only reopens sessions.  All state *restoration*
    happens inside the TEE (the TA's own checkpoint restore), so
    supervision adds nothing to the attack surface.
    """

    def __init__(
        self,
        tee: "OpTeeOs",
        client: "TeeClient",
        ta_uuid: "TaUuid",
        policy: SupervisorPolicy | None = None,
        rng: "SimRng | None" = None,
    ):
        self._tee = tee
        self._client = client
        self._uuid = ta_uuid
        self.policy = policy or SupervisorPolicy()
        self._rng = rng.fork("backoff") if rng is not None else None
        self.session: "ClientSession | None" = None
        self._dead = True
        self._death_cycle: int | None = None
        self.restarts = 0
        self.restart_failures = 0
        self.panics_seen = 0
        self.transient_errors = 0
        self.degraded_invokes = 0

    @property
    def _machine(self):
        return self._tee.machine

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> "ClientSession":
        """Open the initial session (raises on failure, like an app boot)."""
        self.session = self._client.open_session(self._uuid)
        self._dead = False
        return self.session

    def close(self) -> None:
        """Close the session if the TA is still alive."""
        if self.session is not None and not self._dead:
            try:
                self.session.close()
            except TeeTargetDead:
                self._dead = True

    # -- supervised invocation ---------------------------------------------

    def invoke(
        self,
        cmd: int,
        params: "Params | None" = None,
        reprime: "Callable[[], None] | None" = None,
    ) -> Any:
        """Invoke ``cmd`` with panic recovery; ``None`` = degraded.

        ``reprime`` re-establishes client-side preconditions before every
        attempt (e.g. re-swapping the mic source so a restarted capture
        reads this utterance's PCM, not leftovers).  Returns the TA's
        result, or ``None`` once every restart and invoke budget is
        spent — the caller must then fail closed.
        """
        for _ in range(self.policy.max_invoke_attempts):
            if self._dead and not self._recover():
                break
            if reprime is not None:
                reprime()
            assert self.session is not None
            try:
                return self.session.invoke(cmd, params)
            except TeeTargetDead:
                self._note_death()
            except TeeOutOfMemory:
                # Transient pressure: the TA survived, retry on the same
                # session (the next attempt re-primes and re-draws).
                self.transient_errors += 1
                self._machine.obs.metrics.inc("tee.transient_errors")
        self.degraded_invokes += 1
        return None

    # -- internals ----------------------------------------------------------

    def _note_death(self) -> None:
        self._dead = True
        self.panics_seen += 1
        self._death_cycle = self._machine.clock.now
        self._machine.obs.tracer.emit(
            "optee.supervisor", "ta_dead",
            uuid=str(self._uuid), panics=self.panics_seen,
        )

    def _recover(self) -> bool:
        """Reap + reopen with capped exponential backoff.

        Measures detection→recovered into ``tee.recovery_cycles`` and
        brackets the whole thing in a ``ta_restart`` span so the flight
        recorder captures what recovery actually did.
        """
        machine = self._machine
        start = (
            self._death_cycle
            if self._death_cycle is not None
            else machine.clock.now
        )
        with machine.obs.span("ta_restart", category="recovery",
                              panics=self.panics_seen):
            for attempt in range(1, self.policy.max_restart_attempts + 1):
                machine.obs.metrics.inc("tee.restart_attempts")
                if attempt > 1 and self._rng is not None:
                    delay = self.policy.backoff_cycles(attempt - 1, self._rng)
                    with machine.obs.span("restart_backoff",
                                          category="recovery",
                                          attempt=attempt):
                        machine.cpu.execute(delay)
                self._tee.reap_panicked(self._uuid)
                try:
                    self.session = self._client.open_session(self._uuid)
                except TeeError as exc:
                    # The restart itself was hit (injected panic in
                    # on_create, heap exhaustion, corrupt checkpoint
                    # cascade...) — back off and try again.
                    self.restart_failures += 1
                    machine.obs.tracer.emit(
                        "optee.supervisor", "restart_failed",
                        attempt=attempt, error=type(exc).__name__,
                    )
                    continue
                self._dead = False
                self.restarts += 1
                machine.obs.metrics.inc("tee.restarts")
                machine.obs.metrics.observe(
                    "tee.recovery_cycles", machine.clock.now - start
                )
                machine.obs.tracer.emit(
                    "optee.supervisor", "ta_restarted",
                    attempt=attempt, recovery_cycles=machine.clock.now - start,
                )
                return True
        return False

    def summary(self) -> dict[str, int]:
        """Supervision counters for reports and tests."""
        return {
            "restarts": self.restarts,
            "restart_failures": self.restart_failures,
            "panics_seen": self.panics_seen,
            "transient_errors": self.transient_errors,
            "degraded_invokes": self.degraded_invokes,
        }
