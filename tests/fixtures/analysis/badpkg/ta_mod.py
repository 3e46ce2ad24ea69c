"""Secure-world TA with taint violations (W002) and clean declassified flows.

``EvilTa.on_invoke`` reads a plaintext capture buffer through the PTA and
(1) ships it over supplicant RPC and (2) returns it to the normal-world
client — both W002.  ``GoodTa`` moves the same data only through approved
declassification points (sealed storage, the filter decision, the relay
send) and must produce no findings.
"""

CMD_READ = 2


class EvilTa(TrustedApplication):  # noqa: F821 - parse-only fixture
    def on_invoke(self, ctx, cmd, params):
        pcm = ctx.invoke_pta(self.pta_uuid, CMD_READ, {"frames": 64})
        ctx.rpc("upload", {"pcm": pcm})  # W002: tainted -> rpc sink
        return {"raw": pcm}              # W002: tainted entry-point return


class GoodTa(TrustedApplication):  # noqa: F821 - parse-only fixture
    def on_invoke(self, ctx, cmd, params):
        pcm = ctx.invoke_pta(self.pta_uuid, CMD_READ, {"frames": 64})
        ctx.storage.put("checkpoint", pcm)          # declassified: sealed
        decision = self.bundle.filter.apply(pcm)    # declassified: filtered
        self.relay.send_payload("transcript", decision)  # declassified: relay
        ctx.log("processed", frames=len(pcm))       # clean: len() only
        return {"ok": True}
