"""The control server: runtime reconfiguration verbs over RPC.

One :class:`ControlServer` per mounted world.  It holds references to
the live objects an administrator may steer — the mount's
:class:`~repro.core.policy.PolicyEpoch`, the key service(s) (or the
whole :class:`~repro.cluster.ReplicaGroup`), the metadata service, any
:class:`~repro.server.frontend.ServiceFrontend` instances and the
:class:`~repro.core.context.TraceCollector` — and registers ``ctl.*``
handlers on a plain :class:`~repro.net.rpc.RpcServer`, so admin
commands ride the same authenticated, cost-charged envelope as
data-plane RPCs and failures cross the wire as typed
:class:`~repro.errors.ControlError` faults.

Verb table: see docs/CONTROL.md.
"""

from __future__ import annotations

import functools
from typing import Any, Generator

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.hmac import hmac_sha256
from repro.errors import AuditRecoveryError, ConfigError, ControlError
from repro.net.netem import LAN, NetEnv
from repro.net.rpc import RpcChannel, RpcServer
from repro.core.policy import RUNTIME_MUTABLE, PolicyEpoch
from repro.sim import Simulation
from repro.util.paths import normalize

__all__ = ["ControlServer", "open_control"]

#: secret-rotation KDF label (deterministic: the sim has no entropy
#: source outside seeds, and idempotent re-derivation is a feature).
_ROTATE_LABEL = b"keypad-secret-rotate"


def _verb(fn):
    """Translate policy-layer ConfigError into a wire-typed ControlError
    (works for both plain and generator handlers)."""

    @functools.wraps(fn)
    def wrapper(device_id: str, payload: dict):
        try:
            result = fn(device_id, payload)
            if hasattr(result, "send"):  # generator handler
                result = yield from result
            return result
        except ConfigError as exc:
            raise ControlError(str(exc)) from None

    return wrapper


class ControlServer:
    """Runtime admin verbs over a dedicated RpcServer endpoint."""

    def __init__(
        self,
        sim: Simulation,
        policy: PolicyEpoch,
        fs: Any = None,
        session: Any = None,
        key_services: tuple = (),
        metadata_service: Any = None,
        replica_group: Any = None,
        frontends: tuple = (),
        tracer: Any = None,
        name: str = "keypad-ctl",
        costs: CostModel = DEFAULT_COSTS,
    ):
        self.sim = sim
        self.policy = policy
        self.fs = fs
        self.session = session
        self.key_services = list(key_services)
        self.metadata_service = metadata_service
        self.replica_group = replica_group
        self.frontends = list(frontends)
        self.tracer = tracer
        self.costs = costs
        self.rpc = RpcServer(sim, name, costs=costs)
        #: append-only admin action log (what/when), for forensics.
        self.actions: list[dict] = []
        if fs is not None:
            # Ops now mint per-op policy snapshots even without tracing.
            fs.control_enabled = True
        for verb, handler in (
            ("ctl.status", self._status),
            ("ctl.set_texp", self._set_texp),
            ("ctl.update", self._update),
            ("ctl.add_dir", self._add_dir),
            ("ctl.remove_dir", self._remove_dir),
            ("ctl.revoke", self._revoke),
            ("ctl.rotate_secret", self._rotate_secret),
            ("ctl.drain", self._drain),
            ("ctl.admit", self._admit),
            ("ctl.tail_trace", self._tail_trace),
            ("ctl.metrics", self._metrics),
            ("ctl.audit_stats", self._audit_stats),
            ("ctl.audit_seal", self._audit_seal),
            ("ctl.audit_rebuild", self._audit_rebuild),
            ("ctl.audit_checkpoint", self._audit_checkpoint),
            ("ctl.audit_recover", self._audit_recover),
            ("ctl.region_status", self._region_status),
            ("ctl.region_partition_report", self._region_partition_report),
        ):
            self.rpc.register(verb, _verb(handler))

    @classmethod
    def for_rig(cls, rig: Any, name: str = "keypad-ctl") -> "ControlServer":
        """Attach to a :class:`~repro.harness.experiment.KeypadRig`."""
        group = rig.replica_group
        services = (
            list(group.replicas) if group is not None else [rig.key_service]
        )
        return cls(
            rig.sim,
            rig.fs.policy,
            fs=rig.fs,
            session=rig.services,
            key_services=tuple(services),
            metadata_service=rig.metadata_service,
            replica_group=group,
            frontends=tuple(rig.extras.get("frontends", ())),
            tracer=rig.tracer,
            name=name,
            costs=rig.costs,
        )

    def enroll_admin(self, admin_id: str, secret: bytes) -> None:
        self.rpc.enroll_device(admin_id, secret)

    def _note(self, verb: str, **attrs: Any) -> None:
        self.actions.append({"at": self.sim.now, "verb": verb, **attrs})

    # -- verbs ---------------------------------------------------------------
    def _status(self, device_id: str, payload: dict) -> dict:
        config = self.policy.config
        return {
            "epoch": self.policy.epoch,
            "texp": config.texp,
            "texp_inflight": config.texp_inflight,
            "prefetch": config.prefetch,
            "protected_prefixes": list(config.protected_prefixes),
            "frontends": len(self.frontends),
            "draining": [f.draining for f in self.frontends],
            "replicas_available": (
                self.replica_group.available_count()
                if self.replica_group is not None
                else sum(1 for s in self.key_services if s.server.available)
            ),
            "runtime_mutable": sorted(RUNTIME_MUTABLE),
        }

    def _set_texp(self, device_id: str, payload: dict) -> dict:
        changes = {"texp": float(payload["texp"])}
        if payload.get("texp_inflight") is not None:
            changes["texp_inflight"] = float(payload["texp_inflight"])
        config = self.policy.update(**changes)
        self._note("set_texp", **changes)
        return {"epoch": self.policy.epoch, "texp": config.texp,
                "texp_inflight": config.texp_inflight}

    def _update(self, device_id: str, payload: dict) -> dict:
        """Generic runtime-mutable knob update (the set-texp superset)."""
        changes = dict(payload.get("changes") or {})
        if not changes:
            raise ControlError("ctl.update: no changes given")
        self.policy.update(**changes)
        self._note("update", changes=sorted(changes))
        return {"epoch": self.policy.epoch}

    def _add_dir(self, device_id: str, payload: dict) -> dict:
        path = normalize(str(payload["path"]))
        prefixes = list(self.policy.config.protected_prefixes)
        if path not in prefixes:
            prefixes.append(path)
            self.policy.update(protected_prefixes=tuple(prefixes))
        self._note("add_dir", path=path)
        return {"epoch": self.policy.epoch, "protected_prefixes": prefixes}

    def _remove_dir(self, device_id: str, payload: dict) -> dict:
        path = normalize(str(payload["path"]))
        prefixes = [
            p for p in self.policy.config.protected_prefixes if p != path
        ]
        if len(prefixes) == len(self.policy.config.protected_prefixes):
            raise ControlError(f"{path} is not a protected prefix")
        self.policy.update(protected_prefixes=tuple(prefixes))
        self._note("remove_dir", path=path)
        return {"epoch": self.policy.epoch, "protected_prefixes": prefixes}

    def _revoke(self, device_id: str, payload: dict) -> dict:
        target = str(payload["device_id"])
        if self.replica_group is not None:
            # Fan out to every replica — a thief must not find a
            # straggler that still serves shares.
            self.replica_group.revoke_device(target)
            count = len(self.replica_group.replicas)
        else:
            for service in self.key_services:
                service.revoke_device(target)
            count = len(self.key_services)
        if not count:
            raise ControlError("no key service attached to revoke against")
        self._note("revoke", device=target)
        return {"revoked": target, "services": count}

    def _rotate_secret(self, device_id: str, payload: dict) -> dict:
        """Rotate a device's shared secret everywhere at once.

        The new secret is derived (HMAC) from the old one, so the verb
        is deterministic and idempotent per epoch; the live session's
        channels are re-keyed in the same step, so the device keeps
        working without re-enrollment.
        """
        target = str(payload["device_id"])
        services = (
            list(self.replica_group.replicas)
            if self.replica_group is not None else list(self.key_services)
        )
        old = None
        for service in services:
            try:
                old = service.server.device_secret(target)
                break
            except Exception:
                continue
        if old is None:
            raise ControlError(f"device {target!r} is not enrolled")
        new = hmac_sha256(old, _ROTATE_LABEL)
        for service in services:
            service.enroll_device(target, new)
        if self.metadata_service is not None:
            self.metadata_service.enroll_device(target, new)
        session = self.session
        if session is not None and session.device_id == target:
            for channel in (session.key_channel, session.metadata_channel):
                channel._device_secret = new
        self._note("rotate_secret", device=target)
        return {"rotated": target, "services": len(services)}

    def _frontend_targets(self, payload: dict) -> list:
        if not self.frontends:
            raise ControlError(
                "no frontend installed (mount with .frontend() to get "
                "drain/admit)"
            )
        index = payload.get("index")
        if index is None:
            return self.frontends
        index = int(index)
        if not 0 <= index < len(self.frontends):
            raise ControlError(
                f"frontend index {index} out of range "
                f"(have {len(self.frontends)})"
            )
        return [self.frontends[index]]

    def _drain(self, device_id: str, payload: dict) -> dict:
        targets = self._frontend_targets(payload)
        for frontend in targets:
            frontend.drain()
        self._note("drain", count=len(targets))
        return {"draining": len(targets)}

    def _admit(self, device_id: str, payload: dict) -> dict:
        targets = self._frontend_targets(payload)
        for frontend in targets:
            frontend.admit()
        self._note("admit", count=len(targets))
        return {"admitted": len(targets)}

    def _tail_trace(self, device_id: str, payload: dict) -> dict:
        """Stream finished op traces, cursor-paged (live tail)."""
        if self.tracer is None:
            raise ControlError(
                "tracing is off (mount with .tracing() to stream spans)"
            )
        cursor = max(0, int(payload.get("cursor") or 0))
        limit = max(1, int(payload.get("limit") or 50))
        ops = self.tracer.ops[cursor:cursor + limit]
        return {
            "cursor": cursor + len(ops),
            "total": self.tracer.op_count,
            "dropped": self.tracer.dropped,
            "ops": [
                {
                    "op": c.op,
                    "path": c.path,
                    "device": c.device_id,
                    "status": c.root.status,
                    "start": round(c.root.start, 6),
                    "duration": round(c.root.duration, 6),
                    "spans": sum(1 for _ in c.root.walk()),
                }
                for c in ops
            ],
        }

    def _audit_targets(self, payload: dict) -> list[tuple[int, Any]]:
        """The key services an audit verb addresses: all, or one by
        ``index``."""
        if not self.key_services:
            raise ControlError("no key service attached")
        index = payload.get("index")
        if index is None:
            return list(enumerate(self.key_services))
        index = int(index)
        if not 0 <= index < len(self.key_services):
            raise ControlError(
                f"service index {index} out of range "
                f"(have {len(self.key_services)})"
            )
        return [(index, self.key_services[index])]

    @staticmethod
    def _require_segments(index: int, service: Any, what: str) -> None:
        if service.audit.store == "flat":
            raise ControlError(
                f"service {index} uses the flat audit store; "
                f"{what} needs a segmented or durable one"
            )

    def _audit_stats(self, device_id: str, payload: dict) -> dict:
        """Per-service audit-store and view statistics (read-only).

        Durable stores report their flush/spill state and, after a
        restart, the recovery outcome — including ``lost_entries``, so
        a crash-truncated tail is *visible* here, never silent.
        """
        services = []
        for index, service in self._audit_targets(payload):
            entry = {"index": index, **service.access_log.stats()}
            if service.recovery_stats is not None:
                entry["recovery"] = dict(service.recovery_stats)
            services.append(entry)
        return {"at": self.sim.now, "services": services}

    def _audit_seal(self, device_id: str, payload: dict) -> dict:
        """Force-seal the active segment on segmented stores."""
        sealed = []
        for index, service in self._audit_targets(payload):
            self._require_segments(index, service, "force-seal")
            sealed.append(
                {"index": index, "segment": service.access_log.force_seal()}
            )
        self._note("audit_seal", count=len(sealed))
        return {"sealed": sealed}

    def _audit_rebuild(self, device_id: str, payload: dict) -> dict:
        """Rebuild materialized views from the log (recovery drill)."""
        rebuilt = []
        for index, service in self._audit_targets(payload):
            self._require_segments(index, service, "a view rebuild")
            rebuilt.append(
                {"index": index, "entries": service.access_log.views.rebuild()}
            )
        self._note("audit_rebuild", count=len(rebuilt))
        return {"rebuilt": rebuilt}

    def _audit_checkpoint(self, device_id: str, payload: dict) -> Generator:
        """Persist a view checkpoint on durable stores
        (``ctl.audit_checkpoint``); the flush cost is charged here, on
        the admin call's timeline."""
        out = []
        for index, service in self._audit_targets(payload):
            upto = service.audit_checkpoint()  # ConfigError -> ControlError
            yield from service._audit_sync()
            out.append({"index": index, "upto": upto})
        self._note("audit_checkpoint", count=len(out))
        return {"checkpoints": out}

    def _audit_recover(self, device_id: str, payload: dict) -> dict:
        """Recover crashed services from their spilled blobs — or, on
        healthy durable services, run a read-only recovery drill
        proving the blobs would recover.  A failed recovery crosses
        the wire as :class:`ControlError` and the service stays
        unavailable."""
        out = []
        for index, service in self._audit_targets(payload):
            if service._crashed:
                try:
                    stats = service.restart()
                except AuditRecoveryError as exc:
                    raise ControlError(
                        f"service {index} audit recovery failed "
                        f"(service stays down): {exc}"
                    ) from None
                out.append({"index": index, "mode": "restart", **stats})
            else:
                try:
                    stats = service.recover_drill()
                except AuditRecoveryError as exc:
                    raise ControlError(
                        f"service {index} recovery drill failed: {exc}"
                    ) from None
                out.append({"index": index, "mode": "drill", **stats})
        self._note("audit_recover", count=len(out))
        return {"recovered": out}

    def _federation(self):
        """The attached federated replica group, or ControlError."""
        group = self.replica_group
        if group is None or not group.topology.multi_region:
            raise ControlError(
                "no federated replica group attached "
                "(mount with KeypadConfig.builder().federation(...))"
            )
        return group

    def _region_status(self, device_id: str, payload: dict) -> dict:
        """Per-region replica availability and the topology."""
        status = self._federation().region_status()
        self._note("region_status")
        return status

    def _region_partition_report(self, device_id: str, payload: dict) -> dict:
        """Merge the per-replica audit logs across the federation and
        report region-split divergences plus the convergence proof
        (no missing, duplicated, or lost entries after a heal)."""
        from repro.cluster.merge import ClusterAuditLog

        group = self._federation()
        window = float(payload.get("window") or 5.0)
        log = ClusterAuditLog(group, group.k, window=window)
        report = log.region_report()
        self._note("region_partition_report",
                   splits=report["split_count"])
        return report

    def _metrics(self, device_id: str, payload: dict) -> dict:
        """Live counters: channels, frontends, key cache, trace."""
        out: dict[str, Any] = {"at": self.sim.now}
        if self.session is not None:
            out["channels"] = self.session.channel_metrics().as_dict()
        if self.frontends:
            out["frontends"] = [f.metrics.as_dict() for f in self.frontends]
        if self.fs is not None:
            cache = self.fs.key_cache
            out["key_cache"] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "expirations": cache.expirations,
                "entries": len(cache),
            }
            out["fs"] = dict(self.fs.stats)
        if self.tracer is not None:
            out["trace"] = self.tracer.summary()
        return out


def open_control(
    rig: Any,
    network: NetEnv = LAN,
    admin_id: str = "ctl-admin",
    admin_secret: bytes = b"ctl-admin-secret",
    name: str = "keypad-ctl",
):
    """Attach a control server to a rig and return an admin client.

    The admin channel is its own authenticated link (default LAN-class:
    the administrator is near the service, not on the lossy device
    uplink).  The server is reachable as ``client.server``; the rig
    remembers both in ``rig.extras['control']``.
    """
    from repro.control.client import ControlClient

    server = ControlServer.for_rig(rig, name=name)
    server.enroll_admin(admin_id, admin_secret)
    link = network.make_link(rig.sim, label=f"{network.name}-ctl")
    channel = RpcChannel(
        rig.sim, link, server.rpc, admin_id, admin_secret, costs=rig.costs,
    )
    client = ControlClient(channel, server=server)
    rig.extras["control"] = client
    return client
