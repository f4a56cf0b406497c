"""Sharded fleet execution: conservative parallel simulation.

:func:`repro.workloads.fleet.run_fleet` normally simulates every device
and the key service inside one event loop.  This module partitions the
*devices* across forked worker processes ("device shards") while the
server side — the :class:`~repro.core.services.keyservice.KeyService`,
its frontend, the audit store, and the scripted control plane — stays in
the parent ("server shard").  The only traffic that crosses a shard
boundary is what crosses the network in the model: authenticated RPC
requests flowing device→server and their responses flowing back.

Correctness contract (byte-identity)
------------------------------------

The partitioned run must produce a :class:`~repro.workloads.fleet.FleetResult`
whose tables are byte-identical to the single-process run at any
``KEYPAD_FLEET_SHARDS`` value.  Three properties make that achievable:

* **Devices are self-contained.**  Device ``i`` derives its RNG, secret,
  and working set purely from ``(seed, i)``; two devices never interact
  except through the server.  A device shard can therefore rebuild its
  slice of the fleet bit-for-bit without seeing the rest.
* **The serial RPC body splits cleanly.**  The client half
  (marshal/connect/transfer sleeps, byte counters, the deadline race)
  touches only device-local state, and the server half (server
  unmarshal sleep, dispatch through the frontend, fault mapping,
  response sizing) touches only server state.  The stub
  :class:`ShardChannel` runs the client half on the device shard; a
  surrogate process on the server shard runs the server half.
* **Timestamps are exact.**  Cross-shard messages carry absolute float
  times computed by the same expressions the unsharded run evaluates
  (``Link.one_way_delay``, ``CostModel.rpc_marshal_time``,
  ``request_wire_form`` / ``response_wire_form``), so every event lands
  at the identical instant.

Synchronization is conservative (no rollback).  Shards advance in
lockstep windows ``[W, W')``; a window is safe to execute once every
message that could land inside it has been delivered.  The width is
bounded by the model's lookahead — a request emitted at transfer start
arrives one one-way latency (``rtt/2``) later at the earliest, and a
response cannot be emitted until at least the server-side unmarshal cost
(``rpc_server_base``) after its request arrives — so each round grants

    W' = min(parent_next_event, W + rpc_server_base) + rtt/2

which collapses to fixed ``rtt/2``-steps only when the server is busy at
every instant.  The parent executes its window *after* collecting the
device shards' reports for the same window, which also pins the exact
stop time: the run halts at the max device/admin completion instant,
exactly where ``run_until(all_of(procs))`` halts the unsharded run.

Known (unobservable) divergences, accepted because none of them feed
``FleetResult``: per-device ``LinkStats`` miss the response record when
a client abandons a call mid-response-flight, and channel trace spans
are not replicated on the surrogate side.  Ties in continuous time
between *different* devices' events may resolve in a different order
than the single-process interleaving; profile think times and start
staggers are continuous draws, so exact collisions have measure zero.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.auditstore import AuditSpec
from repro.costmodel import CostModel
from repro.net.netem import NetEnv
from repro.net.rpc import RpcChannel, raise_if_fault, serve_request
from repro.net.wire import request_wire_form, response_wire_form
from repro.server import FrontendSpec
from repro.sim import Simulation

__all__ = ["available", "run_fleet_sharded", "ShardChannel"]

#: Seconds a shard waits on its pipe before declaring the peer dead.
_PIPE_TIMEOUT = 600.0


def available(network: NetEnv) -> bool:
    """Whether the sharded runner can reproduce this configuration.

    Requires the fork start method (the workers rebuild their world from
    a tiny picklable config, but fork keeps spawn costs negligible) and
    a positive link latency (the lookahead).  Only the single-service
    fleet shards; :func:`~repro.workloads.fleet.run_fleet` checks that.
    """
    if network.rtt <= 0:
        return False
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# Device-shard side
# ---------------------------------------------------------------------------

class _ServerRef:
    """Stands in for the remote RpcServer on a device shard (the base
    channel only reads ``.name`` for diagnostics and process names)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class ShardChannel(RpcChannel):
    """Client half of a serial RPC, for cross-shard calls.

    Inherits everything above the serial body — call dispatch, the
    deadline race, channel metrics, the session-key ratchet —
    from :class:`RpcChannel` untouched, and replaces the body with one
    that emits the request to the server shard at transfer start and
    parks on the response event instead of running the server inline.
    """

    def __init__(self, shard: "_DeviceShard", sim: Simulation, link,
                 server_name: str, device_id: str, device_secret: bytes,
                 costs: CostModel):
        super().__init__(sim, link, _ServerRef(server_name), device_id,
                         device_secret, costs=costs)
        self._shard = shard

    def _serial_body(self, method: str, params: dict, span: Any,
                     deadline: Optional[float] = None) -> Generator:
        # Mirror of the serial body in rpc.py, client half.
        payload, wire_size = request_wire_form(method, params,
                                               self.device_id)
        yield self.costs.rpc_marshal_time(wire_size)
        if not self._connected:
            yield self.costs.rpc_connect

        # Emit at transfer start: the request's arrival stamp is fully
        # determined here, one lookahead ahead of the server executing
        # it.  (The authenticity check is elided: fleet devices enroll
        # with the same derived secret the channel signs with, so the
        # unsharded HMAC comparison always passes.)
        done = self.sim.event()
        self._shard.emit_request(
            done, self.link, self.device_id, method, payload, wire_size,
            self.sim.now + self.link.one_way_delay(wire_size), deadline,
        )
        yield from self.link.transfer(wire_size)
        self._connected = True
        self.metrics.bytes_sent += wire_size
        if span is not None:
            span.attrs["bytes_out"] = wire_size

        # The server shard's surrogate replies with its dispatch-done
        # stamp; the event fires one response-flight later, exactly when
        # the unsharded client would come out of link.transfer().
        t_sent, result, response_size = yield done
        self.link.stats.record(t_sent, response_size)
        self.metrics.bytes_received += response_size
        if span is not None:
            span.attrs["bytes_in"] = response_size
        yield self.costs.rpc_marshal_time(response_size)
        return raise_if_fault(result)


@dataclass(frozen=True)
class _ShardConfig:
    """Everything a forked worker needs to rebuild its fleet slice."""

    seed: bytes
    duration: float
    scanner_fraction: float
    network: NetEnv
    costs: CostModel
    server_name: str
    lo: int
    hi: int


class _DeviceShard:
    """One worker's world: a private sim running devices ``[lo, hi)``."""

    def __init__(self, conn, cfg: _ShardConfig):
        from repro.harness.runner import derive_arm_seed
        from repro.workloads.fleet import (
            FleetDevice,
            _derive_working_set,
            profile_for_index,
        )

        self.conn = conn
        self.sim = sim = Simulation()
        self.outbox: list[tuple] = []
        self._pending: dict[int, tuple] = {}
        self._rid = 0
        self.done_times: list[float] = []

        net = cfg.network
        self.devices = []
        for index in range(cfg.lo, cfg.hi):
            profile = profile_for_index(index, cfg.scanner_fraction)
            device_id = f"dev-{index:05d}"
            secret = derive_arm_seed(cfg.seed, "secret", index)
            pairs = _derive_working_set(cfg.seed, index, profile.working_set)
            link = net.make_link(sim, label=f"fleet-{index}")
            channel = ShardChannel(self, sim, link, cfg.server_name,
                                   device_id, secret, cfg.costs)
            self.devices.append(FleetDevice(
                sim, index, profile, cfg.seed, channel,
                [audit_id for audit_id, _ in pairs],
            ))
        self.procs = []
        for device in self.devices:
            proc = sim.process(device.run(cfg.duration),
                               name=device.device_id)
            proc._add_callback(self._note_done)
            self.procs.append(proc)

    def _note_done(self, _proc) -> None:
        self.done_times.append(self.sim.now)

    # -- called by ShardChannel ------------------------------------------------
    def emit_request(self, done, link, device_id: str, method: str,
                     params: dict, wire_size: int, arrival: float,
                     deadline: Optional[float]) -> None:
        self._rid += 1
        self._pending[self._rid] = (done, link)
        self.outbox.append((self._rid, device_id, method, params,
                            wire_size, arrival, deadline))

    # -- the lockstep loop -----------------------------------------------------
    def _inject(self, responses: list[tuple]) -> None:
        sim = self.sim
        for rid, t_sent, result, response_size in responses:
            done, link = self._pending.pop(rid)
            # The client resumes one response-flight after the server
            # finished — the same float sum the unsharded transfer
            # sleep would produce.
            sim._schedule_at(
                t_sent + link.one_way_delay(response_size),
                done.succeed, (t_sent, result, response_size),
            )

    def run(self) -> None:
        conn, sim = self.conn, self.sim
        total = len(self.procs)
        while True:
            if not conn.poll(_PIPE_TIMEOUT):
                raise RuntimeError("device shard starved: no grant from "
                                   "the server shard")
            window, responses = conn.recv()
            self._inject(responses)
            sim.run_below(window)
            out, self.outbox = self.outbox, []
            if len(self.done_times) == total:
                for proc in self.procs:
                    if not proc.ok:  # surface what all_of would have raised
                        raise proc.value
                conn.send(("done", out, max(self.done_times),
                           [device.stats for device in self.devices]))
                return
            conn.send(("more", out))


def _shard_worker(conn, cfg: _ShardConfig) -> None:
    try:
        _DeviceShard(conn, cfg).run()
    except BaseException as exc:  # noqa: BLE001 — relayed to the parent
        try:
            conn.send(("crash", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
        raise
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Server-shard side
# ---------------------------------------------------------------------------

class _ServerShard:
    """Receives device-shard requests and serves them through the real
    service, replaying the server half of the serial body."""

    def __init__(self, sim: Simulation, server, costs: CostModel,
                 n_shards: int):
        self.sim = sim
        self.server = server
        self.costs = costs
        self.outboxes: list[list[tuple]] = [[] for _ in range(n_shards)]

    def inject(self, shard_index: int, msg: tuple) -> None:
        # msg = (rid, device_id, method, params, wire_size, arrival, deadline)
        self.sim._schedule_at(msg[5], self._start, shard_index, msg)

    def _start(self, shard_index: int, msg: tuple) -> None:
        self.sim.process(self._serve(shard_index, msg),
                         name=f"shard-rpc-{msg[1]}")

    def _serve(self, shard_index: int, msg: tuple) -> Generator:
        rid, device_id, method, params, wire_size, _arrival, deadline = msg
        # Server half of the serial body (rpc.py): unmarshal cost, then
        # dispatch with the wire fault mapping.
        yield self.costs.rpc_marshal_time(wire_size, server=True)
        if deadline is not None and deadline < self.sim.now:
            # The client's deadline expired while we were unmarshalling:
            # in the unsharded run the interrupt lands before dispatch,
            # so the request never reaches the frontend.
            return
        result = yield from serve_request(self.server, device_id, method,
                                          params, deadline)
        self.outboxes[shard_index].append(
            (rid, self.sim.now, *response_wire_form(result))
        )


def _recv(conn, what: str):
    if not conn.poll(_PIPE_TIMEOUT):
        raise RuntimeError(f"timed out waiting for {what}")
    msg = conn.recv()
    if msg[0] == "crash":
        raise RuntimeError(f"device shard crashed: {msg[1]}")
    return msg


def run_fleet_sharded(
    devices: int,
    duration: float,
    seed: bytes,
    scanner_fraction: float,
    network: NetEnv,
    costs: CostModel,
    frontend: Optional[FrontendSpec],
    shards: int,
    control: Optional[list],
    audit: AuditSpec,
    inspect,
    n_shards: int,
):
    """The parallel twin of :func:`repro.workloads.fleet.run_fleet`.

    The parent provisions the service exactly as the single-process run
    does (same enrolment and preload order), forks ``n_shards`` device
    shards over contiguous index ranges, and drives the lockstep rounds
    described in the module docstring.  Per-device stats come back in
    slice order, so the assembled list is in device-index order.
    """
    from repro.core.services.keyservice import KeyService
    from repro.harness.runner import derive_arm_seed
    from repro.workloads.fleet import (
        FleetResult,
        _derive_working_set,
        _install_control,
        profile_for_index,
    )

    ctx = multiprocessing.get_context("fork")
    server_name = "fleet-keys"
    bounds = [devices * i // n_shards for i in range(n_shards + 1)]

    # Fork before building the parent's world: the workers rebuild their
    # own slices from the config, so the parent heap stays out of them.
    conns, workers = [], []
    for i in range(n_shards):
        parent_conn, child_conn = ctx.Pipe()
        cfg = _ShardConfig(
            seed=seed, duration=duration,
            scanner_fraction=scanner_fraction, network=network,
            costs=costs, server_name=server_name,
            lo=bounds[i], hi=bounds[i + 1],
        )
        worker = ctx.Process(target=_shard_worker,
                             args=(child_conn, cfg), daemon=True)
        worker.start()
        child_conn.close()
        conns.append(parent_conn)
        workers.append(worker)

    try:
        sim = Simulation()
        service = KeyService(
            sim, costs=costs, seed=derive_arm_seed(seed, "ks"),
            name=server_name, shards=shards, audit=audit,
        )
        frontends = (
            [service.install_frontend(frontend)]
            if frontend is not None else []
        )
        for index in range(devices):
            profile = profile_for_index(index, scanner_fraction)
            device_id = f"dev-{index:05d}"
            service.enroll_device(device_id,
                                  derive_arm_seed(seed, "secret", index))
            for audit_id, key in _derive_working_set(seed, index,
                                                     profile.working_set):
                service.preload_key(device_id, audit_id, key)

        control_log: list[dict] = []
        events = sorted(control or (), key=lambda e: (e.at, e.verb))
        admin_proc = None
        admin_done: list[float] = []
        if events:
            admin_proc = sim.process(
                _install_control(sim, network, seed, costs, service, None,
                                 frontends, events, control_log),
                name="fleet-admin",
            )
            admin_proc._add_callback(lambda _w: admin_done.append(sim.now))

        engine = _ServerShard(sim, service.server, costs, n_shards)
        lookahead = network.rtt / 2.0
        serve_floor = costs.rpc_server_base
        active = [True] * n_shards
        stats_parts: list[Optional[list]] = [None] * n_shards
        done_times: list[float] = []
        window = 0.0

        while any(active):
            peek = sim.peek_time()
            horizon = window + serve_floor
            if peek is not None and peek < horizon:
                horizon = peek
            window = horizon + lookahead
            for i in range(n_shards):
                if active[i]:
                    conns[i].send((window, engine.outboxes[i]))
                    engine.outboxes[i] = []
            for i in range(n_shards):
                if not active[i]:
                    continue
                msg = _recv(conns[i], f"device shard {i}")
                for request in msg[1]:
                    engine.inject(i, request)
                if msg[0] == "done":
                    active[i] = False
                    done_times.append(msg[2])
                    stats_parts[i] = msg[3]
            if any(active):
                sim.run_below(window)

        # Endgame: the unsharded run stops the instant the last watched
        # process (device or admin) completes; replay that stop time.
        t_stop = max(done_times)
        if admin_proc is not None and not admin_proc.triggered:
            sim.run_until(admin_proc)  # re-raises an admin crash
        if admin_done:
            t_stop = max(t_stop, admin_done[0])
        if admin_proc is not None and admin_proc.triggered \
                and not admin_proc.ok:
            raise admin_proc.value
        sim.run_below(t_stop)
    finally:
        for conn in conns:
            conn.close()
        for worker in workers:
            worker.join(timeout=30.0)
            if worker.is_alive():
                worker.terminate()

    stats = [s for part in stats_parts for s in part]  # slice order == index order
    return FleetResult(
        devices=devices,
        duration=duration,
        policy=frontends[0].policy if frontends else "unbounded",
        stats=stats,
        frontend_metrics=[f.metrics.as_dict() for f in frontends],
        control_log=control_log,
        inspection=inspect(service) if inspect is not None else None,
    )
