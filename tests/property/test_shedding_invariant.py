"""Overload shedding never creates audit false negatives.

The frontend's contract (PROTOCOL.md §10): a shed request is refused
*before* any key material is touched, and an admitted ``key.fetch``
that returns key material is durably logged before its reply.  So under
any overload pattern — any mix of devices, deadlines, queue bounds,
scheduling policy, and group-commit size — the access log must hold
exactly one fetch record per request that actually got a key.  A
missing record would be a Keypad false negative: a thief reads a file
and forensics never learns.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.services import KeyService
from repro.costmodel import DEFAULT_COSTS
from repro.errors import OverloadSheddedError, ReproError
from repro.server import FrontendSpec
from repro.sim import Simulation

AUDIT_IDS = [bytes([tag]) * 24 for tag in range(4)]
DEVICES = [f"dev-{i}" for i in range(3)]

#: slow enough that a handful of concurrent requests overloads one
#: worker and both shed paths (queue-full and deadline) actually fire.
SLOW_COSTS = replace(
    DEFAULT_COSTS, service_log_append=0.02, service_key_lookup=0.01
)

_OP = st.tuples(
    st.integers(min_value=0, max_value=len(DEVICES) - 1),   # device
    st.integers(min_value=0, max_value=len(AUDIT_IDS) - 1),  # key
    st.floats(min_value=0.0, max_value=0.08),                # start time
    st.one_of(st.none(),                                     # deadline
              st.floats(min_value=0.001, max_value=0.2)),
)


@given(
    ops=st.lists(_OP, min_size=1, max_size=30),
    policy=st.sampled_from(["drr", "fifo"]),
    workers=st.integers(min_value=1, max_value=2),
    queue_limit=st.integers(min_value=1, max_value=3),
    coalesce=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_shedding_never_loses_audit_records(
    ops, policy, workers, queue_limit, coalesce
):
    sim = Simulation()
    service = KeyService(sim, costs=SLOW_COSTS, seed=b"shed-prop",
                         name="keys")
    for device in DEVICES:
        service.enroll_device(device, b"s" * 16)
        for audit_id in AUDIT_IDS:
            service.preload_key(device, audit_id, b"k" * 32)
    frontend = service.install_frontend(FrontendSpec(
        workers=workers, queue_limit=queue_limit, policy=policy,
        coalesce=coalesce,
    ))

    got_key: dict[tuple[str, bytes], int] = {}
    outcomes = {"completed": 0, "shed": 0, "failed": 0}

    def one(seq, device, audit_id, start, deadline_offset):
        yield sim.timeout(start)
        deadline = (sim.now + deadline_offset
                    if deadline_offset is not None else None)
        try:
            result = yield from frontend.dispatch(
                device, "key.fetch",
                # unique token per request: dedup must never hide a
                # record this test is owed.
                {"audit_id": audit_id, "token": b"tok-%d" % seq},
                deadline=deadline,
            )
        except OverloadSheddedError:
            outcomes["shed"] += 1
        except ReproError:
            outcomes["failed"] += 1
        else:
            assert result["key"] == b"k" * 32
            outcomes["completed"] += 1
            pair = (device, audit_id)
            got_key[pair] = got_key.get(pair, 0) + 1

    procs = [
        sim.process(
            one(seq, DEVICES[d], AUDIT_IDS[k], start, deadline),
            name=f"op-{seq}",
        )
        for seq, (d, k, start, deadline) in enumerate(ops)
    ]
    sim.run_until(sim.all_of(procs))

    assert sum(outcomes.values()) == len(ops)

    logged: dict[tuple[str, bytes], int] = {}
    for entry in service.access_log:
        if entry.kind == "fetch":
            pair = (entry.device_id, entry.fields["audit_id"])
            logged[pair] = logged.get(pair, 0) + 1

    # Zero false negatives: every key handed out has its record — and
    # zero phantom records: shed requests wrote nothing.
    assert logged == got_key
    assert sum(logged.values()) == outcomes["completed"]
    # Metrics agree with the client's view.
    assert frontend.metrics.shed == outcomes["shed"]
    assert frontend.metrics.completed == outcomes["completed"]
