"""Exact host-work counts of the serving path, on a small seeded DRR
fleet and a small partitioned 3-of-6 cluster run.

Two counts, both exact for a seed (the simulation is deterministic):

* **scheduler entries per completed fetch** — ``sim._seq`` at the end
  of the run (every entry the kernel ever queued) over completed
  fetches.  A bare sleep whose instant is otherwise idle resumes its
  process without a second entry, and an RPC deadline is one bare entry.
* **wire-walk calls per RPC** — calls of ``repro.net.wire.wire_form``
  (recursion included) over RPCs issued.  Each message is walked once,
  at send, for its size and for the values the peer parses.

Before the one-walk wire form and the direct resume, the same runs
counted (``_encoded_len`` + ``normalize_value`` calls as the walk):

* DRR fleet: 9886 entries for 360 completed fetches (27.46 per fetch),
  8344 wire-walk calls for 360 RPCs (23.18 per RPC);
* cluster: 9899 entries for 53 completed fetches (186.77 per fetch),
  38232 wire-walk calls for 463 RPCs (82.57 per RPC).

The cluster run later dropped its inter-replica membership mesh, whose
anti-entropy exchanges routed no fetch.  With the mesh it counted 8226
entries, 53 completed fetches, 20181 wire-walk calls and 463 RPCs;
without it the same 53 fetches complete in 6650 entries, 2471 walks
and 249 RPCs.

A count that moves means the serving path does different host work:
update the pins only with the change that explains it.
"""

from dataclasses import replace
from unittest import mock

from repro.api import DEFAULT_COSTS, LAN, WLAN, Topology, run_fleet
from repro.cluster import FaultPlan
from repro.net import wire
from repro.net.rpc import RpcChannel

_COSTS = replace(DEFAULT_COSTS, service_log_append=0.012,
                 service_key_lookup=0.006)
_FRONTEND = {"queue_limit": 4, "policy": "drr", "coalesce": 8}

#: the parent's counts (see the module docstring)
_BEFORE = {"drr": (9886, 360, 8344, 360), "cluster": (9899, 53, 38232, 463)}
#: the cluster run's counts with the membership mesh (see the docstring)
_WITH_MESH = (8226, 53, 20181, 463)


def _counted(owner, name: str, counts: dict, key: str):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)

    return mock.patch.object(owner, name, counting)


def _counts(**knobs) -> tuple[int, int, int, int]:
    """(scheduler entries, completed fetches, wire walks, RPCs)."""
    counts = {"walks": 0, "rpcs": 0}
    with _counted(wire, "wire_form", counts, "walks"), \
            _counted(RpcChannel, "_call_serial", counts, "rpcs"), \
            _counted(RpcChannel, "_call_pipelined", counts, "rpcs"):
        result = run_fleet(seed=b"count-gate", costs=_COSTS, fleet_shards=1,
                           inspect=lambda service: service.sim._seq, **knobs)
    return (result.inspection, result.summary()["completed"],
            counts["walks"], counts["rpcs"])


def test_drr_fleet_counts():
    entries, fetches, walks, rpcs = _counts(
        devices=60, duration=10.0, network=LAN,
        frontend=dict(_FRONTEND, workers=2))
    assert (entries, fetches, walks, rpcs) == (5971, 360, 4172, 360)
    old_entries, old_fetches, old_walks, old_rpcs = _BEFORE["drr"]
    assert entries / fetches <= 0.65 * old_entries / old_fetches
    assert walks / rpcs == 0.5 * old_walks / old_rpcs


def test_partitioned_cluster_counts():
    counts = _counts(
        devices=12, duration=9.0, network=WLAN,
        topology=Topology.symmetric(regions=("us", "eu", "ap"),
                                    replicas_per_region=2, threshold=3,
                                    rtt_ms=60.0),
        geo_routing=True, audit_store="segmented", audit_durable=True,
        audit_flush_policy="every-n", frontend=dict(_FRONTEND, workers=1),
        faults=FaultPlan.region_partition("eu", at=3.0, duration=3.0))
    assert counts == (6650, 53, 2471, 249)
    # The same fetches complete; only the mesh's host work is gone.
    entries, fetches, walks, rpcs = counts
    old_entries, old_fetches, old_walks, old_rpcs = _WITH_MESH
    assert fetches == old_fetches
    assert entries < old_entries and walks < old_walks and rpcs < old_rpcs
