"""Sharded fleet runs are observably identical to single-process runs.

``run_fleet(fleet_shards=N)`` partitions the device population across
forked worker processes that advance in conservative lockstep with the
parent's server shard.  The contract is *byte identity*: the summary
and every per-device stat must match the unsharded run exactly — same
floats, same ordering — at any shard count.  These tests hold that
contract on a small fleet with a live control plane (a Texp change and
a mid-run revocation), the same moving parts the big arms exercise.
"""

import pytest

from repro.net import LAN
from repro.workloads import fleet_shard
from repro.workloads.fleet import ControlEvent, run_fleet

_CONTROL = [
    ControlEvent(at=1.0, verb="set_texp", params={"texp": 60}),
    ControlEvent(at=2.0, verb="revoke", params={"device_id": "dev-00003"}),
]

_sharding = pytest.mark.skipif(
    not fleet_shard.available(LAN),
    reason="fork start method unavailable",
)


def _run(n_shards: int) -> tuple:
    result = run_fleet(
        devices=60,
        duration=4.0,
        seed=b"shard-ident",
        scanner_fraction=0.1,
        frontend={"policy": "drr"},
        control=list(_CONTROL),
        fleet_shards=n_shards,
    )
    return result.summary(), [vars(s) for s in result.stats]


@_sharding
@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_fleet_matches_unsharded(n_shards):
    assert _run(n_shards) == _run(1)


@_sharding
def test_env_var_selects_shards(monkeypatch):
    baseline = _run(1)
    monkeypatch.setenv("KEYPAD_FLEET_SHARDS", "2")
    assert _run(None) == baseline


def test_replicas_fall_back_to_single_process():
    # Replicated services route per-call; the shard transport only
    # understands one server shard, so this must silently run inline.
    result = run_fleet(
        devices=20, duration=2.0, seed=b"shard-repl",
        replicas=2, threshold=1, fleet_shards=4,
    )
    assert result.summary()["requested"] > 0
