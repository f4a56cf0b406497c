"""THE property: zero false negatives, under arbitrary attacks.

The paper's §3.2 invariant, adapted for caching/prefetching (§3.3):
for any file F accessed by an attacker after Tloss, either an audit
record for F's ID exists with timestamp after Tloss − Texp, or the
access is impossible.  Hypothesis drives random pre-theft usage and
random post-theft attacker behaviour (device-software reads, raw-disk
reads with extracted memory, service-assisted decryption) and checks
the reconstructed report every time.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack import OfflineAttacker
from repro.api import KeypadConfig, LAN
from repro.errors import ReproError
from repro.forensics import AuditTool, analyze_fidelity
from repro.harness import build_keypad_rig

N_FILES = 6
PATHS = [f"/home/f{i}" for i in range(N_FILES)]

# Pre-theft owner behaviour: which files are touched and when.
owner_actions = st.lists(
    st.tuples(st.integers(min_value=0, max_value=N_FILES - 1),
              st.floats(min_value=0.1, max_value=200.0)),
    max_size=8,
)

# Post-theft attacker behaviour.
attacker_actions = st.lists(
    st.tuples(
        st.sampled_from(["fs_read", "offline_memory", "offline_service"]),
        st.integers(min_value=0, max_value=N_FILES - 1),
    ),
    min_size=1,
    max_size=8,
)


def _check_zero_false_negatives(owner, attacker, texp, idle, config,
                                crash_replica=None):
    rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)

    def setup():
        yield from rig.fs.mkdir("/home")
        for path in PATHS:
            yield from rig.fs.create(path)
            yield from rig.fs.write(path, 0, b"secret " + path.encode())
        for index, delay in owner:
            yield rig.sim.timeout(delay)
            yield from rig.fs.read(PATHS[index], 0, 8)
        yield rig.sim.timeout(idle)

    rig.run(setup())
    t_loss = rig.sim.now

    if crash_replica is not None and rig.replica_group is not None:
        # One replica dies inside the exposure window; every attacker
        # access below happens against the degraded cluster.
        rig.replica_group.crash(crash_replica)

    memory = rig.fs.key_cache.snapshot()
    offline = OfflineAttacker(
        rig.lower, "hunter2", memory_snapshot=memory, services=rig.services
    )
    offline_no_service = OfflineAttacker(
        rig.lower, "hunter2", memory_snapshot=memory
    )
    truly_accessed: set[bytes] = set()

    def attack():
        for kind, index in attacker:
            path = PATHS[index]
            try:
                if kind == "fs_read":
                    # Thief drives the device's own Keypad software.
                    data = yield from rig.fs.read(path, 0, 8)
                    if data:
                        audit_id = yield from rig.fs.audit_id_of(path)
                        truly_accessed.add(audit_id)
                elif kind == "offline_memory":
                    result = yield from offline_no_service.try_read(path)
                    if result.success:
                        header = yield from offline_no_service.read_header(path)
                        truly_accessed.add(header.audit_id)
                else:
                    result = yield from offline.try_read(path)
                    if result.success:
                        header = yield from offline.read_header(path)
                        truly_accessed.add(header.audit_id)
            except ReproError:
                continue
        return None

    rig.run(attack())

    if rig.replica_group is not None:
        # The forensic tool reads the merged per-replica timeline, which
        # must also cross-check clean (the crash may not fabricate
        # disagreements between the surviving logs).
        cluster_log = rig.cluster_audit_log()
        key_log = cluster_log
        assert cluster_log.divergences("laptop-1") == []
    else:
        key_log = rig.key_service
    tool = AuditTool(key_log, rig.metadata_service)
    report = tool.report(t_loss=t_loss, texp=texp)
    analysis = analyze_fidelity(report, truly_accessed)
    assert analysis.zero_false_negatives, (
        f"missed accesses: {analysis.false_negatives}"
    )
    # And the logs themselves must verify.
    assert report.logs_intact


@given(owner=owner_actions, attacker=attacker_actions,
       texp=st.sampled_from([5.0, 50.0, 300.0]),
       idle=st.floats(min_value=0.0, max_value=400.0),
       prefetch=st.sampled_from(["none", "dir:2"]))
@settings(max_examples=25, deadline=None)
def test_zero_false_negatives_under_random_attacks(
    owner, attacker, texp, idle, prefetch
):
    config = KeypadConfig(texp=texp, prefetch=prefetch, ibe_enabled=False)
    _check_zero_false_negatives(owner, attacker, texp, idle, config)


@given(owner=owner_actions, attacker=attacker_actions,
       texp=st.sampled_from([5.0, 50.0, 300.0]),
       idle=st.floats(min_value=0.0, max_value=400.0),
       prefetch=st.sampled_from(["none", "dir:2"]))
@settings(max_examples=15, deadline=None)
def test_zero_false_negatives_with_fast_transport(
    owner, attacker, texp, idle, prefetch
):
    """The invariant must survive every transport optimisation at once:
    pipelining, single-flight coalescing, write-behind batching, and a
    sharded key-service log (the ablation's 'fast' arm)."""
    config = (KeypadConfig.builder().texp(texp).prefetch(prefetch)
              .ibe(False).fast_transport().build())
    _check_zero_false_negatives(owner, attacker, texp, idle, config)


@given(owner=owner_actions, attacker=attacker_actions,
       texp=st.sampled_from([5.0, 50.0, 300.0]),
       idle=st.floats(min_value=0.0, max_value=400.0),
       prefetch=st.sampled_from(["none", "dir:2"]),
       crash_replica=st.integers(min_value=0, max_value=2))
@settings(max_examples=15, deadline=None)
def test_zero_false_negatives_replicated_with_crashed_replica(
    owner, attacker, texp, idle, prefetch, crash_replica
):
    """The invariant must survive the whole extension stack at once —
    fast transport (pipelining + coalescing + write-behind + shards)
    over a 2-of-3 secret-shared cluster — with an arbitrary replica
    crashed inside the exposure window, judged from the merged
    per-replica timeline."""
    config = (KeypadConfig.builder().texp(texp).prefetch(prefetch)
              .ibe(False).fast_transport().replication(2, 3).build())
    _check_zero_false_negatives(owner, attacker, texp, idle, config,
                                crash_replica=crash_replica)


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_unreported_files_are_unreadable_cold(data):
    """Contrapositive: if a file is NOT in the report, a cold attacker
    without service access cannot read it."""
    config = KeypadConfig(texp=10.0, prefetch="none", ibe_enabled=False)
    rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)

    def setup():
        yield from rig.fs.mkdir("/home")
        for path in PATHS:
            yield from rig.fs.create(path)
            yield from rig.fs.write(path, 0, b"secret")
        yield rig.sim.timeout(100.0)  # everything expires

    rig.run(setup())
    t_loss = rig.sim.now
    attacker = OfflineAttacker(rig.lower, "hunter2")  # cold, no services

    target = data.draw(st.sampled_from(PATHS))

    def attack():
        result = yield from attacker.try_read(target)
        return result

    result = rig.run(attack())
    assert not result.success

    tool = AuditTool(rig.key_service, rig.metadata_service)
    report = tool.report(t_loss=t_loss, texp=config.texp)
    assert report.compromised_ids == set()
