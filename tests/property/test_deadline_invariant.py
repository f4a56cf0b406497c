"""Deadline expiry never violates THE invariant (zero false negatives).

The per-operation deadline (:class:`repro.core.context.OpContext`) can
interrupt a VFS op at any point: before the key fetch hits the wire,
mid-flight inside a serial or pipelined RPC, or mid-prefetch-batch.
Whatever the interruption point, the §3.2 guarantee must hold — an
operation either returned plaintext (and its key fetch is in the
key-service log, logged *before* the answer) or it failed with
:class:`DeadlineExpiredError` before any plaintext was produced.

Hypothesis drives random pre-theft usage, then a thief who hammers the
device's own Keypad software under a random (often sub-RTT) op
deadline.  Every read that returns data lands in ``truly_accessed``;
the reconstructed audit report must cover them all.  Reads killed by
the deadline contribute nothing — and must not need to.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import KeypadConfig, LAN, THREE_G
from repro.errors import DeadlineExpiredError, ReproError
from repro.forensics import AuditTool, analyze_fidelity
from repro.harness import build_keypad_rig

N_FILES = 6
PATHS = [f"/home/f{i}" for i in range(N_FILES)]

# Pre-theft owner behaviour: which files are touched and when.
owner_actions = st.lists(
    st.tuples(st.integers(min_value=0, max_value=N_FILES - 1),
              st.floats(min_value=0.1, max_value=200.0)),
    max_size=6,
)

# Post-theft reads through the device's own software.
thief_reads = st.lists(
    st.integers(min_value=0, max_value=N_FILES - 1),
    min_size=1, max_size=8,
)

# 3G RTT is 0.3s: budgets straddle it, so some ops expire mid-RPC and
# some squeak through — both sides of the race get exercised.
deadlines = st.floats(min_value=0.01, max_value=1.5)


def _check_deadline_invariant(owner, reads, deadline, texp, idle, config,
                              concurrent=False):
    rig = build_keypad_rig(network=THREE_G, config=config, n_blocks=1 << 14)

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

    # The thief drives the stolen device under an op deadline (ops now
    # race the wire; setup above ran unbounded so the world is intact).
    rig.fs.config = replace(rig.fs.config, op_deadline=deadline)

    truly_accessed: set[bytes] = set()
    expiries = [0]

    def read_one(path):
        try:
            data = yield from rig.fs.read(path, 0, 8)
        except DeadlineExpiredError:
            # Observable failure, no plaintext: nothing to audit.
            expiries[0] += 1
            return
        except ReproError:
            return
        if data:
            audit_id = yield from rig.fs.audit_id_of(path)
            truly_accessed.add(audit_id)

    def attack_serial():
        for index in reads:
            yield from read_one(PATHS[index])
            yield rig.sim.timeout(0.05)

    def attack_concurrent():
        # Simultaneous reads share pipelined batches and coalesced
        # fetches, so one expiry can interrupt a multi-file RPC.
        procs = [
            rig.sim.process(read_one(PATHS[index]), name=f"thief-{i}")
            for i, index in enumerate(reads)
        ]
        yield rig.sim.all_of(procs)

    rig.run(attack_concurrent() if concurrent else attack_serial())

    tool = AuditTool(rig.key_service, rig.metadata_service)
    report = tool.report(t_loss=t_loss, texp=texp)
    analysis = analyze_fidelity(report, truly_accessed)
    assert analysis.zero_false_negatives, (
        f"missed accesses: {analysis.false_negatives} "
        f"(deadline={deadline}, expiries={expiries[0]})"
    )
    assert report.logs_intact


@given(owner=owner_actions, reads=thief_reads, deadline=deadlines,
       texp=st.sampled_from([5.0, 50.0]),
       idle=st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=15, deadline=None)
def test_deadline_expiry_mid_fetch_keeps_invariant(
    owner, reads, deadline, texp, idle
):
    """Serial transport: expiry races each key fetch individually."""
    config = KeypadConfig(texp=texp, prefetch="none", ibe_enabled=False)
    _check_deadline_invariant(owner, reads, deadline, texp, idle, config)


@given(owner=owner_actions, reads=thief_reads, deadline=deadlines,
       texp=st.sampled_from([5.0, 50.0]),
       idle=st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=15, deadline=None)
def test_deadline_expiry_mid_prefetch_keeps_invariant(
    owner, reads, deadline, texp, idle
):
    """Directory prefetch: a miss fans out a batch fetch for siblings;
    the deadline can cut that batch down mid-flight."""
    config = KeypadConfig(texp=texp, prefetch="dir:3", ibe_enabled=False)
    _check_deadline_invariant(owner, reads, deadline, texp, idle, config)


@given(owner=owner_actions, reads=thief_reads, deadline=deadlines,
       texp=st.sampled_from([5.0, 50.0]),
       idle=st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=15, deadline=None)
def test_deadline_expiry_mid_pipelined_batch_keeps_invariant(
    owner, reads, deadline, texp, idle
):
    """Fast transport + concurrent reads: expiries interrupt pipelined
    in-flight windows and coalesced single-flight fetches."""
    config = (KeypadConfig.builder().texp(texp).prefetch("dir:2")
              .ibe(False).fast_transport().build())
    _check_deadline_invariant(owner, reads, deadline, texp, idle, config,
                              concurrent=True)


@given(owner=owner_actions, reads=thief_reads, deadline=deadlines,
       texp=st.sampled_from([5.0, 50.0]),
       idle=st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=10, deadline=None)
def test_deadline_expiry_traced_keeps_invariant(
    owner, reads, deadline, texp, idle
):
    """Tracing on top of deadlines: span bookkeeping through the
    interrupt path must not perturb the audit trail either."""
    config = (KeypadConfig.builder().texp(texp).prefetch("dir:2")
              .ibe(False).tracing().build())
    _check_deadline_invariant(owner, reads, deadline, texp, idle, config)


@given(reads=thief_reads, deadline=st.floats(min_value=0.01, max_value=0.25))
@settings(max_examples=10, deadline=None)
def test_expired_read_retried_unbounded_is_logged(reads, deadline):
    """After a sub-RTT expiry, lifting the deadline and re-reading the
    same file must both succeed and appear in the report — the aborted
    attempt leaves no wedged state behind."""
    config = KeypadConfig(texp=5.0, prefetch="none", ibe_enabled=False)
    rig = build_keypad_rig(network=THREE_G, config=config, n_blocks=1 << 14)

    def setup():
        yield from rig.fs.mkdir("/home")
        for path in PATHS:
            yield from rig.fs.create(path)
            yield from rig.fs.write(path, 0, b"secret")
        yield rig.sim.timeout(60.0)  # all keys expired

    rig.run(setup())
    t_loss = rig.sim.now
    target = PATHS[reads[0]]

    rig.fs.config = replace(rig.fs.config, op_deadline=deadline)

    def bounded():
        try:
            yield from rig.fs.read(target, 0, 8)
            return False
        except DeadlineExpiredError:
            return True

    expired = rig.run(bounded())

    rig.fs.config = replace(rig.fs.config, op_deadline=None)

    def unbounded():
        data = yield from rig.fs.read(target, 0, 8)
        audit_id = yield from rig.fs.audit_id_of(target)
        return data, audit_id

    data, audit_id = rig.run(unbounded())
    assert data == b"secret"[:8]

    report = AuditTool(rig.key_service, rig.metadata_service).report(
        t_loss=t_loss, texp=config.texp
    )
    analysis = analyze_fidelity(report, {audit_id})
    assert analysis.zero_false_negatives
    assert report.logs_intact
    # Sub-RTT budgets over 3G cannot complete a cold fetch.
    if deadline < 0.15:
        assert expired


def test_read_just_past_a_refreshed_keys_window_is_logged():
    """The in-use refresh at t≈49.7 is logged before its reply lands;
    a thief read at t≈99.75 is past that entry's Texp and must fetch."""
    config = KeypadConfig(texp=50.0, prefetch="dir:3", ibe_enabled=False)
    _check_deadline_invariant([], [3], 1.0, 50.0, 97.625, config)


def test_read_just_past_a_fetched_keys_window_is_logged():
    """Same edge for a plain blocking fetch: the owner's read is logged
    mid-round-trip, so the key must not live Texp from the reply."""
    config = KeypadConfig(texp=5.0, prefetch="none", ibe_enabled=False)
    _check_deadline_invariant([(3, 10.0)], [3], 1.0, 5.0, 4.9, config)


def test_coalesced_joiners_key_expires_texp_after_the_leaders_send():
    """Fast transport over 3G: reader B joins reader A's in-flight fetch
    0.2 s after A sent it.  The service logged that fetch mid-round-trip,
    so B's cached key must die Texp after A's send, and a read just past
    the logged entry's window must fetch (and be logged) again."""
    texp = 5.0
    config = (KeypadConfig.builder().texp(texp).prefetch("none")
              .ibe(False).fast_transport().build())
    rig = build_keypad_rig(network=THREE_G, config=config, n_blocks=1 << 14)
    path = PATHS[0]

    def setup():
        yield from rig.fs.mkdir("/home")
        yield from rig.fs.create(path)
        yield from rig.fs.write(path, 0, b"secret")
        yield rig.sim.timeout(20.0)  # the cached key expires

    def read_after(delay):
        yield rig.sim.timeout(delay)
        data = yield from rig.fs.read(path, 0, 6)
        return data

    def burst():
        readers = [rig.sim.process(read_after(d)) for d in (0.0, 0.2)]
        results = yield rig.sim.all_of(readers)
        return results

    rig.run(setup())
    assert rig.run(burst()) == [b"secret", b"secret"]
    assert rig.services.metrics.coalesced_hits == 1
    fetches = rig.key_service.access_log.entries(kind="fetch")
    logged_at = fetches[-1].timestamp

    def thief():
        yield rig.sim.timeout(logged_at + texp + 0.01 - rig.sim.now)
        data = yield from rig.fs.read(path, 0, 6)
        return data

    assert rig.run(thief()) == b"secret"
    refetched = len(rig.key_service.access_log.entries(kind="fetch"))
    assert refetched == len(fetches) + 1, (
        "a read past the logged fetch's Texp hit the joiner's cached key")


def _thief_read_is_reported(rig, path, t_thief, texp):
    """A thief reads ``path`` at ``t_thief`` (the loss); the report for
    that loss must list the file."""

    def thief():
        yield rig.sim.timeout(t_thief - rig.sim.now)
        data = yield from rig.fs.read(path, 0, 6)
        audit_id = yield from rig.fs.audit_id_of(path)
        return data, audit_id

    data, audit_id = rig.run(thief())
    assert data == b"secret"
    report = AuditTool(rig.key_service, rig.metadata_service).report(
        t_loss=t_thief, texp=texp)
    assert analyze_fidelity(report, {audit_id}).zero_false_negatives, (
        "a cached key outlived every logged access's Texp window")


def test_unlock_after_rename_keeps_the_keys_logged_window():
    """LAN, IBE on, Texp = 100 s: the file's only key-service entry is
    its create at t ≈ 0.03.  Renaming it at t = 90 locks and then
    unlocks the key; the unlock must not restart Texp at t ≈ 90, or a
    thief's read at t = 150 hits the cache and logs nothing."""
    texp = 100.0
    config = KeypadConfig(texp=texp, prefetch="none", ibe_enabled=True)
    rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)

    def owner():
        yield from rig.fs.mkdir("/home")
        yield from rig.fs.create("/home/a.txt")
        yield from rig.fs.write("/home/a.txt", 0, b"secret")
        yield rig.sim.timeout(90.0 - rig.sim.now)
        yield from rig.fs.rename("/home/a.txt", "/home/b.txt")

    rig.run(owner())
    _thief_read_is_reported(rig, "/home/b.txt", 150.0, texp)


def test_unlock_after_create_keeps_the_keys_logged_window():
    """3G, IBE on, Texp = 5 s: the create's key upload is the file's
    one key-service entry (t ≈ 0.48) and the unlock lands about 0.5 s
    later.  The key must die
    within Texp of the create, so a read just past the logged entry's
    window fetches (and is logged) again."""
    texp = 5.0
    config = KeypadConfig(texp=texp, prefetch="none", ibe_enabled=True)
    rig = build_keypad_rig(network=THREE_G, config=config, n_blocks=1 << 14)

    def owner():
        yield from rig.fs.mkdir("/home")
        yield from rig.fs.create("/home/a.txt")
        yield from rig.fs.write("/home/a.txt", 0, b"secret")
        yield rig.sim.timeout(2.0)  # the upload and the unlock land

    rig.run(owner())
    (created,) = rig.key_service.access_log.entries()
    _thief_read_is_reported(rig, "/home/a.txt",
                            created.timestamp + texp + 0.01, texp)

