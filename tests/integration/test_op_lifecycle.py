"""The stacked file system's op lifecycle: every op context minted is
finished with the error that ended its op, and a failed metadata op
leaves no half-made client state behind."""

from dataclasses import replace

import pytest

from repro.api import KeypadConfig, LAN, THREE_G
from repro.errors import DeadlineExpiredError, ReproError
from repro.harness import build_keypad_rig


def _expire_then_relax(rig, op, deadline=0.05):
    """Run *op* (a callable returning an FS-op generator) under a
    sub-RTT deadline, expect it to expire, then lift the deadline."""
    base = rig.fs.config
    rig.fs.config = replace(base, op_deadline=deadline)
    with pytest.raises(DeadlineExpiredError):
        yield from op()
    rig.fs.config = replace(base, op_deadline=None)


def test_expired_mkdir_leaves_the_directory_resolvable():
    """3G, IBE on: the mkdir's directory registration expires.  The
    create under it must register the directory itself, so the
    metadata service resolves the file's full path."""
    rig = build_keypad_rig(network=THREE_G,
                           config=KeypadConfig(ibe_enabled=True))

    def proc():
        yield from _expire_then_relax(rig, lambda: rig.fs.mkdir("/home"))
        yield from rig.fs.create("/home/medical.txt")
        yield from rig.fs.write("/home/medical.txt", 0, b"confidential")
        yield rig.sim.timeout(30.0)  # the background registration lands
        audit_id = yield from rig.fs.audit_id_of("/home/medical.txt")
        return audit_id

    audit_id = rig.run(proc())
    assert rig.metadata_service.path_of(audit_id) == "/home/medical.txt"


def test_failed_blocking_create_leaves_no_file():
    """3G, IBE off: a create whose registrations expire removes the
    file it made, so a retry of the same create succeeds."""
    rig = build_keypad_rig(network=THREE_G,
                           config=KeypadConfig(ibe_enabled=False))

    def proc():
        yield from rig.fs.mkdir("/home")
        yield from _expire_then_relax(
            rig, lambda: rig.fs.create("/home/a.txt"))
        names = yield from rig.fs.readdir("/home")
        yield from rig.fs.create("/home/a.txt")
        yield from rig.fs.write("/home/a.txt", 0, b"secret")
        data = yield from rig.fs.read("/home/a.txt", 0, 6)
        return names, data

    names, data = rig.run(proc())
    assert names == []
    assert data == b"secret"


def _expected_status(exc: BaseException) -> str:
    if isinstance(exc, DeadlineExpiredError):
        return "deadline-expired"
    return f"error:{type(exc).__name__}"


@pytest.mark.parametrize("fast", [False, True], ids=["serial", "fast"])
def test_every_minted_op_context_is_finished(fast):
    """Drive every public op with tracing on, including ops that fail
    through a deadline expiry, a missing file and a revoked device.
    After the drain every minted context has been handed to the
    collector, and each failed op's root span names its error."""
    builder = (KeypadConfig.builder().texp(5.0).prefetch("dir:2")
               .ibe(True).tracing())
    if fast:
        builder = builder.fast_transport()
    config = replace(builder.build(), track_xattrs=True)
    rig = build_keypad_rig(network=LAN, config=config)
    fs = rig.fs
    failed = []

    def attempt(op_name, path, make_op):
        try:
            result = yield from make_op()
        except ReproError as exc:
            failed.append((op_name, path, exc))
            return None
        return result

    def proc():
        yield from fs.mkdir("/home")
        yield from fs.mkdir("/home/docs")
        fs.begin_launch_profile("editor")
        for name in ("a.txt", "b.txt", "c.txt"):
            path = f"/home/docs/{name}"
            yield from fs.create(path)
            yield from fs.write(path, 0, b"0123456789")
            yield from fs.read(path, 0, 10)
        fs.end_launch_profile()
        yield from fs.truncate("/home/docs/a.txt", 4)
        yield from fs.set_xattr("/home/docs/a.txt", "user.tag", b"x")
        yield from fs.get_xattr("/home/docs/a.txt", "user.tag")
        yield from fs.getattr("/home/docs/a.txt")
        yield from fs.exists("/home/docs/a.txt")
        yield from fs.readdir("/home/docs")
        yield from fs.rename("/home/docs/b.txt", "/home/docs/b2.txt")
        yield rig.sim.timeout(10.0)  # registrations land, keys expire
        yield from fs.prefetch_launch_profile("editor")
        yield from fs.rename("/home/docs", "/home/papers")
        yield from fs.unlink("/home/papers/c.txt")
        yield from fs.mkdir("/home/tmp")
        yield from fs.rmdir("/home/tmp")
        yield from attempt("read", "/home/missing.txt",
                           lambda: fs.read("/home/missing.txt", 0, 1))
        yield from attempt("truncate", "/home/missing.txt",
                           lambda: fs.truncate("/home/missing.txt", 0))
        yield rig.sim.timeout(10.0)
        # A cold read against a deadline shorter than a LAN round trip.
        base = fs.config
        fs.config = replace(base, op_deadline=1e-6)
        yield from attempt("read", "/home/papers/b2.txt",
                           lambda: fs.read("/home/papers/b2.txt", 0, 1))
        fs.config = base
        yield from fs.hibernate()
        rig.revoke()
        yield from attempt("read", "/home/papers/a.txt",
                           lambda: fs.read("/home/papers/a.txt", 0, 1))
        yield from fs.create("/home/papers/d.txt")
        yield from fs.hibernate()
        yield rig.sim.timeout(30.0)  # drain background work

    rig.run(proc())
    tracer = rig.tracer
    assert tracer.dropped == 0
    assert tracer._next_op_id == tracer.op_count
    assert [(name, type(exc).__name__) for name, _, exc in failed] == [
        ("read", "FileNotFound"), ("truncate", "FileNotFound"),
        ("read", "DeadlineExpiredError"), ("read", "RevokedError")]
    for op_name, path, exc in failed:
        statuses = [ctx.root.status for ctx in tracer.ops
                    if ctx.op == op_name and ctx.path == path
                    and ctx.root.status != "ok"]
        assert statuses == [_expected_status(exc)], (op_name, path)
    # The revoked device's create returns at once (IBE); its background
    # registration is the op that fails.
    (registration,) = [ctx for ctx in tracer.ops
                       if ctx.op == "ibe-registration"
                       and ctx.path == "/home/papers/d.txt"]
    assert registration.root.status == "error:RevokedError"


def _rename_under_deadline(old, new, probe):
    """3G, IBE off: ``rename old new`` expires on its blocking
    registration after the lower entry moved.  The registration goes on
    in the background, so 5 s later the metadata service names
    ``probe``'s file at its new path."""
    rig = build_keypad_rig(network=THREE_G,
                           config=KeypadConfig(ibe_enabled=False))

    def proc():
        yield from rig.fs.mkdir("/home")
        yield from rig.fs.mkdir("/home/a")
        for path in ("/home/a.txt", "/home/a/x.txt"):
            yield from rig.fs.create(path)
            yield from rig.fs.write(path, 0, b"secret")
        audit_id = yield from rig.fs.audit_id_of(probe)
        yield from _expire_then_relax(rig, lambda: rig.fs.rename(old, new))
        yield rig.sim.timeout(5.0)
        return audit_id

    return rig.metadata_service.path_of(rig.run(proc()))


def test_expired_rename_of_a_file_registers_its_new_path():
    assert _rename_under_deadline(
        "/home/a.txt", "/home/b.txt", "/home/a.txt") == "/home/b.txt"


def test_expired_rename_of_a_directory_registers_its_new_path():
    assert _rename_under_deadline(
        "/home/a", "/home/b", "/home/a/x.txt") == "/home/b/x.txt"
