"""The two-provider privacy split (§3.1).

"The key service sees only accesses to opaque IDs and keys, while the
metadata service learns the file system's structure, but not the
access patterns.  Thus, privacy-concerned users can avoid exposing
full audit information to any audit service by using different key
and metadata providers."
"""

from repro.api import KeypadConfig, LAN
from repro.harness import build_keypad_rig


def _exercised_rig():
    config = KeypadConfig(texp=5.0, prefetch="dir:3", ibe_enabled=True)
    rig = build_keypad_rig(network=LAN, config=config)

    def usage():
        yield from rig.fs.mkdir("/home")
        yield from rig.fs.mkdir("/home/secret_project")
        yield from rig.fs.create("/home/secret_project/merger_plan.doc")
        yield from rig.fs.write("/home/secret_project/merger_plan.doc", 0,
                                b"acquire")
        yield rig.sim.timeout(30.0)
        yield from rig.fs.read("/home/secret_project/merger_plan.doc", 0, 4)
        yield from rig.fs.rename(
            "/home/secret_project/merger_plan.doc",
            "/home/secret_project/q3_plan.doc",
        )
        yield rig.sim.timeout(30.0)

    rig.run(usage())
    return rig


class TestPrivacySplit:
    def test_key_service_never_sees_names(self):
        rig = _exercised_rig()
        sensitive = ("merger", "secret_project", "q3_plan", "home")
        for entry in rig.key_service.access_log:
            blob = repr(entry.fields) + entry.kind
            for word in sensitive:
                assert word not in blob, (
                    f"key service learned a filename: {word!r} in {blob}"
                )

    def test_metadata_service_never_sees_accesses(self):
        rig = _exercised_rig()
        # Metadata log records registrations (create/rename/dirs) only;
        # the read at t≈30 left no trace here.
        kinds = {e.kind for e in rig.metadata_service.metadata_log}
        assert kinds <= {"file", "dir", "xattr"}
        # And the number of metadata events is independent of how often
        # the file was read.
        n_before = len(rig.metadata_service.metadata_log)

        def more_reads():
            for _ in range(10):
                yield rig.sim.timeout(20.0)
                yield from rig.fs.read("/home/secret_project/q3_plan.doc", 0, 4)

        rig.run(more_reads())
        assert len(rig.metadata_service.metadata_log) == n_before

    def test_key_service_ids_are_opaque_random(self):
        """Audit IDs carry no structure an observer could exploit."""
        rig = _exercised_rig()
        ids = [
            e.fields["audit_id"] for e in rig.key_service.access_log
            if "audit_id" in e.fields
        ]
        assert ids
        for audit_id in ids:
            assert len(audit_id) == 24  # 192-bit random
        # IDs of sibling files share no common prefix (no locality leak).
        distinct = set(ids)
        if len(distinct) >= 2:
            a, b = sorted(distinct)[:2]
            assert a[:4] != b[:4]

    def test_only_collusion_reveals_full_picture(self):
        """Joining both logs (what the device owner does at forensics
        time) IS the full audit — neither log alone suffices."""
        from repro.forensics import AuditTool

        rig = _exercised_rig()
        tool = AuditTool(rig.key_service, rig.metadata_service)
        report = tool.report(t_loss=0.0, texp=5.0)
        # The joined view has both the access times AND the paths.
        assert any(
            r.path and "q3_plan" in r.path and r.timestamp >= 0
            for r in report.records
        )
