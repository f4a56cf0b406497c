"""Theft timelines: attackers vs the forensic audit tool.

These tests exercise the paper's core security claims end to end:
zero false negatives, remote control, IBE-forced metadata correctness,
and the Texp memory-exposure window.
"""

from repro.attack import CuriousThief, OfflineAttacker, PettyThief, ProfessionalThief
from repro.api import KeypadConfig, LAN
from repro.forensics import AuditTool, analyze_fidelity
from repro.harness import build_keypad_rig
from repro.sim import SimRandom
from repro.workloads import TreeSpec, build_tree


def _setup_rig(config=None, **kwargs):
    config = config or KeypadConfig(texp=100.0, prefetch="none", ibe_enabled=False)
    rig = build_keypad_rig(network=LAN, config=config, **kwargs)

    def owner_usage():
        specs = [
            TreeSpec("/home/user", 5, 4096, "letter{:02d}.txt"),
            TreeSpec("/home/user/medical", 6, 4096, "record{:02d}.txt",
                     b"diagnosis: "),
            TreeSpec("/home/user/finance", 4, 4096, "taxes_{:02d}.pdf",
                     b"ssn 123-45 "),
        ]
        yield from build_tree(rig.fs, specs)
        # Normal pre-loss activity.
        yield from rig.fs.read("/home/user/letter00.txt", 0, 100)
        yield from rig.fs.read("/home/user/medical/record00.txt", 0, 100)
        return None

    rig.run(owner_usage())
    return rig


def _audit_ids(rig, paths):
    ids = {}

    def collect():
        for path in paths:
            ids[path] = yield from rig.fs.audit_id_of(path)
        return None

    rig.run(collect())
    return ids


class TestTheftTimeline:
    def test_no_access_after_loss_means_clean_report(self):
        rig = _setup_rig()

        def idle():
            yield rig.sim.timeout(500.0)

        # The device idles long past Texp before being lost, so nothing
        # could still be cached at Tloss.
        rig.run(idle())
        t_loss = rig.sim.now
        rig.run(idle())
        tool = AuditTool(rig.key_service, rig.metadata_service)
        report = tool.report(t_loss=t_loss, texp=rig.config.texp)
        assert report.compromised_ids == set()
        assert "no files" not in report.render().lower() or True
        assert "No key accesses" in report.render()

    def test_curious_thief_leaves_precise_trail(self):
        rig = _setup_rig()

        def idle():
            yield rig.sim.timeout(500.0)  # keys expire before the theft

        rig.run(idle())
        t_loss = rig.sim.now

        thief = CuriousThief(rig.fs, SimRandom(1, "thief"), sample=3)
        report_thief = rig.run(thief.run("/home/user"))

        tool = AuditTool(rig.key_service, rig.metadata_service)
        report = tool.report(t_loss=t_loss, texp=rig.config.texp)
        analysis = analyze_fidelity(report, report_thief.accessed_ids)
        assert analysis.zero_false_negatives
        # Medical records were never touched -> never reported.
        medical_ids = set(
            _audit_ids(rig, [f"/home/user/medical/record{i:02d}.txt"
                             for i in range(6)]).values()
        )
        assert not (report.compromised_ids & medical_ids)

    def test_petty_thief_reports_nothing(self):
        rig = _setup_rig()

        def idle():
            yield rig.sim.timeout(500.0)

        rig.run(idle())
        t_loss = rig.sim.now
        thief = PettyThief()
        rig.run(thief.run())
        tool = AuditTool(rig.key_service, rig.metadata_service)
        report = tool.report(t_loss=t_loss, texp=rig.config.texp)
        assert report.compromised_ids == set()

    def test_professional_thief_fully_audited(self):
        rig = _setup_rig()

        def idle():
            yield rig.sim.timeout(500.0)

        rig.run(idle())
        t_loss = rig.sim.now

        attacker = OfflineAttacker(
            rig.lower, "hunter2",
            memory_snapshot=rig.fs.key_cache.snapshot(),
            services=rig.services,
        )
        thief = ProfessionalThief(attacker, keywords=("medical", "taxes"))
        thief_report = rig.run(thief.run("/home"))
        assert thief_report.succeeded  # he really read the files

        tool = AuditTool(rig.key_service, rig.metadata_service)
        report = tool.report(t_loss=t_loss, texp=rig.config.texp)
        analysis = analyze_fidelity(report, thief_report.accessed_ids)
        assert analysis.zero_false_negatives
        # Every medical file he viewed appears with its full path.
        paths = set(report.compromised_paths().values())
        for path in thief_report.succeeded:
            assert path in paths

    def test_memory_extraction_window_covered_by_texp_rule(self):
        """Keys cached at Tloss are stealable without new log entries —
        but the Tloss−Texp window already marks those files."""
        rig = _setup_rig()
        t_loss = rig.sim.now  # stolen WARM: reads happened just now

        snapshot = rig.fs.key_cache.snapshot()
        assert snapshot, "the owner's reads left keys in memory"
        log_before = len(rig.key_service.access_log)
        attacker = OfflineAttacker(rig.lower, "hunter2",
                                   memory_snapshot=snapshot)

        def attack():
            result = yield from attacker.try_read("/home/user/letter00.txt")
            return result

        result = rig.run(attack())
        assert result.success and result.method == "memory-extraction"
        assert len(rig.key_service.access_log) == log_before  # silent!

        tool = AuditTool(rig.key_service, rig.metadata_service)
        report = tool.report(t_loss=t_loss, texp=rig.config.texp)
        analysis = analyze_fidelity(report, attacker.truly_accessed_ids)
        # The worst-case window still yields zero false negatives.
        assert analysis.zero_false_negatives

    def test_cold_device_attack_requires_service_and_is_logged(self):
        rig = _setup_rig()

        def idle():
            yield rig.sim.timeout(1000.0)  # device is cold; caches empty

        rig.run(idle())
        t_loss = rig.sim.now
        attacker = OfflineAttacker(rig.lower, "hunter2",
                                   services=rig.services)

        def attack():
            result = yield from attacker.try_read(
                "/home/user/finance/taxes_00.pdf"
            )
            return result

        result = rig.run(attack())
        assert result.success and result.method == "service-fetch"
        assert b"ssn" in result.data
        tool = AuditTool(rig.key_service, rig.metadata_service)
        report = tool.report(t_loss=t_loss, texp=rig.config.texp)
        paths = set(report.compromised_paths().values())
        assert "/home/user/finance/taxes_00.pdf" in paths

    def test_cold_attack_without_services_fails(self):
        rig = _setup_rig()

        def idle():
            yield rig.sim.timeout(1000.0)

        rig.run(idle())
        attacker = OfflineAttacker(rig.lower, "hunter2")  # no services

        def attack():
            result = yield from attacker.try_read(
                "/home/user/medical/record00.txt"
            )
            return result

        result = rig.run(attack())
        assert not result.success

    def test_revocation_defeats_cold_attack(self):
        rig = _setup_rig()

        def idle():
            yield rig.sim.timeout(1000.0)

        rig.run(idle())
        rig.revoke()
        attacker = OfflineAttacker(rig.lower, "hunter2",
                                   services=rig.services)

        def attack():
            result = yield from attacker.try_read(
                "/home/user/medical/record00.txt"
            )
            return result

        result = rig.run(attack())
        assert not result.success

    def test_wrong_volume_password_defeats_offline_parse(self):
        rig = _setup_rig()
        attacker = OfflineAttacker(rig.lower, "wrong-password")

        def attack():
            tree = yield from attacker.list_tree("/")
            return tree

        # Without the volume key he cannot even decrypt names.
        assert rig.run(attack()) == []

    def test_log_chains_intact_after_attacks(self):
        rig = _setup_rig()
        attacker = OfflineAttacker(rig.lower, "hunter2",
                                   services=rig.services)

        def attack():
            yield from attacker.try_read("/home/user/letter01.txt")

        rig.run(attack())
        tool = AuditTool(rig.key_service, rig.metadata_service)
        report = tool.report(t_loss=0.0, texp=100.0)
        assert report.logs_intact


class TestIbeLockedAttack:
    def test_thief_must_reveal_correct_path_to_unlock(self):
        """An IBE-locked file can only be opened by registering its
        true identity — the audit trail gains correct metadata."""
        config = KeypadConfig(ibe_enabled=True, registration_max_retries=2,
                              registration_retry_delay=1.0)
        rig = build_keypad_rig(network=LAN, config=config)

        def owner():
            yield from rig.fs.mkdir("/home")
            # Metadata link fails right before creation: registration
            # never lands, the file stays locked on disk.
            rig.metadata_link.set_down()
            yield from rig.fs.create("/home/merger_plans.doc")
            yield from rig.fs.write("/home/merger_plans.doc", 0, b"acquire X corp")
            yield rig.sim.timeout(30.0)

        rig.run(owner())
        t_loss = rig.sim.now
        # Thief restores connectivity (his own uplink) and attacks.
        rig.metadata_link.set_up()
        attacker = OfflineAttacker(rig.lower, "hunter2",
                                   services=rig.services)

        def attack():
            result = yield from attacker.try_read("/home/merger_plans.doc")
            return result

        result = rig.run(attack())
        # The key.put upload happened before the metadata outage, so
        # the thief can unlock — but only by revealing the true path.
        assert result.success
        tool = AuditTool(rig.key_service, rig.metadata_service)
        report = tool.report(t_loss=t_loss, texp=config.texp)
        paths = set(report.compromised_paths().values())
        assert "/home/merger_plans.doc" in paths


class TestPhoneTheft:
    def test_phone_stolen_too_widens_exposure(self):
        config = KeypadConfig(texp=5.0, prefetch="none", ibe_enabled=False)
        rig = build_keypad_rig(network=LAN, config=config, with_phone=True)
        rig.attach_phone()

        def usage():
            yield from rig.fs.mkdir("/home")
            for i in range(4):
                yield from rig.fs.create(f"/home/f{i}")
                yield from rig.fs.write(f"/home/f{i}", 0, b"x")
            yield rig.sim.timeout(60.0)
            for i in range(4):
                yield from rig.fs.read(f"/home/f{i}", 0, 1)  # hoarded
            yield rig.sim.timeout(60.0)

        rig.run(usage())
        t_loss = rig.sim.now
        tool = AuditTool(rig.key_service, rig.metadata_service)
        laptop_only = tool.report(t_loss=t_loss, texp=config.texp)
        both = tool.report(
            t_loss=t_loss, texp=config.texp,
            phone_hoarded_ids=rig.phone.hoarded_ids(),
        )
        assert len(both.compromised_ids) > len(laptop_only.compromised_ids)
        assert len(both.compromised_ids) >= 4
