"""End-to-end theft via a raw dd image only.

The most literal reading of the §6 threat model: the thief powers the
laptop off, images the drive, and attacks the *image* on his own
machine — our code path never touches the victim's live objects.
"""

import pytest

from repro.attack import OfflineAttacker
from repro.api import KeypadConfig, LAN
from repro.forensics import AuditTool, analyze_fidelity
from repro.harness import build_keypad_rig
from repro.storage.fsck import RawDiskFs, parse_raw_disk


@pytest.fixture()
def stolen_world():
    config = KeypadConfig(texp=20.0, prefetch="none", ibe_enabled=False)
    rig = build_keypad_rig(network=LAN, config=config)

    def owner():
        yield from rig.fs.mkdir("/home")
        yield from rig.fs.create("/home/payroll.xls")
        yield from rig.fs.write("/home/payroll.xls", 0, b"salaries: CEO $1")
        yield from rig.fs.create("/home/wallpaper.jpg")
        yield from rig.fs.write("/home/wallpaper.jpg", 0, b"\xff\xd8JFIF")
        # The on-disk state must be durable for the image to see it.
        yield from rig.lower.sync()
        yield rig.sim.timeout(120.0)

    rig.run(owner())
    t_loss = rig.sim.now
    dd_image = rig.device.snapshot()  # the thief's dd of the platter
    return rig, t_loss, dd_image


class TestDdImageAttack:
    def test_attack_runs_entirely_on_the_image(self, stolen_world):
        rig, t_loss, dd_image = stolen_world
        image_fs = RawDiskFs(parse_raw_disk(dd_image, block_size=4096))
        attacker = OfflineAttacker(
            image_fs, "hunter2", services=rig.services
        )

        def attack():
            tree = yield from attacker.list_tree("/home")
            result = yield from attacker.try_read("/home/payroll.xls")
            return tree, result

        tree, result = rig.run(attack())
        assert "/home/payroll.xls" in tree
        assert result.success
        assert b"salaries" in result.data

        report = AuditTool(rig.key_service, rig.metadata_service).report(
            t_loss=t_loss, texp=20.0
        )
        analysis = analyze_fidelity(report, attacker.truly_accessed_ids)
        assert analysis.zero_false_negatives
        paths = set(report.compromised_paths().values())
        assert "/home/payroll.xls" in paths
        assert "/home/wallpaper.jpg" not in paths

    def test_image_without_services_is_useless(self, stolen_world):
        rig, _t_loss, dd_image = stolen_world
        image_fs = RawDiskFs(parse_raw_disk(dd_image, block_size=4096))
        attacker = OfflineAttacker(image_fs, "hunter2")  # no services

        def attack():
            result = yield from attacker.try_read("/home/payroll.xls")
            return result

        result = rig.run(attack())
        assert not result.success

    def test_image_is_read_only(self, stolen_world):
        from repro.errors import InvalidArgument

        rig, _t_loss, dd_image = stolen_world
        image_fs = RawDiskFs(parse_raw_disk(dd_image, block_size=4096))

        def mutate():
            yield from image_fs.create("/evil")

        with pytest.raises(InvalidArgument):
            rig.run(mutate())

    def test_post_image_writes_invisible(self, stolen_world):
        """The image is a point-in-time copy: later owner activity
        (on a recovered device) never appears in it."""
        rig, _t_loss, dd_image = stolen_world

        def more_activity():
            yield from rig.fs.create("/home/after_theft.txt")
            yield from rig.fs.write("/home/after_theft.txt", 0, b"new")
            yield from rig.lower.sync()

        rig.run(more_activity())
        image_fs = RawDiskFs(parse_raw_disk(dd_image, block_size=4096))
        attacker = OfflineAttacker(image_fs, "hunter2")

        def attack():
            tree = yield from attacker.list_tree("/home")
            return tree

        tree = rig.run(attack())
        assert "/home/after_theft.txt" not in tree
