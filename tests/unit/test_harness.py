"""Tests for the experiment harness: rigs, result tables, microbench."""

import pytest

from repro.api import KeypadConfig, LAN, THREE_G, WLAN
from repro.harness import (
    build_encfs_rig,
    build_ext3_rig,
    build_keypad_rig,
    build_nfs_rig,
)
from repro.harness.compilebench import run_compile
from repro.harness.results import ResultTable


class TestResultTable:
    def test_add_and_render(self):
        table = ResultTable("T", ["a", "b"])
        table.add("x", 1.5)
        table.add("yy", 2)
        text = table.render()
        assert "T" in text and "1.500" in text and "yy" in text

    def test_width_mismatch_rejected(self):
        table = ResultTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add("only-one")

    def test_markdown(self):
        table = ResultTable("T", ["a"])
        table.add(1)
        md = table.render_markdown()
        assert md.startswith("### T")
        assert "| a |" in md

    def test_column_accessor(self):
        table = ResultTable("T", ["a", "b"])
        table.add(1, 2)
        table.add(3, 4)
        assert table.column("b") == [2, 4]

    def test_notes(self):
        table = ResultTable("T", ["a"])
        table.note("anchor value")
        assert "anchor value" in table.render()


class TestRigs:
    def test_keypad_rig_seeded_determinism(self):
        def fingerprint():
            rig = build_keypad_rig(network=WLAN, seed=b"fixed")

            def proc():
                yield from rig.fs.create("/f")
                audit_id = yield from rig.fs.audit_id_of("/f")
                return audit_id

            return rig.run(proc())

        assert fingerprint() == fingerprint()

    def test_different_seeds_different_ids(self):
        ids = []
        for seed in (b"one", b"two"):
            rig = build_keypad_rig(network=WLAN, seed=seed)

            def proc():
                yield from rig.fs.create("/f")
                audit_id = yield from rig.fs.audit_id_of("/f")
                return audit_id

            ids.append(rig.run(proc()))
        assert ids[0] != ids[1]

    def test_sever_device_links(self):
        rig = build_keypad_rig(network=LAN)
        rig.sever_device_links()
        assert not rig.key_link.available
        assert not rig.metadata_link.available

    def test_phone_requires_flag(self):
        rig = build_keypad_rig(network=LAN)
        with pytest.raises(ValueError):
            rig.attach_phone()

    def test_all_rig_kinds_run_a_file_op(self):
        for builder in (build_ext3_rig, build_encfs_rig):
            rig = builder()

            def proc():
                yield from rig.fs.create("/x")
                exists = yield from rig.fs.exists("/x")
                return exists

            assert rig.run(proc()) is True
        nfs = build_nfs_rig(LAN)

        def proc():
            yield from nfs.fs.create("/x")
            exists = yield from nfs.fs.exists("/x")
            return exists

        assert nfs.run(proc()) is True


class TestRunCompile:
    def test_unknown_fs_kind(self):
        with pytest.raises(ValueError):
            run_compile("zfs")

    def test_keypad_faster_with_caching_than_without_over_3g(self):
        slow = run_compile(
            "keypad", THREE_G,
            KeypadConfig(texp=0.0, prefetch="none", ibe_enabled=False),
            scale=0.05,
        )
        fast = run_compile(
            "keypad", THREE_G,
            KeypadConfig(texp=100.0, prefetch="none", ibe_enabled=False),
            scale=0.05,
        )
        assert fast.seconds < slow.seconds
        assert fast.blocking_key_fetches < slow.blocking_key_fetches

    def test_compile_result_fields(self):
        result = run_compile("ext3", scale=0.05, include_cpu=False)
        assert result.content_ops > 0
        assert result.seconds > 0
        assert result.blocking_key_fetches == 0
