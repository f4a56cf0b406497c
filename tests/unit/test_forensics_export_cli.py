"""Tests for log export/import and the keypad-audit CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.api import KeypadConfig, LAN
from repro.forensics import AuditTool
from repro.forensics.export import export_logs, load_bundle
from repro.harness import build_keypad_rig


@pytest.fixture()
def used_rig():
    config = KeypadConfig(texp=50.0, prefetch="none", ibe_enabled=False)
    rig = build_keypad_rig(network=LAN, config=config)

    def usage():
        yield from rig.fs.mkdir("/home")
        yield from rig.fs.create("/home/a.txt")
        yield from rig.fs.write("/home/a.txt", 0, b"data")
        yield rig.sim.timeout(200.0)
        yield from rig.fs.read("/home/a.txt", 0, 4)

    rig.run(usage())
    return rig


class TestExport:
    def test_roundtrip_produces_same_report(self, used_rig):
        rig = used_rig
        bundle = export_logs(rig.key_service, rig.metadata_service)
        key_log, metadata = load_bundle(bundle)

        live = AuditTool(rig.key_service, rig.metadata_service).report(
            t_loss=150.0, texp=50.0
        )
        offline = AuditTool(key_log, metadata).report(t_loss=150.0, texp=50.0)
        assert {r.audit_id for r in offline.records} == {
            r.audit_id for r in live.records
        }
        assert offline.compromised_paths() == live.compromised_paths()
        assert offline.logs_intact

    def test_bundle_is_valid_json(self, used_rig):
        bundle = export_logs(used_rig.key_service, used_rig.metadata_service)
        parsed = json.loads(bundle)
        assert parsed["format"] == 2
        assert parsed["key_access_log"]
        live = list(used_rig.key_service.access_log)
        assert [(r["sequence"], r["chain_hash"])
                for r in parsed["key_access_log"]] == [
            (e.sequence, e.chain_hash.hex()) for e in live]

    def test_bad_format_rejected(self):
        # Format 1 bundles carry no chain hashes, so they are refused too.
        for version in (1, 999):
            with pytest.raises(ValueError):
                load_bundle(json.dumps({"format": version}))

    def test_loaded_entries_keep_their_chain(self, used_rig):
        key_log, metadata = load_bundle(
            export_logs(used_rig.key_service, used_rig.metadata_service))
        assert list(key_log.access_log) == list(
            used_rig.key_service.access_log)
        assert list(metadata.metadata_log) == list(
            used_rig.metadata_service.metadata_log)

    def test_offline_path_reconstruction(self, used_rig):
        rig = used_rig
        bundle = export_logs(rig.key_service, rig.metadata_service)
        _key_log, metadata = load_bundle(bundle)

        def get_id():
            audit_id = yield from rig.fs.audit_id_of("/home/a.txt")
            return audit_id

        audit_id = rig.run(get_id())
        assert metadata.path_of(audit_id) == "/home/a.txt"
        assert metadata.path_of(b"\x00" * 24) is None


class TestCli:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--texp", "50"]) == 0
        out = capsys.readouterr().out
        assert "KEYPAD FORENSIC AUDIT REPORT" in out
        assert "No key accesses" in out

    def test_demo_with_steal(self, capsys):
        assert main(["demo", "--steal"]) == 0
        out = capsys.readouterr().out
        assert "/home/taxes.pdf" in out

    def test_demo_export_then_report(self, tmp_path, capsys):
        bundle_path = tmp_path / "logs.json"
        assert main(["demo", "--steal", "--export", str(bundle_path)]) == 0
        capsys.readouterr()
        assert main([
            "report", "--bundle", str(bundle_path),
            "--tloss", "600", "--texp", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "/home/taxes.pdf" in out
        assert "VERIFIED" in out

    def test_report_filters_device(self, tmp_path, capsys):
        bundle_path = tmp_path / "logs.json"
        main(["demo", "--steal", "--export", str(bundle_path)])
        capsys.readouterr()
        main(["report", "--bundle", str(bundle_path), "--tloss", "600",
              "--device", "someone-else"])
        out = capsys.readouterr().out
        assert "No key accesses" in out

    @pytest.mark.parametrize("tamper", ["remove", "reorder", "edit"])
    def test_tampered_bundle_breaks_the_chain(self, tmp_path, capsys,
                                              tamper):
        bundle_path = tmp_path / "logs.json"
        assert main(["demo", "--steal", "--export", str(bundle_path)]) == 0
        bundle = json.loads(bundle_path.read_text())
        records = bundle["key_access_log"]
        creates = [i for i, r in enumerate(records) if r["kind"] == "create"]
        if tamper == "remove":
            del records[creates[1]]
        elif tamper == "reorder":
            records[0], records[1] = records[1], records[0]
        else:
            records[creates[1]]["timestamp"] += 1.0
        bundle_path.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["report", "--bundle", str(bundle_path),
                     "--tloss", "600", "--texp", "600"]) == 2
        assert "*** BROKEN CHAIN ***" in capsys.readouterr().out
        assert main(["forensics", "--bundle", str(bundle_path),
                     "--tloss", "600", "--texp", "600"]) == 2
        assert "does not verify" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
