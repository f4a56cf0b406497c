"""Workload-generator tests: op-count shapes match the paper's anchors."""

import pytest

from repro.attack import run_scenario
from repro.api import KeypadConfig, LAN
from repro.forensics import AuditTool
from repro.harness import build_ext3_rig, build_keypad_rig
from repro.workloads import (
    ApacheCompileWorkload,
    CopyPhotoAlbumWorkload,
    FindInHierarchyWorkload,
    OFFICE_TASKS,
    UsageTraceWorkload,
    average_over_windows,
    prepare_office_environment,
    task_by_name,
)


class TestApacheWorkload:
    def test_full_scale_op_counts_match_paper(self):
        """Paper: 75,744 reads+writes; ~1000 metadata ops; 486 distinct
        protected files fetched at Texp=100 s without prefetching."""
        rig = build_ext3_rig()
        w = ApacheCompileWorkload(scale=1.0)
        rig.run(w.prepare(rig.fs))
        counter = rig.run(w.run(rig.fs))
        assert 70_000 <= counter.content_ops <= 80_000
        assert 900 <= counter.metadata_ops <= 1_200

    def test_distinct_file_population(self):
        w = ApacheCompileWorkload(scale=1.0)
        # sources + headers = the 486 key fetches the paper reports.
        assert w.n_src_dirs * w.sources_per_dir + w.n_headers == 486

    def test_scaled_run_shrinks(self):
        rig = build_ext3_rig()
        w = ApacheCompileWorkload(scale=0.1)
        rig.run(w.prepare(rig.fs))
        counter = rig.run(w.run(rig.fs))
        assert counter.content_ops < 10_000

    def test_deterministic(self):
        def once():
            rig = build_ext3_rig()
            w = ApacheCompileWorkload(scale=0.05)
            rig.run(w.prepare(rig.fs))
            rig.run(w.run(rig.fs))
            return (w.counter.as_dict(), rig.sim.now)

        assert once() == once()

    def test_cpu_charge_only_with_sim(self):
        rig = build_ext3_rig()
        w = ApacheCompileWorkload(scale=0.05)
        rig.run(w.prepare(rig.fs))
        t0 = rig.sim.now
        rig.run(w.run(rig.fs, rig.sim))
        with_cpu = rig.sim.now - t0

        rig2 = build_ext3_rig()
        w2 = ApacheCompileWorkload(scale=0.05)
        rig2.run(w2.prepare(rig2.fs))
        t0 = rig2.sim.now
        rig2.run(w2.run(rig2.fs))
        without_cpu = rig2.sim.now - t0
        assert with_cpu > without_cpu * 2


class TestOfficeWorkloads:
    @pytest.fixture(scope="class")
    def office_rig(self):
        config = KeypadConfig(texp=100.0, prefetch="dir:3", ibe_enabled=False)
        rig = build_keypad_rig(network=LAN, config=config)
        rig.run(prepare_office_environment(rig.fs))
        return rig

    def test_all_tasks_run(self, office_rig):
        rig = office_rig
        for task in OFFICE_TASKS:
            counter = rig.run(task.run(rig.fs, rig.sim))
            assert counter.total >= 0  # completed without error

    def test_save_as_is_metadata_heavy(self, office_rig):
        """Paper: OO save = 11 FS ops, 7 of them metadata."""
        rig = office_rig
        task = task_by_name("OpenOffice", "Save as")
        counter = rig.run(task.run(rig.fs, rig.sim))
        assert counter.metadata_ops + counter.unlinks >= 5
        assert counter.content_ops >= 2

    def test_launch_tasks_read_many_files(self, office_rig):
        rig = office_rig
        counter = rig.run(task_by_name("OpenOffice", "Launch").run(rig.fs, rig.sim))
        assert counter.reads == 45  # 3 dirs x 15 mapped files

    def test_task_lookup_unknown(self):
        with pytest.raises(KeyError):
            task_by_name("Emacs", "Launch")


class TestScanWorkloads:
    def test_find_in_hierarchy_ops(self):
        rig = build_ext3_rig()
        w = FindInHierarchyWorkload()
        rig.run(w.prepare(rig.fs))
        counter = rig.run(w.run(rig.fs))
        # 95 files x 2 chunks = 190 reads (the paper's ~57 s / 0.3 s RTT
        # unoptimized cost over 3G).
        assert counter.reads == 190

    def test_copy_album_ops(self):
        rig = build_ext3_rig()
        w = CopyPhotoAlbumWorkload()
        rig.run(w.prepare(rig.fs))
        counter = rig.run(w.run(rig.fs))
        assert counter.creates == 35
        assert counter.reads == 35 * 4
        assert counter.writes == 35 * 4

    def test_copy_album_idempotent(self):
        rig = build_ext3_rig()
        w = CopyPhotoAlbumWorkload()
        rig.run(w.prepare(rig.fs))
        rig.run(w.run(rig.fs))
        counter = rig.run(w.run(rig.fs))  # second copy overwrites
        assert counter.unlinks == 35


class TestUsageTrace:
    def test_trace_runs_and_sessions_recorded(self):
        config = KeypadConfig(texp=100.0, prefetch="dir:3", ibe_enabled=False)
        rig = build_keypad_rig(network=LAN, config=config)
        w = UsageTraceWorkload(days=1.0, seed=5)
        rig.run(w.prepare(rig.fs))
        counter = rig.run(w.run(rig.fs, rig.sim))
        assert counter.total > 50
        assert len(w.sessions) >= 2
        for start, end in w.sessions:
            assert end > start

    def test_average_over_windows(self):
        samples = [(0.0, 0), (10.0, 5), (20.0, 0)]
        # Value is 5 during [10, 20).
        assert average_over_windows(samples, [(10.0, 20.0)]) == pytest.approx(5.0)
        assert average_over_windows(samples, [(0.0, 20.0)]) == pytest.approx(2.5)
        assert average_over_windows(samples, [(15.0, 25.0)]) == pytest.approx(2.5)
        assert average_over_windows(samples, []) == 0.0


class TestThiefScenarioRatios:
    """§5.2: FP-to-accessed ratios for the three thief scenarios."""

    def _run(self, scenario):
        config = KeypadConfig(texp=100.0, prefetch="dir:3", ibe_enabled=False)
        rig = build_keypad_rig(network=LAN, config=config)
        rig.run(prepare_office_environment(rig.fs))

        def idle():
            yield rig.sim.timeout(600.0)

        rig.run(idle())
        rig.fs.key_cache.evict_all()
        rig.fs.prefetch_policy.reset()
        t_loss = rig.sim.now
        result = rig.run(run_scenario(rig.fs, scenario))
        tool = AuditTool(rig.key_service, rig.metadata_service)
        report = tool.report(t_loss=t_loss, texp=config.texp)
        fp, total = result.fp_ratio(report.compromised_ids)
        return fp, total, result, report

    def test_thunderbird_scenario(self):
        fp, total, _result, _report = self._run("thunderbird")
        # Paper: 3:30.  Shape: high precision, a few prefetch FPs.
        assert 0 < fp <= 6
        assert 25 <= total <= 50
        assert fp / total < 0.2

    def test_document_editor_scenario(self):
        fp, total, _result, _report = self._run("document-editor")
        # Paper: 6:67.
        assert 3 <= fp <= 10
        assert 55 <= total <= 75
        assert fp / total < 0.2

    def test_firefox_profile_scenario(self):
        fp, total, _result, _report = self._run("firefox-profile")
        # Paper: 0:12 — reading every profile file gives zero FPs.
        assert fp == 0
        assert total == 12

    def test_firefox_cache_bad_case_localized(self):
        fp, total, result, report = self._run("firefox-cache")
        # Many FPs, but every false positive is in the cache directory.
        assert fp > 10
        paths = report.compromised_paths()
        fp_ids = report.compromised_ids - result.accessed_ids
        for audit_id in fp_ids:
            assert paths[audit_id].startswith("/home/user/.mozilla/cache/")

    def test_zero_false_negatives_all_scenarios(self):
        from repro.forensics import analyze_fidelity

        for scenario in ("thunderbird", "document-editor", "firefox-profile",
                         "firefox-cache"):
            fp, total, result, report = self._run(scenario)
            analysis = analyze_fidelity(report, result.accessed_ids)
            assert analysis.zero_false_negatives, scenario
