"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--slotframes", "3"]) == 0
        out = capsys.readouterr().out
        assert "collision-free" in out
        assert "e2e latency" in out


class TestLayout:
    def test_layout_prints_map(self, capsys):
        assert main(["layout"]) == 0
        out = capsys.readouterr().out
        assert "gateway super-partitions" in out
        assert "slotframe map" in out
        assert "ch  0" in out


class TestCollide:
    def test_collide_reports_all_schedulers(self, capsys):
        assert main(["collide", "--topologies", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("random", "msf", "ldsf", "harp"):
            assert name in out

    def test_harp_zero_on_default_workload(self, capsys):
        main(["collide", "--topologies", "2"])
        out = capsys.readouterr().out
        harp_line = next(l for l in out.splitlines() if "harp" in l)
        assert "0.000" in harp_line


class TestAdjust:
    def test_adjust_known_node(self, capsys):
        assert main(["adjust", "--node", "31", "--rate", "2"]) == 0
        out = capsys.readouterr().out
        assert "partition messages" in out

    def test_adjust_unknown_node(self, capsys):
        assert main(["adjust", "--node", "999", "--rate", "2"]) == 2


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_evaluate_quick_flag_parses(self):
        # Don't actually run the evaluation here; just check dispatch
        # wiring by replacing the target function.
        import repro.cli as cli

        called = {}
        original = cli.evaluation_runner.main

        def fake_main(argv):
            called["argv"] = argv
            return 0

        cli.evaluation_runner.main = fake_main
        try:
            assert main(["evaluate", "--quick"]) == 0
            assert called["argv"] == ["--quick"]
        finally:
            cli.evaluation_runner.main = original


class TestCapacityAndSnapshot:
    def test_capacity_command(self, capsys):
        assert main(["capacity"]) == 0
        out = capsys.readouterr().out
        assert "max uniform e2e rate" in out

    def test_snapshot_round_trips(self, capsys, tmp_path):
        path = str(tmp_path / "net.json")
        assert main(["snapshot", "--out", path]) == 0
        from repro.net.serialization import load_network_file

        topo, tasks, partitions, schedule = load_network_file(path)
        schedule.validate_collision_free(topo)


class TestAudit:
    def test_demo_network_is_clean(self, capsys):
        assert main(["audit"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_snapshot_audit(self, capsys, tmp_path):
        path = str(tmp_path / "net.json")
        main(["snapshot", "--out", path])
        capsys.readouterr()
        assert main(["audit", "--snapshot", path]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupted_snapshot_flagged(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "net.json")
        main(["snapshot", "--out", path])
        capsys.readouterr()
        with open(path) as handle:
            doc = json.load(handle)
        # Steal a link's cells: under-provisioning must be flagged.
        doc["schedule"]["links"][0]["cells"] = []
        with open(path, "w") as handle:
            json.dump(doc, handle)
        assert main(["audit", "--snapshot", path]) == 1
        assert "under-provisioned" in capsys.readouterr().out


class TestFuzz:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--cases", "5"]) == 0
        out = capsys.readouterr().out
        assert "5 cases" in out
        assert "0 violations, 0 errors" in out

    def test_out_exports_report_json(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "fuzz.json")
        assert main([
            "fuzz", "--cases", "4", "--seed", "7", "--out", path,
        ]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["cases_run"] == 4
        assert doc["first_seed"] == 7
        assert doc["counterexamples"] == []

    def test_budget_flag_is_respected(self, capsys):
        assert main(["fuzz", "--cases", "100000", "--budget", "0"]) == 0
        assert "budget exhausted" in capsys.readouterr().out

    def test_replay_seed_reruns_one_case(self, capsys):
        assert main(["fuzz", "--replay-seed", "0"]) == 0
        assert "seed 0: ok" in capsys.readouterr().out

    def test_replay_corpus_round_trip(self, capsys, tmp_path):
        from repro.verify.fuzz import Counterexample, FuzzReport, save_report
        from repro.verify.generators import generate_scenario
        from repro.verify.oracles import Violation

        path = str(tmp_path / "corpus.json")
        report = FuzzReport(
            cases_run=1,
            violations=1,
            counterexamples=[
                Counterexample(
                    scenario=generate_scenario(0),
                    violations=[Violation("collision-freedom", "synthetic")],
                )
            ],
        )
        save_report(report, path)
        # The scenario passes on current code, so the replay exits 0.
        assert main(["fuzz", "--replay", path]) == 0
        assert "replayed 1 counterexample(s): 0 still failing" in (
            capsys.readouterr().out
        )

    def test_violations_exit_one(self, capsys, monkeypatch):
        import repro.verify as verify
        from repro.verify.fuzz import Counterexample, FuzzReport
        from repro.verify.generators import generate_scenario
        from repro.verify.oracles import Violation

        def fake_run_fuzz(**kwargs):
            return FuzzReport(
                cases_run=1,
                violations=1,
                counterexamples=[
                    Counterexample(
                        scenario=generate_scenario(0),
                        violations=[Violation("collision-freedom", "boom")],
                    )
                ],
            )

        monkeypatch.setattr(verify, "run_fuzz", fake_run_fuzz)
        assert main(["fuzz", "--cases", "1"]) == 1
        out = capsys.readouterr().out
        assert "counterexample" in out
        assert "collision-freedom: boom" in out

    def test_bad_cases_argument_errors(self):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--cases", "lots"])
        assert exc.value.code == 2


class TestFaults:
    def test_faults_renders_table(self, capsys):
        assert main([
            "faults", "--crashes", "1", "--seeds", "1",
            "--post-slotframes", "25",
        ]) == 0
        out = capsys.readouterr().out
        assert "recovery latency" in out
        assert "Detect(SF)" in out

    def test_faults_seed_and_out_export_json(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "fault-study.json")
        assert main([
            "faults", "--crashes", "1", "--seeds", "1", "--seed", "3",
            "--post-slotframes", "25", "--out", path,
        ]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["seeds"] == [3]
        assert doc["rows"][0]["crashes"] == 1
        assert doc["rows"][0]["runs"] == 1


class TestScaleBench:
    def test_bench_ladder_replaces_report(self, capsys, tmp_path):
        """``--out`` writes a fresh ladder report: whatever the file
        held before is gone, and nothing compares against a committed
        baseline."""
        import json

        path = str(tmp_path / "bench.json")
        with open(path, "w") as handle:
            json.dump({"schema": 2, "junk": True}, handle)
        assert main(["bench", "--sizes", "60", "--out", path]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "storm" in out
        assert f"wrote {path}" in out
        with open(path) as handle:
            doc = json.load(handle)
        assert "junk" not in doc and "schema" not in doc
        assert not [key for key in doc if "baseline" in key]
        assert doc["sizes"] == [60]
        point = doc["points"]["60"]
        assert point["static"]["seconds"] > 0
        assert point["storm"]["succeeded"] == point["storm"]["ops"]
        assert point["engine"]["slots_per_sec"] > 0
        assert doc["meta"]["python"]

    def test_bench_meta_sha_is_checkout_head(self, tmp_path, monkeypatch):
        """The recorded sha is this checkout's HEAD even when the
        caller's working directory is elsewhere."""
        import subprocess
        from pathlib import Path

        from repro.bench import collect_meta

        root = Path(__file__).resolve().parent.parent
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, cwd=root,
        ).stdout.strip()
        if not head:
            pytest.skip("not running from a git checkout")
        monkeypatch.chdir(tmp_path)
        assert collect_meta()["git_sha"] == head

    def test_bench_rejects_retired_flags(self):
        """The ladder takes only --sizes/--seed/--out."""
        for argv in (
            ["bench", "--slotframes", "5"],
            ["bench", "--scale"],
            ["bench", "--workers", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_profile_prints_hotspots(self, capsys):
        assert main(["profile", "static", "--size", "60", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "bench_scale_static" in out

    def test_profile_static_wave_table_shape(self, capsys):
        """One row per non-leaf depth, deepest first; every composition
        is either a cache hit or a miss; node visits cover both
        directions."""
        assert main(["profile", "static", "--size", "60", "--top", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index(
            "  wave   nodes  compositions   seconds   hit/miss"
        )
        rows = []
        for line in lines[start + 2:]:
            if not line.startswith("  d="):
                break
            depth, nodes, compositions, seconds, hit_miss = line.split()
            hits, misses = map(int, hit_miss.split("/"))
            assert int(compositions) == hits + misses
            assert float(seconds) >= 0.0
            rows.append((int(depth[2:]), int(nodes)))
        depths = [depth for depth, _ in rows]
        assert depths == sorted(depths, reverse=True) and depths[-1] == 0
        total = lines[start + 2 + len(rows)]
        assert total.startswith("  total ")
        assert total.endswith(f"over {sum(n for _, n in rows)} node visits")
        assert all(nodes % 2 == 0 for _, nodes in rows)

    def test_profile_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "everything"])
        assert exc.value.code == 2


class TestLiveFuzz:
    def test_live_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--live", "--cases", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 cases" in out
        assert "0 violations, 0 errors" in out

    def test_live_replay_seed(self, capsys):
        assert main(["fuzz", "--live", "--replay-seed", "0"]) == 0
        assert "seed 0: ok" in capsys.readouterr().out


class TestRoam:
    def test_study_exits_zero_and_exports(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "roam.json")
        assert main([
            "roam", "--seeds", "1", "--workers", "1", "--out", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "proactive" in out and "reactive" in out
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["delta_mean"] > 0
        assert doc["adjust_ops_per_sec"] > 0
        assert len(doc["rows"]) == 2
