"""The ``repro workload`` command surface."""

import json

import pytest

from repro.cli import main


class TestWorkloadCli:
    def test_synthesize_describe_replay_round_trip(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main([
            "workload", "synthesize", "--preset", "shift_change",
            "--seed", "3", "--frames", "24", "--devices", "8",
            "--depth", "3", "--out", trace,
        ]) == 0
        out = capsys.readouterr().out
        assert "shift_change" in out
        assert f"wrote {trace}" in out

        assert main(["workload", "describe", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "spec 'shift_change'" in out
        assert "network hint" in out

        assert main([
            "workload", "replay", "--trace", trace, "--sim-frames", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out
        assert "replay certificate: ok" in out

    def test_replay_detects_tampering(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main([
            "workload", "synthesize", "--preset", "steady",
            "--seed", "1", "--frames", "16", "--devices", "6",
            "--out", trace,
        ]) == 0
        capsys.readouterr()
        lines = open(trace).read().splitlines()
        doc = json.loads(lines[1])
        doc["rate"] = doc.get("rate", 1.0) + 0.5
        lines[1] = json.dumps(doc, separators=(",", ":"))
        with open(trace, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["workload", "replay", "--trace", trace]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_replay_requires_trace(self, capsys):
        assert main(["workload", "replay"]) == 2
