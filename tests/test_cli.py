import csv
import json

import pytest

from lacvoid import read_trace
from lacvoid.cli import main

MODEL = ["--seed-model", "d16,h2,l4", "--seed", "3"]


def run(args):
    return main(args)


class TestTrace:
    def test_basic_contract(self, tmp_path, capsys):
        code = run(["trace", *MODEL, "--prompt", "hi", "--alpha", "0.8",
                    "--mode", "detect", "--max-new", "4", "--out", str(tmp_path)])
        assert code == 0
        records = read_trace(tmp_path / "trace.jsonl")
        pp = [r for r in records if r.phase == "PP"]
        rg = [r for r in records if r.phase == "RG"]
        assert len(pp) == 2
        assert len(rg) >= 1
        out = capsys.readouterr().out
        assert "seq000" in out and "pp_tokens=2" in out

    def test_bad_alpha_exits_2(self, tmp_path):
        assert run(["trace", *MODEL, "--prompt", "hi", "--alpha", "1.5", "--out", str(tmp_path)]) == 2

    def test_missing_model_source_exits_2(self, tmp_path):
        assert run(["trace", "--prompt", "hi", "--out", str(tmp_path)]) == 2

    def test_both_model_sources_exit_2(self, tmp_path):
        assert run(["trace", *MODEL, "--weights", "w.bin", "--prompt", "hi", "--out", str(tmp_path)]) == 2

    def test_both_prompt_sources_exit_2(self, tmp_path):
        assert run(["trace", *MODEL, "--prompt", "hi", "--suite", "copy", "--out", str(tmp_path)]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["trace", *MODEL, "--prompt", "same flags", "--max-new", "6", "--out", str(out)]) == 0
            blobs.append((out / "trace.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_prompt_file_multisequence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LAC_VOID_THREADS", "2")
        pf = tmp_path / "prompts.txt"
        pf.write_text("one\ntwo\nthree\n", encoding="utf-8")
        assert run(["trace", *MODEL, "--prompt-file", str(pf), "--max-new", "2", "--out", str(tmp_path)]) == 0
        seqs = {r.sequence_id for r in read_trace(tmp_path / "trace.jsonl")}
        assert seqs == {"seq000", "seq001", "seq002"}

    def test_granularity_and_formula_flags(self, tmp_path):
        assert run(["trace", *MODEL, "--prompt", "coarse", "--granularity", "example",
                    "--formula", "original", "--max-new", "2", "--out", str(tmp_path)]) == 0
        records = read_trace(tmp_path / "trace.jsonl")
        assert all(r.formula == "original" for r in records)
        # per-example halting applies one decision to every prompt token
        pp = [r for r in records if r.phase == "PP"]
        assert all(r.layer_flags == pp[0].layer_flags for r in pp)

    def test_weights_round_trip(self, tmp_path):
        from lacvoid import ModelConfig, build_model, save_weights

        weights = tmp_path / "model.lactnsr"
        save_weights(build_model(ModelConfig(layer_count=4, depth=16, head_count=2, ffn_dim=64, seed=3)), weights)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["trace", *MODEL, "--prompt", "roundtrip", "--out", str(a)]) == 0
        assert run(["trace", "--weights", str(weights), "--prompt", "roundtrip", "--out", str(b)]) == 0
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()

    def test_malformed_container_exits_1(self, tmp_path, capsys):
        header = b'{"config":{"dtype":"f32","offset":0,"shape":null}}'
        weights = tmp_path / "model.lactnsr"
        weights.write_bytes(b"LACTNSR1" + len(header).to_bytes(4, "little") + header + bytes(24))
        assert run(["trace", "--weights", str(weights), "--prompt", "x", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_ten_alphas_monotone(self, tmp_path):
        alphas = ",".join(f"{0.1 * k:.1f}" for k in range(1, 11))
        assert run(["sweep", *MODEL, "--prompt", "sweep this text", "--max-new", "4",
                    "--alphas", alphas, "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 10
        pp = [float(r["pp_usage"]) for r in rows]
        rg = [float(r["rg_usage"]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(pp, pp[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(rg, rg[1:]))

    def test_single_alpha_matches_report(self, tmp_path):
        # detect-mode trace at alpha .8 re-thresholded at .8 equals the
        # usage the report computes from the recorded flags
        assert run(["sweep", *MODEL, "--prompt", "consistency", "--alpha", "0.8",
                    "--alphas", "0.8", "--max-new", "4", "--out", str(tmp_path)]) == 0
        row, = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
        rep_dir = tmp_path / "rep"
        assert run(["report", "--trace", str(tmp_path / "trace.jsonl"), "--out", str(rep_dir)]) == 0
        summary = json.loads((rep_dir / "report_summary.json").read_text())
        assert float(row["pp_usage"]) == pytest.approx(summary["average_usage"]["PP"], abs=1e-9)
        assert float(row["rg_usage"]) == pytest.approx(summary["average_usage"]["RG"], abs=1e-9)

    def test_empty_alpha_list_exits_2(self, tmp_path):
        assert run(["sweep", *MODEL, "--prompt", "x", "--alphas", "", "--out", str(tmp_path)]) == 2

    def test_suite_scores_present(self, tmp_path):
        assert run(["sweep", *MODEL, "--suite", "copy", "--alphas", "0.2,0.8",
                    "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
        assert all(r["task_score"] != "" for r in rows)


class TestReport:
    def test_outputs(self, tmp_path):
        trace_dir = tmp_path / "t"
        assert run(["trace", *MODEL, "--prompt", "report me", "--max-new", "3",
                    "--out", str(trace_dir)]) == 0
        out = tmp_path / "r"
        assert run(["report", "--trace", str(trace_dir / "trace.jsonl"), "--out", str(out)]) == 0
        assert (out / "report.csv").exists()
        assert (out / "report_summary.json").exists()
        assert (out / "bitmap_seq000_pp.pgm").exists()
        assert (out / "bitmap_seq000_rg.pgm").exists()
        pgm = (out / "bitmap_seq000_pp.pgm").read_text()
        assert pgm.startswith("P2\n9 4\n255\n")

    def test_missing_trace_exits_1(self, tmp_path):
        assert run(["report", "--trace", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)]) == 1

    def test_non_object_line_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("1\n", encoding="utf-8")
        assert run(["report", "--trace", str(trace), "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def parse_table(self, text):
        rows = {}
        for line in text.splitlines():
            parts = line.split()
            if parts and parts[0] in ("score", "pp_usage", "rg_usage"):
                rows[parts[0]] = (parts[1], parts[2])
        return rows

    def test_off_vs_detect_identical_scores(self, tmp_path, capsys):
        assert run(["compare", *MODEL, "--suite", "copy", "--mode", "detect",
                    "--out", str(tmp_path)]) == 0
        rows = self.parse_table(capsys.readouterr().out)
        assert rows["score"][0] == rows["score"][1]

    def test_default_skip_side_is_skip_identity(self, tmp_path, capsys):
        assert run(["compare", *MODEL, "--suite", "copy", "--out", str(tmp_path)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "skip=skip-identity" in header

    def test_deterministic_score_pair(self, tmp_path, capsys):
        outs = []
        for _ in range(2):
            assert run(["compare", *MODEL, "--suite", "copy", "--out", str(tmp_path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_unknown_suite_exits_2(self, tmp_path):
        assert run(["compare", *MODEL, "--suite", "nonsense", "--out", str(tmp_path)]) == 2

    def test_requires_suite(self, tmp_path):
        assert run(["compare", *MODEL, "--out", str(tmp_path)]) == 2
