import csv
import hashlib
import json
import os
import sys
import tracemalloc

import pytest

from conftest import make_record
from lacvoid import read_trace, write_trace
from lacvoid.cli import main

MODEL = ["--seed-model", "d16,h2,l4", "--seed", "3"]

# sha256 of trace.jsonl for RAGGED_PROMPTS, --max-new 12 --alpha 0.6, taken
# from the sequence-at-a-time decoder that batched decoding replaced.
RAGGED_PROMPTS = "abcdef\nghijkl\nmnopqr\nxy\nstuvwx\n"
RAGGED_DIGESTS = {
    ("off", "batch"): "590f5d37a8231e7e29300b061464717888c1c47a44cce9700800883edc2836f7",
    ("off", "example"): "590f5d37a8231e7e29300b061464717888c1c47a44cce9700800883edc2836f7",
    ("off", "token"): "590f5d37a8231e7e29300b061464717888c1c47a44cce9700800883edc2836f7",
    ("detect", "batch"): "bd9daf5419753f97c82c10aef2c195daaaed38cb218494169ac7f3b61787b136",
    ("detect", "example"): "bd9daf5419753f97c82c10aef2c195daaaed38cb218494169ac7f3b61787b136",
    ("detect", "token"): "2f5beeb2edf528e426a345213945412a579a78caf1ecf9ac769acebcbc460b7c",
    ("mask-zero", "batch"): "ddd459232e61d73f1990d412e17eafb91c8045abdd67d8935cb7c0a31d244a28",
    ("mask-zero", "example"): "ddd459232e61d73f1990d412e17eafb91c8045abdd67d8935cb7c0a31d244a28",
    ("mask-zero", "token"): "ddd459232e61d73f1990d412e17eafb91c8045abdd67d8935cb7c0a31d244a28",
    ("skip-identity", "batch"): "c57b3ee97ea7ef2f0b3f8f9351023f3caafb591499c42eb2a3e673eff3eb2daa",
    ("skip-identity", "example"): "c57b3ee97ea7ef2f0b3f8f9351023f3caafb591499c42eb2a3e673eff3eb2daa",
    ("skip-identity", "token"): "771f82300e65a2d55e963f975299a073a4bf74d25bd46a6561a09ee23cfdb442",
    ("halt-frozen", "batch"): "0d25b4be9c048d3293f5bbbea1fef000f466f45b3b346e51fa0c4bd6b47aed02",
    ("halt-frozen", "example"): "0d25b4be9c048d3293f5bbbea1fef000f466f45b3b346e51fa0c4bd6b47aed02",
    ("halt-frozen", "token"): "0d25b4be9c048d3293f5bbbea1fef000f466f45b3b346e51fa0c4bd6b47aed02",
}


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

    def test_prompt_file_multisequence(self, tmp_path):
        pf = tmp_path / "prompts.txt"
        pf.write_text("one\ntwo\nthree\n", encoding="utf-8")
        assert run(["trace", *MODEL, "--prompt-file", str(pf), "--max-new", "2", "--out", str(tmp_path)]) == 0
        seqs = {r.sequence_id for r in read_trace(tmp_path / "trace.jsonl")}
        assert seqs == {"seq000", "seq001", "seq002"}

    @pytest.mark.parametrize("mode, granularity", sorted(RAGGED_DIGESTS))
    def test_batched_decode_writes_the_same_trace(self, tmp_path, mode, granularity):
        pf = tmp_path / "prompts.txt"
        pf.write_text(RAGGED_PROMPTS, encoding="utf-8")
        assert run(["trace", *MODEL, "--prompt-file", str(pf), "--max-new", "12", "--alpha", "0.6",
                    "--mode", mode, "--granularity", granularity, "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()).hexdigest()
        assert digest == RAGGED_DIGESTS[mode, granularity]

    def test_first_failing_job_in_input_order_is_reported(self, tmp_path, capsys):
        # seq000 overflows max_seq 8 while decoding; seq001 is too long to prompt at all
        pf = tmp_path / "prompts.txt"
        pf.write_text("abcdef\nabcdefghij\n", encoding="utf-8")
        assert run(["trace", "--seed-model", "d16,h2,l4,m8", "--seed", "3", "--prompt-file", str(pf),
                    "--max-new", "12", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: position 8 overflows max_seq 8\n"
        assert not (tmp_path / "trace.jsonl").exists()

    def test_pool_width_does_not_change_the_trace(self, tmp_path, monkeypatch):
        # PP workers write disjoint rows of one shared KV cache; a misplaced write changes the trace
        pf = tmp_path / "prompts.txt"
        pf.write_text("".join(f"prompt {i}{'x' * (i % 5)}\n" for i in range(12)), encoding="utf-8")
        blobs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 8):
                monkeypatch.setattr(os, "cpu_count", lambda: cpus)
                out = tmp_path / str(cpus)
                assert run(["trace", *MODEL, "--prompt-file", str(pf), "--max-new", "6", "--out", str(out)]) == 0
                blobs.append((out / "trace.jsonl").read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command", [["trace", "--prompt", "hi"], ["sweep", "--prompt", "hi", "--alphas", "0.5"],
                                         ["compare", "--suite", "copy"]])
    def test_negative_max_new_exits_2(self, tmp_path, capsys, command):
        assert run([*command, *MODEL, "--max-new", "-5", "--out", str(tmp_path)]) == 2
        assert "--max-new must be >= 0, got -5" in capsys.readouterr().err
        assert not (tmp_path / "trace.jsonl").exists()

    def test_formula_flag_is_a_usage_error(self, tmp_path, capsys):
        assert run(["trace", *MODEL, "--prompt", "hi", "--formula", "original", "--out", str(tmp_path)]) == 2
        assert "--formula" in capsys.readouterr().err
        assert not (tmp_path / "trace.jsonl").exists()

    def test_granularity_flag(self, tmp_path):
        assert run(["trace", *MODEL, "--prompt", "coarse", "--granularity", "example",
                    "--max-new", "2", "--out", str(tmp_path)]) == 0
        records = read_trace(tmp_path / "trace.jsonl")
        assert all(r.formula == "modified" for r in records)
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

    @pytest.mark.parametrize("source", ["weights", "seed-model"])
    def test_max_seq_claim_allocates_nothing(self, tmp_path, source):
        # a model claiming 2**20 positions traces like the same weights at 256, in a few MB
        from lacvoid import ModelConfig, build_model, load_container, save_container, save_weights

        def model_args(max_seq):
            if source == "seed-model":
                return ["--seed-model", f"d16,h2,l1,m{max_seq}"]
            weights = tmp_path / f"m{max_seq}.lactnsr"
            save_weights(build_model(ModelConfig(layer_count=1, depth=16, head_count=2, ffn_dim=64)), weights)
            tensors = load_container(weights)
            tensors["config"][5] = max_seq
            save_container(tensors, weights)
            return ["--weights", str(weights)]

        blobs = []
        for max_seq in (256, 2 ** 20):
            argv = ["trace", *model_args(max_seq), "--prompt", "hi", "--max-new", "2", "--out", str(tmp_path / str(max_seq))]
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2 ** 20, peak
            blobs.append((tmp_path / str(max_seq) / "trace.jsonl").read_bytes())
        assert blobs[0] == blobs[1]


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

    @pytest.mark.parametrize("seq_id", ["x/../../escaped", "x\0y"])
    def test_sequence_id_that_is_not_one_path_component_exits_1(self, tmp_path, capsys, seq_id):
        trace = tmp_path / "trace.jsonl"
        write_trace([make_record(seq="ok"), make_record(seq=seq_id)], trace)
        out = tmp_path / "a" / "out"
        (out / "bitmap_x").mkdir(parents=True)
        assert run(["report", "--trace", str(trace), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["trace.jsonl"]

    def test_duplicate_token_records_exit_1(self, tmp_path, capsys):
        assert run(["trace", *MODEL, "--prompt", "hi", "--max-new", "3", "--out", str(tmp_path / "t")]) == 0
        once = (tmp_path / "t" / "trace.jsonl").read_text(encoding="utf-8")
        trace = tmp_path / "twice.jsonl"
        trace.write_text(once + once, encoding="utf-8")
        out = tmp_path / "out"
        assert run(["report", "--trace", str(trace), "--out", str(out)]) == 1
        assert "sequence 'seq000' has more than one record for token_index 0" in capsys.readouterr().err
        assert not out.exists()

    def test_interleaved_sequences_give_the_grouped_bitmaps(self, tmp_path):
        pf = tmp_path / "prompts.txt"
        pf.write_text(RAGGED_PROMPTS, encoding="utf-8")
        assert run(["trace", *MODEL, "--prompt-file", str(pf), "--max-new", "6", "--alpha", "0.6",
                    "--out", str(tmp_path)]) == 0
        grouped = (tmp_path / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        # every sequence starts at token 0, so this order takes one line from each in turn
        keyed = sorted(zip(read_trace(grouped), grouped), key=lambda p: (p[0].token_index, p[0].sequence_id))
        interleaved = [line for _, line in keyed]
        assert interleaved != grouped and sorted(interleaved) == sorted(grouped)
        bitmaps = []
        for name, lines in (("grouped", grouped), ("interleaved", interleaved)):
            (tmp_path / f"{name}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
            out = tmp_path / f"{name}_out"
            assert run(["report", "--trace", str(tmp_path / f"{name}.jsonl"), "--out", str(out)]) == 0
            bitmaps.append({p.name: p.read_bytes() for p in out.glob("bitmap_*.pgm")})
        assert len(bitmaps[0]) == 2 * len(RAGGED_PROMPTS.split())
        assert bitmaps[0] == bitmaps[1]


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
