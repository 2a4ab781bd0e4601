import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import make_record, write_trace_file
from lacvoid import (HaltPolicy, ModelConfig, NormGranularity, SkipMode, TraceColumns, build_model, cli, generate,
                     load_weights, read_trace, run_prompt, save_weights)
from lacvoid.cli import main
from lacvoid.suites import SuiteCase, build_suite

MODEL = ["--seed-model", "d16,h2,l4", "--seed", "3"]

# sha256 of trace.jsonl for RAGGED_PROMPTS, --max-new 12 --alpha 0.6, taken
# from the sequence-at-a-time decoder that batched decoding replaced.
RAGGED_PROMPTS = "abcdef\nghijkl\nmnopqr\nxy\nstuvwx\n"
RAGGED_DIGESTS = {
    ("off", "example"): "590f5d37a8231e7e29300b061464717888c1c47a44cce9700800883edc2836f7",
    ("off", "token"): "590f5d37a8231e7e29300b061464717888c1c47a44cce9700800883edc2836f7",
    ("detect", "example"): "bd9daf5419753f97c82c10aef2c195daaaed38cb218494169ac7f3b61787b136",
    ("detect", "token"): "2f5beeb2edf528e426a345213945412a579a78caf1ecf9ac769acebcbc460b7c",
    ("mask-zero", "example"): "ddd459232e61d73f1990d412e17eafb91c8045abdd67d8935cb7c0a31d244a28",
    ("mask-zero", "token"): "ddd459232e61d73f1990d412e17eafb91c8045abdd67d8935cb7c0a31d244a28",
    ("skip-identity", "example"): "c57b3ee97ea7ef2f0b3f8f9351023f3caafb591499c42eb2a3e673eff3eb2daa",
    ("skip-identity", "token"): "771f82300e65a2d55e963f975299a073a4bf74d25bd46a6561a09ee23cfdb442",
    ("halt-frozen", "example"): "0d25b4be9c048d3293f5bbbea1fef000f466f45b3b346e51fa0c4bd6b47aed02",
    ("halt-frozen", "token"): "0d25b4be9c048d3293f5bbbea1fef000f466f45b3b346e51fa0c4bd6b47aed02",
}


def run(args):
    return main(args)


def usage_error_line(err: str, command: str) -> str:
    """The error line of a usage error's stderr, after checking that it names the subcommand."""
    assert err.startswith(f"usage: lacvoid {command} "), err
    line = err.splitlines()[-1]
    assert line.startswith(f"lacvoid {command}: error: "), err
    return line


def out_flag(command: str, out) -> list[str]:
    """--out for the commands that write files; compare writes none and refuses it."""
    return [] if command == "compare" else ["--out", str(out)]


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

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_prompt_file_splits_only_at_line_ends(self, tmp_path, end):
        # U+0085, U+2028 and \x0c end a line for str.splitlines, not for a prompt file
        pf, out = tmp_path / "prompts.txt", tmp_path / "out"
        pf.write_bytes("".join(p + end for p in ["caf\u0085e", "x\u2028y", "\x0cz"]).encode("utf-8"))
        assert run(["trace", *MODEL, "--prompt-file", str(pf), "--max-new", "0", "--out", str(out)]) == 0
        trace = read_trace(out / "trace.jsonl")
        assert trace.sequence_id.tolist() == ["seq000"] * 6 + ["seq001"] * 5 + ["seq002"] * 2
        assert set(trace.phase.tolist()) == {"PP"}

    def test_prompt_file_that_is_not_utf8_exits_1_naming_it(self, tmp_path, capsys):
        pf, out = tmp_path / "prompts.txt", tmp_path / "out"
        pf.write_bytes(b"one\n\xfftwo\n")
        assert run(["trace", *MODEL, "--prompt-file", str(pf), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: --prompt-file {pf}: not valid UTF-8: "
                                           "invalid start byte at byte 4\n")
        assert not out.exists()

    @pytest.mark.parametrize("max_seq", [18, 24, 256])
    @pytest.mark.parametrize("mode, granularity", sorted(RAGGED_DIGESTS))
    def test_batched_decode_writes_the_same_trace(self, tmp_path, mode, granularity, max_seq):
        # a PP batch holds at most max_seq // 6 of the four 6-byte prompts: 2 + 2 at 18, all 4 at 24 and 256;
        # a 6-byte prompt and its 12 new tokens fill 18 positions, so no row reaches max_seq
        pf = tmp_path / "prompts.txt"
        pf.write_text(RAGGED_PROMPTS, encoding="utf-8")
        assert run(["trace", "--seed-model", f"d16,h2,l4,m{max_seq}", "--seed", "3", "--prompt-file", str(pf),
                    "--max-new", "12", "--alpha", "0.6",
                    "--mode", mode, "--granularity", granularity, "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()).hexdigest()
        assert digest == RAGGED_DIGESTS[mode, granularity]

    @pytest.mark.parametrize("mode", sorted({mode for mode, _ in RAGGED_DIGESTS}))
    def test_batch_granularity_is_a_usage_error(self, tmp_path, capsys, mode):
        # halting runs per example or per token; batch used to write example's trace byte for byte
        pf = tmp_path / "prompts.txt"
        pf.write_text(RAGGED_PROMPTS, encoding="utf-8")
        out = tmp_path / "out"
        assert run(["trace", *MODEL, "--prompt-file", str(pf), "--max-new", "12", "--alpha", "0.6",
                    "--mode", mode, "--granularity", "batch", "--out", str(out)]) == 2
        assert "invalid choice: 'batch'" in capsys.readouterr().err
        assert not out.exists()

    def test_first_failing_job_in_input_order_is_reported(self, tmp_path, capsys):
        # seq000 overflows max_seq 8 while decoding; seq001 is too long to prompt at all
        pf = tmp_path / "prompts.txt"
        pf.write_text("abcdef\nabcdefghij\n", encoding="utf-8")
        assert run(["trace", "--seed-model", "d16,h2,l4,m8", "--seed", "3", "--prompt-file", str(pf),
                    "--max-new", "12", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: position 8 overflows max_seq 8\n"
        assert not (tmp_path / "trace.jsonl").exists()

    def test_refused_prompt_fails_alone_in_input_order(self, tmp_path, capsys):
        # equal-length prompts share one PP batch; bytes 126 and 125 lie outside a 100-id vocabulary
        weights = tmp_path / "small.lactnsr"
        save_weights(build_model(ModelConfig(layer_count=2, depth=8, head_count=2, ffn_dim=16, vocab_size=100)),
                     weights)
        pf = tmp_path / "prompts.txt"
        pf.write_text("abc\nab~\nbca\na}c\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["trace", "--weights", str(weights), "--prompt-file", str(pf), "--max-new", "3",
                    "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: token id 126 outside vocabulary [0, 100)\n")
        assert list(out.iterdir()) == []

        model = load_weights(weights)
        jobs = [SuiteCase(f"seq{i}", tuple(p.encode())) for i, p in enumerate(["abc", "ab~", "bca", "a}c"])]
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(ValueError, match=r"^token id 126 outside vocabulary \[0, 100\)$"):
                cli._run_group(model, jobs, 8, HaltPolicy(), 3, pool)
            blocks = cli._run_group(model, jobs[::2], 8, HaltPolicy(), 3, pool)
        assert len(blocks) == 2
        for job, block in zip(jobs[::2], blocks):
            (state,), pp = run_prompt(model, [job.prompt_ids], HaltPolicy(), [job.sequence_id])
            _, (rg,) = generate([state], model, HaltPolicy(), 3)
            assert block == pp + rg

    def test_refused_prompt_in_a_shared_pp_batch_does_not_hide_an_earlier_rg_failure(self, tmp_path, capsys):
        # equal-length prompts would share one PP batch; seq000 overflows max_seq 8 while decoding,
        # and seq001's byte 126 lies outside a 100-id vocabulary, refused before it is batched
        weights = tmp_path / "small.lactnsr"
        save_weights(build_model(ModelConfig(layer_count=2, depth=8, head_count=2, ffn_dim=16, vocab_size=100,
                                             max_seq=8)), weights)
        pf = tmp_path / "prompts.txt"
        pf.write_text("abcabc\nabcab~\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["trace", "--weights", str(weights), "--prompt-file", str(pf), "--max-new", "12",
                    "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: position 8 overflows max_seq 8\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("lengths, batches", [
        ([16] * 8, [(0, 8)]),  # the decode workload
        ([240] * 3, [(0, 1), (1, 2), (2, 3)]),  # one max_seq prompt's tokens per batch at most
        ([2, 6, 6, 6, 6], [(0, 1), (1, 5)]),
        ([100] * 5, [(0, 1), (1, 3), (3, 5)]),
        ([256, 256], [(0, 1), (1, 2)]),
    ])
    def test_pp_batches(self, lengths, batches):
        assert list(cli._pp_batches(lengths, 256)) == batches

    @pytest.mark.parametrize("mode, granularity", [("halt-frozen", "token"), ("skip-identity", "example")])
    def test_group_budget_does_not_change_the_outputs(self, tmp_path, monkeypatch, capsys, mode, granularity):
        # budget 1 puts every job in a group of one pool width; 1 << 30 puts them all in one group
        pf = tmp_path / "prompts.txt"
        pf.write_text(RAGGED_PROMPTS, encoding="utf-8")
        stdouts = set()
        for budget in (1, 1 << 30):
            for cpus in (1, 8):
                monkeypatch.setattr(cli, "_GROUP_KV_BYTES", budget)
                monkeypatch.setattr(os, "cpu_count", lambda: cpus)
                out = tmp_path / f"{budget}-{cpus}"
                assert run(["trace", *MODEL, "--prompt-file", str(pf), "--max-new", "12", "--alpha", "0.6",
                            "--mode", mode, "--granularity", granularity, "--out", str(out)]) == 0
                stdouts.add(capsys.readouterr().out)
                assert sorted(p.name for p in out.iterdir()) == ["trace.jsonl"]
                digest = hashlib.sha256((out / "trace.jsonl").read_bytes()).hexdigest()
                assert digest == RAGGED_DIGESTS[mode, granularity]
        assert len(stdouts) == 1

    @pytest.mark.parametrize("existing", [None, b"an earlier run's trace\n"])
    def test_failure_in_a_later_group_writes_nothing(self, tmp_path, monkeypatch, capsys, existing):
        # one job per group: seq000 is traced and streamed before seq001 fails to prompt
        pf = tmp_path / "prompts.txt"
        pf.write_text("ab\nabcdefghij\n", encoding="utf-8")
        monkeypatch.setattr(cli, "_GROUP_KV_BYTES", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        out = tmp_path / "out"
        out.mkdir()
        if existing is not None:
            (out / "trace.jsonl").write_bytes(existing)
        assert run(["trace", "--seed-model", "d16,h2,l4,m8", "--seed", "3", "--prompt-file", str(pf),
                    "--max-new", "2", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: prompt length 10 exceeds max_seq 8\n")
        if existing is None:
            assert list(out.iterdir()) == []
        else:
            assert [p.name for p in out.iterdir()] == ["trace.jsonl"]
            assert (out / "trace.jsonl").read_bytes() == existing

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
        assert run([*command, *MODEL, "--max-new", "-5", *out_flag(command[0], tmp_path)]) == 2
        assert "--max-new must be >= 0, got -5" in capsys.readouterr().err
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.parametrize("command", [["trace", "--prompt", "hi"], ["sweep", "--prompt", "hi", "--alphas", "0.5"],
                                         ["compare", "--suite", "copy"]])
    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "0", "alpha must be in (0, 1], got 0.0"),
        ("--alpha", "1.5", "alpha must be in (0, 1], got 1.5"),
        ("--alpha", "nan", "alpha must be in (0, 1], got nan"),  # a NaN threshold would flag no layer
        ("--min-layers", "0", "min_layers must be >= 1, got 0"),
        ("--granularity", "batch", "invalid choice: 'batch'"),  # halting runs per example or per token
    ])
    def test_refused_policy_flag_exits_2(self, tmp_path, capsys, command, flag, value, message):
        out = tmp_path / "out"
        assert run([*command, *MODEL, flag, value, *out_flag(command[0], out)]) == 2
        assert message in usage_error_line(capsys.readouterr().err, command[0])
        assert not out.exists()

    @pytest.mark.parametrize("command", [["trace", "--prompt", "hi"], ["sweep", "--prompt", "hi", "--alphas", "0.5"],
                                         ["compare", "--suite", "copy"]])
    def test_min_layers_above_the_layer_count_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # checked once the model is built, before any forward pass or write
        monkeypatch.setattr(cli, "_run_jobs", lambda *a: pytest.fail("a refused run reached _run_jobs"))
        out = tmp_path / "out"
        assert run([*command, *MODEL, "--min-layers", "9", *out_flag(command[0], out)]) == 2
        assert usage_error_line(capsys.readouterr().err, command[0]).endswith(
            "--min-layers 9 exceeds the model's layer count 4")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trace", "sweep", "compare"])
    def test_granularity_choices_are_the_norm_granularities(self, command):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command").choices[command]
        choices = next(a.choices for a in sub._actions if a.dest == "granularity")
        assert choices == [g.value for g in NormGranularity]

    @pytest.mark.parametrize("spec, component", [("d16,h2,l4,d32", "d"), ("d16,h2,h4,l4", "h"),
                                                  ("d16,h2,l4,l1", "l"), ("f32,d16,h2,l4,f64", "f"),
                                                  ("m64,d16,h2,l4,m32", "m")])
    def test_repeated_seed_model_component_exits_2(self, tmp_path, capsys, spec, component):
        out = tmp_path / "out"
        assert run(["trace", "--seed-model", spec, "--prompt", "hi", "--out", str(out)]) == 2
        assert f"repeated --seed-model component {component!r} in {spec!r}" in usage_error_line(
            capsys.readouterr().err, "trace")
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [("d16,x2,l4", "bad --seed-model component 'x2'"),
                                               ("d16,h2", "--seed-model needs at least d<depth>,h<heads>,l<layers>"),
                                               ("d15,h3,l4", "depth must be even"),
                                               ("d²,h2,l4", "bad --seed-model component 'd²'")])
    def test_refused_seed_model_exits_2(self, tmp_path, capsys, spec, message):
        out = tmp_path / "out"
        assert run(["trace", "--seed-model", spec, "--prompt", "hi", "--out", str(out)]) == 2
        assert message in usage_error_line(capsys.readouterr().err, "trace")
        assert not out.exists()

    def test_prompt_file_of_blank_lines_exits_2(self, tmp_path, capsys):
        pf = tmp_path / "prompts.txt"
        pf.write_text("\n  \n\t\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["trace", *MODEL, "--prompt-file", str(pf), "--out", str(out)]) == 2
        assert f"--prompt-file {pf} contains no prompts" in usage_error_line(capsys.readouterr().err, "trace")
        assert not out.exists()

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

    @pytest.mark.parametrize("spec", ["d16,h2,l4", "d10,h2,l3"])
    def test_weights_round_trip(self, tmp_path, spec):
        weights = tmp_path / "model.lactnsr"
        save_weights(build_model(cli._parse_seed_model(spec, 3)), weights)
        if spec.startswith("d10,"):
            # 10x10 matrices are 400 bytes, so loaded block matrices sit off 64-byte boundaries
            blocks = load_weights(weights).blocks
            assert any(getattr(blk, w).ctypes.data % 64 for blk in blocks for w in ("wq", "wk", "wv", "wo", "w1", "w2"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["trace", "--seed-model", spec, "--seed", "3", "--prompt", "roundtrip", "--out", str(a)]) == 0
        assert run(["trace", "--weights", str(weights), "--prompt", "roundtrip", "--out", str(b)]) == 0
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()

    def test_malformed_container_exits_1(self, tmp_path, capsys):
        header = b'{"config":{"dtype":"f32","offset":0,"shape":null}}'
        weights = tmp_path / "model.lactnsr"
        weights.write_bytes(b"LACTNSR1" + len(header).to_bytes(4, "little") + header + bytes(24))
        assert run(["trace", "--weights", str(weights), "--prompt", "x", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_config_exits_1_before_writing(self, tmp_path, capsys):
        from lacvoid import load_container, save_container
        weights = tmp_path / "inf.lactnsr"
        save_weights(build_model(ModelConfig(layer_count=1, depth=16, head_count=2, ffn_dim=64)), weights)
        tensors = load_container(weights)
        tensors["config"][5] = float("inf")
        save_container(tensors, weights)
        out = tmp_path / "out"
        assert run(["trace", "--weights", str(weights), "--prompt", "hi", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {weights}: malformed 'config' tensor\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("granularity, message", [
        ("example", "the replay re-thresholds per-token deltas"),
        ("batch", "invalid choice: 'batch'"),  # halting runs per example or per token
    ], ids=["example", "batch"])
    def test_granularity_other_than_token_is_a_usage_error(self, tmp_path, capsys, granularity, message):
        assert run(["sweep", *MODEL, "--prompt", "x", "--alphas", "0.6", "--granularity", granularity,
                    "--out", str(tmp_path)]) == 2
        assert message in usage_error_line(capsys.readouterr().err, "sweep")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("alpha", ["0.6", "0.8"])
    def test_usage_equals_a_live_detect_trace_and_report(self, tmp_path, alpha):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("the first prompt\nsecond\na third, longer prompt\n", encoding="utf-8")
        common = [*MODEL, "--prompt-file", str(prompts), "--max-new", "6", "--granularity", "token"]
        assert run(["sweep", *common, "--alphas", alpha, "--out", str(tmp_path / "sweep")]) == 0
        assert run(["trace", *common, "--mode", "detect", "--alpha", alpha, "--out", str(tmp_path / "live")]) == 0
        assert run(["report", "--trace", str(tmp_path / "live" / "trace.jsonl"), "--out", str(tmp_path / "rep")]) == 0
        row, = csv.DictReader((tmp_path / "sweep" / "sweep.csv").read_text().splitlines())
        usage = json.loads((tmp_path / "rep" / "report_summary.json").read_text())["average_usage"]
        assert (row["pp_usage"], row["rg_usage"]) == ("%.9g" % usage["PP"], "%.9g" % usage["RG"])

    def test_failed_trace_write_leaves_the_earlier_trace(self, tmp_path, monkeypatch, capsys):
        earlier = b"an earlier run's trace\n"
        (tmp_path / "trace.jsonl").write_bytes(earlier)

        def refuse(block, fh):
            raise OSError("disk full")
        monkeypatch.setattr(cli, "write_trace", refuse)
        assert run(["sweep", *MODEL, "--prompt", "x", "--alphas", "0.6", "--max-new", "2",
                    "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]
        assert (tmp_path / "trace.jsonl").read_bytes() == earlier

    def test_a_failed_score_run_leaves_the_earlier_files(self, tmp_path, monkeypatch, capsys):
        earlier = {"sweep.csv": b"an earlier run's sweep\n", "trace.jsonl": b"an earlier run's trace\n"}
        for name, blob in earlier.items():
            (tmp_path / name).write_bytes(blob)
        score, alphas = cli._score, []

        def fail_second(model, jobs, policy, max_new):
            alphas.append(policy.alpha)
            if len(alphas) == 2:
                raise ValueError("position 12 overflows max_seq 12")
            return score(model, jobs, policy, max_new)
        monkeypatch.setattr(cli, "_score", fail_second)
        assert run(["sweep", *MODEL, "--suite", "copy", "--alphas", "0.2,0.5", "--max-new", "2",
                    "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: position 12 overflows max_seq 12\n"
        assert alphas == [0.2, 0.5]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == earlier  # and no trace.jsonl.partial

    def test_a_phase_with_no_tokens_leaves_its_cells_empty(self, tmp_path):
        # --max-new 0 records no RG tokens, and no --suite gives no score
        assert run(["sweep", "--seed-model", "d16,h2,l4", "--prompt", "hi", "--alphas", "0.5,1",
                    "--max-new", "0", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "sweep.csv").read_bytes().decode("ascii")
        header, *lines = text.split("\n")[:-1]
        assert header == "alpha,pp_usage,rg_usage,task_score" and text.endswith("\n")
        assert [line.split(",")[0] for line in lines] == ["0.5", "1"]
        assert all(line.endswith(",,") and line.split(",")[1] != "" for line in lines)
        assert run(["report", "--trace", str(tmp_path / "trace.jsonl"), "--out", str(tmp_path / "rep")]) == 0
        report = (tmp_path / "rep" / "report.csv").read_bytes().decode("ascii")
        assert report.endswith("\r\n") and "\n" not in report.replace("\r\n", "")
        rows = list(csv.DictReader(report.splitlines()))
        assert len(rows) == 4
        for row in rows:
            assert all(row[c] == "" for c in row if c.startswith("rg_"))
            assert all(row[c] != "" for c in row if c.startswith("pp_"))

    def test_empty_alpha_list_exits_2(self, tmp_path):
        assert run(["sweep", *MODEL, "--prompt", "x", "--alphas", "", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("alphas, message", [("0.5,abc", "bad alpha value 'abc' in --alphas"),
                                                 ("1.5", "--alphas entries must be in (0, 1], got 1.5")])
    def test_refused_alphas_exit_2(self, tmp_path, capsys, alphas, message):
        out = tmp_path / "out"
        assert run(["sweep", *MODEL, "--prompt", "x", "--alphas", alphas, "--out", str(out)]) == 2
        assert message in usage_error_line(capsys.readouterr().err, "sweep")
        assert not out.exists()

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

    @pytest.mark.parametrize("formulas, want", [(["modified"] * 2, "modified"), (["original"] * 2, "original"),
                                                (["original", "modified"], None)])
    def test_summary_formula_is_the_records_formula_when_uniform(self, tmp_path, formulas, want):
        trace = tmp_path / "trace.jsonl"
        write_trace_file(TraceColumns.from_records(make_record(token_index=i, formula=f)
                                                   for i, f in enumerate(formulas)), trace)
        assert run(["report", "--trace", str(trace), "--out", str(tmp_path / "r")]) == 0
        assert json.loads((tmp_path / "r" / "report_summary.json").read_text())["formula"] == want

    def test_missing_trace_exits_1(self, tmp_path):
        assert run(["report", "--trace", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)]) == 1

    def test_empty_trace_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["report", "--trace", str(trace), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {trace} contains no records\n"
        assert not out.exists()

    def test_a_line_that_is_not_utf8_exits_1_naming_it(self, tmp_path, capsys):
        assert run(["trace", *MODEL, "--prompt", "hi", "--max-new", "2", "--out", str(tmp_path / "t")]) == 0
        lines = (tmp_path / "t" / "trace.jsonl").read_bytes().splitlines(keepends=True)
        lines[1] = b"\xff" + lines[1]
        trace, out = tmp_path / "bad.jsonl", tmp_path / "out"
        trace.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert run(["report", "--trace", str(trace), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {trace}: line 2: not valid UTF-8\n"
        assert not out.exists()

    def test_non_object_line_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("1\n", encoding="utf-8")
        assert run(["report", "--trace", str(trace), "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("seq_id", ["x/../../escaped", "x\0y"])
    def test_sequence_id_that_is_not_one_path_component_exits_1(self, tmp_path, capsys, seq_id):
        trace = tmp_path / "trace.jsonl"
        write_trace_file(TraceColumns.from_records([make_record(seq="ok"), make_record(seq=seq_id)]), trace)
        out = tmp_path / "a" / "out"
        (out / "bitmap_x").mkdir(parents=True)
        assert run(["report", "--trace", str(trace), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["trace.jsonl"]

    def test_sequence_id_too_long_for_a_file_name_exits_1_before_writing(self, tmp_path, capsys):
        seq_id = "x" * 300
        trace = tmp_path / "trace.jsonl"
        write_trace_file(TraceColumns.from_records([make_record(seq=seq_id)]), trace)
        out = tmp_path / "out"
        assert run(["report", "--trace", str(trace), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and seq_id in err
        assert not out.exists()

    # "bitmap_" + id + "_pp.pgm" is 14 bytes plus the id's: 255 is the longest file name, counted in utf-8 bytes
    @pytest.mark.parametrize("seq_id, code", [("é" * 120 + "x", 0), ("é" * 121, 1)], ids=["255-bytes", "256-bytes"])
    def test_bitmap_names_are_limited_to_255_utf8_bytes(self, tmp_path, seq_id, code):
        trace = tmp_path / "trace.jsonl"
        write_trace_file(TraceColumns.from_records([make_record(seq=seq_id)]), trace)
        out = tmp_path / "out"
        assert run(["report", "--trace", str(trace), "--out", str(out)]) == code
        assert (out / f"bitmap_{seq_id}_pp.pgm").exists() == (code == 0)

    def test_duplicate_token_records_exit_1(self, tmp_path, capsys):
        assert run(["trace", *MODEL, "--prompt", "hi", "--max-new", "3", "--out", str(tmp_path / "t")]) == 0
        once = (tmp_path / "t" / "trace.jsonl").read_text(encoding="utf-8")
        trace = tmp_path / "twice.jsonl"
        trace.write_text(once + once, encoding="utf-8")
        out = tmp_path / "out"
        assert run(["report", "--trace", str(trace), "--out", str(out)]) == 1
        assert "sequence 'seq000' has more than one record for token_index 0" in capsys.readouterr().err
        assert not out.exists()

    def test_token_index_beyond_int64_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        write_trace_file(TraceColumns.from_records(make_record(token_index=i) for i in range(2)), trace)
        trace.write_text(trace.read_text(encoding="utf-8").replace('"token_index":0', f'"token_index":{2**63}'),
                         encoding="utf-8")
        out = tmp_path / "out"
        assert run(["report", "--trace", str(trace), "--out", str(out)]) == 1
        assert f"line 1: token_index must fit in int64, got {2**63}" in capsys.readouterr().err
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

    def test_off_vs_detect_identical_scores(self, capsys):
        assert run(["compare", *MODEL, "--suite", "copy", "--mode", "detect"]) == 0
        rows = self.parse_table(capsys.readouterr().out)
        assert rows["score"][0] == rows["score"][1]

    def test_default_skip_side_is_skip_identity(self, capsys):
        assert run(["compare", *MODEL, "--suite", "copy"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "skip=skip-identity" in header

    def test_deterministic_score_pair(self, capsys):
        outs = []
        for _ in range(2):
            assert run(["compare", *MODEL, "--suite", "copy"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", [m.value for m in SkipMode])
    def test_skipped_score_is_sweeps_score_in_the_same_mode(self, tmp_path, capsys, mode):
        assert run(["compare", *MODEL, "--suite", "copy", "--alpha", "0.8", "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert f"skip={mode}" in out.splitlines()[0]
        not_skipped, skipped = self.parse_table(out)["score"]
        if mode in ("off", "detect"):  # neither skips a layer, so both columns score the full stack
            assert skipped == not_skipped
        for name, flags in (("default", []), (mode, ["--mode", mode])):
            assert run(["sweep", *MODEL, "--suite", "copy", "--alphas", "0.8", *flags,
                        "--out", str(tmp_path / name)]) == 0
        row, = csv.DictReader((tmp_path / mode / "sweep.csv").read_text().splitlines())
        assert f"{float(row['task_score']):.4f}" == skipped
        # sweep records in detect mode whatever --mode scores in
        assert (tmp_path / mode / "trace.jsonl").read_bytes() == (tmp_path / "default" / "trace.jsonl").read_bytes()

    def test_skipped_score_reads_the_generated_records(self, monkeypatch, capsys):
        # each case expects the model's own skip-identity generation, so only the RG records score 1
        policy = HaltPolicy(alpha=0.8, skip_mode=SkipMode.SKIP_IDENTITY)
        model = build_model(ModelConfig(layer_count=4, depth=16, head_count=2, ffn_dim=64, seed=0))
        cases = []
        for case in build_suite("copy", 0):
            (state,), _ = run_prompt(model, [case.prompt_ids], policy, [case.sequence_id])
            (ids,), _ = generate([state], model, policy, 8)
            cases.append(dataclasses.replace(case, expected_ids=tuple(ids)))
        assert [len(case.expected_ids) for case in cases] == [8] * len(cases)
        monkeypatch.setattr(cli, "build_suite", lambda name, seed: cases)
        assert run(["compare", "--seed-model", "d16,h2,l4", "--seed", "0", "--suite", "copy", "--alpha", "0.8"]) == 0
        not_skipped, skipped = self.parse_table(capsys.readouterr().out)["score"]
        assert skipped == "1.0000" and not_skipped != skipped

    def test_unknown_suite_exits_2(self, capsys):
        assert run(["compare", *MODEL, "--suite", "nonsense"]) == 2
        assert "invalid choice: 'nonsense'" in usage_error_line(capsys.readouterr().err, "compare")

    def test_requires_suite(self, capsys):
        assert run(["compare", *MODEL]) == 2
        assert usage_error_line(capsys.readouterr().err, "compare").endswith("compare requires --suite")

    def test_out_is_refused(self, tmp_path, capsys):
        # compare writes no file, so it takes no output directory
        assert run(["compare", *MODEL, "--suite", "copy", "--out", str(tmp_path / "x")]) == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "0", "alpha must be in (0, 1], got 0.0"),
        ("--min-layers", "0", "min_layers must be >= 1, got 0"),
    ])
    def test_refused_policy_exits_2_before_the_model_loads(self, tmp_path, capsys, flag, value, message):
        missing = tmp_path / "missing.lactnsr"
        assert run(["compare", "--weights", str(missing), "--suite", "copy", flag, value]) == 2
        assert message in usage_error_line(capsys.readouterr().err, "compare")


def run_with_closed_stdout(args, cwd, unbuffered):
    """The lacvoid console command run with stdout a pipe whose read end is already closed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                                    os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "lacvoid", *args], cwd=cwd, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write_end)


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_trace_exits_1_silently_with_its_trace_written(self, tmp_path, unbuffered):
        args = ["trace", *MODEL, "--prompt", "hi", "--max-new", "4", "--out"]
        proc = run_with_closed_stdout([*args, "closed"], tmp_path, unbuffered)
        assert (proc.returncode, proc.stderr) == (1, b"")
        assert run([*args, str(tmp_path / "open")]) == 0
        assert (tmp_path / "closed" / "trace.jsonl").read_bytes() == (tmp_path / "open" / "trace.jsonl").read_bytes()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_compare_exits_1_silently(self, tmp_path, unbuffered):
        proc = run_with_closed_stdout(["compare", *MODEL, "--suite", "copy"], tmp_path, unbuffered)
        assert (proc.returncode, proc.stderr) == (1, b"")
