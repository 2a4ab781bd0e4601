import csv
import json

import numpy as np
import pytest

from lacvoid import (
    HaltPolicy,
    NonFiniteError,
    SkipMode,
    TraceColumns,
    TraceError,
    alpha_sweep,
    export_reports,
    norm_profile,
    offline_void_mask,
    read_trace,
    run_stack,
    usage_report,
)
from lacvoid.analysis import CSV_HEADER
from conftest import add_constant_stack, make_record


def flag_records(flag_lists, phase="PP", **kw) -> TraceColumns:
    return TraceColumns.from_records(make_record(token_index=i, phase=phase,
                                                 flags=f, norms=[1.0] * len(f), deltas=[0.5] * len(f), **kw)
                                     for i, f in enumerate(flag_lists))


class TestUsageReport:
    def test_all_active(self):
        report = usage_report(flag_records([[True] * 4, [True] * 4]))
        assert np.array_equal(report.frequencies["PP"], np.ones(4))
        assert report.average_usage["PP"] == 1.0
        assert report.token_counts == {"PP": 2}

    def test_half_active(self):
        report = usage_report(flag_records([[True, True, False, False]]))
        assert report.average_usage["PP"] == 0.5

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(17)
        layers = 6
        records = []
        for i in range(1000):
            records.append(make_record(
                token_index=i, phase="PP" if i % 3 else "RG",
                flags=[bool(b) for b in rng.integers(0, 2, layers)],
                norms=[1.0] * layers, deltas=[0.1] * layers))
        report = usage_report(TraceColumns.from_records(records))
        for phase in ("PP", "RG"):
            sub = [r for r in records if r.phase == phase]
            counts = [0] * layers
            total_active = 0
            for r in sub:
                for t, f in enumerate(r.layer_flags):
                    counts[t] += int(f)
                    total_active += int(f)
            expect_freq = np.array(counts) / len(sub)
            assert np.array_equal(report.frequencies[phase], expect_freq)
            assert report.average_usage[phase] == pytest.approx(total_active / (len(sub) * layers))
            assert report.token_counts[phase] == len(sub)

    def test_absent_phase_is_absent_not_zero(self):
        report = usage_report(flag_records([[True, False]]))
        assert "RG" not in report.frequencies
        assert "RG" not in report.average_usage

    def test_mixed_layer_counts_rejected(self):
        records = [*flag_records([[True, True]]),
                   make_record(token_index=9, flags=[True] * 3, norms=[1] * 3, deltas=[0] * 3)]
        with pytest.raises(TraceError):
            usage_report(TraceColumns.from_records(records))

    @pytest.mark.parametrize("source", ["empty-block", "empty-file"])
    def test_empty_block_gives_no_phases(self, tmp_path, source):
        # read_trace gives an empty file's block no layers; TraceColumns.empty keeps its 3
        if source == "empty-file":
            (tmp_path / "trace.jsonl").write_text("", encoding="utf-8")
            block, layers = read_trace(tmp_path / "trace.jsonl"), 0
        else:
            block, layers = TraceColumns.empty(3), 3
        report = usage_report(block)
        assert (report.layer_count, report.alpha) == (layers, None)
        assert report.frequencies == report.average_usage == report.token_counts == {}
        profile = norm_profile(block)
        assert profile.layer_count == layers and profile.mean_norms == profile.mean_deltas == {}
        sweep = alpha_sweep(block, [0.5, 1.0])
        assert [(alpha, report.alpha) for alpha, report in sweep] == [(0.5, 0.5), (1.0, 1.0)]
        for _, report in sweep:
            assert report.frequencies == report.average_usage == report.token_counts == {}
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\], got 1\.5$"):
            alpha_sweep(block, [1.5])


class TestNormProfile:
    def test_single_record_is_identity(self):
        r = make_record(norms=[1.0, 2.5], deltas=[1.0, 1.5])
        profile = norm_profile(TraceColumns.from_records([r]))
        assert np.array_equal(profile.mean_norms["PP"], [1.0, 2.5])
        assert np.array_equal(profile.mean_deltas["PP"], [1.0, 1.5])

    def test_symmetric_pair_averages_to_center(self):
        c = 3.0
        n = np.array([1.0, -2.0, 4.0])
        records = TraceColumns.from_records([
            make_record(token_index=0, flags=[True] * 3, norms=n, deltas=n),
            make_record(token_index=1, flags=[True] * 3, norms=-n + 2 * c, deltas=-n + 2 * c),
        ])
        profile = norm_profile(records)
        assert np.allclose(profile.mean_norms["PP"], c)
        assert np.allclose(profile.mean_deltas["PP"], c)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(23)
        layers = 5
        records = [make_record(token_index=i, phase="RG", flags=[True] * layers,
                               norms=rng.uniform(0, 9, layers), deltas=rng.uniform(-2, 2, layers))
                   for i in range(40)]
        profile = norm_profile(TraceColumns.from_records(records))
        for t in range(layers):
            expect = sum(r.layer_norms[t] for r in records) / len(records)
            assert profile.mean_norms["RG"][t] == pytest.approx(expect, abs=1e-6)
            expect_d = sum(r.layer_deltas[t] for r in records) / len(records)
            assert profile.mean_deltas["RG"][t] == pytest.approx(expect_d, abs=1e-6)


class TestAlphaSweep:
    def sweep_records(self, seed=3, n=60, layers=6) -> TraceColumns:
        rng = np.random.default_rng(seed)
        return TraceColumns.from_records(make_record(token_index=i, phase="PP" if i % 2 else "RG",
                                                     flags=[True] * layers, norms=[1.0] * layers,
                                                     deltas=[float(x) for x in rng.uniform(-2, 6, layers)])
                                         for i in range(n))

    def test_usage_non_increasing_in_alpha(self):
        records = self.sweep_records()
        alphas = [round(0.1 * k, 1) for k in range(1, 11)]
        out = alpha_sweep(records, alphas)
        for phase in ("PP", "RG"):
            usages = [rep.average_usage[phase] for _, rep in out]
            assert all(a >= b - 1e-12 for a, b in zip(usages, usages[1:]))

    def test_permissive_limit_when_all_deltas_positive(self):
        records = TraceColumns.from_records(make_record(token_index=i, flags=[True] * 4, norms=[1] * 4,
                                                        deltas=[5.0, 4.0, 3.0, 4.5]) for i in range(5))
        # smallest delta 3.0 far above alpha*(range)=1e-6*2: nothing voids
        (_, report), = alpha_sweep(records, [1e-6])
        assert report.average_usage["PP"] == 1.0

    def test_single_layer_always_full_usage(self):
        records = TraceColumns.from_records(make_record(token_index=i, flags=[True], norms=[1.0], deltas=[-1.0])
                                            for i in range(4))
        for alpha, report in alpha_sweep(records, [0.1, 0.5, 1.0]):
            assert report.average_usage["PP"] == 1.0

    def test_void_sets_nested_by_inclusion(self):
        records = self.sweep_records(seed=8, n=10)
        lo, mid, hi = (offline_void_mask(records.layer_deltas, a) for a in [0.2, 0.5, 0.9])
        assert not (lo & ~mid).any() and not (mid & ~hi).any()

    @pytest.mark.parametrize("mode", ["mask-zero", "skip-identity", "halt-frozen"])
    def test_altered_stream_refused(self, mode):
        # an off or detect trace replays; one record of a run that altered the stream refuses the whole block
        records = TraceColumns.from_records([make_record(token_index=0, skip_mode="off"),
                                             make_record(token_index=1, skip_mode="detect")])
        assert len(alpha_sweep(records, [0.5])) == 1
        records = records + TraceColumns.from_records([make_record(token_index=2, skip_mode=mode)])
        with pytest.raises(ValueError, match=f"off or detect runs, got skip_mode \\['{mode}'\\]"):
            alpha_sweep(records, [0.5])

    def test_floor_above_the_layer_count_refused(self):
        records = self.sweep_records(n=4, layers=6)
        (_, report), = alpha_sweep(records, [0.5], min_layers=6)
        assert report.average_usage == {"PP": 1.0, "RG": 1.0}
        with pytest.raises(ValueError, match=r"^min_layers=7 exceeds layer count 6$"):
            alpha_sweep(records, [0.5], min_layers=7)

    def test_delta_beyond_float32_range_refused(self):
        # finite in float64, so the reader accepts it; the replay's float32 would make it inf
        records = TraceColumns.from_records([make_record(deltas=[1.0, 1e300])])
        with pytest.raises(NonFiniteError, match=r"beyond float32's range \(3.4028235e\+38\)$"):
            alpha_sweep(records, [0.5])

    def test_report_alpha_reflects_sweep_alpha(self):
        records = self.sweep_records(n=4)
        out = alpha_sweep(records, [0.3])
        assert out[0][1].alpha == 0.3

    def test_offline_matches_live_detect(self):
        # re-thresholding a detect trace at its own alpha reproduces its flags
        stack = add_constant_stack([4.0, 0.05, 3.0, 0.05])
        h0 = np.ones((1, 2, 1), dtype=np.float32)
        policy = HaltPolicy(alpha=0.7, skip_mode=SkipMode.DETECT)
        out = run_stack(stack, h0, policy)
        live_flags = [[not v for v in out.void_flags[:, 0, j]] for j in range(2)]
        records = [make_record(token_index=j, flags=[True] * 4,
                               norms=[float(x) for x in out.token_norms[:, 0, j]],
                               deltas=[float(x) for x in out.token_deltas[:, 0, j]])
                   for j in range(2)]
        (_, report), = alpha_sweep(TraceColumns.from_records(records), [0.7])
        recomputed = [r for r in records]
        for j, rec in enumerate(recomputed):
            flags = [not v for v in offline_void_mask(rec.layer_deltas, 0.7)]
            assert flags == live_flags[j]


class TestCorrespondence:
    def test_low_progress_layers_have_low_usage(self):
        # scripted increments: two tiny-progress layers in the middle
        stack = add_constant_stack([6.0, 5.0, 0.01, 0.02, 0.03, 4.0, 5.0, 6.0])
        h0 = np.ones((1, 4, 1), dtype=np.float32)
        out = run_stack(stack, h0, HaltPolicy(alpha=0.5, skip_mode=SkipMode.DETECT))
        records = [make_record(token_index=j, flags=[bool(f) for f in ~out.void_flags[:, 0, j]],
                               norms=[float(x) for x in out.token_norms[:, 0, j]],
                               deltas=[float(x) for x in out.token_deltas[:, 0, j]])
                   for j in range(4)]
        block = TraceColumns.from_records(records)
        usage = usage_report(block).frequencies["PP"]
        mean_delta = norm_profile(block).mean_deltas["PP"]
        order = np.argsort(mean_delta)
        quartile = len(order) // 4
        bottom, top = order[:quartile], order[-quartile:]
        assert usage[bottom].max() <= usage[top].min()


class TestExport:
    def block(self):
        records = flag_records([[True, True, False, False], [True, False, False, True]])
        return records + flag_records([[True, True, True, False]], phase="RG")

    def test_csv_shape(self, tmp_path):
        csv_path, _ = export_reports(self.block(), tmp_path)
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 4

    def test_csv_round_trip(self, tmp_path):
        block = self.block()
        usage, profile = usage_report(block), norm_profile(block)
        csv_path, _ = export_reports(block, tmp_path)
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        for t, row in enumerate(rows):
            assert int(row["layer_index"]) == t + 1
            assert float(row["pp_frequency"]) == pytest.approx(usage.frequencies["PP"][t], abs=1e-6)
            assert float(row["rg_frequency"]) == pytest.approx(usage.frequencies["RG"][t], abs=1e-6)
            assert float(row["pp_mean_norm"]) == pytest.approx(profile.mean_norms["PP"][t], abs=1e-6)
            assert float(row["rg_mean_delta"]) == pytest.approx(profile.mean_deltas["RG"][t], abs=1e-6)

    def test_summary_two_decimal_presentation(self, tmp_path):
        # 100-layer tokens with 29 and 30 active layers give the
        # usage pair 0.29 / 0.30
        layers = 100
        pp = [make_record(token_index=i, flags=[True] * 29 + [False] * 71,
                          norms=[1.0] * layers, deltas=[0.0] * layers) for i in range(3)]
        rg = [make_record(token_index=i + 3, phase="RG", flags=[True] * 30 + [False] * 70,
                          norms=[1.0] * layers, deltas=[0.0] * layers) for i in range(3)]
        _, json_path = export_reports(TraceColumns.from_records(pp + rg), tmp_path)
        summary = json.loads(json_path.read_text())
        assert summary["average_usage_2dp"] == {"PP": 0.29, "RG": 0.3}

    @pytest.mark.parametrize("alphas, formulas, want", [
        ([0.8, 0.8], ["original", "original"], (0.8, "original")),
        ([0.8, 0.6], ["modified", "modified"], (None, "modified")),
        ([0.8, 0.8], ["original", "modified"], (0.8, None)),
    ], ids=["uniform", "mixed-alpha", "mixed-formula"])
    def test_summary_alpha_and_formula_are_the_records_own_when_uniform(self, tmp_path, alphas, formulas, want):
        block = TraceColumns.from_records(make_record(token_index=i, alpha=a, formula=f)
                                          for i, (a, f) in enumerate(zip(alphas, formulas)))
        _, json_path = export_reports(block, tmp_path)
        summary = json.loads(json_path.read_text())
        assert (summary["alpha"], summary["formula"]) == want

    def test_absent_phase_yields_empty_cells(self, tmp_path):
        records = flag_records([[True, False]])
        csv_path, json_path = export_reports(records, tmp_path)
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert rows[0]["rg_frequency"] == ""
        summary = json.loads(json_path.read_text())
        assert "RG" not in summary["average_usage"]

    def test_missing_deltas_rejected(self):
        bad = make_record()
        bad.layer_deltas = []
        with pytest.raises(TraceError, match="deltas"):
            alpha_sweep(TraceColumns.from_records([bad]), [0.5])
