import csv
import json

import numpy as np
import pytest

from lacvoid import (
    HaltPolicy,
    SkipMode,
    TraceError,
    alpha_sweep,
    export_reports,
    norm_profile,
    run_stack,
    usage_report,
)
from lacvoid.analysis import CSV_HEADER
from conftest import add_constant_stack, make_record


def flag_records(flag_lists, phase="PP", **kw):
    return [make_record(token_index=i, phase=phase,
                        flags=f, norms=[1.0] * len(f), deltas=[0.5] * len(f), **kw)
            for i, f in enumerate(flag_lists)]


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
        report = usage_report(records)
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

    def test_normalized_peak_is_exactly_one(self):
        report = usage_report(flag_records([[True, False, False], [True, True, False]]))
        assert max(v.max() for v in report.normalized.values()) == 1.0

    def test_mixed_layer_counts_rejected(self):
        records = flag_records([[True, True]]) + [
            make_record(token_index=9, flags=[True] * 3, norms=[1] * 3, deltas=[0] * 3)]
        with pytest.raises(TraceError):
            usage_report(records)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            usage_report([])


class TestNormProfile:
    def test_single_record_is_identity(self):
        r = make_record(norms=[1.0, 2.5], deltas=[1.0, 1.5])
        profile = norm_profile([r])
        assert np.array_equal(profile.mean_norms["PP"], [1.0, 2.5])
        assert np.array_equal(profile.mean_deltas["PP"], [1.0, 1.5])

    def test_symmetric_pair_averages_to_center(self):
        c = 3.0
        n = np.array([1.0, -2.0, 4.0])
        records = [
            make_record(token_index=0, flags=[True] * 3, norms=n, deltas=n),
            make_record(token_index=1, flags=[True] * 3, norms=-n + 2 * c, deltas=-n + 2 * c),
        ]
        profile = norm_profile(records)
        assert np.allclose(profile.mean_norms["PP"], c)
        assert np.allclose(profile.mean_deltas["PP"], c)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(23)
        layers = 5
        records = [make_record(token_index=i, phase="RG", flags=[True] * layers,
                               norms=rng.uniform(0, 9, layers), deltas=rng.uniform(-2, 2, layers))
                   for i in range(40)]
        profile = norm_profile(records)
        for t in range(layers):
            expect = sum(r.layer_norms[t] for r in records) / len(records)
            assert profile.mean_norms["RG"][t] == pytest.approx(expect, abs=1e-6)
            expect_d = sum(r.layer_deltas[t] for r in records) / len(records)
            assert profile.mean_deltas["RG"][t] == pytest.approx(expect_d, abs=1e-6)


class TestAlphaSweep:
    def sweep_records(self, seed=3, n=60, layers=6):
        rng = np.random.default_rng(seed)
        return [make_record(token_index=i, phase="PP" if i % 2 else "RG",
                            flags=[True] * layers, norms=[1.0] * layers,
                            deltas=[float(x) for x in rng.uniform(-2, 6, layers)])
                for i in range(n)]

    def test_usage_non_increasing_in_alpha(self):
        records = self.sweep_records()
        alphas = [round(0.1 * k, 1) for k in range(1, 11)]
        out = alpha_sweep(records, alphas)
        for phase in ("PP", "RG"):
            usages = [rep.average_usage[phase] for _, rep in out]
            assert all(a >= b - 1e-12 for a, b in zip(usages, usages[1:]))

    def test_permissive_limit_when_all_deltas_positive(self):
        records = [make_record(token_index=i, flags=[True] * 4, norms=[1] * 4,
                               deltas=[5.0, 4.0, 3.0, 4.5]) for i in range(5)]
        # smallest delta 3.0 far above alpha*(range)=1e-6*2: nothing voids
        (_, report), = alpha_sweep(records, [1e-6])
        assert report.average_usage["PP"] == 1.0

    def test_single_layer_always_full_usage(self):
        records = [make_record(token_index=i, flags=[True], norms=[1.0], deltas=[-1.0]) for i in range(4)]
        for alpha, report in alpha_sweep(records, [0.1, 0.5, 1.0]):
            assert report.average_usage["PP"] == 1.0

    def test_void_sets_nested_by_inclusion(self):
        from lacvoid import detect_voids_offline

        records = self.sweep_records(seed=8, n=10)
        alphas = [0.2, 0.5, 0.9]
        for r in records:
            sets = [detect_voids_offline(r.layer_deltas, a) for a in alphas]
            assert sets[0] <= sets[1] <= sets[2]

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
        (_, report), = alpha_sweep(records, [0.7])
        recomputed = [r for r in records]
        for j, rec in enumerate(recomputed):
            from lacvoid import offline_void_mask
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
        usage = usage_report(records).frequencies["PP"]
        mean_delta = norm_profile(records).mean_deltas["PP"]
        order = np.argsort(mean_delta)
        quartile = len(order) // 4
        bottom, top = order[:quartile], order[-quartile:]
        assert usage[bottom].max() <= usage[top].min()


class TestExport:
    def report_pair(self):
        records = flag_records([[True, True, False, False], [True, False, False, True]])
        records += flag_records([[True, True, True, False]], phase="RG")
        return usage_report(records), norm_profile(records)

    def test_csv_shape(self, tmp_path):
        usage, profile = self.report_pair()
        csv_path, _ = export_reports(usage, profile, tmp_path)
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 4

    def test_csv_round_trip(self, tmp_path):
        usage, profile = self.report_pair()
        csv_path, _ = export_reports(usage, profile, tmp_path)
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
        usage = usage_report(pp + rg)
        profile = norm_profile(pp + rg)
        _, json_path = export_reports(usage, profile, tmp_path)
        summary = json.loads(json_path.read_text())
        assert summary["average_usage_2dp"] == {"PP": 0.29, "RG": 0.3}

    def test_absent_phase_yields_empty_cells(self, tmp_path):
        records = flag_records([[True, False]])
        csv_path, json_path = export_reports(usage_report(records), norm_profile(records), tmp_path)
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert rows[0]["rg_frequency"] == ""
        summary = json.loads(json_path.read_text())
        assert "RG" not in summary["average_usage"]

    def test_missing_deltas_rejected(self):
        bad = make_record()
        bad.layer_deltas = []
        with pytest.raises(TraceError, match="deltas"):
            alpha_sweep([bad], [0.5])
