import importlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import fratio_exact, moments_exact
from replaykit.corpus import Manifest, UtteranceMeta
from replaykit.errors import DegenerateBandError, FeatureMismatchError
from replaykit.filterbank import FeatureKind, FeatureMatrix, WarpKind
from replaykit.fratio import (
    FRatioPattern,
    MomentTable,
    compare_datasets,
    fratio,
    pattern_dispersion,
    pool_frames,
    probe_factor,
)
from replaykit.study import write_probe_report

# The package exports the `fratio` function under the module's name.
fratio_mod = importlib.import_module("replaykit.fratio")


def _logfb(rows, warp_kind=None):
    return FeatureMatrix(np.asarray(rows, dtype=np.float64),
                         FeatureKind.LOG_FBANK, warp_kind)


def _table(features):
    """The `MomentTable` of an utterance -> frames mapping, added in its
    order."""
    table = MomentTable()
    for utt_id, fm in features.items():
        table.add(utt_id, fm)
    return table


class TestFRatioPattern:
    def test_hand_example(self):
        # genuine {0,2}: mean 1, var 1; replay {3,5}: mean 4, var 1
        # F = (1-4)^2 / (1+1) = 4.5
        values = fratio(np.array([[0.0], [2.0]]), np.array([[3.0], [5.0]]))
        assert values.shape == (1,)
        assert values[0] == pytest.approx(4.5, abs=1e-12)

    def test_identical_means_zero(self):
        values = fratio(np.array([[1.0], [3.0]]), np.array([[0.0], [4.0]]))
        assert values[0] == 0.0

    def test_degenerate_band(self):
        with pytest.raises(DegenerateBandError, match="band"):
            fratio(np.array([[1.0], [1.0]]), np.array([[2.0], [2.0]]))

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="too few frames"):
            fratio(np.array([[1.0]]), np.array([[2.0], [3.0]]))

    def test_mismatched_bands(self):
        with pytest.raises(ValueError, match="band counts differ"):
            fratio(np.array([[1.0, 2.0], [0.0, 1.0]]),
                   np.array([[2.0], [3.0]]))

    # An inf frame makes numpy warn while taking the variance.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            fratio(np.array([[bad], [1.0]]), np.array([[2.0], [3.0]]))

    def test_class_swap_symmetry(self):
        rng = np.random.default_rng(0)
        g = rng.normal(0, 1, size=(8, 5))
        r = rng.normal(1, 2, size=(11, 5))
        np.testing.assert_array_equal(fratio(g, r), fratio(r, g))

    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, scale, sign):
        rng = np.random.default_rng(7)
        g = rng.normal(0, 1, size=(6, 4))
        r = rng.normal(1, 2, size=(9, 4))
        c = sign * scale
        base = fratio(g, r)
        scaled = fratio(c * g, c * r)
        np.testing.assert_allclose(scaled, base, rtol=1e-9, atol=1e-12)

    def test_matches_exact_oracle_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            n_g = int(rng.integers(2, 17))
            n_r = int(rng.integers(2, 17))
            g = rng.uniform(-4, 4, size=(n_g, m))
            r = rng.uniform(-4, 4, size=(n_r, m))
            got = fratio(g, r)
            exact = fratio_exact(g.tolist(), r.tolist())
            for i in range(m):
                assert exact[i] is not None
                assert abs(got[i] - float(exact[i])) <= 1e-9


class TestPatternDispersion:
    def _pattern(self, values):
        return FRatioPattern("-", np.asarray(values, dtype=np.float64), 2, 2)

    def test_identical_patterns(self):
        p = self._pattern([1.0, 2.0, 3.0])
        assert pattern_dispersion([p, p]) == 0.0

    def test_orthogonal_two_band(self):
        # normalized shapes [1,0] and [0,1]: each band has population
        # std 0.5, mean over bands 0.5.
        a = self._pattern([1.0, 0.0])
        b = self._pattern([0.0, 1.0])
        assert pattern_dispersion([a, b]) == pytest.approx(0.5, abs=1e-12)

    def test_single_pattern(self):
        assert pattern_dispersion([self._pattern([1.0, 2.0])]) == 0.0

    def test_scaling_one_pattern_is_invisible(self):
        a = self._pattern([1.0, 2.0, 0.5])
        b = self._pattern([2.0, 1.0, 1.5])
        b_scaled = self._pattern([20.0, 10.0, 15.0])
        assert pattern_dispersion([a, b]) == pytest.approx(
            pattern_dispersion([a, b_scaled]), abs=1e-15)

    def test_zero_pattern_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            pattern_dispersion([self._pattern([0.0, 0.0])])

    def test_mismatched_bands(self):
        with pytest.raises(ValueError, match="mismatched band counts"):
            pattern_dispersion([self._pattern([1.0]), self._pattern([1.0, 2.0])])


def _toy_setup():
    """Two speakers x one phrase, two devices, deterministic features whose
    genuine/replay separation differs per device."""
    records = []
    features = {}
    rng = np.random.default_rng(5)
    for s in ("S00", "S01"):
        utt = f"{s}-live"
        records.append(UtteranceMeta(utt, f"{utt}.wav", "genuine", s, "P00", "-"))
        features[utt] = _logfb(rng.normal(0.0, 1.0, size=(20, 3)), WarpKind.LINEAR)
        for d, shift in (("D00", 2.0), ("D01", 5.0)):
            rutt = f"{s}-{d}"
            records.append(UtteranceMeta(rutt, f"{rutt}.wav", "replay", s, "P00", d))
            features[rutt] = _logfb(rng.normal(shift, 1.0, size=(20, 3)),
                                    WarpKind.LINEAR)
    return features, Manifest(records)


class TestProbeFactor:
    def test_one_pattern_per_device(self):
        features, manifest = _toy_setup()
        report = probe_factor(_table(features), manifest, "device")
        assert report.factor == "device"
        assert [p.value for p in report.patterns] == ["D00", "D01"]
        assert report.warp is WarpKind.LINEAR

    def test_device_probe_uses_all_genuine_frames(self):
        features, manifest = _toy_setup()
        report = probe_factor(_table(features), manifest, "device")
        # 2 speakers x 20 genuine frames pooled for every device value
        assert all(p.n_genuine_frames == 40 for p in report.patterns)
        assert all(p.n_replay_frames == 40 for p in report.patterns)

    def test_shared_genuine_pool_summed_once(self, monkeypatch):
        # Every device pattern pools the same genuine utterances; the probe
        # takes that pool's moments once, and once per distinct replay pool.
        features, manifest = _toy_setup()
        want = probe_factor(_table(features), manifest, "device")
        calls = []
        moments = fratio_mod._moments

        def counting(blocks, n):
            calls.append(n)
            return moments(blocks, n)

        monkeypatch.setattr(fratio_mod, "_moments", counting)
        got = probe_factor(_table(features), manifest, "device")
        assert calls == [40, 40, 40]  # the genuine pool, then D00 and D01
        assert got.dispersion == want.dispersion
        for a, b in zip(got.patterns, want.patterns):
            assert a.values.tobytes() == b.values.tobytes()

    def test_speaker_probe_restricts_both_pools(self):
        features, manifest = _toy_setup()
        report = probe_factor(_table(features), manifest, "speaker")
        assert all(p.n_genuine_frames == 20 for p in report.patterns)
        assert all(p.n_replay_frames == 40 for p in report.patterns)

    def test_single_value_factor_zero_dispersion(self):
        features, manifest = _toy_setup()
        report = probe_factor(_table(features), manifest, "phrase")
        assert len(report.patterns) == 1
        assert report.dispersion == 0.0

    def test_unknown_factor(self):
        features, manifest = _toy_setup()
        with pytest.raises(ValueError, match="unknown factor"):
            probe_factor(_table(features), manifest, "weather")

    def test_missing_features(self):
        features, manifest = _toy_setup()
        del features["S00-live"]
        with pytest.raises(FeatureMismatchError, match="missing"):
            probe_factor(_table(features), manifest, "device")

    def test_compare_datasets_names_missing_features(self):
        # Each dataset's genuine rows are the same utterances; one missing
        # is named once, before any pool is stacked.
        features, manifest = _toy_setup()
        train = manifest.filter(lambda r: r.device_id != "D01")
        heldout = manifest.filter(lambda r: r.device_id != "D00")
        del features["S00-live"], features["S01-D01"]
        with pytest.raises(FeatureMismatchError) as info:
            compare_datasets(_table(features), train, heldout)
        assert str(info.value) == ("features missing for utterance(s) "
                                   "['S00-live', 'S01-D01']")

    def test_requires_logfbank(self):
        features, manifest = _toy_setup()
        features = {u: FeatureMatrix(np.zeros((5, 26)),
                                     FeatureKind.CEPSTRA_DELTA)
                    for u in features}
        with pytest.raises(ValueError, match="log-Fbank"):
            probe_factor(_table(features), manifest, "device")

    def test_too_few_frames_in_one_pool(self):
        features, manifest = _toy_setup()
        features["S00-D00"] = _logfb(np.zeros((1, 3)), WarpKind.LINEAR)
        features["S01-D00"] = _logfb(np.zeros((0, 3)), WarpKind.LINEAR)
        with pytest.raises(ValueError, match="too few frames for device=D00"):
            probe_factor(_table(features), manifest, "device")

    def test_degenerate_band_names_the_value(self):
        features, manifest = _toy_setup()
        for utt in ("S00-live", "S01-live", "S00-D01", "S01-D01"):
            features[utt] = _logfb(np.zeros((20, 3)), WarpKind.LINEAR)
        with pytest.raises(DegenerateBandError,
                           match=r"band\(s\) \[0, 1, 2\] for device=D01: "):
            probe_factor(_table(features), manifest, "device")

    def test_value_without_replays(self):
        features, manifest = _toy_setup()
        manifest = manifest.filter(lambda r: r.is_genuine
                                   or r.speaker_id != "S01")
        with pytest.raises(ValueError, match="too few frames for speaker=S01"):
            probe_factor(_table(features), manifest, "speaker")


def _uneven_setup():
    """Three speakers x two phrases, three devices, utterances of uneven
    length around a large offset, so the pooled moments depend on how
    each utterance's frames are weighted and centred: at this offset a
    one-pass variance, E[x^2] - E[x]^2, misses the exact ratios by more
    than 1e-12 relative."""
    offset = 200.0
    records = []
    features = {}
    rng = np.random.default_rng(11)
    for s in ("S00", "S01", "S02"):
        for p in ("P00", "P01"):
            utt = f"{s}-{p}-live"
            records.append(UtteranceMeta(utt, f"{utt}.wav", "genuine", s, p,
                                         "-"))
            rows = rng.normal(offset, 1.0, size=(rng.integers(5, 31), 4))
            features[utt] = _logfb(rows, WarpKind.MEL)
            for d, shift in (("D00", 0.5), ("D01", 1.5), ("H00", 3.0)):
                rutt = f"{s}-{p}-{d}"
                records.append(UtteranceMeta(rutt, f"{rutt}.wav", "replay",
                                             s, p, d))
                rows = rng.normal(offset + shift, 1.0 + shift,
                                  size=(rng.integers(5, 31), 4))
                features[rutt] = _logfb(rows, WarpKind.MEL)
    return features, Manifest(records)


def _rows(features, records):
    return [row for r in records for row in features[r.utt_id].values.tolist()]


def _assert_matches_exact(pattern, genuine_rows, replay_rows):
    assert pattern.n_genuine_frames == len(genuine_rows)
    assert pattern.n_replay_frames == len(replay_rows)
    exact = [float(v) for v in fratio_exact(genuine_rows, replay_rows)]
    np.testing.assert_allclose(pattern.values, exact, rtol=1e-12, atol=0.0)


class TestPooledMoments:
    """The probes take each pool's moments from per-utterance sums; the
    patterns must equal the ratio of the pool's stacked rows."""

    @pytest.mark.parametrize("factor", ["speaker", "phrase", "device"])
    def test_probe_matches_exact_ratio_of_stacked_rows(self, factor):
        features, manifest = _uneven_setup()
        report = probe_factor(_table(features), manifest, factor)
        attr = f"{factor}_id"
        for pattern in report.patterns:
            genuine = [r for r in manifest.genuine_records()
                       if factor == "device"
                       or getattr(r, attr) == pattern.value]
            replay = [r for r in manifest.replay_records()
                      if getattr(r, attr) == pattern.value]
            assert len(genuine) >= 2 and len(replay) >= 2
            _assert_matches_exact(pattern, _rows(features, genuine),
                                  _rows(features, replay))

    def test_compare_datasets_matches_exact_ratio_of_stacked_rows(self):
        features, manifest = _uneven_setup()
        train = manifest.filter(lambda r: r.is_genuine
                                or r.device_id.startswith("D"))
        heldout = manifest.filter(lambda r: r.is_genuine
                                  or r.device_id.startswith("H"))
        report = compare_datasets(_table(features), train, heldout)
        for pattern, man in zip(report.patterns, (train, heldout)):
            _assert_matches_exact(pattern,
                                  _rows(features, man.genuine_records()),
                                  _rows(features, man.replay_records()))

    def test_probe_stacks_no_pool(self):
        # 200 utterances of 500 frames: the genuine pool alone is 2.4 MB,
        # one utterance 48 kB.
        records, features = [], {}
        rng = np.random.default_rng(2)
        for i in range(100):
            for label, device, shift in (("genuine", "-", 0.0),
                                         ("replay", "D00", 1.0)):
                utt = f"U{i:03d}-{label}"
                records.append(UtteranceMeta(utt, f"{utt}.wav", label,
                                             f"S{i % 2}", "P00", device))
                features[utt] = _logfb(rng.normal(shift, 1.0, size=(500, 12)))
        manifest = Manifest(records)
        pool_bytes = 100 * 500 * 12 * 8
        tracemalloc.start()
        try:
            report = probe_factor(_table(features), manifest, "device")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.patterns[0].n_genuine_frames == 100 * 500
        assert peak < pool_bytes / 10

    def test_too_few_frames_message(self):
        features, manifest = _toy_setup()
        features["S00-D00"] = _logfb(np.zeros((1, 3)), WarpKind.LINEAR)
        features["S01-D00"] = _logfb(np.zeros((0, 3)), WarpKind.LINEAR)
        with pytest.raises(ValueError) as info:
            probe_factor(_table(features), manifest, "device")
        assert str(info.value) == ("too few frames for device=D00: need >= 2 "
                                   "per class, got 40 genuine and 1 replay")

    def test_degenerate_band_message(self):
        features, manifest = _toy_setup()
        for utt in ("S00-live", "S01-live", "S00-D01", "S01-D01"):
            features[utt] = _logfb(np.zeros((20, 3)), WarpKind.LINEAR)
        features["S00-D00"] = _logfb(np.ones((20, 3)), WarpKind.LINEAR)
        features["S01-D00"] = _logfb(np.ones((20, 3)), WarpKind.LINEAR)
        with pytest.raises(DegenerateBandError) as info:
            probe_factor(_table(features), manifest, "device")
        assert str(info.value) == (
            "constant features in band(s) [0, 1, 2] for device=D00: "
            "within-class variance below 1e-12")

    # An inf frame makes numpy warn while centring on an inf mean.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_message(self, bad):
        features, manifest = _toy_setup()
        rows = features["S01-D01"].values.copy()
        rows[3, 1] = bad
        features["S01-D01"] = _logfb(rows, WarpKind.LINEAR)
        with pytest.raises(ValueError) as info:
            probe_factor(_table(features), manifest, "device")
        assert str(info.value) == ("non-finite ratios for device=D01: "
                                   "features hold NaN or inf")


class TestMomentTable:
    """Merged per-utterance moments against exact rational moments of the
    stacked rows."""

    @pytest.mark.parametrize("leading_empty", [False, True])
    def test_merge_stable_far_from_zero(self, leading_empty):
        # At an offset of 1e6 a column sum of 30 frames is rounded to
        # ~4e-9, so a merge that took each utterance's mean from it would
        # miss the unit variance by ~1e-11 relative.
        rng = np.random.default_rng(13)
        features = {f"u{i:02d}": _logfb(rng.normal(1e6, 1.0, size=(
            int(rng.integers(1, 31)), 3))) for i in range(40)}
        if leading_empty:
            features = {"empty": _logfb(np.zeros((0, 3))), **features}
        ids = list(features)
        stats = _table(features).stats(ids)
        mean, var = fratio_mod._moments(stats, int(stats[0].sum()))
        exact = moments_exact(_rows_of(features, ids))
        np.testing.assert_allclose(mean, [float(m) for m, _ in exact],
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(var, [float(v) for _, v in exact],
                                   rtol=1e-12, atol=0.0)

    def test_table_keeps_no_frames(self):
        # A row per utterance, each a count and three band-length vectors,
        # plus the origin: nothing the size of an utterance's frames.
        features, _ = _uneven_setup()
        table = _table(features)
        counts, *columns = table.stats(list(features))
        assert counts.tolist() == [fm.n_frames for fm in features.values()]
        assert all(c.shape == (len(features), 4) for c in columns)
        assert sorted(table._rows) == sorted(features)
        held = [a for row in table._rows.values() for a in row[1:]]
        assert all(a.shape == (4,) for a in held + [table._origin])

    def test_stats_stack_the_given_utterances_in_order(self):
        features, _ = _uneven_setup()
        table = _table(features)
        ids = list(features)
        every = table.stats(ids)
        picked = [ids[7], ids[2], ids[20]]
        for got, want in zip(table.stats(picked), every):
            np.testing.assert_array_equal(got, want[[7, 2, 20]])

    def test_requires_logfbank_message(self):
        table = MomentTable()
        with pytest.raises(ValueError) as info:
            table.add("u", FeatureMatrix(np.zeros((5, 26)),
                                         FeatureKind.CEPSTRA_DELTA))
        assert str(info.value) == "probing requires log-Fbank features"

    def test_band_counts_must_agree(self):
        table = MomentTable()
        table.add("a", _logfb(np.zeros((2, 3))))
        with pytest.raises(ValueError, match="band counts differ: 3 vs 4"):
            table.add("b", _logfb(np.zeros((2, 4))))

    def test_repeated_utterance_id(self):
        # The second add is refused, and the table keeps the first row.
        table = MomentTable()
        table.add("a", _logfb(np.zeros((2, 3))))
        table.add("b", _logfb(np.ones((3, 3))))
        with pytest.raises(ValueError) as info:
            table.add("a", _logfb(np.full((4, 3), 2.0)))
        assert str(info.value) == "duplicate utterance id 'a'"
        counts, sums, _, _ = table.stats(["a", "b"])
        assert counts.tolist() == [2, 3]
        np.testing.assert_array_equal(sums, [[0.0] * 3, [3.0] * 3])


def _rows_of(features, ids):
    return [row for u in ids for row in features[u].values.tolist()]


class TestCompareDatasets:
    def test_two_patterns_with_dataset_conditions(self):
        features, manifest = _toy_setup()
        man_a = manifest.filter(lambda r: r.is_genuine or r.device_id == "D00")
        man_b = manifest.filter(lambda r: r.is_genuine or r.device_id == "D01")
        report = compare_datasets(_table(features), man_a, man_b)
        assert report.factor == "dataset"
        assert [p.value for p in report.patterns] == ["train", "heldout"]
        assert report.warp is WarpKind.LINEAR
        assert report.dispersion > 0.0


class TestWriteProbeReport:
    def test_device_report_layout(self, tmp_path):
        features, manifest = _toy_setup()
        report = probe_factor(_table(features), manifest, "device")
        tsv = tmp_path / "device_linear.tsv"
        write_probe_report(report, tsv)

        rows = [line.split("\t")
                for line in tsv.read_text(encoding="utf-8").splitlines()]
        assert rows[0] == ["value", "F_1", "F_2", "F_3",
                           "dispersion_contribution"]
        assert [row[0] for row in rows[1:]] == ["D00", "D01"]
        values = np.array([[float(c) for c in row[1:4]] for row in rows[1:]])
        np.testing.assert_array_equal(
            values, np.stack([p.values for p in report.patterns]))
        shapes = values / values.sum(axis=1, keepdims=True)
        mean_shape = shapes.mean(axis=0)
        for row, shape in zip(rows[1:], shapes):
            rms = float(np.sqrt(np.mean((shape - mean_shape) ** 2)))
            assert float(row[4]) == pytest.approx(rms, rel=1e-12)

        doc = json.loads(tsv.with_suffix(".json").read_text(encoding="utf-8"))
        assert sorted(doc) == ["bands", "dispersion", "factor", "patterns",
                               "warp"]
        assert doc["factor"] == "device"
        assert doc["warp"] == "linear"
        assert doc["bands"] == 3
        assert doc["dispersion"] == report.dispersion
        assert [p["value"] for p in doc["patterns"]] == ["D00", "D01"]
        assert sorted(doc["patterns"][0]) == ["n_genuine_frames",
                                              "n_replay_frames", "value",
                                              "values"]
        assert doc["patterns"][0]["n_genuine_frames"] == 40
        assert doc["patterns"][1]["values"] == values[1].tolist()

    def test_features_without_warp_give_null(self, tmp_path):
        features, manifest = _toy_setup()
        features = {u: _logfb(fm.values) for u, fm in features.items()}
        write_probe_report(probe_factor(_table(features), manifest, "speaker"),
                           tmp_path / "speaker.tsv")
        doc = json.loads((tmp_path / "speaker.json").read_text(encoding="utf-8"))
        assert doc["warp"] is None
        assert [p["value"] for p in doc["patterns"]] == ["S00", "S01"]


class TestPoolFrames:
    def test_stacks_in_the_given_order_widening_exactly(self):
        rng = np.random.default_rng(9)
        stored = {u: rng.normal(size=(n, 4)).astype(np.float32)
                  for u, n in (("a", 3), ("b", 0), ("c", 5))}
        counts = {u: v.shape[0] for u, v in stored.items()}
        ids = ["c", "b", "a"]
        pool = pool_frames(ids, counts, stored.__getitem__)
        assert pool.dtype == np.float64
        np.testing.assert_array_equal(
            pool, np.concatenate([stored[u].astype(np.float64)
                                  for u in ids]))

    def test_reads_each_utterance_once(self):
        stored = {"a": np.ones((2, 3)), "b": np.zeros((1, 3))}
        reads = []

        def values(utt_id):
            reads.append(utt_id)
            return stored[utt_id]

        pool_frames(["b", "a"], {"a": 2, "b": 1}, values)
        assert reads == ["b", "a"]

    def test_no_utterances(self):
        assert pool_frames([], {}, None).shape == (0, 0)
