import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from replaykit.corpus import AudioSignal, DeviceProfile, _amplitude_response
from replaykit.filterbank import (
    MAX_N_FFT,
    NUM_CEPSTRA,
    NYQUIST_HZ,
    ExtractionConfig,
    FeatureKind,
    FeatureMatrix,
    WarpKind,
    append_deltas,
    build_filterbank,
    cepstral_features,
    fbank_features,
    warp,
)
from replaykit.spectrum import (SpectrumWorkspace, dct_basis, frame_signal,
                                power_spectrum)

SR = 16000


class TestWarp:
    def test_linear_identity(self):
        assert warp(WarpKind.LINEAR, 1234.5) == 1234.5

    def test_mel_700(self):
        # 2595 * log10(2)
        assert warp(WarpKind.MEL, 700.0) == pytest.approx(781.17, abs=0.01)

    def test_inverted_mel_4000(self):
        # mel(8000) - mel(4000) = 2840.023 - 2146.065
        expected = 2595.0 * (math.log10(1 + 8000 / 700) - math.log10(1 + 4000 / 700))
        assert expected == pytest.approx(693.9585, abs=1e-3)
        assert warp(WarpKind.INVERTED_MEL, 4000.0) == pytest.approx(expected, abs=1e-9)

    def test_warp_zero_is_zero(self):
        for kind in WarpKind:
            assert warp(kind, 0.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            warp(WarpKind.MEL, -1.0)
        with pytest.raises(ValueError, match="out of range"):
            warp(WarpKind.MEL, 8000.1)

    @given(st.floats(0.0, NYQUIST_HZ), st.floats(0.0, NYQUIST_HZ))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, a, b):
        # Separation above float rounding of the log1p evaluation.
        if abs(a - b) < 1e-6:
            return
        lo, hi = min(a, b), max(a, b)
        for kind in WarpKind:
            assert warp(kind, lo) < warp(kind, hi)

    @given(st.floats(0.0, NYQUIST_HZ))
    @settings(max_examples=200, deadline=None)
    def test_mirror_identity(self, f):
        lhs = warp(WarpKind.INVERTED_MEL, f) + warp(WarpKind.MEL, NYQUIST_HZ - f)
        assert lhs == pytest.approx(warp(WarpKind.MEL, NYQUIST_HZ), abs=1e-9)


class TestWarpInverse:
    """`oracles.warp_inverse`, the reference the filter-centre tests map
    edges back to Hz with: its closed forms, its range, and that it undoes
    `filterbank.warp`."""

    def test_linear(self):
        assert oracles.warp_inverse(WarpKind.LINEAR, 500.0) == 500.0

    def test_mel(self):
        assert oracles.warp_inverse(WarpKind.MEL, 781.17) == \
            pytest.approx(700.0, abs=0.01)

    def test_zero(self):
        for kind in WarpKind:
            assert oracles.warp_inverse(kind, 0.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            oracles.warp_inverse(WarpKind.MEL,
                                 warp(WarpKind.MEL, NYQUIST_HZ) + 1.0)

    @given(st.floats(0.0, NYQUIST_HZ))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, f):
        for kind in WarpKind:
            w = warp(kind, f)
            assert warp(kind, oracles.warp_inverse(kind, w)) == \
                pytest.approx(w, abs=1e-6)


class TestBuildFilterbank:
    def test_linear_centers(self):
        edges = oracles.filter_edges_warped(WarpKind.LINEAR, 23)
        centers = oracles.warp_inverse(WarpKind.LINEAR, edges[1:-1])
        expected = np.arange(1, 24) * 8000.0 / 24.0
        np.testing.assert_allclose(centers, expected, atol=1e-9)
        assert centers[0] == pytest.approx(333.333, abs=0.01)

    def test_mel_bandwidths_grow_with_frequency(self):
        hz_edges = oracles.warp_inverse(
            WarpKind.MEL, oracles.filter_edges_warped(WarpKind.MEL, 23))
        widths = hz_edges[2:] - hz_edges[:-2]
        assert widths[0] < widths[-1]

    def test_inverted_mel_bandwidths_shrink_with_frequency(self):
        hz_edges = oracles.warp_inverse(
            WarpKind.INVERTED_MEL,
            oracles.filter_edges_warped(WarpKind.INVERTED_MEL, 23))
        widths = hz_edges[2:] - hz_edges[:-2]
        assert widths[-1] < widths[0]

    def test_partition_of_unity_all_kinds(self):
        for kind in WarpKind:
            for M in (2, 8, 23, 40, 64):
                try:
                    weights = build_filterbank(kind, M, 512)
                except ValueError as exc:
                    assert "too many filters" in str(exc)
                    continue
                coords = warp(kind, weights.shape[1] * [0.0]
                              + np.arange(weights.shape[1]) * (SR / 512))
                edges = oracles.filter_edges_warped(kind, M)
                interior = (coords >= edges[1]) & (coords <= edges[-2])
                sums = weights.sum(axis=0)
                np.testing.assert_allclose(sums[interior], 1.0, atol=1e-9)

    def test_triangle_shape(self):
        weights = build_filterbank(WarpKind.LINEAR, 8, 512)
        for i in range(8):
            row = weights[i]
            support = np.flatnonzero(row > 0)
            # single contiguous run
            assert np.all(np.diff(support) == 1)
            assert row.max() <= 1.0 + 1e-12

    def test_peak_is_one_when_bin_hits_center(self):
        # 8000/(M+1) divides the bin grid when M+1 divides 512/2... choose
        # M=7: centers at k*1000 Hz, bins every 31.25 Hz -> 1000/31.25=32.
        weights = build_filterbank(WarpKind.LINEAR, 7, 512)
        for i in range(7):
            assert weights[i].max() == pytest.approx(1.0, abs=1e-12)

    def test_exact_triangles_when_every_center_is_a_bin(self):
        # M=15: centers at 500 j Hz, which is bin 16 j. Every edge and bin
        # is a multiple of 31.25 Hz, so each weight is a multiple of 1/16
        # and the triangles hold exactly: each filter peaks at 1 on its
        # center bin, and neighbours sum to 1 between the first and last
        # centers.
        weights = build_filterbank(WarpKind.LINEAR, 15, 512)
        centers = 16 * np.arange(1, 16)
        np.testing.assert_array_equal(weights[np.arange(15), centers], 1.0)
        np.testing.assert_array_equal(weights.argmax(axis=1), centers)
        np.testing.assert_array_equal(
            weights[:, centers[0]:centers[-1] + 1].sum(axis=0), 1.0)

    def test_zero_bin_filter_rejected(self):
        # Mel filters near DC get narrower than the bin spacing well before
        # the linear ones do.
        with pytest.raises(ValueError, match="too many filters"):
            build_filterbank(WarpKind.MEL, 150, 512)

    @pytest.mark.parametrize("n_fft", [8, 32, 64])
    @pytest.mark.parametrize("kind", list(WarpKind))
    def test_refused_exactly_when_a_triangle_is_zero_at_every_bin(
            self, kind, n_fft):
        # The check finds dead filters without rasterizing the triangles;
        # it must name the ones the triangles evaluated bin by bin give,
        # and a filterbank it accepts must be those triangles.
        for M in range(1, n_fft + 3):
            dead = oracles.dead_filters_loop(kind, M, n_fft)
            if not dead:
                weights = build_filterbank(kind, M, n_fft)
                assert weights.any(axis=1).all()
                np.testing.assert_allclose(
                    weights, oracles.triangle_weights_loop(kind, M, n_fft),
                    rtol=0, atol=1e-12)
                continue
            with pytest.raises(ValueError, match="^too many filters: ") as info:
                build_filterbank(kind, M, n_fft)
            if M <= n_fft:
                assert f"filter(s) {dead} span zero" in str(info.value)


def _spec(rows):
    return np.asarray(rows, dtype=np.float64)


class TestFbankFeatures:
    FB = build_filterbank(WarpKind.LINEAR, 23, 512)

    def test_zero_spectrum_hits_floor(self):
        feats = fbank_features(_spec(np.zeros((1, 257))), self.FB)
        np.testing.assert_allclose(feats.values, np.log(1e-10))

    def test_all_ones_spectrum(self):
        feats = fbank_features(_spec(np.ones((1, 257))), self.FB)
        expected = np.log(self.FB.sum(axis=1))
        np.testing.assert_allclose(feats.values[0], expected)

    def test_doubling_adds_log2(self):
        rng = np.random.default_rng(0)
        row = rng.uniform(0.5, 2.0, size=(1, 257))
        a = fbank_features(_spec(row), self.FB).values
        b = fbank_features(_spec(2 * row), self.FB).values
        np.testing.assert_allclose(b - a, np.log(2.0), atol=1e-12)

    def test_kind_and_dim(self):
        feats = fbank_features(_spec(np.ones((2, 257))), self.FB)
        assert feats.kind is FeatureKind.LOG_FBANK
        assert feats.dim == 23

    def test_mismatched_config(self):
        with pytest.raises(ValueError, match="does not match"):
            fbank_features(_spec(np.ones((1, 129))), self.FB)


class TestExtractionConfig:
    @pytest.mark.parametrize("feature", list(FeatureKind))
    @pytest.mark.parametrize("warp", list(WarpKind))
    def test_from_dict_inverts_to_dict(self, warp, feature):
        config = ExtractionConfig(warp, feature, bands=40, frame_len=480,
                                  hop=240, n_fft=1024, delta_window=3)
        assert ExtractionConfig.from_dict(config.to_dict()) == config

    def test_dim(self):
        assert ExtractionConfig(WarpKind.MEL, FeatureKind.LOG_FBANK,
                                bands=40).dim == 40
        assert ExtractionConfig(WarpKind.MEL, FeatureKind.CEPSTRA_DELTA,
                                bands=40).dim == 26

    def test_cepstra_need_13_bands(self):
        ExtractionConfig(WarpKind.MEL, FeatureKind.LOG_FBANK, bands=12)
        with pytest.raises(ValueError, match="^need at least 13 bands, got 12$"):
            ExtractionConfig(WarpKind.MEL, FeatureKind.CEPSTRA_DELTA, bands=12)

    @pytest.mark.parametrize("warp_kind, bands", [
        (WarpKind.MEL, 128), (WarpKind.LINEAR, 600),
        (WarpKind.INVERTED_MEL, 128)], ids=["mel-128", "linear-600",
                                            "imel-128"])
    def test_a_dead_filter_is_refused_as_build_filterbank_refuses_it(
            self, warp_kind, bands):
        with pytest.raises(ValueError) as built:
            build_filterbank(warp_kind, bands, 512)
        with pytest.raises(ValueError) as made:
            ExtractionConfig(warp_kind, FeatureKind.LOG_FBANK, bands=bands,
                             n_fft=512)
        assert str(made.value) == str(built.value)
        assert str(made.value).startswith("too many filters: ")

    def test_n_fft_is_bounded(self):
        ExtractionConfig(WarpKind.MEL, FeatureKind.LOG_FBANK, n_fft=MAX_N_FFT)
        message = f"^n_fft must be at most {MAX_N_FFT}, got {2 * MAX_N_FFT}$"
        with pytest.raises(ValueError, match=message):
            ExtractionConfig(WarpKind.MEL, FeatureKind.LOG_FBANK,
                             n_fft=2 * MAX_N_FFT)

    def test_a_huge_band_count_is_refused_before_any_array_is_made(self):
        # A header may hold any integer; 10**15 edges would take 8 PB.
        with pytest.raises(ValueError, match="^too many filters: more than "
                                             "n_fft leave some"):
            ExtractionConfig(WarpKind.LINEAR, FeatureKind.LOG_FBANK,
                             bands=10 ** 15)

    @pytest.mark.parametrize("change", [
        {"warp": ["mel"]}, {"feature": None}, {"bands": "23"},
        {"hop": 160.5}, {"n_fft": None},
    ], ids=["warp-a-list", "feature-null", "bands-a-string", "hop-a-float",
            "n_fft-null"])
    def test_from_dict_raises_value_error_only(self, change):
        doc = {**ExtractionConfig(WarpKind.MEL,
                                  FeatureKind.LOG_FBANK).to_dict(), **change}
        with pytest.raises(ValueError):
            ExtractionConfig.from_dict(doc)


BASIS_23 = dct_basis(23, NUM_CEPSTRA)


class TestCepstralFeatures:
    def test_constant_frame(self):
        c = 1.7
        logfb = FeatureMatrix(np.full((1, 23), c), FeatureKind.LOG_FBANK)
        ceps = cepstral_features(logfb, BASIS_23)
        assert ceps.shape == (1, 13)
        assert ceps[0, 0] == pytest.approx(c * math.sqrt(23), abs=1e-9)
        np.testing.assert_allclose(ceps[0, 1:], 0.0, atol=1e-9)

    def test_zero_frame(self):
        logfb = FeatureMatrix(np.zeros((2, 23)), FeatureKind.LOG_FBANK)
        np.testing.assert_array_equal(cepstral_features(logfb, BASIS_23),
                                      0.0)

    def test_wrong_kind(self):
        ceps = FeatureMatrix(np.zeros((1, 26)), FeatureKind.CEPSTRA_DELTA)
        with pytest.raises(ValueError, match="log-Fbank"):
            cepstral_features(ceps, BASIS_23)

    def test_bin_permutation_invariance(self):
        # Permuting FFT bins that carry zero weight in every filter leaves
        # the cepstra unchanged. Over the full band those are the DC and
        # Nyquist bins, where the first and last triangles reach zero.
        for kind in WarpKind:
            fb = build_filterbank(kind, 23, 512)
            dead = np.flatnonzero(~fb.any(axis=0))
            np.testing.assert_array_equal(dead, [0, 256])
            rng = np.random.default_rng(1)
            spec = rng.uniform(0.1, 3.0, size=(4, 257))
            permuted = spec.copy()
            permuted[:, dead] = spec[:, dead[::-1]]
            a = cepstral_features(fbank_features(_spec(spec), fb), BASIS_23)
            b = cepstral_features(fbank_features(_spec(permuted), fb),
                                  BASIS_23)
            np.testing.assert_array_equal(a, b)


class TestAppendDeltas:
    def _cepstra(self, values):
        arr = np.asarray(values, dtype=np.float64)
        return np.hstack([arr, np.zeros((arr.shape[0], 13 - arr.shape[1]))])

    def test_constant_features_zero_deltas(self):
        out = append_deltas(np.ones((6, 13)))
        np.testing.assert_array_equal(out[:, :13], 1.0)
        np.testing.assert_array_equal(out[:, 13:], 0.0)

    def test_ramp_interior_deltas_are_one(self):
        ramp = np.arange(20.0)[:, None]
        out = append_deltas(self._cepstra(ramp), window=2)
        np.testing.assert_allclose(out[2:-2, 13], 1.0, atol=1e-12)

    def test_dim_doubles(self):
        assert append_deltas(np.zeros((3, 13))).shape == (3, 26)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            append_deltas(np.zeros((0, 13)))

    def test_window_below_one(self):
        with pytest.raises(ValueError, match="window must be >= 1"):
            append_deltas(np.zeros((3, 13)), window=0)

    # Windows wider than the utterance clamp every neighbour to an edge.
    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize("n_frames", [1, 2, 3, 4, 5, 6, 7, 64, 497, 498])
    def test_bit_identical_to_loop_oracle(self, n_frames, window):
        rng = np.random.default_rng(n_frames * 10 + window)
        values = rng.normal(0.0, 3.0, size=(n_frames, 13))
        out = append_deltas(values, window)
        want = oracles.append_deltas_loop(values, window)
        assert out.shape == want.shape
        assert out.tobytes() == want.tobytes()


class TestChannelToFeatureLink:
    def test_logfbank_shift_matches_channel_gain(self):
        # The per-band log-Fbank shift between a genuine signal and its
        # replayed copy should equal the log of the band-averaged channel
        # power gain, for a quiet device.
        rng = np.random.default_rng(21)
        sig = AudioSignal(rng.uniform(-0.5, 0.5, size=2 * SR))
        profile = DeviceProfile("D00", 60.0, 7400.0,
                                ((900.0, 4.0), (2500.0, -3.0)), 40.0)
        out = oracles.apply_replay_channel(sig, profile, seed=8)

        fb = build_filterbank(WarpKind.LINEAR, 23, 512)
        workspace = SpectrumWorkspace(400, 512)
        feats_in = fbank_features(
            power_spectrum(frame_signal(sig, 400, 160), workspace), fb)
        feats_out = fbank_features(
            power_spectrum(frame_signal(out, 400, 160), workspace), fb)
        shift = feats_out.values.mean(axis=0) - feats_in.values.mean(axis=0)

        gains = _amplitude_response(profile, fb.shape[1] * 0.0
                                    + np.arange(257) * (SR / 512)) ** 2
        predicted = np.log((fb @ gains) / fb.sum(axis=1))
        # Interior bands: the first band contains the sub-cutoff region
        # where the response collapses toward zero.
        for i in range(1, 23):
            assert abs(shift[i] - predicted[i]) < 0.5, f"band {i}"
