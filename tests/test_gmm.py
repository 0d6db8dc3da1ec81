import base64
import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import logsumexp

from replaykit import gmm
from replaykit.errors import ModelFormatError, SingularComponentError
from replaykit.filterbank import (ExtractionConfig, FeatureKind,
                                  FeatureMatrix, WarpKind)
from replaykit.gmm import (
    FULL_FEATURES_MIN_K,
    KMEANS_ITERS,
    LLOYD_BLOCK_ELEMENTS,
    MOMENT_BLOCK,
    Gmm,
    GmmPairModel,
    TrainConfig,
    _density_weights,
    _estimates,
    _exp_in_place,
    _feature_blocks,
    _floor_covariances,
    _frame_log_likelihoods,
    _kmeans_init,
    _logsumexp,
    _stacked_densities,
    _weighted_log_densities,
    load_pair_model,
    save_pair_model,
    score_utterance,
    train_gmm,
)
import oracles
from byte_edits import TEXT_TOKENS, edited, one_byte_edits


# Four full frame blocks and a short fifth: 1,100 frames at
# MOMENT_BLOCK = 256.
SEVERAL_BLOCKS = 4 * MOMENT_BLOCK + 76


def _single_gaussian(mean, var):
    return Gmm(np.array([1.0]), np.array([[mean]]), np.array([[var]]), "diag")


def _log_densities(model, frames):
    """One mixture's ln w_k + ln N(x; mu_k, Sigma_k) by the scoring kernel."""
    return _weighted_log_densities(_stacked_densities((model,)), frames)


def _log_likelihoods(model, frames):
    """One mixture's per-frame log-likelihoods by the scoring kernel."""
    (out,) = _frame_log_likelihoods(_stacked_densities((model,)), frames)
    return out


class TestTrainGmm:
    def test_single_component_closed_form(self):
        # Population ML on {0,2} repeated: mean 1, variance 1, weight 1.
        frames = np.array([[0.0], [2.0]] * 5)
        model = train_gmm(frames, 1, "diag", seed=0)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert model.means[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert model.covariances[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 0.05, size=(200, 2))
        b = rng.normal(10.0, 0.05, size=(200, 2)) + np.array([0.0, -5.0])
        frames = np.vstack([a, b])
        model = train_gmm(frames, 2, "diag", seed=3)
        centroids = sorted([tuple(a.mean(axis=0)), tuple(b.mean(axis=0))])
        fitted = sorted([tuple(m) for m in model.means])
        for f, c in zip(fitted, centroids):
            assert abs(f[0] - c[0]) < 0.1
            assert abs(f[1] - c[1]) < 0.1

    @pytest.mark.parametrize("kind", ["diag", "full"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_rejected(self, kind, bad):
        frames = np.random.default_rng(3).normal(size=(40, 3))
        frames[5, 1] = bad
        frames[9] = bad
        with pytest.raises(ValueError, match=r"^2 of 40 frames are non-finite$"):
            train_gmm(frames, 2, kind, seed=0)

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="too few frames"):
            train_gmm(np.zeros((5, 1)), 1, "diag")

    @pytest.mark.parametrize("n_comp", [0, -1])
    def test_n_comp_must_be_positive(self, n_comp):
        with pytest.raises(ValueError, match="n_comp must be >= 1"):
            train_gmm(np.zeros((20, 1)), n_comp, "diag")

    def test_max_iters_must_not_be_negative(self):
        with pytest.raises(ValueError, match="max_iters must be >= 0"):
            TrainConfig(max_iters=-1)
        model = train_gmm(np.arange(20.0)[:, None], 1, "diag",
                          TrainConfig(max_iters=0))
        assert model.ll_curve == []

    @pytest.mark.parametrize("field, value, message", [
        ("ll_tolerance", float("nan"), "ll_tolerance must be a number"),
        ("variance_floor_factor", float("nan"),
         "variance_floor_factor must be finite and >= 0, got nan"),
        ("variance_floor_factor", float("inf"),
         "variance_floor_factor must be finite and >= 0, got inf"),
        ("variance_floor_factor", -1e-4,
         "variance_floor_factor must be finite and >= 0, got -0.0001"),
    ])
    def test_config_rejects_unusable_stopping_and_floor(self, field, value,
                                                        message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**{field: value})

    def test_config_keeps_zero_tolerance_and_floor(self):
        config = TrainConfig(ll_tolerance=0.0, variance_floor_factor=0.0)
        assert config.ll_tolerance == config.variance_floor_factor == 0.0

    def test_em_stops_after_the_first_gain_below_the_tolerance(self):
        # EM stops after the first pass whose per-frame log-likelihood
        # gain over the pass before, |ll - prev| / n, is below
        # ll_tolerance; at a zero tolerance it runs to max_iters.
        frames = _mixture_frames(np.random.default_rng(23), 3, 2)
        n = len(frames)

        def curve(tolerance):
            return train_gmm(frames, 3, "diag",
                             TrainConfig(max_iters=30, ll_tolerance=tolerance),
                             seed=7).ll_curve

        full = curve(0.0)
        assert len(full) == 30
        gain = {i: abs(full[i] - full[i - 1]) / n for i in range(1, 30)}
        # A pass j, with several before it, whose gain is below every
        # earlier pass's.
        j = next(i for i in range(5, 30)
                 if gain[i] < min(gain[k] for k in range(1, i)))
        assert j + 1 < 30
        assert curve(np.nextafter(gain[j], np.inf)) == full[:j + 1]
        assert len(curve(gain[j])) > j + 1

    def test_unknown_covariance_kind(self):
        with pytest.raises(ValueError, match="covariance_kind"):
            train_gmm(np.zeros((20, 1)), 1, "spherical")

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(120, 3))
        a = train_gmm(frames, 3, "diag", seed=11)
        b = train_gmm(frames, 3, "diag", seed=11)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covariances, b.covariances)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_em_monotonic_on_random_instances(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, 5))
            n = int(rng.integers(10 * k, 30 * k + 1))
            centers = rng.uniform(-5, 5, size=(k, d))
            frames = np.concatenate([
                rng.normal(centers[j], rng.uniform(0.3, 1.5), size=(n, d))
                for j in range(k)])
            kind = "diag" if trial % 2 == 0 else "full"
            model = train_gmm(frames, k, kind, seed=trial)
            curve = np.array(model.ll_curve)
            assert np.all(np.diff(curve) >= -1e-8), f"trial {trial}"

    def test_variance_floor_applied(self):
        # One dimension is constant: its ML variance is 0 and must be
        # floored at factor * data variance (strictly positive).
        rng = np.random.default_rng(2)
        frames = np.column_stack([rng.normal(size=50), np.full(50, 3.0)])
        model = train_gmm(frames, 1, "diag", seed=0)
        assert model.covariances[0, 1] > 0.0

    def test_full_covariance_on_correlated_data(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(500, 1))
        frames = np.hstack([z, 0.8 * z + 0.2 * rng.normal(size=(500, 1))])
        model = train_gmm(frames, 1, "full", seed=0)
        expected = np.cov(frames.T, bias=True)
        np.testing.assert_allclose(model.covariances[0], expected, atol=1e-6)

    def test_full_on_axis_aligned_data_has_small_off_diagonals(self):
        rng = np.random.default_rng(8)
        frames = rng.normal(0.0, [1.0, 2.0, 0.5], size=(10_000, 3))
        model = train_gmm(frames, 2, "full", seed=1)
        for cov in model.covariances:
            diag = np.diag(cov)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert abs(cov[i, j]) <= 0.1 * math.sqrt(diag[i] * diag[j])


class TestLogLikelihood:
    def test_standard_normal_at_mean(self):
        model = _single_gaussian(1.0, 1.0)
        x = np.array([1.0])
        assert _log_likelihoods(model, x[None])[0] == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_duplicate_components_collapse(self):
        single = _single_gaussian(0.5, 2.0)
        double = Gmm(np.array([0.5, 0.5]), np.array([[0.5], [0.5]]),
                     np.array([[2.0], [2.0]]), "diag")
        x = np.array([1.7])
        assert _log_likelihoods(double, x[None])[0] == pytest.approx(
            _log_likelihoods(single, x[None])[0], abs=1e-12)

    def test_far_tail_is_finite(self):
        model = _single_gaussian(0.0, 1.0)
        value = _log_likelihoods(model, np.array([1e6])[None])[0]
        assert np.isfinite(value)
        assert value < -1e11

    def test_component_permutation_invariance(self):
        rng = np.random.default_rng(3)
        k, d = 4, 3
        weights = rng.dirichlet(np.ones(k))
        means = rng.normal(size=(k, d))
        covs = rng.uniform(0.5, 2.0, size=(k, d))
        perm = rng.permutation(k)
        a = Gmm(weights, means, covs, "diag")
        b = Gmm(weights[perm], means[perm], covs[perm], "diag")
        x = rng.normal(size=d)
        assert _log_likelihoods(a, x[None])[0] == pytest.approx(
            _log_likelihoods(b, x[None])[0], abs=1e-12)


def _cepstra(values):
    return FeatureMatrix(np.asarray(values, dtype=np.float64),
                         FeatureKind.LOG_FBANK)


def _fbank_config(bands: int) -> ExtractionConfig:
    return ExtractionConfig(WarpKind.LINEAR, FeatureKind.LOG_FBANK, bands)


def _pair(genuine, replay, training_config=None):
    """A pair recording log-Fbank features of its d as its provenance."""
    return GmmPairModel(genuine, replay,
                        training_config or TrainConfig(),
                        _fbank_config(genuine.dim))


class TestScoreUtterance:
    def _pair(self, g_mean=0.0, r_mean=1.0):
        return _pair(_single_gaussian(g_mean, 1.0),
                     _single_gaussian(r_mean, 1.0))

    def test_identical_models_score_zero(self):
        pair = self._pair(0.3, 0.3)
        feats = _cepstra(np.random.default_rng(0).normal(size=(20, 1)))
        assert score_utterance(pair, feats) == 0.0

    def test_single_frame_equals_ratio(self):
        pair = self._pair()
        x = np.array([[0.2]])
        expected = (_log_likelihoods(pair.genuine, x)[0]
                    - _log_likelihoods(pair.replay, x)[0])
        assert score_utterance(pair, _cepstra(x)) == pytest.approx(expected,
                                                                   abs=1e-15)

    def test_frame_duplication_invariance(self):
        pair = self._pair()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 1))
        a = score_utterance(pair, _cepstra(x))
        b = score_utterance(pair, _cepstra(np.repeat(x, 2, axis=0)))
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_rejected(self, kind, bad):
        rng = np.random.default_rng(4)
        model = _random_gmm(rng, kind, 2, 3)
        x = rng.normal(size=(6, 3))
        x[2, 0] = bad
        with pytest.raises(ValueError, match=r"^1 of 6 frames are non-finite$"):
            score_utterance(_pair(model, model), _cepstra(x))

    def test_empty_utterance(self):
        pair = self._pair()
        with pytest.raises(ValueError, match="empty"):
            score_utterance(pair, _cepstra(np.zeros((0, 1))))

    def test_dimension_mismatch(self):
        pair = self._pair()
        with pytest.raises(ValueError, match="dimension"):
            score_utterance(pair, _cepstra(np.zeros((3, 2))))

    @pytest.mark.parametrize("kind,ks", [
        ("diag", (4, 4)), ("diag", (64, 64)),
        ("full", (2, FULL_FEATURES_MIN_K - 1)), ("full", (16, 16)),
        ("full", (2, FULL_FEATURES_MIN_K))],
        ids=["diag-4", "diag-64", "full-whitened", "full-16", "full-mixed"])
    def test_swapping_the_pair_negates_every_score(self, kind, ks):
        # Exact for whitened full pairs. In the feature form the GEMM may
        # round a column differently by its position: up to 1.6e-15
        # relative was seen, on a full K=2 beside K=8 pair. Both orders
        # share one origin, so no other rounding differs.
        rng = np.random.default_rng(70 + sum(ks))
        g, r = (_random_gmm(rng, kind, k, 4) for k in ks)
        r = Gmm(r.weights, r.means + 10.0, r.covariances, kind)
        whitened = kind == "full" and max(ks) < FULL_FEATURES_MIN_K
        for n_frames in (1, 30, SEVERAL_BLOCKS):
            feats = _cepstra(rng.normal(5.0, 3.0, size=(n_frames, 4)))
            score = score_utterance(_pair(g, r), feats)
            swapped = score_utterance(_pair(r, g), feats)
            if whitened:
                assert swapped == -score
            else:
                assert swapped == pytest.approx(-score, rel=1e-14, abs=0.0)

    def test_scoring_determinism(self):
        rng = np.random.default_rng(9)
        frames = rng.normal(size=(200, 2))
        g = train_gmm(frames, 2, "full", seed=0)
        r = train_gmm(frames + 1.0, 2, "full", seed=0)
        pair = _pair(g, r)
        feats = _cepstra(rng.normal(size=(50, 2)))
        assert score_utterance(pair, feats) == score_utterance(pair, feats)


def _encode(a):
    return base64.b64encode(np.ascontiguousarray(a, "<f8").tobytes()).decode()


class TestModelPersistence:
    def _trained_pair(self, kind):
        rng = np.random.default_rng(12)
        g = train_gmm(rng.normal(0, 1, size=(80, 3)), 2, kind, seed=1)
        r = train_gmm(rng.normal(2, 1, size=(80, 3)), 2, kind, seed=2)
        return _pair(g, r)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_roundtrip_bit_exact(self, tmp_path, kind):
        pair = self._trained_pair(kind)
        p = tmp_path / "model.json"
        save_pair_model(pair, p)
        back = load_pair_model(p)
        for side in ("genuine", "replay"):
            a, b = getattr(pair, side), getattr(back, side)
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.covariances, b.covariances)
        assert back.training_config == pair.training_config
        assert isinstance(back.training_config, TrainConfig)
        assert back.extraction_config == pair.extraction_config
        assert isinstance(back.extraction_config, ExtractionConfig)

    @pytest.mark.parametrize("kind, k", [("diag", 2), ("full", 2),
                                         ("diag", 8), ("full", 8)])
    def test_read_back_pair_scores_the_same_bits(self, tmp_path, kind, k):
        # Training leaves its means and covariances in Fortran order and
        # a file reads back in C order; the scoring factors' sums round by
        # layout unless the mixture fixes one.
        rng = np.random.default_rng(5)
        g = train_gmm(rng.normal(0, 1, size=(600, 26)), k, kind,
                      TrainConfig(max_iters=2), seed=1)
        r = train_gmm(rng.normal(0.5, 1, size=(600, 26)), k, kind,
                      TrainConfig(max_iters=2), seed=2)
        pair = GmmPairModel(g, r, TrainConfig(), ExtractionConfig(
            WarpKind.MEL, FeatureKind.CEPSTRA_DELTA))
        save_pair_model(pair, tmp_path / "model.json")
        back = load_pair_model(tmp_path / "model.json")
        for _ in range(20):
            feats = _cepstra(rng.normal(0.2, 1.2, size=(97, 26)))
            assert score_utterance(back, feats) == score_utterance(pair, feats)

    def test_file_schema(self, tmp_path):
        pair = self._trained_pair("full")
        p = tmp_path / "model.json"
        save_pair_model(pair, p)
        doc = json.loads(p.read_text())
        assert set(doc) == {"format_version", "covariance_kind", "K", "d",
                            "training_config", "extraction_config",
                            "genuine", "replay"}
        assert doc["format_version"] == 4 and doc["K"] == 2 and doc["d"] == 3
        assert doc["extraction_config"] == pair.extraction_config.to_dict()
        # covariances in full, C order, as little-endian float64 bytes
        raw = base64.b64decode(doc["genuine"]["covariances"])
        np.testing.assert_array_equal(
            np.frombuffer(raw, "<f8").reshape(2, 3, 3),
            pair.genuine.covariances)

    def test_covariance_that_is_not_positive_definite(self, tmp_path):
        # -I passes every check of Gmm's but has no Cholesky factor, so
        # scoring would fail naming neither the file nor the mixture.
        rng = np.random.default_rng(13)
        g, r = (train_gmm(rng.normal(shift, 1, size=(160, 3)), 8, "full",
                          TrainConfig(max_iters=2), seed=1)
                for shift in (0, 2))
        p = tmp_path / "model.json"
        save_pair_model(_pair(g, r), p)
        doc = json.loads(p.read_text())
        covariances = r.covariances.copy()
        covariances[3] = -np.eye(3)
        doc["replay"]["covariances"] = _encode(covariances)
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_pair_model(p)
        assert str(info.value) == (f"{p}: replay: component 3 covariance "
                                   f"is not positive-definite")

    @pytest.mark.parametrize("key", ["genuine", "K", "covariance_kind",
                                     "extraction_config"])
    def test_missing_key_is_typed(self, tmp_path, key):
        p = tmp_path / "model.json"
        save_pair_model(self._trained_pair("diag"), p)
        doc = json.loads(p.read_text())
        del doc[key]
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_pair_model(p)
        assert str(info.value) == f"{p}: missing key '{key}'"

    @pytest.mark.parametrize("value, message", [
        pytest.param(5, "expected an object with the keys ", id="a-number"),
        pytest.param({}, "expected an object with the keys ", id="empty"),
        pytest.param({**_fbank_config(3).to_dict(), "hop": 0},
                     "invalid framing", id="hop-0"),
        pytest.param({**_fbank_config(3).to_dict(), "warp": "bogus"},
                     "unknown warp kind 'bogus'", id="unknown-warp"),
        pytest.param({**_fbank_config(3).to_dict(), "bands": 3.0},
                     "must be integers", id="float-bands"),
        pytest.param(_fbank_config(4).to_dict(),
                     "d is 3, but its features have dim 4", id="another-dim"),
        pytest.param(ExtractionConfig(WarpKind.MEL,
                                      FeatureKind.CEPSTRA_DELTA).to_dict(),
                     "d is 3, but its features have dim 26", id="cepstra"),
        pytest.param({**_fbank_config(3).to_dict(), "warp": "mel",
                      "bands": 128},
                     "too many filters: filter(s) [0] span zero FFT bins",
                     id="mel-128-bands"),
        pytest.param({**_fbank_config(3).to_dict(), "warp": "linear",
                      "bands": 600},
                     "too many filters: more than n_fft",
                     id="linear-600-bands"),
        pytest.param({**_fbank_config(3).to_dict(), "warp": "imel",
                      "bands": 128},
                     "too many filters: filter(s) [127] span zero FFT bins",
                     id="imel-128-bands"),
    ])
    def test_extraction_config_that_is_not_one_is_typed(self, tmp_path, value,
                                                        message):
        p = tmp_path / "model.json"
        save_pair_model(self._trained_pair("diag"), p)
        doc = json.loads(p.read_text())
        doc["extraction_config"] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_pair_model(p)
        assert str(info.value).startswith(f"{p}: extraction_config: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("value, message", [
        pytest.param(5, "expected an object with the keys ", id="a-number"),
        pytest.param([], "expected an object with the keys ", id="a-list"),
        pytest.param({"max_iters": 2.5}, "expected an object with the keys ",
                     id="one-key"),
        pytest.param({"max_iters": "x", "ll_tolerance": None},
                     "expected an object with the keys ", id="two-keys"),
        pytest.param({**TrainConfig().to_dict(), "seed": 1},
                     "expected an object with the keys ", id="extra-key"),
        pytest.param({**TrainConfig().to_dict(), "max_iters": 2.5},
                     "max_iters must be an integer, got 2.5",
                     id="float-max-iters"),
        pytest.param({**TrainConfig().to_dict(), "max_iters": True},
                     "max_iters must be an integer, got True",
                     id="bool-max-iters"),
        pytest.param({**TrainConfig().to_dict(), "ll_tolerance": "x"},
                     "ll_tolerance must be a number, got 'x'",
                     id="string-tolerance"),
        pytest.param({**TrainConfig().to_dict(), "ll_tolerance": False},
                     "ll_tolerance must be a number, got False",
                     id="bool-tolerance"),
        pytest.param({**TrainConfig().to_dict(),
                      "variance_floor_factor": None},
                     "variance_floor_factor must be a number, got None",
                     id="null-floor"),
        pytest.param({**TrainConfig().to_dict(), "max_iters": -1},
                     "max_iters must be >= 0, got -1", id="negative-iters"),
        pytest.param({**TrainConfig().to_dict(),
                      "variance_floor_factor": -1.0},
                     "variance_floor_factor must be finite and >= 0",
                     id="negative-floor"),
        pytest.param({**TrainConfig().to_dict(), "ll_tolerance": 10 ** 400},
                     "int too large to convert to float",
                     id="tolerance-beyond-float"),
    ])
    def test_training_config_that_is_not_one_is_typed(self, tmp_path, value,
                                                      message):
        p = tmp_path / "model.json"
        save_pair_model(self._trained_pair("diag"), p)
        doc = json.loads(p.read_text())
        doc["training_config"] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_pair_model(p)
        assert str(info.value).startswith(f"{p}: training_config: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("config", [
        TrainConfig(), TrainConfig(max_iters=0, ll_tolerance=0,
                                   variance_floor_factor=0.0),
        TrainConfig(max_iters=7, ll_tolerance=float("inf"),
                    variance_floor_factor=2),
    ], ids=["defaults", "zeros", "inf-and-int"])
    def test_training_config_from_dict_inverts_to_dict(self, config):
        back = TrainConfig.from_dict(config.to_dict())
        assert back == config
        assert json.dumps(back.to_dict()) == json.dumps(config.to_dict())

    def test_save_refuses_a_d_other_than_the_configs_dim(self, tmp_path):
        # What load_pair_model would refuse is not written.
        trained = self._trained_pair("diag")
        pair = GmmPairModel(trained.genuine, trained.replay,
                            trained.training_config, _fbank_config(4))
        p = tmp_path / "model.json"
        with pytest.raises(ValueError) as info:
            save_pair_model(pair, p)
        assert str(info.value) == (f"{p}: extraction_config: d is 3, but its "
                                   f"features have dim 4")
        assert not p.exists()

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_shape_disagreeing_with_k_d_is_typed(self, tmp_path, kind):
        p = tmp_path / "model.json"
        save_pair_model(self._trained_pair(kind), p)
        doc = json.loads(p.read_text())
        raw = base64.b64decode(doc["replay"]["covariances"])
        doc["replay"]["covariances"] = base64.b64encode(raw[:-8]).decode()
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="replay.*K=2, d=3"):
            load_pair_model(p)
        doc = json.loads(p.read_text())
        doc["K"] = 3
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="genuine.*K=3, d=3"):
            load_pair_model(p)

    @pytest.mark.parametrize("key,value", [
        ("weights", [0.5, 0.6]),
        ("means", [[0.0] * 3, [math.nan] * 3]),
        ("covariances", [[1.0, 1.0, 1.0], [1.0, -0.5, 1.0]]),
        ("covariances", [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]),
    ])
    def test_invalid_parameters_are_typed(self, tmp_path, key, value):
        # Well-formed bytes of the right size, so `Gmm`'s checks are reached.
        p = tmp_path / "model.json"
        save_pair_model(self._trained_pair("diag"), p)
        doc = json.loads(p.read_text())
        doc["replay"][key] = _encode(np.array(value))
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_pair_model(p)
        assert str(info.value).startswith(f"{p}: replay: ")
        assert "must be" in str(info.value)

    def test_json_not_an_object_is_typed(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text("[]")
        with pytest.raises(ModelFormatError) as info:
            load_pair_model(p)
        assert str(info.value) == f"{p}: expected a JSON object, got list"

    def test_non_numeric_parameter_is_typed(self, tmp_path):
        p = tmp_path / "model.json"
        save_pair_model(self._trained_pair("diag"), p)
        doc = json.loads(p.read_text())
        doc["genuine"]["means"] = "not base64!"
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_pair_model(p)
        assert str(info.value).startswith(f"{p}: genuine: means is not base64")

    @pytest.mark.parametrize("version", [None, 1, 2, 3])
    def test_format_version_other_than_current_is_typed(self, tmp_path,
                                                        version):
        p = tmp_path / "model.json"
        save_pair_model(self._trained_pair("diag"), p)
        doc = json.loads(p.read_text())
        del doc["format_version"]
        if version is not None:
            doc["format_version"] = version
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_pair_model(p)
        found = "missing" if version is None else version
        assert str(info.value) == (f"{p}: format_version is {found}, "
                                   f"this reader needs 4")

    def test_paper_sized_full_pair_is_bit_exact_and_under_1_mb(self, tmp_path):
        rng = np.random.default_rng(64)
        config = TrainConfig(max_iters=2)
        g = train_gmm(rng.normal(0, 1, size=(700, 26)), 64, "full", config,
                      seed=1)
        r = train_gmm(rng.normal(1, 2, size=(700, 26)), 64, "full", config,
                      seed=2)
        p = tmp_path / "model.json"
        save_pair_model(GmmPairModel(g, r, config, ExtractionConfig(
            WarpKind.MEL, FeatureKind.CEPSTRA_DELTA)), p)
        assert p.stat().st_size < 1_000_000
        back = load_pair_model(p)
        for a, b in ((g, back.genuine), (r, back.replay)):
            for name in ("weights", "means", "covariances"):
                np.testing.assert_array_equal(getattr(a, name),
                                              getattr(b, name))

    def test_non_utf8_bytes_are_typed(self, tmp_path):
        p = tmp_path / "model.json"
        save_pair_model(self._trained_pair("diag"), p)
        p.write_bytes(b"\xff" + p.read_bytes())
        with pytest.raises(ModelFormatError) as info:
            load_pair_model(p)
        assert str(info.value).startswith(f"{p}: not valid JSON (")

    def test_file_is_one_compact_line(self, tmp_path):
        p = tmp_path / "model.json"
        pair = self._trained_pair("full")
        save_pair_model(pair, p)
        text = p.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert text == json.dumps(json.loads(text)) + "\n"

    def test_pair_must_share_shape(self):
        g = _single_gaussian(0.0, 1.0)
        r = Gmm(np.array([1.0]), np.array([[0.0, 0.0]]),
                np.array([[1.0, 1.0]]), "diag")
        with pytest.raises(ValueError, match="share"):
            _pair(g, r)


@pytest.fixture(scope="module")
def edit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("model_edits")


# A valid K=2, d=2 diagonal pair's file, and one edit of it.
VALID_MODEL = json.dumps({
    "format_version": gmm.MODEL_FORMAT_VERSION,
    "covariance_kind": "diag", "K": 2, "d": 2,
    "training_config": {"max_iters": 2, "ll_tolerance": 1e-05,
                        "variance_floor_factor": 0.0001},
    "extraction_config": {"warp": "mel", "feature": "fbank", "bands": 2,
                          "frame_len": 400, "hop": 160, "n_fft": 512,
                          "delta_window": 2},
    "genuine": {"weights": _encode(np.array([0.25, 0.75])),
                "means": _encode(np.array([[0.5, -1.0], [2.0, 0.0]])),
                "covariances": _encode(np.array([[2.0, 0.25], [1.0, 4.0]]))},
    "replay": {"weights": _encode(np.array([0.5, 0.5])),
               "means": _encode(np.array([[-0.5, 1.0], [0.0, 3.0]])),
               "covariances": _encode(np.array([[1.0, 0.5], [0.125, 8.0]]))},
}).encode() + b"\n"


def test_the_unedited_model_file_reads_back(edit_dir):
    p = edit_dir / "valid.json"
    p.write_bytes(VALID_MODEL)
    pair = load_pair_model(p)
    np.testing.assert_array_equal(pair.replay.covariances,
                                  [[1.0, 0.5], [0.125, 8.0]])
    save_pair_model(pair, p)
    assert p.read_bytes() == VALID_MODEL


@pytest.mark.filterwarnings("error")
@given(edit=one_byte_edits(VALID_MODEL, TEXT_TOKENS))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_one_byte_edit_reads_back_or_raises_model_format_error(edit_dir,
                                                                   edit):
    p = edit_dir / "edited.json"
    p.write_bytes(edited(VALID_MODEL, edit))
    try:
        pair = load_pair_model(p)
    except ModelFormatError as exc:
        assert str(exc).startswith(f"{p}: ")
    else:
        assert pair.extraction_config.dim == 2
        for model in (pair.genuine, pair.replay):
            assert model.covariances.shape == model.means.shape == (2, 2)
            assert np.all(model.covariances > 0.0)
            assert np.isfinite(model.means).all()


# ---------------------------------------------------------------------------
# The vectorised numerics against the loop forms in tests/oracles.py
# ---------------------------------------------------------------------------

TOL = 1e-9


def _assert_close(actual, expected):
    """Within TOL relative to each value, or to the array's largest entry
    (eigen-reconstructions are exact to a fraction of the matrix norm)."""
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=TOL,
                               atol=TOL * np.abs(expected).max())


def _random_gmm(rng, kind, k, d):
    weights = rng.dirichlet(np.ones(k))
    means = rng.normal(0.0, 3.0, size=(k, d))
    if kind == "diag":
        covs = rng.uniform(0.2, 3.0, size=(k, d))
    else:
        a = rng.normal(size=(k, d, d))
        covs = a @ a.transpose(0, 2, 1) / d + 0.1 * np.eye(d)
    return Gmm(weights, means, covs, kind)


def _mixture_frames(rng, k, d, per_comp=60):
    centers = rng.uniform(-6.0, 6.0, size=(k, d))
    return np.concatenate([rng.normal(c, rng.uniform(0.4, 1.5),
                                      size=(per_comp, d)) for c in centers])


def _assert_training_densities(model, frames, floor):
    """[q(z); z; 1]ᵀ W from the floor's precisions and log-determinants,
    block by block, against the loop densities plus ln w."""
    origin = frames.mean(axis=0)
    _, precisions, log_dets = _floor_covariances(
        model.covariances, model.covariance_kind, floor)
    weights = _density_weights(model.weights, model.means - origin,
                               precisions, log_dets, model.covariance_kind)
    actual = np.vstack([block.T @ weights for _, _, block in
                        _feature_blocks(frames, origin, model.covariance_kind)])
    _assert_close(actual, oracles.gmm_component_log_densities(model, frames)
                  + np.log(model.weights))


KINDS_AND_K = [(kind, k) for kind in ("diag", "full") for k in (1, 3, 8)]


class TestAgainstOracles:
    @pytest.mark.parametrize("kind,k", KINDS_AND_K)
    def test_component_densities(self, kind, k):
        rng = np.random.default_rng(100 + k)
        model = _random_gmm(rng, kind, k, 4)
        frames = rng.normal(0.0, 4.0, size=(50, 4))
        frames[0] = 1e6  # far tail
        frames[1] = -1e6
        _assert_close(_log_densities(model, frames)
                      - np.log(model.weights),
                      oracles.gmm_component_log_densities(model, frames))

    def test_densities_at_eigenvalue_floor(self):
        rng = np.random.default_rng(7)
        d = 5
        floor = 1e-4
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        eigvals = np.array([floor, floor, 0.5, 1.0, 2.0])
        cov = (basis * eigvals) @ basis.T
        model = Gmm(np.array([0.4, 0.6]), rng.normal(size=(2, d)),
                    np.stack([cov, np.eye(d)]), "full")
        frames = np.vstack([model.means[0] + 1e-3 * rng.normal(size=(20, d)),
                            rng.normal(size=(20, d))])
        _assert_close(_log_densities(model, frames)
                      - np.log(model.weights),
                      oracles.gmm_component_log_densities(model, frames))

    @pytest.mark.parametrize("kind,k", KINDS_AND_K)
    def test_training_density_weights(self, kind, k):
        # EM's E-step form, [q(z); z; 1]ᵀ W, against the loop densities.
        rng = np.random.default_rng(150 + k)
        model = _random_gmm(rng, kind, k, 4)
        frames = rng.normal(0.0, 4.0, size=(50, 4))
        floor = np.full(4, 1e-12) if kind == "diag" else 1e-12
        _assert_training_densities(model, frames, floor)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_training_density_weights_at_the_floor(self, kind):
        rng = np.random.default_rng(7)
        d = 5
        floor = 1e-4
        if kind == "diag":
            cov = np.array([floor, floor, 0.5, 1.0, 2.0])
            floors = np.full(d, floor)
            other = np.ones(d)
        else:
            basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
            cov = (basis * np.array([floor, floor, 0.5, 1.0, 2.0])) @ basis.T
            floors = floor
            other = np.eye(d)
        model = Gmm(np.array([0.4, 0.6]), rng.normal(size=(2, d)),
                    np.stack([cov, other]), kind)
        frames = np.vstack([model.means[0] + 1e-3 * rng.normal(size=(20, d)),
                            rng.normal(size=(20, d))])
        _assert_training_densities(model, frames, floors)

    @staticmethod
    def _assert_score(kind, k, n_frames):
        rng = np.random.default_rng(200 + k)
        pair = _pair(_random_gmm(rng, kind, k, 3),
                     _random_gmm(rng, kind, k, 3))
        x = rng.normal(0.0, 3.0, size=(n_frames, 3))
        x[5] = 1e6
        expected = np.mean(oracles.gmm_frame_log_likelihoods(pair.genuine, x)
                           - oracles.gmm_frame_log_likelihoods(pair.replay, x))
        assert score_utterance(pair, _cepstra(x)) == pytest.approx(
            expected, rel=TOL)

    @pytest.mark.parametrize("kind,k", KINDS_AND_K)
    def test_score_utterance(self, kind, k):
        self._assert_score(kind, k, 40)

    @pytest.mark.parametrize("kind,k", [(kind, k) for kind in ("diag", "full")
                                        for k in (1, 8, 64)])
    def test_score_utterance_over_several_blocks(self, kind, k):
        # Scoring runs MOMENT_BLOCK frames at a time.
        self._assert_score(kind, k, SEVERAL_BLOCKS)

    # Full pairs below FULL_FEATURES_MIN_K whiten, at and above it they
    # take the E-step's feature form; the last pair mixes the two sides.
    PAIR_KS = [(1, 1), (FULL_FEATURES_MIN_K - 1,) * 2,
               (FULL_FEATURES_MIN_K,) * 2, (64, 64),
               (2, FULL_FEATURES_MIN_K)]

    @pytest.mark.parametrize("n_frames", [40, SEVERAL_BLOCKS])
    @pytest.mark.parametrize("ks", PAIR_KS)
    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_pair_kernel(self, kind, ks, n_frames):
        # Both mixtures in one GEMM per block about a shared origin, per
        # frame against the loop oracle, in one block and in several.
        rng = np.random.default_rng(700 + sum(ks))
        pair = _pair(_random_gmm(rng, kind, ks[0], 3),
                     _random_gmm(rng, kind, ks[1], 3))
        x = rng.normal(0.0, 3.0, size=(n_frames, 3))
        x[5] = 1e6
        densities = pair._densities
        whiten = kind == "full" and max(ks) < FULL_FEATURES_MIN_K
        assert densities.features == ("whiten" if whiten else kind)
        for got, model in zip(_frame_log_likelihoods(densities, x),
                              (pair.genuine, pair.replay)):
            np.testing.assert_allclose(
                got, oracles.gmm_frame_log_likelihoods(model, x),
                rtol=TOL, atol=TOL)

    @pytest.mark.parametrize("kind,k", [("diag", 4),
                                        ("full", FULL_FEATURES_MIN_K - 1),
                                        ("full", FULL_FEATURES_MIN_K)])
    def test_pair_kernel_with_means_far_apart(self, kind, k):
        # The replay means sit 10³ standard deviations (the covariances
        # are O(1)) from the genuine ones, and the shared origin midway.
        # Near either mixture the feature form's terms reach ~(Δ/2)²/σ²
        # and cancel to O(1), so a per-frame log-likelihood may be off by
        # a few ulp of that: the tolerance is 64 ulp of Δ² (1.4e-8; 3e-10
        # seen at d=3). Whitening subtracts first and stays far inside it.
        separation = 1e3
        rng = np.random.default_rng(800 + k)
        genuine = _random_gmm(rng, kind, k, 3)
        far = _random_gmm(rng, kind, k, 3)
        replay = Gmm(far.weights, far.means + [separation, 0.0, 0.0],
                     far.covariances, kind)
        pair = _pair(genuine, replay)
        x = rng.normal(size=(100, 3)) + np.vstack([
            genuine.means[rng.integers(k, size=50)],
            replay.means[rng.integers(k, size=50)]])
        atol = 64 * np.finfo(float).eps * separation ** 2
        for got, model in zip(_frame_log_likelihoods(pair._densities, x),
                              (genuine, replay)):
            np.testing.assert_allclose(
                got, oracles.gmm_frame_log_likelihoods(model, x),
                rtol=0.0, atol=atol)

    @pytest.mark.parametrize("n,k", [(40, 3), (700, 16), (3000, 64)])
    @pytest.mark.parametrize("seed", range(4))
    def test_kmeans_pp_picks_what_choice_picks(self, monkeypatch, n, k,
                                               seed):
        # The seeding's GEMV distances, drawn from by Generator.choice,
        # pick the frames that exact distances pick.
        frames = np.random.default_rng(900 + n).normal(
            0.0, [1.0] * 13 + [10.0] * 13, size=(n, 26))
        monkeypatch.setattr("replaykit.gmm.KMEANS_ITERS", 0)
        centers = _kmeans_init(frames, k, np.random.default_rng(seed))
        picks = oracles.kmeans_pp_indices(frames, k,
                                          np.random.default_rng(seed))
        np.testing.assert_array_equal(centers, frames[picks])

    @pytest.mark.parametrize("k", [2, 8, 64])
    def test_lloyd_over_several_budget_sized_blocks(self, monkeypatch, k):
        # Each Lloyd iteration takes LLOYD_BLOCK_ELEMENTS // k frames at a
        # time: 8,192 at K=2, 2,048 at K=8 and 256 at K=64. Three full
        # blocks and a short fourth must give the centres that exact
        # distances to one centre at a time give over all frames.
        rows = LLOYD_BLOCK_ELEMENTS // k
        rng = np.random.default_rng(700 + k)
        frames = rng.permutation(_mixture_frames(
            rng, k, 4, per_comp=-(-(3 * rows + 77) // k)))[:3 * rows + 77]
        blocks = []
        nearest = gmm._nearest

        def recording_nearest(block, centers):
            blocks.append(block.shape[0])
            return nearest(block, centers)

        monkeypatch.setattr(gmm, "_nearest", recording_nearest)
        centers = _kmeans_init(frames, k, np.random.default_rng(k))
        assert blocks == [rows, rows, rows, 77] * KMEANS_ITERS
        assert max(blocks) * k <= LLOYD_BLOCK_ELEMENTS
        _, want, _ = oracles.gmm_init(frames, k, "diag", 1e-4, seed=k)
        np.testing.assert_allclose(centers, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind,k", KINDS_AND_K)
    def test_initialisation(self, kind, k):
        rng = np.random.default_rng(300 + k)
        frames = _mixture_frames(rng, k, 3)
        init = train_gmm(frames, k, kind, TrainConfig(max_iters=0), seed=k)
        weights, means, covs = oracles.gmm_init(frames, k, kind, 1e-4, seed=k)
        _assert_close(init.weights, weights)
        _assert_close(init.means, means)
        _assert_close(init.covariances, covs)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_initialisation_with_an_empty_cluster(self, kind):
        # Two distinct points: the third k-means++ centre repeats one of
        # them, and the tie leaves its cluster empty.
        frames = np.array([[0.0, 0.0]] * 30 + [[1.0, 2.0]] * 10)
        init = train_gmm(frames, 3, kind, TrainConfig(max_iters=0), seed=0)
        weights, means, covs = oracles.gmm_init(frames, 3, kind, 1e-4, seed=0)
        assert np.sort(weights)[0] < 1e-7
        _assert_close(init.weights, weights)
        _assert_close(init.means, means)
        _assert_close(init.covariances, covs)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_initialisation_with_a_single_frame_cluster(self, kind):
        # The far frame gets a cluster of its own, whose covariance is
        # the data variance rather than a floored zero.
        rng = np.random.default_rng(12)
        frames = np.vstack([rng.normal(0.0, 1.0, size=(40, 2)),
                            [[50.0, -50.0]]])
        init = train_gmm(frames, 3, kind, TrainConfig(max_iters=0), seed=0)
        weights, means, covs = oracles.gmm_init(frames, 3, kind, 1e-4, seed=0)
        assert np.sort(weights)[0] == pytest.approx(1 / 41)
        _assert_close(init.weights, weights)
        _assert_close(init.means, means)
        _assert_close(init.covariances, covs)

    @pytest.mark.parametrize("kind,k", KINDS_AND_K)
    def test_one_em_iteration(self, kind, k):
        rng = np.random.default_rng(400 + k)
        frames = _mixture_frames(rng, k, 3)
        init = train_gmm(frames, k, kind, TrainConfig(max_iters=0), seed=1)
        one = train_gmm(frames, k, kind,
                        TrainConfig(max_iters=1, ll_tolerance=0.0), seed=1)
        ll_curve, (weights, means, covs) = oracles.gmm_em(frames, init, 1,
                                                          1e-4)
        assert one.ll_curve == pytest.approx(ll_curve, rel=TOL)
        _assert_close(one.weights, weights)
        _assert_close(one.means, means)
        _assert_close(one.covariances, covs)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_one_em_iteration_at_the_floors(self, kind):
        # The third column is twice the first and the fourth constant, so
        # every covariance is singular before flooring.
        rng = np.random.default_rng(11)
        base = _mixture_frames(rng, 3, 2)
        frames = np.column_stack([base, 2.0 * base[:, 0],
                                  np.full(len(base), 1.5)])
        init = train_gmm(frames, 3, kind, TrainConfig(max_iters=0), seed=2)
        one = train_gmm(frames, 3, kind,
                        TrainConfig(max_iters=1, ll_tolerance=0.0), seed=2)
        _, (weights, means, covs) = oracles.gmm_em(frames, init, 1, 1e-4)
        _assert_close(one.weights, weights)
        _assert_close(one.means, means)
        _assert_close(one.covariances, covs)
        diag_floor, full_floor = oracles.gmm_floors(frames, 1e-4)
        if kind == "diag":
            assert np.all(one.covariances[:, 3] == diag_floor[3])
        else:
            smallest = np.linalg.eigvalsh(one.covariances)[:, 0]
            np.testing.assert_allclose(smallest, full_floor, rtol=1e-6)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_five_iteration_ll_curve(self, kind):
        rng = np.random.default_rng(500)
        frames = _mixture_frames(rng, 8, 5, per_comp=40)
        init = train_gmm(frames, 8, kind, TrainConfig(max_iters=0), seed=3)
        fit = train_gmm(frames, 8, kind,
                        TrainConfig(max_iters=5, ll_tolerance=0.0), seed=3)
        ll_curve, _ = oracles.gmm_em(frames, init, 5, 1e-4)
        assert len(fit.ll_curve) == 5
        np.testing.assert_allclose(fit.ll_curve, ll_curve, rtol=TOL)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_three_em_iterations_over_three_blocks(self, kind):
        # Two full frame blocks and a last one holding a single frame.
        rng = np.random.default_rng(550)
        frames = rng.permutation(_mixture_frames(rng, 8, 5, per_comp=130))
        frames = frames[:2 * MOMENT_BLOCK + 1]
        init = train_gmm(frames, 8, kind, TrainConfig(max_iters=0), seed=5)
        fit = train_gmm(frames, 8, kind,
                        TrainConfig(max_iters=3, ll_tolerance=0.0), seed=5)
        ll_curve, (weights, means, covs) = oracles.gmm_em(frames, init, 3,
                                                          1e-4)
        np.testing.assert_allclose(fit.ll_curve, ll_curve, rtol=TOL)
        _assert_close(fit.weights, weights)
        _assert_close(fit.means, means)
        _assert_close(fit.covariances, covs)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_two_em_iterations_at_the_benchmark_shape(self, kind):
        # K=64 on d=26, the detectors' shape: a quarter (diag) to nearly
        # all (full) shifted log-densities lie below the exp cut, and the
        # full moments have 378 rows.
        rng = np.random.default_rng(600)
        frames = _mixture_frames(rng, 64, 26, per_comp=12)
        init = train_gmm(frames, 64, kind, TrainConfig(max_iters=0), seed=4)
        fit = train_gmm(frames, 64, kind,
                        TrainConfig(max_iters=2, ll_tolerance=0.0), seed=4)
        ll_curve, (weights, means, covs) = oracles.gmm_em(frames, init, 2,
                                                          1e-4)
        np.testing.assert_allclose(fit.ll_curve, ll_curve, rtol=TOL)
        _assert_close(fit.weights, weights)
        _assert_close(fit.means, means)
        _assert_close(fit.covariances, covs)


class TestNumericsGuards:
    @pytest.mark.parametrize("n", [MOMENT_BLOCK - 1, MOMENT_BLOCK,
                                   MOMENT_BLOCK + 1, 1776, 9960, 28512])
    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_one_component_init_covariance_is_numpys_variance(self, kind, n):
        # The variance floor is taken from the data variance that the init
        # pass's moment sums give, summed over their components. At K=1
        # that is the one initial covariance (its diagonal for full), which
        # must be numpy's variance to within rounding of the block sums:
        # at most 8.8e-15 relative (diag) and 9.9e-14 (full, through the
        # floor's eigendecomposition) over these sizes.
        rng = np.random.default_rng(n)
        frames = rng.normal(rng.normal(0.0, 50.0, 26),
                            rng.uniform(0.1, 10.0, 26), size=(n, 26))
        fit = train_gmm(frames, 1, kind, TrainConfig(max_iters=0))
        got = (fit.covariances[0] if kind == "diag"
               else np.diagonal(fit.covariances[0]))
        np.testing.assert_allclose(got, frames.var(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_a_small_fit_holds_less_than_half_its_frames(self, kind):
        # At K=2 the data variance's temporary, as large as the frames,
        # was most of what a fit held beyond them.
        frames = np.random.default_rng(7).normal(size=(28512, 26))
        tracemalloc.start()
        try:
            train_gmm(frames, 2, kind, TrainConfig(max_iters=2), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < frames.nbytes / 2

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_a_k64_fit_builds_no_frames_by_components_array(self, kind):
        # Nearest centres are taken MOMENT_BLOCK frames at a time; one
        # (n, K) float64 array would be 14.6 MB here.
        n, k = 28512, 64
        frames = np.random.default_rng(8).normal(size=(n, 26))
        tracemalloc.start()
        try:
            train_gmm(frames, k, kind, TrainConfig(max_iters=2), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * k * 8 / 4

    def test_full_estimates_are_exactly_symmetric(self):
        # `_floor_covariances` hands them to `eigh`, which reads one
        # triangle, without symmetrising them.
        rng = np.random.default_rng(11)
        frames = rng.normal(rng.normal(0.0, 20.0, 6), 3.0, size=(700, 6))
        origin = frames.mean(axis=0)
        resp = rng.dirichlet(np.ones(5), size=700)
        sums = sum(block @ resp[start:stop] for start, stop, block
                   in _feature_blocks(frames, origin, "full"))
        covariances = _estimates(sums, origin, "full")[2]
        np.testing.assert_array_equal(covariances,
                                      np.swapaxes(covariances, 1, 2))

    def test_logsumexp_matches_scipy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 50.0, size=(30, 8))
        a[3, 2] = -np.inf
        np.testing.assert_allclose(_logsumexp(a), logsumexp(a, axis=1),
                                   rtol=1e-13)

    def test_logsumexp_below_the_exp_cut(self):
        # Entries in the subnormal band, far below it and at -inf, relative
        # to the row maximum, are cut to 0 without an underflow.
        rng = np.random.default_rng(1)
        shifted = rng.uniform(-20.0, 0.0, size=(6, 8))
        shifted[:, 0] = 0.0
        shifted[:, 1] = rng.uniform(-745.0, -708.0, size=6)
        shifted[:, 2] = -1e4
        shifted[:, 3] = -np.inf
        shifted[5, 4:] = rng.uniform(-745.0, -708.0, size=4)
        a = shifted + rng.uniform(-50.0, 50.0, size=(6, 1))
        with np.errstate(all="raise"):
            out = _logsumexp(a)
        np.testing.assert_allclose(out, logsumexp(a, axis=1), rtol=1e-13)

    def test_responsibilities_below_the_exp_cut_are_zero(self):
        rng = np.random.default_rng(2)
        frames = _mixture_frames(rng, 16, 6, per_comp=20)
        model = train_gmm(frames, 16, "full",
                          TrainConfig(max_iters=2, ll_tolerance=0.0), seed=0)
        weighted = _log_densities(model, frames)
        log_resp = weighted - _logsumexp(weighted)[:, None]
        below = log_resp < -700.0
        assert below.mean() > 0.1
        with np.errstate(all="raise"):
            resp = _exp_in_place(log_resp.copy())
        assert np.all(resp[below] == 0.0)
        np.testing.assert_array_equal(resp[~below], np.exp(log_resp[~below]))
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_exp_in_place_keeps_nan_and_minus_inf(self):
        a = np.array([np.nan, -np.inf, -800.0, -700.0, 0.0, np.inf])
        out = _exp_in_place(a)
        assert out is a
        np.testing.assert_array_equal(
            out, [np.nan, 0.0, 0.0, np.exp(-700.0), 1.0, np.inf])

    def test_logsumexp_all_minus_inf_row(self):
        a = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
        with np.errstate(all="raise"):
            out = _logsumexp(a)
        assert out[0] == -np.inf
        assert out[1] == 0.0

    def test_non_positive_definite_component_named(self):
        covs = np.stack([np.eye(2), np.eye(2), np.diag([1.0, -1.0]),
                         np.zeros((2, 2))])
        model = Gmm(np.full(4, 0.25), np.zeros((4, 2)), covs, "full")
        pair = _pair(model, model)
        with pytest.raises(SingularComponentError,
                           match=r"^component 2 covariance is not "
                                 r"positive-definite$"):
            score_utterance(pair, _cepstra(np.zeros((3, 2))))

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_empty_kmeans_cluster_trains(self, kind):
        # Identical frames leave the second k-means cluster empty, so its
        # weight is floored; the floored weights must still be valid.
        model = train_gmm(np.ones((40, 2)), 2, kind, seed=0)
        assert model.weights.min() >= 1e-8
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Gmm(np.array([1.0]), np.array([[0.0]]), np.array([[np.nan]]),
                "full")

    def test_parameters_cannot_be_replaced(self):
        model = _single_gaussian(0.0, 1.0)
        pair = _pair(model, model)
        score_utterance(pair, _cepstra(np.array([[0.5]])))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.covariances = np.array([[4.0]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.replay = _single_gaussian(1.0, 1.0)
