import json
import math

import numpy as np
import pytest

from replaykit.errors import ModelFormatError
from replaykit.filterbank import FeatureKind, FeatureMatrix
from replaykit.gmm import (
    Gmm,
    GmmPairModel,
    TrainConfig,
    load_pair_model,
    log_likelihood,
    save_pair_model,
    score_utterance,
    train_gmm,
)


def _single_gaussian(mean, var):
    return Gmm(np.array([1.0]), np.array([[mean]]), np.array([[var]]), "diag")


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

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="too few frames"):
            train_gmm(np.zeros((5, 1)), 1, "diag")

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
        assert log_likelihood(model, np.array([1.0])) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_duplicate_components_collapse(self):
        single = _single_gaussian(0.5, 2.0)
        double = Gmm(np.array([0.5, 0.5]), np.array([[0.5], [0.5]]),
                     np.array([[2.0], [2.0]]), "diag")
        x = np.array([1.7])
        assert log_likelihood(double, x) == pytest.approx(
            log_likelihood(single, x), abs=1e-12)

    def test_far_tail_is_finite(self):
        model = _single_gaussian(0.0, 1.0)
        value = log_likelihood(model, np.array([1e6]))
        assert np.isfinite(value)
        assert value < -1e11

    def test_dimension_mismatch(self):
        model = _single_gaussian(0.0, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            log_likelihood(model, np.array([1.0, 2.0]))

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
        assert log_likelihood(a, x) == pytest.approx(log_likelihood(b, x),
                                                     abs=1e-12)


def _cepstra(values):
    return FeatureMatrix(np.asarray(values, dtype=np.float64),
                         FeatureKind.LOG_FBANK)


class TestScoreUtterance:
    def _pair(self, g_mean=0.0, r_mean=1.0):
        return GmmPairModel(_single_gaussian(g_mean, 1.0),
                            _single_gaussian(r_mean, 1.0), "test", {})

    def test_identical_models_score_zero(self):
        pair = self._pair(0.3, 0.3)
        feats = _cepstra(np.random.default_rng(0).normal(size=(20, 1)))
        assert score_utterance(pair, feats) == 0.0

    def test_single_frame_equals_ratio(self):
        pair = self._pair()
        x = np.array([[0.2]])
        expected = (log_likelihood(pair.genuine, x[0])
                    - log_likelihood(pair.replay, x[0]))
        assert score_utterance(pair, _cepstra(x)) == pytest.approx(expected,
                                                                   abs=1e-15)

    def test_frame_duplication_invariance(self):
        pair = self._pair()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 1))
        a = score_utterance(pair, _cepstra(x))
        b = score_utterance(pair, _cepstra(np.repeat(x, 2, axis=0)))
        assert a == pytest.approx(b, abs=1e-12)

    def test_empty_utterance(self):
        pair = self._pair()
        with pytest.raises(ValueError, match="empty"):
            score_utterance(pair, _cepstra(np.zeros((0, 1))))

    def test_dimension_mismatch(self):
        pair = self._pair()
        with pytest.raises(ValueError, match="dimension"):
            score_utterance(pair, _cepstra(np.zeros((3, 2))))

    def test_scoring_determinism(self):
        rng = np.random.default_rng(9)
        frames = rng.normal(size=(200, 2))
        g = train_gmm(frames, 2, "full", seed=0)
        r = train_gmm(frames + 1.0, 2, "full", seed=0)
        pair = GmmPairModel(g, r, "test", {})
        feats = _cepstra(rng.normal(size=(50, 2)))
        assert score_utterance(pair, feats) == score_utterance(pair, feats)


class TestModelPersistence:
    def _trained_pair(self, kind):
        rng = np.random.default_rng(12)
        g = train_gmm(rng.normal(0, 1, size=(80, 3)), 2, kind, seed=1)
        r = train_gmm(rng.normal(2, 1, size=(80, 3)), 2, kind, seed=2)
        return GmmPairModel(g, r, "LFCC+D", TrainConfig().to_dict())

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
        assert back.feature_kind == "LFCC+D"
        assert back.training_config == pair.training_config

    def test_file_schema(self, tmp_path):
        pair = self._trained_pair("full")
        p = tmp_path / "model.json"
        save_pair_model(pair, p)
        import json
        doc = json.loads(p.read_text())
        assert set(doc) == {"feature_kind", "covariance_kind", "K", "d",
                            "training_config", "genuine", "replay"}
        assert doc["K"] == 2 and doc["d"] == 3
        # covariances flat row-major
        assert len(doc["genuine"]["covariances"]) == 2 * 3 * 3
        flat = np.asarray(doc["genuine"]["covariances"])
        np.testing.assert_array_equal(flat.reshape(2, 3, 3),
                                      pair.genuine.covariances)

    @pytest.mark.parametrize("key", ["genuine", "K", "covariance_kind"])
    def test_missing_key_is_typed(self, tmp_path, key):
        p = tmp_path / "model.json"
        save_pair_model(self._trained_pair("diag"), p)
        doc = json.loads(p.read_text())
        del doc[key]
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_pair_model(p)
        assert str(info.value) == f"{p}: missing key '{key}'"

    @pytest.mark.parametrize("kind", ["diag", "full"])
    def test_shape_disagreeing_with_k_d_is_typed(self, tmp_path, kind):
        p = tmp_path / "model.json"
        save_pair_model(self._trained_pair(kind), p)
        doc = json.loads(p.read_text())
        doc["replay"]["covariances"] = doc["replay"]["covariances"][:-1]
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="replay.*K=2, d=3"):
            load_pair_model(p)
        doc = json.loads(p.read_text())
        doc["K"] = 3
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="genuine.*K=3, d=3"):
            load_pair_model(p)

    def test_pair_must_share_shape(self):
        g = _single_gaussian(0.0, 1.0)
        r = Gmm(np.array([1.0]), np.array([[0.0, 0.0]]),
                np.array([[1.0, 1.0]]), "diag")
        with pytest.raises(ValueError, match="share"):
            GmmPairModel(g, r, "t", {})
