"""Gaussian mixture training by EM and frame-averaged likelihood scoring.

Two mixtures, one per class, are trained independently; an utterance is
scored by the mean per-frame difference of the class log-likelihoods, so
higher scores lean genuine. Initialization is seeded k-means++ followed by
a few Lloyd iterations, which makes training deterministic under the seed.
Variances are floored every M-step against the training data's variance
(eigenvalue clipping in the full-covariance case), and densities go
through log-sum-exp so far-tail frames stay finite.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular
from scipy.special import logsumexp

from .errors import ModelFormatError, SingularComponentError
from .filterbank import FeatureMatrix

COVARIANCE_KINDS = ("diag", "full")
WEIGHT_FLOOR = 1e-8
MIN_FRAMES_PER_COMPONENT = 10
KMEANS_ITERS = 10


@dataclass(frozen=True)
class TrainConfig:
    max_iters: int = 100
    ll_tolerance: float = 1e-5
    variance_floor_factor: float = 1e-4

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class Gmm:
    """Mixture weights, means and covariances for one class."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    covariance_kind: str
    ll_curve: list[float] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.covariance_kind not in COVARIANCE_KINDS:
            raise ValueError(f"covariance_kind must be one of "
                             f"{COVARIANCE_KINDS}, got {self.covariance_kind!r}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.covariances = np.asarray(self.covariances, dtype=np.float64)
        if abs(self.weights.sum() - 1.0) > 1e-9 or np.any(self.weights < WEIGHT_FLOOR):
            raise ValueError("weights must be >= 1e-8 and sum to 1")

    @property
    def n_comp(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass
class GmmPairModel:
    """Genuine and replay mixtures plus the provenance of their features."""

    genuine: Gmm
    replay: Gmm
    feature_kind: str
    training_config: dict

    def __post_init__(self):
        if self.genuine.dim != self.replay.dim \
                or self.genuine.covariance_kind != self.replay.covariance_kind:
            raise ValueError("genuine and replay models must share dimension "
                             "and covariance kind")


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def _component_log_densities(model: Gmm, frames: np.ndarray) -> np.ndarray:
    """(n, K) matrix of ln N(x; mu_k, Sigma_k)."""
    n, d = frames.shape
    k = model.n_comp
    out = np.empty((n, k))
    base = -0.5 * d * np.log(2.0 * np.pi)
    if model.covariance_kind == "diag":
        for j in range(k):
            var = model.covariances[j]
            diff = frames - model.means[j]
            out[:, j] = base - 0.5 * (np.log(var).sum()
                                      + ((diff * diff) / var).sum(axis=1))
    else:
        for j in range(k):
            try:
                chol = cholesky(model.covariances[j], lower=True)
            except np.linalg.LinAlgError as exc:
                raise SingularComponentError(
                    f"component {j} covariance is not positive-definite"
                ) from exc
            diff = frames - model.means[j]
            solved = solve_triangular(chol, diff.T, lower=True,
                                      check_finite=False)
            out[:, j] = base - np.log(np.diag(chol)).sum() \
                - 0.5 * (solved * solved).sum(axis=0)
    return out


def _frame_log_likelihoods(model: Gmm, frames: np.ndarray) -> np.ndarray:
    """ln sum_k w_k N(x; mu_k, Sigma_k) per frame, via log-sum-exp."""
    log_dens = _component_log_densities(model, frames)
    return logsumexp(log_dens + np.log(model.weights), axis=1)


def log_likelihood(model: Gmm, frame: np.ndarray) -> float:
    """Mixture log-density of a single frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 1 or frame.size != model.dim:
        raise ValueError(f"frame dimension {frame.shape} does not match "
                         f"model dimension {model.dim}")
    return float(_frame_log_likelihoods(model, frame[None, :])[0])


def score_utterance(pair: GmmPairModel, feats: FeatureMatrix) -> float:
    """Frame-averaged log-likelihood ratio; higher means more genuine."""
    if feats.n_frames == 0:
        raise ValueError("cannot score an empty utterance")
    if feats.dim != pair.genuine.dim:
        raise ValueError(f"feature dimension {feats.dim} does not match "
                         f"model dimension {pair.genuine.dim}")
    x = feats.values
    return float(np.mean(_frame_log_likelihoods(pair.genuine, x)
                         - _frame_log_likelihoods(pair.replay, x)))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _kmeans_init(frames: np.ndarray, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """k-means++ spreading followed by a few Lloyd iterations."""
    n = frames.shape[0]
    centers = np.empty((k, frames.shape[1]))
    centers[0] = frames[rng.integers(n)]
    d2 = ((frames - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            centers[j] = frames[rng.choice(n, p=d2 / total)]
        else:
            centers[j] = frames[rng.integers(n)]
        d2 = np.minimum(d2, ((frames - centers[j]) ** 2).sum(axis=1))

    d2_all = np.empty((n, k))
    for _ in range(KMEANS_ITERS):
        for j in range(k):
            d2_all[:, j] = ((frames - centers[j]) ** 2).sum(axis=1)
        assign = d2_all.argmin(axis=1)
        for j in range(k):
            members = frames[assign == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
    return centers


def _floor_full_covariance(cov: np.ndarray, floor: float) -> np.ndarray:
    cov = 0.5 * (cov + cov.T)
    eigvals, eigvecs = eigh(cov, check_finite=False)
    eigvals = np.maximum(eigvals, floor)
    return (eigvecs * eigvals) @ eigvecs.T


def train_gmm(frames: np.ndarray, n_comp: int, covariance_kind: str,
              config: TrainConfig | None = None, seed: int = 0) -> Gmm:
    """Fit a K-component mixture by EM with seeded k-means++ initialization.

    Stops when the per-frame log-likelihood improvement drops below the
    configured tolerance or after max_iters. The fitted model carries the
    total log-likelihood trajectory in `ll_curve`.
    """
    if covariance_kind not in COVARIANCE_KINDS:
        raise ValueError(f"covariance_kind must be one of {COVARIANCE_KINDS}")
    config = config or TrainConfig()
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] < 1:
        raise ValueError("frames must be a non-empty 2-D matrix")
    n, d = frames.shape
    if n < MIN_FRAMES_PER_COMPONENT * n_comp:
        raise ValueError(
            f"too few frames: {n} < {MIN_FRAMES_PER_COMPONENT} * {n_comp} "
            f"components")

    data_var = frames.var(axis=0)
    diag_floor = np.maximum(config.variance_floor_factor * data_var, 1e-12)
    full_floor = max(config.variance_floor_factor * float(data_var.mean()),
                     1e-12)

    rng = np.random.default_rng(seed)
    centers = _kmeans_init(frames, n_comp, rng)
    dists = np.empty((n, n_comp))
    for j in range(n_comp):
        dists[:, j] = ((frames - centers[j]) ** 2).sum(axis=1)
    assign = dists.argmin(axis=1)

    weights = np.full(n_comp, 1.0 / n_comp)
    means = centers.copy()
    if covariance_kind == "diag":
        covariances = np.empty((n_comp, d))
    else:
        covariances = np.empty((n_comp, d, d))
    for j in range(n_comp):
        members = frames[assign == j]
        count = members.shape[0]
        weights[j] = max(count / n, WEIGHT_FLOOR)
        if covariance_kind == "diag":
            var = members.var(axis=0) if count >= 2 else data_var.copy()
            covariances[j] = np.maximum(var, diag_floor)
        else:
            if count >= 2:
                centered = members - members.mean(axis=0)
                cov = centered.T @ centered / count
            else:
                cov = np.diag(data_var)
            covariances[j] = _floor_full_covariance(cov, full_floor)
    weights = weights / weights.sum()

    model = Gmm(weights, means, covariances, covariance_kind, ll_curve=[])
    prev_ll = -np.inf
    for _ in range(config.max_iters):
        log_dens = _component_log_densities(model, frames)
        weighted = log_dens + np.log(model.weights)
        norm = logsumexp(weighted, axis=1)
        total_ll = float(norm.sum())
        model.ll_curve.append(total_ll)
        if abs(total_ll - prev_ll) / n < config.ll_tolerance:
            break
        prev_ll = total_ll

        resp = np.exp(weighted - norm[:, None])
        counts = resp.sum(axis=0)
        weights = np.maximum(counts / n, WEIGHT_FLOOR)
        model.weights = weights / weights.sum()
        safe_counts = np.maximum(counts, 1e-300)
        model.means = (resp.T @ frames) / safe_counts[:, None]
        if covariance_kind == "diag":
            second = (resp.T @ (frames * frames)) / safe_counts[:, None]
            var = second - model.means ** 2
            model.covariances = np.maximum(var, diag_floor)
        else:
            for j in range(n_comp):
                centered = frames - model.means[j]
                cov = (centered * resp[:, j:j + 1]).T @ centered / safe_counts[j]
                model.covariances[j] = _floor_full_covariance(cov, full_floor)
                if not np.all(np.isfinite(model.covariances[j])):
                    raise SingularComponentError(
                        f"component {j} collapsed: non-finite covariance "
                        f"after flooring (count={counts[j]:.3g})")
    return model


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def _gmm_to_dict(model: Gmm) -> dict:
    return {
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "covariances": model.covariances.ravel().tolist(),
    }


def _gmm_from_dict(doc: dict, name: str, covariance_kind: str, k: int, d: int,
                   path) -> Gmm:
    weights, means, cov = (np.asarray(doc[name][key], dtype=np.float64)
                           for key in ("weights", "means", "covariances"))
    shape = (k, d) if covariance_kind == "diag" else (k, d, d)
    if weights.shape != (k,) or means.shape != (k, d) \
            or cov.size != np.prod(shape):
        raise ModelFormatError(
            f"{path}: {name} weights {weights.shape}, means {means.shape} and "
            f"{cov.size} covariance values disagree with K={k}, d={d}")
    return Gmm(weights, means, cov.reshape(shape), covariance_kind)


def save_pair_model(model: GmmPairModel, path) -> None:
    """Write the two mixtures as one JSON document, covariances flattened
    row-major, floats at full round-trip precision."""
    doc = {
        "feature_kind": model.feature_kind,
        "covariance_kind": model.genuine.covariance_kind,
        "K": model.genuine.n_comp,
        "d": model.genuine.dim,
        "training_config": model.training_config,
        "genuine": _gmm_to_dict(model.genuine),
        "replay": _gmm_to_dict(model.replay),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_pair_model(path) -> GmmPairModel:
    """Read a model written by `save_pair_model`; a missing key or a shape
    that disagrees with K and d raises ModelFormatError naming the file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        kind, k, d = doc["covariance_kind"], doc["K"], doc["d"]
        return GmmPairModel(
            genuine=_gmm_from_dict(doc, "genuine", kind, k, d, path),
            replay=_gmm_from_dict(doc, "replay", kind, k, d, path),
            feature_kind=doc["feature_kind"],
            training_config=doc["training_config"],
        )
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing key {exc}") from exc
