"""Gaussian mixture training by EM and frame-averaged likelihood scoring.

Two mixtures, one per class, are trained independently; an utterance is
scored by the mean per-frame difference of the class log-likelihoods, so
higher scores lean genuine. Initialization is seeded k-means++ followed by
a few Lloyd iterations, which makes training deterministic under the seed.
Variances are floored every M-step against the training data's variance
(eigenvalue clipping in the full-covariance case), and densities go
through log-sum-exp so far-tail frames stay finite.

The numerics use the precision-Cholesky parametrisation of scikit-learn's
GaussianMixture (Pedregosa et al., JMLR 2011). A `Gmm` is frozen, and EM
builds a new one per M-step, so the factors its densities need are derived
once per model, on first use: the diagonal precisions, or the inverse
Cholesky factors of all full covariances from one batched factorisation.
The diagonal E-step is then one GEMM over all components, the full E-step
one (d, d + 1) @ (d + 1, n) GEMM per component, and the eigenvalue floor
one batched eigendecomposition of the (K, d, d) stack. No step makes a
LAPACK call per component, and k-means distances are GEMMs as well.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

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

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Gmm:
    """Mixture weights, means and covariances for one class.

    Frozen, because the density factors are derived from the parameters
    once, on first use: an array changed in place after that is not seen.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    covariance_kind: str
    ll_curve: list[float] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.covariance_kind not in COVARIANCE_KINDS:
            raise ValueError(f"covariance_kind must be one of "
                             f"{COVARIANCE_KINDS}, got {self.covariance_kind!r}")
        for name in ("weights", "means", "covariances"):
            object.__setattr__(self, name, np.asarray(getattr(self, name),
                                                      dtype=np.float64))
        if not all(np.isfinite(a).all()
                   for a in (self.weights, self.means, self.covariances)):
            raise ValueError("weights, means and covariances must be finite")
        if abs(self.weights.sum() - 1.0) > 1e-9 or np.any(self.weights < WEIGHT_FLOOR):
            raise ValueError("weights must be >= 1e-8 and sum to 1")

    @property
    def n_comp(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(o, W, c): ln N(x; mu_k, Sigma_k) is c_k plus a quadratic term
        in W and the shifted frame z = x - o.

        The shift o is the mixture mean, which keeps the expanded diagonal
        form from cancelling large terms; m_k = mu_k - o. diag: W is the
        (2d, K) stack of -Λᵀ/2 over (m Λ)ᵀ for the precisions Λ = 1/σ², and
        the term is [z², z]·W. full: W[k] is the (d, d + 1) block
        [L_k⁻¹ | -L_k⁻¹ m_k] for the Cholesky factor L_k of Sigma_k, and
        the term is -½‖W[k] [z; 1]‖².
        """
        base = -0.5 * self.dim * np.log(2.0 * np.pi)
        origin = self.weights @ self.means
        means = self.means - origin
        if self.covariance_kind == "diag":
            prec = 1.0 / self.covariances
            const = base - 0.5 * (np.log(self.covariances).sum(axis=1)
                                  + (means ** 2 * prec).sum(axis=1))
            return origin, np.vstack([-0.5 * prec.T, (means * prec).T]), const
        chol = _cholesky(self.covariances)
        inv_chol = np.linalg.inv(chol)
        whiten = np.concatenate([inv_chol, -(inv_chol @ means[:, :, None])],
                                axis=2)
        const = base - np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        return origin, whiten, const


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

def _cholesky(covariances: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (K, d, d) stack in one batched call; if
    one has none, SingularComponentError names the first such component."""
    try:
        return np.linalg.cholesky(covariances)
    except np.linalg.LinAlgError:
        for j, cov in enumerate(covariances):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as exc:
                raise SingularComponentError(
                    f"component {j} covariance is not positive-definite"
                ) from exc
        raise


def _component_log_densities(model: Gmm, frames: np.ndarray) -> np.ndarray:
    """(n, K) matrix of ln N(x; mu_k, Sigma_k)."""
    origin, factor, const = model._factors
    n, d = frames.shape
    if model.covariance_kind == "diag":
        terms = np.empty((n, 2 * d))
        np.subtract(frames, origin, out=terms[:, d:])
        np.square(terms[:, d:], out=terms[:, :d])
        out = terms @ factor
        out += const
        return out
    # Frames as columns, so each component's whitened frames are one
    # (d, d + 1) @ (d + 1, n) GEMM and its row of `out` is contiguous.
    augmented = np.empty((d + 1, n))
    np.subtract(frames.T, origin[:, None], out=augmented[:d])
    augmented[d] = 1.0
    out = np.empty((model.n_comp, n))
    for j in range(model.n_comp):
        white = factor[j] @ augmented
        np.einsum("ij,ij->j", white, white, out=out[j])
    out *= -0.5
    out += const[:, None]
    return out.T


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """ln sum_k exp(a[:, k]) per row, shifted by the row maximum; a row
    that is all -inf gives -inf."""
    top = a.max(axis=1)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - top[:, None]).sum(axis=1)) + top


def _frame_log_likelihoods(model: Gmm, frames: np.ndarray) -> np.ndarray:
    """ln sum_k w_k N(x; mu_k, Sigma_k) per frame, via log-sum-exp."""
    weighted = _component_log_densities(model, frames)
    weighted += np.log(model.weights)
    return _logsumexp(weighted)


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

def _nearest(frames: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each frame's closest centre: the argmin of ‖c‖² − 2x·c,
    the squared distance without the ‖x‖² that every centre shares."""
    return np.argmin((centers * centers).sum(axis=1)
                     - 2.0 * (frames @ centers.T), axis=1)


def _split_by_assignment(frames: np.ndarray, assign: np.ndarray,
                         k: int) -> list[np.ndarray]:
    """The frames of each of the k clusters, in frame order."""
    order = np.argsort(assign, kind="stable")
    bounds = np.cumsum(np.bincount(assign, minlength=k))[:-1]
    return np.split(frames[order], bounds)


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

    for _ in range(KMEANS_ITERS):
        clusters = _split_by_assignment(frames, _nearest(frames, centers), k)
        for j, members in enumerate(clusters):
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
    return centers


def _floor_eigenvalues(covariances: np.ndarray, floor: float) -> np.ndarray:
    """Symmetrise each matrix of a (K, d, d) stack and clip its eigenvalues
    at `floor`, in one batched eigendecomposition."""
    sym = 0.5 * (covariances + np.swapaxes(covariances, 1, 2))
    eigvals, eigvecs = np.linalg.eigh(sym)
    np.maximum(eigvals, floor, out=eigvals)
    return (eigvecs * eigvals[:, None, :]) @ np.swapaxes(eigvecs, 1, 2)


def _normalized_weights(weights: np.ndarray) -> np.ndarray:
    """Floored weights scaled to sum 1 and floored again, because the
    scaling can push a floored weight just below WEIGHT_FLOOR."""
    weights = np.maximum(weights, WEIGHT_FLOOR)
    return np.maximum(weights / weights.sum(), WEIGHT_FLOOR)


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
    if n_comp < 1:
        raise ValueError(f"n_comp must be >= 1, got {n_comp}")
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
    clusters = _split_by_assignment(frames, _nearest(frames, centers), n_comp)
    counts = np.array([members.shape[0] for members in clusters])
    if covariance_kind == "diag":
        covariances = np.array([
            members.var(axis=0) if members.shape[0] >= 2 else data_var
            for members in clusters])
        covariances = np.maximum(covariances, diag_floor)
    else:
        covariances = np.empty((n_comp, d, d))
        for j, members in enumerate(clusters):
            if members.shape[0] >= 2:
                centered = members - members.mean(axis=0)
                covariances[j] = centered.T @ centered / members.shape[0]
            else:
                covariances[j] = np.diag(data_var)
        covariances = _floor_eigenvalues(covariances, full_floor)

    if covariance_kind == "full":
        frames_t = np.ascontiguousarray(frames.T)
    ll_curve: list[float] = []
    model = Gmm(_normalized_weights(counts / n), centers, covariances,
                covariance_kind, ll_curve=ll_curve)
    prev_ll = -np.inf
    for _ in range(config.max_iters):
        weighted = _component_log_densities(model, frames)
        weighted += np.log(model.weights)
        norm = _logsumexp(weighted)
        total_ll = float(norm.sum())
        ll_curve.append(total_ll)
        if abs(total_ll - prev_ll) / n < config.ll_tolerance:
            break
        prev_ll = total_ll

        weighted -= norm[:, None]
        resp = np.exp(weighted, out=weighted)
        counts = resp.sum(axis=0)
        safe_counts = np.maximum(counts, 1e-300)
        means = (resp.T @ frames) / safe_counts[:, None]
        if covariance_kind == "diag":
            second = (resp.T @ (frames * frames)) / safe_counts[:, None]
            covariances = np.maximum(second - means ** 2, diag_floor)
        else:
            covariances = np.empty((n_comp, d, d))
            resp_rows = np.ascontiguousarray(resp.T)
            for j in range(n_comp):
                centered = frames_t - means[j][:, None]
                covariances[j] = ((centered * resp_rows[j]) @ centered.T
                                  / safe_counts[j])
            finite = np.isfinite(covariances).all(axis=(1, 2))
            if not finite.all():
                j = int(np.argmin(finite))
                raise SingularComponentError(
                    f"component {j} collapsed: non-finite covariance "
                    f"(count={counts[j]:.3g})")
            covariances = _floor_eigenvalues(covariances, full_floor)
        model = Gmm(_normalized_weights(counts / n), means, covariances,
                    covariance_kind, ll_curve=ll_curve)
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
    try:
        weights, means, cov = (np.asarray(doc[name][key], dtype=np.float64)
                               for key in ("weights", "means", "covariances"))
        shape = (k, d) if covariance_kind == "diag" else (k, d, d)
        if weights.shape != (k,) or means.shape != (k, d) \
                or cov.size != np.prod(shape):
            raise ValueError(
                f"weights {weights.shape}, means {means.shape} and {cov.size} "
                f"covariance values disagree with K={k}, d={d}")
        return Gmm(weights, means, cov.reshape(shape), covariance_kind)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: {name}: {exc}") from exc


def save_pair_model(model: GmmPairModel, path) -> None:
    """Write the two mixtures as one compact, single-line JSON document,
    covariances flattened row-major, floats at full round-trip precision."""
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
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_pair_model(path) -> GmmPairModel:
    """Read a model written by `save_pair_model`; bytes that are not UTF-8
    JSON or not an object, a missing key, and parameters that are not numeric,
    disagree with K and d or fail `Gmm`'s checks raise ModelFormatError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected a JSON object, got "
                               f"{type(doc).__name__}")
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
