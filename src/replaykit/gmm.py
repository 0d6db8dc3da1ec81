"""Gaussian mixture training by EM and frame-averaged likelihood scoring.

Two mixtures, one per class, are trained independently; an utterance is
scored by the mean per-frame difference of the class log-likelihoods, so
higher scores lean genuine. Initialization is seeded k-means++ followed by
a few Lloyd iterations, which makes training deterministic under the seed.
Variances are floored every M-step against the training data's variance
(eigenvalue clipping in the full-covariance case), and densities go
through log-sum-exp so far-tail frames stay finite.

k-means++ (Arthur & Vassilvitskii, SODA 2007) draws each next centre by
`Generator.choice` with probability proportional to the squared distance
from the nearest centre so far. That distance is ‖x‖² − 2x·c + ‖c‖²,
clipped at 0: one GEMV per centre against row norms taken once, where
Σ(x − c)² made two more passes over the frames. Each Lloyd iteration
takes its frames one block at a time: one GEMM, with the centre norms
added in place, assigns them to their nearest centres, and one one-hot
GEMM adds them to the cluster sums. A block holds
LLOYD_BLOCK_ELEMENTS // K frames, so that its (rows, K) distance and
one-hot arrays hold at most 256 × 64 elements each, 128 KB: 256 frames
at K=64, 8,192 at K=2. So no (n, K) array is built and no assignment of
all n frames is kept, while a small K, in larger blocks, pays the dozen
numpy calls of a block fewer times per iteration.

Training works on moment features. For frames shifted by the data mean,
z = x - o, they are [q(z); z; 1], where q(z) is z² (diag) or the row-major
upper triangle of z zᵀ (full), built with frames as columns MOMENT_BLOCK
frames at a time. Each block serves both steps of an EM iteration. The
E-step is one GEMM of the block against the (q + d + 1, K) density
weights W, whose columns hold each component's -½ precision terms
(off-diagonals doubled for full), its precision times m = mu - o, and
ln w - ½ ln|Sigma| - ½ mᵀ Sigma⁻¹ m - (d/2) ln 2π. It is taken as
(Wᵀ block)ᵀ, column-major, so the log-sum-exp reduces each frame across
K contiguous columns, which is faster than along the rows of a C-ordered
(n, K) array. The M-step adds the block times its responsibilities to
the moment sums Σₙ rₙₖ [q(zₙ); zₙ; 1], so EM holds no (n, K) array.
Counts, means and uncentred second moments follow from the sums, and the
covariances are the second moments less the outer products of the means;
the initial covariances are the same sums over the final k-means
clusters, each block assigned to its nearest final centre as it is
built. Summed over their K columns, those sums are Σₙ [q(zₙ); zₙ; 1]
over all frames, so the same pass gives the data variance from which
the floor is taken (for full, the diagonal of the data covariance).

MOMENT_BLOCK sets what a fit holds beyond its frames. A full block's
features are (q + d + 1) × MOMENT_BLOCK floats, and its log-densities
and responsibilities are another MOMENT_BLOCK × K. `run_study` trains
two fits at once, so it holds two such working sets.

W is taken from the floor's results, so EM makes no Cholesky
factorisation or inverse: 1/σ² and Σ ln σ² for diag, and for full the
batched eigendecomposition V Λ Vᵀ of the (K, d, d) stack that clips the
eigenvalues, as Sigma⁻¹ = V Λ⁻¹ Vᵀ and ln|Sigma| = Σ ln λ. The floored
covariances V max(Λ, f) Vᵀ are rebuilt only for the parameters a fit
returns, not on every pass. No step makes a LAPACK call per component.

Scoring takes both mixtures of a `GmmPairModel` at once. The pair is
frozen, so its factors are derived once, on first use, about one origin
shared by the pair: the mean of the two mixture means. Each block of
MOMENT_BLOCK frames is built once and multiplied by the genuine and
replay factors placed side by side, and a log-sum-exp over each half
gives the two per-frame log-likelihoods. Diagonal pairs, and full pairs
with K at or above FULL_FEATURES_MIN_K, use the E-step's kernel, the
features [q(z); z; 1] against W, with the full precisions L⁻ᵀL⁻¹ taken
from one batched Cholesky factorisation. Below it, full pairs keep
Cholesky whitening: the 2K blocks [L⁻¹ | -L⁻¹m] stacked into one
(2K·d, d + 1) matrix, one GEMM per block against its rows [z; 1], then
each component's squared norm. Per frame and component the feature
form's GEMM multiplies q + d + 1 = 378 weights at d=26, against
whitening's d(d + 1) = 702, but it first builds the q = 351 products of
z zᵀ, a cost per frame that only a large K repays; FULL_FEATURES_MIN_K
is where the two forms cost about the same. Both forms follow the
precision parametrisation of scikit-learn's GaussianMixture (Pedregosa
et al., JMLR 2011). With the origin shared, the feature form expands each
component's quadratic form about a point up to half the pair's
separation Δ away, so a frame's log-likelihood carries an absolute error
of a few ulp of (Δ/2)²/σ²; tests pin it for mixtures 10³ σ apart.

Every exponential of a shifted log-density goes through `_exp_in_place`,
which clamps its argument at EXP_CUT = -700 and zeroes what lay below.
numpy's `exp` is many times slower on arguments whose result underflows
or is subnormal, and with well-separated components many shifted
log-densities lie below -745. A zeroed term is under exp(-700) < 1e-304,
so it cannot change a row sum that holds the row maximum's term, 1.0.
EM takes one `exp` per block: the responsibilities are the log-sum-exp's
shifted exponentials divided by their row sums.

A model file is one JSON line per genuine/replay pair: `format_version`
(MODEL_FORMAT_VERSION), the covariance kind, K, d, the `to_dict()` of
the `TrainConfig` and of the `ExtractionConfig` of the features it was
trained on (what their archive's header holds), and for each mixture its
weights, means and covariances as base64 strings of their C-order
little-endian float64 bytes. Bytes, not float text: a float repr per
value made a paper-sized pair many times slower to save and twice the
size on disk, and bytes read back bit for bit, which scoring a saved
model in another process relies on.
Covariances are kept in full rather than as a triangle: a floored full
covariance V Λ Vᵀ is symmetric only to rounding, so a triangle would not
read back the model that was saved.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._files import existing_file, output_file
from .errors import (EmptyUtteranceError, ModelFormatError,
                     SingularComponentError)
from .filterbank import ExtractionConfig, FeatureMatrix

COVARIANCE_KINDS = ("diag", "full")
WEIGHT_FLOOR = 1e-8
MIN_FRAMES_PER_COMPONENT = 10
KMEANS_ITERS = 10
MOMENT_BLOCK = 256
LLOYD_BLOCK_ELEMENTS = 256 * 64
EXP_CUT = -700.0
FULL_FEATURES_MIN_K = 8


@dataclass(frozen=True)
class TrainConfig:
    max_iters: int = 100
    ll_tolerance: float = 1e-5
    variance_floor_factor: float = 1e-4

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        # A NaN tolerance fails every comparison, so EM would never stop
        # early; a NaN, infinite or negative floor factor breaks the floor.
        if math.isnan(self.ll_tolerance):
            raise ValueError("ll_tolerance must be a number, got nan")
        if not 0.0 <= self.variance_floor_factor < math.inf:
            raise ValueError(f"variance_floor_factor must be finite and "
                             f">= 0, got {self.variance_floor_factor}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc) -> "TrainConfig":
        """The config whose `to_dict` is `doc`, or ValueError: not an
        object, other keys, a `max_iters` that is not an integer, other
        values that are not numbers (bools are not), or values the checks
        refuse."""
        names = [f.name for f in dataclasses.fields(cls)]
        if not isinstance(doc, dict) or set(doc) != set(names):
            raise ValueError(f"expected an object with the keys "
                             f"{sorted(names)}, got {doc!r}")
        if type(doc["max_iters"]) is not int:
            raise ValueError(f"max_iters must be an integer, got "
                             f"{doc['max_iters']!r}")
        for name in names[1:]:
            if type(doc[name]) not in (int, float):
                raise ValueError(f"{name} must be a number, got "
                                 f"{doc[name]!r}")
        try:
            return cls(**doc)
        except OverflowError as exc:  # an integer no float can hold
            raise ValueError(f"{exc}, got {doc!r}") from exc


@dataclass(frozen=True)
class Gmm:
    """Mixture weights, means and covariances for one class.

    Weights must be at least WEIGHT_FLOOR and sum to 1, every parameter
    must be finite, and diagonal variances must be > 0. Frozen, like the
    `GmmPairModel` that derives its scoring factors from the parameters
    once: an array changed in place after that is not seen.
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
        # C order, whatever order training left them in: the scoring
        # factors' sums round by layout, so a pair trained in-process
        # scores the same bits as its file read back.
        for name in ("weights", "means", "covariances"):
            object.__setattr__(self, name, np.ascontiguousarray(
                getattr(self, name), dtype=np.float64))
        if not all(np.isfinite(a).all()
                   for a in (self.weights, self.means, self.covariances)):
            raise ValueError("weights, means and covariances must be finite")
        if self.covariance_kind == "diag" and np.any(self.covariances <= 0.0):
            raise ValueError("diagonal variances must be > 0")
        if abs(self.weights.sum() - 1.0) > 1e-9 or np.any(self.weights < WEIGHT_FLOOR):
            raise ValueError("weights must be >= 1e-8 and sum to 1")

    @property
    def n_comp(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class GmmPairModel:
    """Genuine and replay mixtures plus their provenance: the
    `TrainConfig` and the `ExtractionConfig` of the features they were
    trained on, which `replaykit score` requires an archive's to equal.

    Frozen, because the scoring factors of both mixtures are derived once
    per pair, on first use.
    """

    genuine: Gmm
    replay: Gmm
    training_config: TrainConfig
    extraction_config: ExtractionConfig

    def __post_init__(self):
        if self.genuine.dim != self.replay.dim \
                or self.genuine.covariance_kind != self.replay.covariance_kind:
            raise ValueError("genuine and replay models must share dimension "
                             "and covariance kind")

    @cached_property
    def _densities(self) -> _Densities:
        return _stacked_densities((self.genuine, self.replay))


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

class _Densities(NamedTuple):
    """Scoring factors of mixtures placed side by side, for frames shifted
    by one shared `origin` and built as `_feature_blocks` of kind
    `features`. With `const` None, `matrix` is the (q + d + 1, ΣK) density
    weights of the E-step; otherwise it stacks the (d, d + 1) whitening
    blocks of all ΣK components and `const` holds their log-density
    constants. `n_comps` is each mixture's K, in order."""

    origin: np.ndarray
    features: str
    matrix: np.ndarray
    const: np.ndarray | None
    n_comps: tuple[int, ...]


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


def _stacked_densities(mixtures: tuple[Gmm, ...]) -> _Densities:
    """The factors of `mixtures` (one covariance kind and dimension) about
    the mean of their mixture means, side by side in mixture order.

    diag, and full with K >= FULL_FEATURES_MIN_K: each mixture's
    `_density_weights`, from 1/σ² (diag) or the precisions L⁻ᵀL⁻¹ of the
    Cholesky factors L (full). full below it: for each component the
    whitening block [L⁻¹ | -L⁻¹ m] of m = mu - o, with the constant
    ln w - ½ ln|Sigma| - (d/2) ln 2π.
    """
    origin = np.mean([m.weights @ m.means for m in mixtures], axis=0)
    kind = mixtures[0].covariance_kind
    n_comps = tuple(m.n_comp for m in mixtures)
    whiten = kind == "full" and max(n_comps) < FULL_FEATURES_MIN_K
    matrices, consts = [], []
    for m in mixtures:
        means = m.means - origin
        if kind == "diag":
            matrices.append(_density_weights(
                m.weights, means, 1.0 / m.covariances,
                np.log(m.covariances).sum(axis=1), kind))
            continue
        chol = _cholesky(m.covariances)
        inv_chol = np.linalg.inv(chol)
        log_dets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        if whiten:
            matrices.append(np.concatenate(
                [inv_chol, -(inv_chol @ means[:, :, None])],
                axis=2).reshape(-1, m.dim + 1))
            consts.append(np.log(m.weights) - 0.5 * (
                log_dets + m.dim * np.log(2.0 * np.pi)))
        else:
            matrices.append(_density_weights(
                m.weights, means, np.swapaxes(inv_chol, 1, 2) @ inv_chol,
                log_dets, kind))
    if whiten:
        return _Densities(origin, "whiten", np.vstack(matrices),
                          np.concatenate(consts), n_comps)
    return _Densities(origin, kind, np.hstack(matrices), None, n_comps)


def _weighted_log_densities(densities: _Densities,
                            frames: np.ndarray) -> np.ndarray:
    """(n, ΣK) column-major matrix of ln w_k + ln N(x; mu_k, Sigma_k) for
    every component of the stacked mixtures, one block at a time: the
    E-step's product (Wᵀ block)ᵀ, or, for whitening, one GEMM of the
    stacked blocks against the block's rows [z; 1] and a sum of squares."""
    n_cols = sum(densities.n_comps)
    out = np.empty((n_cols, frames.shape[0]))
    for start, stop, block in _feature_blocks(frames, densities.origin,
                                              densities.features):
        if densities.const is None:
            np.matmul(densities.matrix.T, block, out=out[:, start:stop])
        else:
            white = (densities.matrix @ block).reshape(n_cols, -1,
                                                       stop - start)
            half_sq = np.einsum("kin,kin->kn", white, white)
            half_sq *= -0.5
            np.add(half_sq, densities.const[:, None], out=out[:, start:stop])
    return out.T


def _exp_in_place(a: np.ndarray) -> np.ndarray:
    """exp(a) in place, with every entry below EXP_CUT set to exactly 0;
    -inf gives 0 and NaN stays NaN, as in `np.exp`."""
    keep = a >= EXP_CUT
    np.maximum(a, EXP_CUT, out=a)
    np.exp(a, out=a)
    a *= keep
    return a


def _shifted_exp(a: np.ndarray,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(top, e): the row maxima of `a`, 0 where not finite, and
    e = exp(a - top) through `_exp_in_place`, written to `out` (which may
    be `a`) if given."""
    top = a.max(axis=1)
    top[~np.isfinite(top)] = 0.0
    return top, _exp_in_place(np.subtract(a, top[:, None], out=out))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """ln sum_k exp(a[:, k]) per row, shifted by the row maximum; a row
    that is all -inf gives -inf."""
    top, shifted = _shifted_exp(a)
    with np.errstate(divide="ignore"):
        return np.log(shifted.sum(axis=1)) + top


def _frame_log_likelihoods(densities: _Densities,
                           frames: np.ndarray) -> list[np.ndarray]:
    """ln sum_k w_k N(x; mu_k, Sigma_k) per frame for each stacked mixture,
    by a log-sum-exp over its own columns."""
    weighted = _weighted_log_densities(densities, frames)
    stop = 0
    out = []
    for k in densities.n_comps:
        out.append(_logsumexp(weighted[:, stop:stop + k]))
        stop += k
    return out


def _check_finite(frames: np.ndarray) -> None:
    """Raise ValueError with the number of frames holding NaN or ±inf."""
    finite = np.isfinite(frames)
    if not finite.all():
        bad = frames.shape[0] - np.count_nonzero(finite.all(axis=1))
        raise ValueError(f"{bad} of {frames.shape[0]} frames are non-finite")


def score_utterance(pair: GmmPairModel, feats: FeatureMatrix) -> float:
    """Frame-averaged log-likelihood ratio; higher means more genuine."""
    if feats.n_frames == 0:
        raise EmptyUtteranceError("cannot score an empty utterance")
    if feats.dim != pair.genuine.dim:
        raise ValueError(f"feature dimension {feats.dim} does not match "
                         f"model dimension {pair.genuine.dim}")
    x = feats.values
    _check_finite(x)
    genuine, replay = _frame_log_likelihoods(pair._densities, x)
    return float(np.mean(genuine - replay))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _nearest(frames: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each frame's closest centre: the argmin of ‖c‖² − 2x·c,
    the squared distance without the ‖x‖² that every centre shares, as one
    GEMM into which the centre norms are added in place."""
    dist = frames @ (-2.0 * centers.T)
    dist += (centers * centers).sum(axis=1)
    return np.argmin(dist, axis=1)


def _kmeans_init(frames: np.ndarray, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """k-means++ spreading followed by a few Lloyd iterations, each of
    which assigns frames and takes the cluster sums one block at a time,
    LLOYD_BLOCK_ELEMENTS // k frames to a block; an empty cluster keeps
    its centre. Spreading takes one GEMV per centre into one distance
    buffer, and draws uniformly once every distance is 0."""
    n = frames.shape[0]
    centers = np.empty((k, frames.shape[1]))
    norms = np.einsum("nd,nd->n", frames, frames)
    dist = np.empty(n)

    def sq_dist(center):
        np.matmul(frames, -2.0 * center, out=dist)
        np.add(dist, norms, out=dist)
        np.add(dist, center @ center, out=dist)
        return np.maximum(dist, 0.0, out=dist)

    centers[0] = frames[rng.integers(n)]
    d2 = sq_dist(centers[0]).copy()
    for j in range(1, k):
        total = d2.sum()
        centers[j] = frames[rng.choice(n, p=d2 / total) if total > 0.0
                            else rng.integers(n)]
        np.minimum(d2, sq_dist(centers[j]), out=d2)

    one_hot = np.eye(k)
    rows = max(1, LLOYD_BLOCK_ELEMENTS // k)
    for _ in range(KMEANS_ITERS):
        counts = np.zeros(k, dtype=np.intp)
        sums = 0
        for start in range(0, n, rows):
            block = frames[start:start + rows]
            assign = _nearest(block, centers)
            counts += np.bincount(assign, minlength=k)
            sums = sums + one_hot[assign].T @ block
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
    return centers


def _floor_covariances(covariances: np.ndarray, kind: str, floor
                       ) -> tuple[Callable[[], np.ndarray], np.ndarray,
                                  np.ndarray]:
    """(floored, precisions, log_dets): a function returning the floored
    covariances, with their precisions and log-determinants.

    diag clips each variance at `floor`, a per-dimension vector. full
    symmetrises each matrix of the (K, d, d) stack and clips its
    eigenvalues at the scalar `floor`, in one batched eigendecomposition
    V Λ Vᵀ; the precisions are V Λ⁻¹ Vᵀ and the log-determinants Σ ln λ.
    An EM pass needs only those two, so the floored V Λ Vᵀ is rebuilt
    only when `floored` is called, for the parameters a fit returns.
    """
    if kind == "diag":
        covariances = np.maximum(covariances, floor)
        return (lambda: covariances, 1.0 / covariances,
                np.log(covariances).sum(axis=1))
    sym = 0.5 * (covariances + np.swapaxes(covariances, 1, 2))
    eigvals, eigvecs = np.linalg.eigh(sym)
    np.maximum(eigvals, floor, out=eigvals)
    eigvecs_t = np.swapaxes(eigvecs, 1, 2)
    return (lambda: (eigvecs * eigvals[:, None, :]) @ eigvecs_t,
            (eigvecs / eigvals[:, None, :]) @ eigvecs_t,
            np.log(eigvals).sum(axis=1))


def _density_weights(weights: np.ndarray, means: np.ndarray,
                     precisions: np.ndarray, log_dets: np.ndarray,
                     kind: str) -> np.ndarray:
    """(q + d + 1, K) matrix W with [q(z); z; 1]ᵀ W = ln w_k + ln N(x;
    mu_k, Sigma_k) for z = x - o, where `means` holds m_k = mu_k - o.

    The rows are -½ P_k's terms of zᵀ P_k z in the order of q(z), the
    off-diagonals doubled for full; then P_k m_k; then ln w_k - ½ ln|Sigma_k|
    - ½ m_kᵀ P_k m_k - (d/2) ln 2π, for the precisions P_k = Sigma_k⁻¹.
    """
    d = means.shape[1]
    if kind == "diag":
        quad = -0.5 * precisions.T
        pm = means * precisions
    else:
        rows, cols = np.triu_indices(d)
        quad = (precisions[:, rows, cols]
                * np.where(rows == cols, -0.5, -1.0)).T
        pm = (precisions @ means[:, :, None])[:, :, 0]
    const = np.log(weights) - 0.5 * (log_dets + (pm * means).sum(axis=1)
                                     + d * np.log(2.0 * np.pi))
    return np.vstack([quad, pm.T, const])


def _normalized_weights(weights: np.ndarray) -> np.ndarray:
    """Floored weights scaled to sum 1 and floored again, because the
    scaling can push a floored weight just below WEIGHT_FLOOR."""
    weights = np.maximum(weights, WEIGHT_FLOOR)
    return np.maximum(weights / weights.sum(), WEIGHT_FLOOR)


def _feature_blocks(frames: np.ndarray, origin: np.ndarray, kind: str):
    """Yield (start, stop, block) per MOMENT_BLOCK frames, where block is
    the (q + d + 1, stop - start) features [q(z); z; 1] of frames[start:stop]
    as columns, for z = x - origin and q(z) z² (diag), the row-major upper
    triangle of z zᵀ (full) or nothing (whiten). Every block is a view of
    one buffer, which the next block overwrites."""
    n, d = frames.shape
    q = {"diag": d, "full": d * (d + 1) // 2, "whiten": 0}[kind]
    feats = np.empty((q + d + 1, min(n, MOMENT_BLOCK)))
    for start in range(0, n, MOMENT_BLOCK):
        stop = min(start + MOMENT_BLOCK, n)
        block = feats[:, :stop - start]
        z = block[q:q + d]
        np.subtract(frames[start:stop].T, origin[:, None], out=z)
        if kind == "diag":
            np.square(z, out=block[:d])
        elif kind == "full":
            row = 0
            for i in range(d):
                np.multiply(z[i:], z[i], out=block[row:row + d - i])
                row += d - i
        block[-1] = 1.0
        yield start, stop, block


def _em_pass(frames: np.ndarray, origin: np.ndarray,
             density_weights: np.ndarray, kind: str
             ) -> tuple[float, np.ndarray]:
    """One E-step and the M-step's sums, block by block: the total
    log-likelihood under W = `density_weights`, and the moment sums
    Σₙ rₙₖ [q(zₙ); zₙ; 1] of the responsibilities."""
    total_ll = 0.0
    sums = np.zeros(density_weights.shape)
    for _, _, block in _feature_blocks(frames, origin, kind):
        weighted = (density_weights.T @ block).T
        top, resp = _shifted_exp(weighted, out=weighted)
        row_sums = resp.sum(axis=1)
        total_ll += float(np.log(row_sums).sum() + top.sum())
        resp /= row_sums[:, None]
        sums += block @ resp
    return total_ll, sums


def _estimates(sums: np.ndarray, origin: np.ndarray, kind: str
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-component counts, means and unfloored covariances from the
    moment sums Σₙ rₙₖ [q(zₙ); zₙ; 1]."""
    d = origin.size
    counts = sums[-1]
    scaled = sums[:-1] / np.maximum(counts, 1e-300)
    second, means = scaled[:-d].T, scaled[-d:].T
    if kind == "diag":
        covariances = second - means ** 2
    else:
        rows, cols = np.triu_indices(d)
        covariances = np.empty((counts.size, d, d))
        covariances[:, rows, cols] = second
        covariances[:, cols, rows] = second
        covariances -= means[:, :, None] * means[:, None, :]
    return counts, means + origin, covariances


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
    _check_finite(frames)
    n = frames.shape[0]
    if n_comp < 1:
        raise ValueError(f"n_comp must be >= 1, got {n_comp}")
    if n < MIN_FRAMES_PER_COMPONENT * n_comp:
        raise ValueError(
            f"too few frames: {n} < {MIN_FRAMES_PER_COMPONENT} * {n_comp} "
            f"components")

    origin = frames.mean(axis=0)
    means = _kmeans_init(frames, n_comp, np.random.default_rng(seed))
    # The initial covariances are the moments of the final k-means
    # clusters, one block of one-hot responsibilities at a time. Summed
    # over the clusters, the same sums give the data variance.
    one_hot = np.eye(n_comp)
    sums = sum(block @ one_hot[_nearest(frames[start:stop], means)]
               for start, stop, block
               in _feature_blocks(frames, origin, covariance_kind))
    counts, _, covariances = _estimates(sums, origin, covariance_kind)
    (data_cov,) = _estimates(sums.sum(axis=1, keepdims=True), origin,
                             covariance_kind)[2]
    if covariance_kind == "diag":
        covariances[counts < 2] = data_cov
        floor = np.maximum(config.variance_floor_factor * data_cov, 1e-12)
    else:
        data_var = np.diagonal(data_cov)
        covariances[counts < 2] = np.diag(data_var)
        floor = max(config.variance_floor_factor * float(data_var.mean()),
                    1e-12)

    # Each pass floors the current estimates, then stops at max_iters or
    # runs the E-step on them and stops on convergence, or else takes the
    # M-step's estimates. The model returned is the floored one of the
    # last pass: the parameters of the last E-step if EM converged.
    ll_curve: list[float] = []
    prev_ll = -np.inf
    while True:
        if covariance_kind == "full":
            finite = np.isfinite(covariances).all(axis=(1, 2))
            if not finite.all():
                j = int(np.argmin(finite))
                raise SingularComponentError(
                    f"component {j} collapsed: non-finite covariance "
                    f"(count={counts[j]:.3g})")
        weights = _normalized_weights(counts / n)
        floored, precisions, log_dets = _floor_covariances(
            covariances, covariance_kind, floor)
        if len(ll_curve) == config.max_iters:
            break
        total_ll, sums = _em_pass(
            frames, origin, _density_weights(weights, means - origin,
                                             precisions, log_dets,
                                             covariance_kind),
            covariance_kind)
        ll_curve.append(total_ll)
        if abs(total_ll - prev_ll) / n < config.ll_tolerance:
            break
        prev_ll = total_ll
        counts, means, covariances = _estimates(sums, origin, covariance_kind)
    return Gmm(weights, means, floored(), covariance_kind, ll_curve=ll_curve)


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

MODEL_FORMAT_VERSION = 4
_PARAMETERS = ("weights", "means", "covariances")


def _gmm_to_dict(model: Gmm) -> dict:
    return {name: base64.b64encode(np.ascontiguousarray(
                getattr(model, name), "<f8").tobytes()).decode("ascii")
            for name in _PARAMETERS}


def _gmm_from_dict(doc: dict, name: str, covariance_kind: str, k: int, d: int,
                   path) -> Gmm:
    shapes = ((k,), (k, d), (k, d) if covariance_kind == "diag" else (k, d, d))
    try:
        arrays = []
        for key, shape in zip(_PARAMETERS, shapes):
            text = doc[name][key]
            try:
                raw = base64.b64decode(text, validate=True)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key} is not base64 ({exc})") from exc
            size = 8 * math.prod(shape)
            if len(raw) != size:
                raise ValueError(f"{key} holds {len(raw)} bytes, not the "
                                 f"{size} of shape {shape} for K={k}, d={d}")
            arrays.append(np.frombuffer(raw, "<f8").reshape(shape))
        model = Gmm(*arrays, covariance_kind)
        if covariance_kind == "full":
            _cholesky(model.covariances)
        return model
    except (TypeError, ValueError, SingularComponentError) as exc:
        raise ModelFormatError(f"{path}: {name}: {exc}") from exc


def save_pair_model(model: GmmPairModel, path) -> None:
    """Write the two mixtures as one compact, single-line JSON document.

    Each mixture's weights, means and covariances are base64 strings of
    their C-order little-endian float64 bytes; see the module docstring
    for why they are not float text and why covariances are kept in full.
    A d other than the extraction config's dim raises ValueError first.
    """
    d, dim = model.genuine.dim, model.extraction_config.dim
    if d != dim:
        raise ValueError(f"{path}: extraction_config: d is {d}, but its "
                         f"features have dim {dim}")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "covariance_kind": model.genuine.covariance_kind,
        "K": model.genuine.n_comp,
        "d": model.genuine.dim,
        "training_config": model.training_config.to_dict(),
        "extraction_config": model.extraction_config.to_dict(),
        "genuine": _gmm_to_dict(model.genuine),
        "replay": _gmm_to_dict(model.replay),
    }
    with output_file(path) as f:
        f.write(json.dumps(doc) + "\n")


def load_pair_model(path) -> GmmPairModel:
    """Read a model written by `save_pair_model`, bit for bit.

    Bytes that are not UTF-8 JSON or not an object, a `format_version`
    other than MODEL_FORMAT_VERSION (older files included), a missing
    key, an `extraction_config` that `ExtractionConfig.from_dict`
    refuses or whose dim is not d, a `training_config` that
    `TrainConfig.from_dict` refuses, and parameters that are not base64,
    hold a byte count that disagrees with K and d, fail `Gmm`'s checks,
    or hold a full covariance without a Cholesky factor raise
    ModelFormatError naming the file (and the field or the mixture); a
    missing file raises FileNotFoundError `<path>: no such file`.
    """
    try:
        doc = json.loads(existing_file(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected a JSON object, got "
                               f"{type(doc).__name__}")
    version = doc.get("format_version", "missing")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"{path}: format_version is {version}, this "
                               f"reader needs {MODEL_FORMAT_VERSION}")
    try:
        kind, k, d = doc["covariance_kind"], doc["K"], doc["d"]
        try:
            extraction = ExtractionConfig.from_dict(doc["extraction_config"])
            if d != extraction.dim:
                raise ValueError(f"d is {d!r}, but its features have dim "
                                 f"{extraction.dim}")
        except ValueError as exc:
            raise ModelFormatError(f"{path}: extraction_config: {exc}") from exc
        try:
            training = TrainConfig.from_dict(doc["training_config"])
        except ValueError as exc:
            raise ModelFormatError(f"{path}: training_config: {exc}") from exc
        return GmmPairModel(
            genuine=_gmm_from_dict(doc, "genuine", kind, k, d, path),
            replay=_gmm_from_dict(doc, "replay", kind, k, d, path),
            training_config=training,
            extraction_config=extraction,
        )
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing key {exc}") from exc
