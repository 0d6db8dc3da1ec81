"""Independent reference implementations used by the regular and
acceptance suites. Deliberately naive: exact rational arithmetic, direct
counting loops and one-component-at-a-time mixture numerics, no shared
code with the library paths they check.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular
from scipy.special import logsumexp

from replaykit.corpus import (
    PIPELINE_SAMPLE_RATE,
    AudioSignal,
    _amplitude_response,
    _replay,
)


def moments_exact(rows):
    """Exact per-band (mean, population variance) of a list of
    equal-length rows of floats, as Fractions."""
    out = []
    for i in range(len(rows[0])):
        col = [Fraction(row[i]) for row in rows]
        mean = sum(col) / len(col)
        out.append((mean, sum((x - mean) ** 2 for x in col) / len(col)))
    return out


def fratio_exact(genuine_rows, replay_rows):
    """Exact per-band discriminability ratio via rational arithmetic.

    Inputs are lists of equal-length rows of floats; every float converts
    exactly to a Fraction, so the result is the mathematically exact value
    of the ratio (or None for a zero denominator).
    """
    out = []
    for (mu_g, var_g), (mu_r, var_r) in zip(moments_exact(genuine_rows),
                                            moments_exact(replay_rows)):
        denom = var_g + var_r
        if denom == 0:
            out.append(None)
        else:
            out.append((mu_g - mu_r) ** 2 / denom)
    return out


def eer_brute_force(genuine_scores, replay_scores):
    """Equal error rate by direct counting over every candidate threshold.

    Accept means score >= threshold. Thresholds sweep the sorted unique
    scores plus a sentinel past the maximum; the crossing of the two step
    functions is linearly interpolated between adjacent operating points.
    """
    def far(t):
        return sum(1 for s in replay_scores if s >= t) / len(replay_scores)

    def frr(t):
        return sum(1 for s in genuine_scores if s < t) / len(genuine_scores)

    candidates = sorted(set(genuine_scores) | set(replay_scores))
    candidates.append(candidates[-1] + 1.0)
    prev = None
    for t in candidates:
        diff = far(t) - frr(t)
        if diff == 0:
            return far(t)
        if prev is not None and prev[1] > 0 > diff:
            _, d_a, far_a = prev
            alpha = d_a / (d_a - diff)
            return far_a + alpha * (far(t) - far_a)
        prev = (t, diff, far(t))
    raise AssertionError("no crossing found")


def append_deltas_loop(values, window):
    """Regression-slope deltas appended to each frame, one frame and one
    offset at a time: d_t = sum_n n (x[min(t+n, T-1)] - x[max(t-n, 0)])
    / (2 sum_n n^2)."""
    x = np.asarray(values, dtype=np.float64)
    last = x.shape[0] - 1
    num = np.zeros_like(x)
    for t in range(x.shape[0]):
        for n in range(1, window + 1):
            num[t] += n * (x[min(t + n, last)] - x[max(t - n, 0)])
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    return np.hstack([x, num / denom])


def power_spectrum_loop(frames, n_fft):
    """|X[k]|^2 of each Hamming-windowed frame zero-padded to n_fft, one
    frame at a time through numpy's own padding (`rfft(..., n=n_fft)`)."""
    frames = np.asarray(frames, dtype=np.float64)
    window = np.hamming(frames.shape[1])
    out = np.empty((frames.shape[0], n_fft // 2 + 1))
    for i, frame in enumerate(frames):
        out[i] = np.abs(np.fft.rfft(frame * window, n=n_fft)) ** 2
    return out


# ---------------------------------------------------------------------------
# Gaussian mixtures: the per-component loop forms of the E-step densities,
# the k-means initialisation and the M-step, with scipy factorisations.
# ---------------------------------------------------------------------------

GMM_WEIGHT_FLOOR = 1e-8
KMEANS_ITERS = 10


def gmm_component_log_densities(model, frames):
    """(n, K) matrix of ln N(x; mu_k, Sigma_k), one component at a time:
    a Cholesky factor and a triangular solve per full covariance."""
    n, d = frames.shape
    k = model.weights.size
    out = np.empty((n, k))
    base = -0.5 * d * np.log(2.0 * np.pi)
    for j in range(k):
        diff = frames - model.means[j]
        if model.covariance_kind == "diag":
            var = model.covariances[j]
            out[:, j] = base - 0.5 * (np.log(var).sum()
                                      + ((diff * diff) / var).sum(axis=1))
        else:
            chol = cholesky(model.covariances[j], lower=True)
            solved = solve_triangular(chol, diff.T, lower=True)
            out[:, j] = base - np.log(np.diag(chol)).sum() \
                - 0.5 * (solved * solved).sum(axis=0)
    return out


def gmm_frame_log_likelihoods(model, frames):
    """ln sum_k w_k N(x; mu_k, Sigma_k) per frame, by scipy's logsumexp."""
    return logsumexp(gmm_component_log_densities(model, frames)
                     + np.log(model.weights), axis=1)


def gmm_floors(frames, variance_floor_factor):
    """The diagonal variance floors and the full-covariance eigenvalue
    floor that training derives from the data's variance."""
    data_var = frames.var(axis=0)
    return (np.maximum(variance_floor_factor * data_var, 1e-12),
            max(variance_floor_factor * float(data_var.mean()), 1e-12))


def floor_full_covariance(cov, floor):
    """Symmetrise one matrix and clip its eigenvalues at `floor`."""
    cov = 0.5 * (cov + cov.T)
    eigvals, eigvecs = eigh(cov)
    return (eigvecs * np.maximum(eigvals, floor)) @ eigvecs.T


def kmeans_pp_indices(frames, k, rng):
    """The frame index of each k-means++ centre: the first uniform, each
    next one drawn by `Generator.choice` with probability proportional to
    the exact squared distance from the nearest centre so far, or uniform
    once every distance is 0."""
    n = frames.shape[0]
    picks = [int(rng.integers(n))]
    d2 = ((frames - frames[picks[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        picks.append(int(rng.choice(n, p=d2 / total)) if total > 0.0
                     else int(rng.integers(n)))
        d2 = np.minimum(d2, ((frames - frames[picks[-1]]) ** 2).sum(axis=1))
    return picks


def gmm_init(frames, k, covariance_kind, variance_floor_factor, seed):
    """k-means++ seeding, Lloyd iterations with distances to one centre at
    a time, and the initial weights, means and floored covariances."""
    n, d = frames.shape
    centers = frames[kmeans_pp_indices(frames, k,
                                       np.random.default_rng(seed))]

    def assignment():
        dists = np.empty((n, k))
        for j in range(k):
            dists[:, j] = ((frames - centers[j]) ** 2).sum(axis=1)
        return dists.argmin(axis=1)

    for _ in range(KMEANS_ITERS):
        assign = assignment()
        for j in range(k):
            members = frames[assign == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
    assign = assignment()

    diag_floor, full_floor = gmm_floors(frames, variance_floor_factor)
    data_var = frames.var(axis=0)
    weights = np.empty(k)
    covariances = np.empty((k, d) if covariance_kind == "diag" else (k, d, d))
    for j in range(k):
        members = frames[assign == j]
        count = members.shape[0]
        weights[j] = max(count / n, GMM_WEIGHT_FLOOR)
        if covariance_kind == "diag":
            var = members.var(axis=0) if count >= 2 else data_var
            covariances[j] = np.maximum(var, diag_floor)
        else:
            if count >= 2:
                centered = members - members.mean(axis=0)
                cov = centered.T @ centered / count
            else:
                cov = np.diag(data_var)
            covariances[j] = floor_full_covariance(cov, full_floor)
    return weights / weights.sum(), centers, covariances


def gmm_m_step(frames, resp, covariance_kind, diag_floor, full_floor):
    """Weights, means and floored covariances from responsibilities, with
    one weighted scatter matrix and one eigenvalue floor per component."""
    n = frames.shape[0]
    counts = resp.sum(axis=0)
    weights = np.maximum(counts / n, GMM_WEIGHT_FLOOR)
    safe_counts = np.maximum(counts, 1e-300)
    means = (resp.T @ frames) / safe_counts[:, None]
    if covariance_kind == "diag":
        second = (resp.T @ (frames * frames)) / safe_counts[:, None]
        covariances = np.maximum(second - means ** 2, diag_floor)
    else:
        covariances = np.empty((means.shape[0],) + 2 * means.shape[1:])
        for j in range(means.shape[0]):
            centered = frames - means[j]
            cov = (centered * resp[:, j:j + 1]).T @ centered / safe_counts[j]
            covariances[j] = floor_full_covariance(cov, full_floor)
    return weights / weights.sum(), means, covariances


def gmm_em(frames, model, iters, variance_floor_factor):
    """`iters` EM iterations from `model`: the total log-likelihood before
    each M-step, and the final (weights, means, covariances)."""
    diag_floor, full_floor = gmm_floors(frames, variance_floor_factor)
    kind = model.covariance_kind
    params = (model.weights, model.means, model.covariances)
    ll_curve = []
    for _ in range(iters):
        current = SimpleNamespace(weights=params[0], means=params[1],
                                  covariances=params[2], covariance_kind=kind)
        weighted = gmm_component_log_densities(current, frames) \
            + np.log(current.weights)
        norm = logsumexp(weighted, axis=1)
        ll_curve.append(float(norm.sum()))
        resp = np.exp(weighted - norm[:, None])
        params = gmm_m_step(frames, resp, kind, diag_floor, full_floor)
    return ll_curve, params


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

def apply_replay_channel(signal, profile, seed):
    """One signal through a device's playback-and-recording channel, with
    its own spectrum and channel response. Not independent of the library:
    it runs `corpus._replay`, the one channel definition, and is the
    per-signal form that `synth_corpus`'s stream, which shares each
    device's response and each genuine spectrum over many replays, must
    equal bit for bit. Empty signals pass through as empty."""
    x = signal.samples
    if x.size == 0:
        return AudioSignal(x.copy())
    freqs = np.fft.rfftfreq(x.size, d=1.0 / PIPELINE_SAMPLE_RATE)
    return _replay(x, np.fft.rfft(x), _amplitude_response(profile, freqs),
                   profile, seed)


def harmonic_sum_table(amps, freqs, phases, n, rate):
    """sum_h amps[h] sin(2 pi freqs[h] k / rate + phases[h]) for k < n,
    one sine per (sample, harmonic) entry of a dense table, summed per
    row. Rows are taken in chunks to bound memory; each row's sum does
    not depend on the others."""
    out = np.empty(n)
    chunk = 8192
    for lo in range(0, n, chunk):
        t = np.arange(lo, min(n, lo + chunk)) / rate
        out[lo:lo + t.size] = (amps[None, :] * np.sin(
            2.0 * np.pi * t[:, None] * freqs[None, :] + phases[None, :])
        ).sum(axis=1)
    return out
