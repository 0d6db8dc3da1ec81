"""Frequency warps, triangular filterbanks, and Fbank/cepstral features.

Three warps share one filter-placement rule: edges are spaced uniformly on
the warped axis and triangles are evaluated at each FFT bin's warped
coordinate, so adjacent filters always sum to one between the first and
last centers. The Mel warp stretches the low-frequency axis; the inverted
Mel warp is its mirror about the band midpoint and stretches the high end,
which is where genuine and replayed speech differ most. Every filterbank
spans the full band of the pipeline's 16 kHz audio, 0 Hz to NYQUIST_HZ.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

import numpy as np

from .corpus import PIPELINE_SAMPLE_RATE

NYQUIST_HZ = PIPELINE_SAMPLE_RATE / 2
NUM_CEPSTRA = 13
LOG_FLOOR = 1e-10
# The largest n_fft an `ExtractionConfig` takes (4.1 s at 16 kHz), so that
# the dead-filter check it makes, on every archive header and model file
# read too, stays within O(MAX_N_FFT) time and memory.
MAX_N_FFT = 1 << 16


class WarpKind(enum.Enum):
    LINEAR = "linear"
    MEL = "mel"
    INVERTED_MEL = "imel"

    @classmethod
    def from_name(cls, name: str) -> "WarpKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown warp kind {name!r}; "
                         f"expected one of {[k.value for k in cls]}")


class FeatureKind(enum.Enum):
    LOG_FBANK = "fbank"
    CEPSTRA_DELTA = "cepstra-delta"


@dataclass(frozen=True)
class ExtractionConfig:
    """One feature stream, the only description of it: an archive's
    header and a model file hold its `to_dict`."""

    warp: WarpKind
    feature: FeatureKind
    bands: int = 23
    frame_len: int = 400
    hop: int = 160
    n_fft: int = 512
    delta_window: int = 2

    def __post_init__(self):
        # The checks and messages of the stages that use each value, made
        # here first, so that a bad config fails before any utterance is
        # read. The framing check also refuses a frame_len below 1.
        if not 0 < self.hop <= self.frame_len:
            raise ValueError(f"invalid framing: need 0 < hop <= frame_len, "
                             f"got hop={self.hop}, frame_len={self.frame_len}")
        if self.n_fft < self.frame_len:
            raise ValueError(f"n_fft ({self.n_fft}) smaller than frame length "
                             f"({self.frame_len})")
        if self.n_fft & (self.n_fft - 1):
            raise ValueError(f"n_fft must be a power of two, got {self.n_fft}")
        if self.n_fft > MAX_N_FFT:
            raise ValueError(f"n_fft must be at most {MAX_N_FFT}, "
                             f"got {self.n_fft}")
        if self.bands < 1:
            raise ValueError("M must be >= 1")
        if self.feature is FeatureKind.CEPSTRA_DELTA \
                and self.bands < NUM_CEPSTRA:
            raise ValueError(f"need at least {NUM_CEPSTRA} bands, "
                             f"got {self.bands}")
        if self.delta_window < 1:
            raise ValueError("window must be >= 1")
        _filter_edges(self.warp, self.bands, self.n_fft)

    @property
    def dim(self) -> int:
        """Columns of the stream's feature matrices."""
        if self.feature is FeatureKind.CEPSTRA_DELTA:
            return 2 * NUM_CEPSTRA
        return self.bands

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "warp": self.warp.value,
                "feature": self.feature.value}

    @classmethod
    def from_dict(cls, doc) -> "ExtractionConfig":
        """The config whose `to_dict` is `doc`, or ValueError: not an
        object, other keys, unknown names, counts that are not integers,
        or values the checks refuse."""
        names = [f.name for f in dataclasses.fields(cls)]
        if not isinstance(doc, dict) or set(doc) != set(names):
            raise ValueError(f"expected an object with the keys "
                             f"{sorted(names)}, got {doc!r}")
        counts = [doc[name] for name in names[2:]]
        if any(type(value) is not int for value in counts):
            raise ValueError(f"{names[2:]} must be integers, got {counts}")
        return cls(WarpKind.from_name(doc["warp"]),
                   FeatureKind(doc["feature"]), *counts)


def _mel(f):
    return 2595.0 * np.log10(1.0 + f / 700.0)


def warp(kind: WarpKind, f) -> np.ndarray | float:
    """Map frequency in Hz to the warped coordinate; increasing, warp(0)=0."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0.0) or np.any(f > NYQUIST_HZ):
        raise ValueError(f"frequency out of range [0, {NYQUIST_HZ}]")
    if kind is WarpKind.LINEAR:
        out = f.copy()
    elif kind is WarpKind.MEL:
        out = _mel(f)
    else:
        out = _mel(NYQUIST_HZ) - _mel(NYQUIST_HZ - f)
    return out if out.ndim else float(out)


def _filter_edges(kind: WarpKind, M: int, n_fft: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The M + 2 warped edges and the n_fft // 2 + 1 bins' warped
    coordinates of `build_filterbank(kind, M, n_fft)`, or the ValueError
    it raises if a filter would cover no FFT bin, without its weights.

    Filter i is nonzero exactly at the coordinates strictly between edges
    i and i + 2. Filters 0, 2, 4, ... so need distinct bins among the
    n_fft // 2 - 1 strictly inside the band, so M > n_fft leaves some
    filter without one and is refused before any array of M is made."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if M > n_fft:
        raise ValueError(
            f"too many filters: more than n_fft leave some spanning zero "
            f"FFT bins at n_fft={n_fft} (kind={kind.value}, M={M})")
    edges = np.linspace(0.0, warp(kind, NYQUIST_HZ), M + 2)
    bin_freqs = np.arange(n_fft // 2 + 1) * (PIPELINE_SAMPLE_RATE / n_fft)
    coords = np.asarray(warp(kind, np.minimum(bin_freqs, NYQUIST_HZ)))
    # The warps increase, so the coordinates are sorted.
    inside = (np.searchsorted(coords, edges[2:], side="left")
              - np.searchsorted(coords, edges[:-2], side="right"))
    empty = np.flatnonzero(inside == 0)
    if empty.size:
        raise ValueError(
            f"too many filters: filter(s) {empty.tolist()} span zero FFT "
            f"bins at n_fft={n_fft} (kind={kind.value}, M={M})")
    return edges, coords


def build_filterbank(kind: WarpKind, M: int, n_fft: int) -> np.ndarray:
    """The (M, n_fft // 2 + 1) weights of M triangular filters: M+2
    uniformly spaced warped edges over 0..NYQUIST_HZ, and the triangles
    rasterized at the n_fft // 2 + 1 bin frequencies.

    Raises if a filter covers no FFT bin (too many filters for the FFT
    resolution) rather than silently producing a dead band; an
    `ExtractionConfig` makes the same check when it is constructed.
    """
    edges, coords = _filter_edges(kind, M, n_fft)
    weights = np.zeros((M, coords.size))
    for i in range(M):
        left, center, right = edges[i], edges[i + 1], edges[i + 2]
        rising = (coords >= left) & (coords <= center)
        falling = (coords > center) & (coords <= right)
        weights[i, rising] = (coords[rising] - left) / (center - left)
        weights[i, falling] = (right - coords[falling]) / (right - center)
    return weights


@dataclass
class FeatureMatrix:
    """Frames-by-dims feature values for one utterance."""

    values: np.ndarray
    kind: FeatureKind

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("feature values must be 2-D (frames x dims)")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def fbank_features(spec: np.ndarray, weights: np.ndarray) -> FeatureMatrix:
    """Log filterbank energies of a power spectrogram (frames by bins)
    through a `build_filterbank` array: ln(max(power @ weights.T,
    LOG_FLOOR))."""
    if spec.shape[1] != weights.shape[1]:
        raise ValueError(
            f"spectrogram with {spec.shape[1]} bins does not match the "
            f"filterbank's {weights.shape[1]}")
    energies = spec @ weights.T
    return FeatureMatrix(np.log(np.maximum(energies, LOG_FLOOR)),
                         FeatureKind.LOG_FBANK)


def cepstral_features(logfb: FeatureMatrix, basis: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of each log-Fbank frame: the (frames, 13) array
    of coefficients c0..c12, through `basis`, the
    `spectrum.dct_basis(bands, NUM_CEPSTRA)` that the caller builds once
    per pass (`iter_features`) and keeps as long as the pass."""
    if logfb.kind is not FeatureKind.LOG_FBANK:
        raise ValueError(f"expected log-Fbank features, got {logfb.kind.value}")
    return logfb.values @ basis.T


def append_deltas(x: np.ndarray, window: int = 2) -> np.ndarray:
    """A (frames, dims) array with its regression-slope deltas appended,
    (frames, 2 dims):
    d_t = sum_n n (x_{t+n} - x_{t-n}) / (2 sum_n n^2), edges replicated."""
    if window < 1:
        raise ValueError("window must be >= 1")
    n_frames = x.shape[0]
    if n_frames == 0:
        raise ValueError("cannot append deltas to an empty feature matrix")
    # x with its first and last frames repeated `window` times on each
    # side; frame t + n (or t - n), clamped to the edges, is row
    # t + n + window (or t - n + window) of it.
    padded = np.concatenate([np.repeat(x[:1], window, axis=0), x,
                             np.repeat(x[-1:], window, axis=0)])
    num = np.zeros_like(x)
    for n in range(1, window + 1):
        ahead = padded[window + n:window + n + n_frames]
        behind = padded[window - n:window - n + n_frames]
        num += n * (ahead - behind)
    deltas = num / (2.0 * sum(n * n for n in range(1, window + 1)))
    return np.hstack([x, deltas])
