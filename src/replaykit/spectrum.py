"""Framing, Hamming-windowed power spectra, and the orthonormal DCT.

Conventions pinned here: 25 ms / 10 ms framing defaults live in the CLI,
the window is the symmetric Hamming w[n] = 0.54 - 0.46 cos(2 pi n / (L-1)),
and the forward transform is unnormalized (|X[k]|^2 with no 1/N), so the
sum over all n_fft bins of |X[k]|^2 equals n_fft times the windowed-frame
energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .corpus import AudioSignal


@dataclass
class FrameMatrix:
    """Contiguous analysis frames of one signal."""

    frames: np.ndarray
    frame_len: int
    hop: int

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass
class PowerSpectrogram:
    """Per-frame squared-magnitude spectra; bin k sits at k*sample_rate/n_fft."""

    values: np.ndarray
    n_fft: int
    sample_rate: int

    def bin_freqs(self) -> np.ndarray:
        return np.arange(self.n_fft // 2 + 1) * (self.sample_rate / self.n_fft)


def frame_signal(signal: AudioSignal, frame_len: int, hop: int) -> FrameMatrix:
    """Slice a signal into frames starting at multiples of `hop`.

    The trailing partial frame is discarded; a signal shorter than one
    frame yields zero frames.
    """
    if hop <= 0 or hop > frame_len:
        raise ValueError(f"invalid framing: need 0 < hop <= frame_len, "
                         f"got hop={hop}, frame_len={frame_len}")
    x = signal.samples
    if x.size < frame_len:
        frames = np.empty((0, frame_len))
    else:
        n_frames = (x.size - frame_len) // hop + 1
        idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
        frames = x[idx]
    return FrameMatrix(frames, frame_len, hop)


def power_spectrum(frames: FrameMatrix, n_fft: int,
                   sample_rate: int = 16000) -> PowerSpectrogram:
    """Hamming-window each frame, zero-pad to n_fft, return |X[k]|^2."""
    if n_fft < frames.frame_len:
        raise ValueError(f"n_fft ({n_fft}) smaller than frame length "
                         f"({frames.frame_len})")
    if n_fft & (n_fft - 1):
        raise ValueError(f"n_fft must be a power of two, got {n_fft}")
    window = np.hamming(frames.frame_len)
    spectra = np.fft.rfft(frames.frames * window, n=n_fft, axis=1)
    return PowerSpectrogram(np.abs(spectra) ** 2, n_fft, sample_rate)


def dct_ii(vector: np.ndarray, n_out: int) -> np.ndarray:
    """First n_out coefficients of the orthonormal DCT-II.

    y[k] = a_k * sum_n x[n] cos(pi k (2n+1) / (2N)), a_0 = sqrt(1/N) and
    a_k = sqrt(2/N) otherwise, so the full transform is an orthonormal
    change of basis.
    """
    vector = np.asarray(vector, dtype=np.float64)
    n = vector.shape[-1]
    if not 1 <= n_out <= n:
        raise ValueError(f"n_out must be in [1, {n}], got {n_out}")
    return scipy.fft.dct(vector, type=2, norm="ortho", axis=-1)[..., :n_out]
