"""Framing, Hamming-windowed power spectra, and the orthonormal DCT.

Conventions pinned here: the pipeline frames at 25 ms / 10 ms, which
`ExtractionConfig` and `StudyConfig` give in samples (frame_len 400, hop
160 at 16 kHz) and the CLI in milliseconds (`--frame-ms`, `--hop-ms`);
the window is the symmetric Hamming w[n] = 0.54 - 0.46 cos(2 pi n / (L-1)),
and the forward transform is unnormalized (|X[k]|^2 with no 1/N), so the
sum over all n_fft bins of |X[k]|^2 equals n_fft times the windowed-frame
energy. Signals are at PIPELINE_SAMPLE_RATE, so power-spectrum bin k sits
at k * 16000 / n_fft Hz.

`power_spectrum` computes in the buffers of a `SpectrumWorkspace`, which
sets the FFT length. Whoever passes one owns it and the spectrum it
returns, which is a view that the next call through the same workspace
overwrites; `iter_features` makes one per pass, and the pass consumes
each spectrum before framing its next signal.

The pipeline frames every utterance in its own call, so per-call set-up
counts: `frame_signal` builds its strided view directly with
`as_strided`, the view `sliding_window_view(x, frame_len)[::hop]` gives
without that function's argument handling. `dct_basis` builds a new
basis on each call; `iter_features` builds one per pass and band count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .corpus import AudioSignal


@dataclass
class FrameMatrix:
    """Analysis frames of one signal, one frame per row; `frame_signal`
    returns a read-only strided view of the signal."""

    frames: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_len(self) -> int:
        return self.frames.shape[1]


def frame_signal(signal: AudioSignal, frame_len: int, hop: int) -> FrameMatrix:
    """Slice a signal into frames starting at multiples of `hop`.

    The frames are a read-only strided view of the samples, not a copy:
    row i starts at sample i * hop. The trailing partial frame is
    discarded; a signal shorter than one frame yields zero frames.
    """
    if hop <= 0 or hop > frame_len:
        raise ValueError(f"invalid framing: need 0 < hop <= frame_len, "
                         f"got hop={hop}, frame_len={frame_len}")
    x = signal.samples
    n_frames = max(0, (x.size - frame_len) // hop + 1)
    step = x.strides[0]
    return FrameMatrix(as_strided(x, (n_frames, frame_len),
                                  (hop * step, step), writeable=False))


class SpectrumWorkspace:
    """The window and the three buffers `power_spectrum` computes in: the
    zero-padded windowed frames, the complex `rfft` bins and the power.

    The buffers grow to the largest frame count seen so far and each call
    takes their first n rows, so one workspace serves many signals without
    allocating per signal. The padding columns are zeroed once, when a
    buffer is allocated, and never written.
    """

    def __init__(self, frame_len: int, n_fft: int):
        if n_fft < frame_len:
            raise ValueError(f"n_fft ({n_fft}) smaller than frame length "
                             f"({frame_len})")
        if n_fft & (n_fft - 1):
            raise ValueError(f"n_fft must be a power of two, got {n_fft}")
        self.frame_len = frame_len
        self.n_fft = n_fft
        self.window = np.hamming(frame_len)
        self._allocate(0)

    def _allocate(self, n: int) -> None:
        n_bins = self.n_fft // 2 + 1
        self._padded = np.zeros((n, self.n_fft))
        self._bins = np.empty((n, n_bins), dtype=np.complex128)
        self._power = np.empty((n, n_bins))

    def buffers(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(padded, bins, power) views of n rows each."""
        if n > self._padded.shape[0]:
            self._allocate(n)
        return self._padded[:n], self._bins[:n], self._power[:n]


def power_spectrum(frames: FrameMatrix,
                   workspace: SpectrumWorkspace) -> np.ndarray:
    """Hamming-window each frame, zero-pad to the workspace's n_fft, return
    |X[k]|^2 as an (n_frames, n_fft // 2 + 1) array.

    The result is a view into the workspace's power buffer: it stays valid
    until the next call with the same workspace, so a caller that keeps
    spectra must copy them.
    """
    if workspace.frame_len != frames.frame_len:
        raise ValueError(f"workspace for frame length {workspace.frame_len} "
                         f"given frames of length {frames.frame_len}")
    padded, bins, power = workspace.buffers(frames.n_frames)
    np.multiply(frames.frames, workspace.window,
                out=padded[:, :frames.frame_len])
    # The transform length is the buffer's width, so rfft makes no padded
    # copy of its own.
    np.fft.rfft(padded, axis=1, out=bins)
    np.abs(bins, out=power)
    return np.square(power, out=power)


def dct_basis(n: int, n_out: int) -> np.ndarray:
    """The (n_out, n) orthonormal DCT-II basis: `x @ dct_basis(n, n_out).T`
    is the first n_out coefficients of each row of x,
    y[k] = a_k * sum_n x[n] cos(pi k (2n+1) / (2N)), a_0 = sqrt(1/N) and
    a_k = sqrt(2/N) otherwise, so the full transform is an orthonormal
    change of basis."""
    if not 1 <= n_out <= n:
        raise ValueError(f"n_out must be in [1, {n}], got {n_out}")
    # The integer phase k (2n+1) is reduced modulo 4N, a full period, so
    # the cosine is evaluated at angles below 2 pi where it is accurate.
    phase = np.arange(n_out)[:, None] * (2 * np.arange(n) + 1) % (4 * n)
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * phase / (2 * n))
    basis[0] = np.sqrt(1.0 / n)
    return basis
