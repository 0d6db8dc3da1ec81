import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from oracles import power_spectrum_loop
from replaykit.corpus import AudioSignal
from replaykit.spectrum import (
    FrameMatrix,
    SpectrumWorkspace,
    _dct_basis,
    dct_ii,
    frame_signal,
    power_spectrum,
)

def _count_frames_oracle(signal_len, frame_len, hop):
    """Direct enumeration of frame starts."""
    count = 0
    start = 0
    while start + frame_len <= signal_len:
        count += 1
        start += hop
    return count


def _signal(n, seed=0):
    rng = np.random.default_rng(seed)
    return AudioSignal(rng.uniform(-0.9, 0.9, size=n))


class TestFrameSignal:
    def test_exact_fit_single_frame(self):
        fm = frame_signal(_signal(400), 400, 160)
        assert fm.n_frames == 1

    def test_three_frames(self):
        fm = frame_signal(_signal(720), 400, 160)
        assert fm.n_frames == 3
        sig = _signal(720)
        for i, start in enumerate([0, 160, 320]):
            np.testing.assert_array_equal(fm.frames[i],
                                          sig.samples[start:start + 400])

    def test_short_signal_zero_frames(self):
        assert frame_signal(_signal(399), 400, 160).n_frames == 0

    def test_invalid_framing(self):
        with pytest.raises(ValueError, match="invalid framing"):
            frame_signal(_signal(400), 400, 0)
        with pytest.raises(ValueError, match="invalid framing"):
            frame_signal(_signal(400), 400, 401)

    def test_frames_are_a_view_equal_to_the_gather(self):
        # Lengths: none, around one frame and around the next hop
        # boundary. The view is built directly, and must be the one
        # sliding_window_view(x, frame_len)[::hop] builds: same shape,
        # strides, memory and bits, and read-only.
        for frame_len, hop in [(400, 160), (400, 400), (7, 3), (5, 5),
                               (4, 1)]:
            for n in (0, frame_len - 1, frame_len, frame_len + 1,
                      frame_len + hop - 1, frame_len + hop,
                      frame_len + hop + 1, frame_len + 5 * hop):
                sig = _signal(n, seed=n)
                frames = frame_signal(sig, frame_len, hop).frames
                n_frames = max(0, (n - frame_len) // hop + 1)
                idx = (np.arange(frame_len)[None, :]
                       + hop * np.arange(n_frames)[:, None])
                np.testing.assert_array_equal(frames, sig.samples[idx])
                assert frames.shape == (n_frames, frame_len)
                assert frames.dtype == np.float64
                assert not frames.flags.writeable
                if not n_frames:
                    continue
                want = sliding_window_view(sig.samples, frame_len)[::hop]
                assert frames.strides == want.strides
                assert frames.__array_interface__["data"] == \
                    want.__array_interface__["data"]
                np.testing.assert_array_equal(frames.view(np.uint64),
                                              want.view(np.uint64))

    def test_view_of_a_strided_signal(self):
        # Samples that are themselves a strided view still frame by their
        # own stride.
        sig = AudioSignal(_signal(2000).samples[::2])
        frames = frame_signal(sig, 400, 160).frames
        want = sliding_window_view(sig.samples, 400)[::160]
        assert frames.strides == want.strides
        np.testing.assert_array_equal(frames, want)

    def test_count_formula_against_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            signal_len = int(rng.integers(0, 4000))
            frame_len = int(rng.integers(1, 800))
            hop = int(rng.integers(1, frame_len + 1))
            fm = frame_signal(_signal(signal_len), frame_len, hop)
            assert fm.n_frames == _count_frames_oracle(signal_len, frame_len, hop)


class TestPowerSpectrum:
    def test_zero_frame_zero_spectrum(self):
        spec = power_spectrum(FrameMatrix(np.zeros((1, 400))),
                              SpectrumWorkspace(400, 512))
        np.testing.assert_array_equal(spec, 0.0)

    def test_impulse_flat_spectrum(self):
        # Hamming w[0] = 0.54 - 0.46 = 0.08; an impulse at n=0 transforms
        # to a flat spectrum of squared magnitude 0.08**2.
        frame = np.zeros((1, 400))
        frame[0, 0] = 1.0
        spec = power_spectrum(FrameMatrix(frame), SpectrumWorkspace(400, 512))
        np.testing.assert_allclose(spec, 0.08 ** 2, rtol=1e-12)

    def test_bin_count(self):
        fm = frame_signal(_signal(720), 400, 160)
        assert power_spectrum(fm, SpectrumWorkspace(400, 512)).shape == (3, 257)

    def test_fft_too_small(self):
        with pytest.raises(ValueError, match="smaller than frame"):
            SpectrumWorkspace(400, 256)

    def test_fft_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            SpectrumWorkspace(400, 500)

    def test_parseval_pins_normalization(self):
        # Unnormalized transform: sum over all n_fft bins of |X[k]|^2
        # (conjugate-symmetric bins counted twice) equals n_fft times the
        # windowed-frame energy.
        rng = np.random.default_rng(7)
        frames = rng.uniform(-1, 1, size=(5, 400))
        n_fft = 512
        spec = power_spectrum(FrameMatrix(frames),
                              SpectrumWorkspace(400, n_fft))
        window = np.hamming(400)
        for i in range(5):
            windowed_energy = np.sum((frames[i] * window) ** 2)
            row = spec[i]
            total = row[0] + row[-1] + 2.0 * row[1:-1].sum()
            np.testing.assert_allclose(total, n_fft * windowed_energy,
                                       rtol=1e-6)

    def test_matches_loop_oracle_bit_for_bit(self):
        # Padding inside a buffer and padding inside rfft run the same
        # transform on the same samples, so no tolerance is needed.
        rng = np.random.default_rng(5)
        for frame_len, n_fft in [(400, 512), (400, 1024), (256, 256),
                                 (7, 8), (1, 1)]:
            for n_frames in (0, 1, 5, 198):
                frames = rng.uniform(-1, 1, size=(n_frames, frame_len))
                spec = power_spectrum(FrameMatrix(frames),
                                      SpectrumWorkspace(frame_len, n_fft))
                assert spec.shape == (n_frames, n_fft // 2 + 1)
                np.testing.assert_array_equal(
                    spec, power_spectrum_loop(frames, n_fft))

    def test_one_workspace_over_growing_and_shrinking_frame_counts(self):
        # Each spectrum equals the oracle's, whether the buffers grow for
        # it or a shorter signal leaves longer rows' samples behind them.
        rng = np.random.default_rng(6)
        workspace = SpectrumWorkspace(400, 512)
        for n_frames in (198, 3, 0, 250, 1, 250):
            frames = rng.uniform(-1, 1, size=(n_frames, 400))
            spec = power_spectrum(FrameMatrix(frames), workspace)
            np.testing.assert_array_equal(
                spec, power_spectrum_loop(frames, 512))
        padded, _, power = workspace.buffers(250)
        assert np.shares_memory(spec, power)
        np.testing.assert_array_equal(padded[:, 400:], 0.0)

    def test_workspace_must_fit_the_frames(self):
        fm = frame_signal(_signal(720), 400, 160)
        with pytest.raises(ValueError) as info:
            power_spectrum(fm, SpectrumWorkspace(256, 512))
        assert str(info.value) == ("workspace for frame length 256 given "
                                   "frames of length 400")


def _dct_oracle(x, n_out):
    """Direct cosine-sum evaluation of the orthonormal DCT-II."""
    n = len(x)
    out = []
    for k in range(n_out):
        a = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out.append(a * math.fsum(
            x[j] * math.cos(math.pi * k * (2 * j + 1) / (2 * n))
            for j in range(n)))
    return np.array(out)


class TestDctII:
    def test_constant_vector(self):
        np.testing.assert_allclose(dct_ii(np.ones(4), 4), [2, 0, 0, 0],
                                   atol=1e-12)

    def test_zero_vector(self):
        np.testing.assert_array_equal(dct_ii(np.zeros(4), 2), [0.0, 0.0])

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, size=23)
        y = dct_ii(x, 23)
        np.testing.assert_allclose(np.linalg.norm(y), np.linalg.norm(x),
                                   atol=1e-9)

    def test_invalid_output_size(self):
        with pytest.raises(ValueError, match="n_out"):
            dct_ii(np.ones(4), 5)
        with pytest.raises(ValueError, match="n_out"):
            dct_ii(np.ones(4), 0)

    def test_matches_cosine_sum_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            x = rng.uniform(-3, 3, size=n)
            n_out = int(rng.integers(1, n + 1))
            np.testing.assert_allclose(dct_ii(x, n_out), _dct_oracle(x, n_out),
                                       atol=1e-9)
        # The pipeline transforms (frames, bands) log-Fbank matrices row by
        # row.
        x = rng.uniform(-3, 3, size=(7, 23))
        np.testing.assert_allclose(dct_ii(x, 13),
                                   [_dct_oracle(row, 13) for row in x],
                                   atol=1e-9)

    @pytest.mark.parametrize("n, n_out", [(1, 1), (4, 2), (23, 13),
                                          (40, 13), (23, 23)])
    def test_cached_basis_is_read_only_and_the_formulas_bits(self, n, n_out):
        phase = np.arange(n_out)[:, None] * (2 * np.arange(n) + 1) % (4 * n)
        want = np.sqrt(2.0 / n) * np.cos(np.pi * phase / (2 * n))
        want[0] = np.sqrt(1.0 / n)
        basis = _dct_basis(n, n_out)
        assert basis is _dct_basis(n, n_out)
        assert not basis.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 0.0
        np.testing.assert_array_equal(basis.view(np.uint64),
                                      want.view(np.uint64))
        x = np.random.default_rng(n).uniform(-3, 3, size=(9, n))
        np.testing.assert_array_equal(dct_ii(x, n_out).view(np.uint64),
                                      (x @ want.T).view(np.uint64))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=48))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_through_inverse(self, values):
        import scipy.fft
        x = np.array(values)
        y = dct_ii(x, len(x))
        back = scipy.fft.idct(y, type=2, norm="ortho")
        np.testing.assert_allclose(back, x, atol=1e-9 * max(1.0, np.abs(x).max()))


def test_package_imports_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import sys, replaykit, replaykit.cli, replaykit.study; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
