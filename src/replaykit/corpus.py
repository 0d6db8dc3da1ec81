"""Audio and manifest I/O plus a deterministic synthetic replay corpus.

WAV files are read and written by a small RIFF codec in this module. It
takes one layout: integer PCM (format tag 1), 1 channel, 16 bits, 16 kHz.
`write_wav` writes the canonical 44-byte header and the samples;
`read_wav` reads the file in one call, walks its chunks, and skips the
ones it does not need.

The synthetic corpus stands in for licensed anti-spoofing data. Genuine
utterances are harmonic sources (speaker-specific fundamental) shaped by a
phrase-specific spectral envelope plus broadband noise; the harmonic sum
is evaluated by angle addition over blocks of samples (`_harmonic_sum`).
Replayed copies are the genuine signals passed through a simulated
playback-and-recording channel: a device-specific band-pass with
low/mid-frequency ripple, plus a high-shelf cut above 6 kHz that is shared
by every device. The shared high-band cut is the engineered replay cue;
the device-specific parts live below 4 kHz, so cross-device variation
concentrates in the low and middle bands while the discriminative cue
stays in the high bands. All utterances of a corpus share one length, so
`synth_corpus` computes each device's response once and each genuine
signal's spectrum once.

`synth_corpus` returns its signals as a stream (`CorpusSignals`), each
with its manifest row: the genuine signals, then the replays one device
at a time, train devices first. The stream is a sequence of makers, one
call per row that makes that row's signal; iterating it runs each call
as it is taken, on the iterating thread; `run_study` and `replaykit
synth` run them on replaykit's worker threads instead
(`_threads.look_ahead`). Each genuine row's
call leaves its signal's spectrum and RMS for the replays, one per
device, which are made from them, so a replay's call never makes its
genuine signal again. Replays make up most of a corpus, so a pass holds
at once each genuine signal's spectrum, one device's response (two while
the calls in flight cross from one device to the next), and the signals
made but not yet taken: one when the stream is iterated, a few more on a
pool.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import struct
from collections.abc import Callable, Iterator
from concurrent.futures import Future, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._files import no_such_file, output_file, read_table, write_table
from .errors import ManifestError, WavFormatError

PIPELINE_SAMPLE_RATE = 16000

# Replay cue applied to every replayed copy regardless of device: a flat
# amplitude cut above the shelf frequency.
REPLAY_SHELF_HZ = 6000.0
REPLAY_SHELF_DB = -10.0

# Width of the Gaussian gain bumps realizing a device's ripple entries.
RIPPLE_WIDTH_HZ = 300.0

# Samples per block in `_harmonic_sum`'s angle-addition split.
HARMONIC_BLOCK = 256

GENUINE_LABEL = "genuine"
REPLAY_LABEL = "replay"
NO_DEVICE = "-"

MANIFEST_COLUMNS = ("utt_id", "audio_path", "label", "speaker_id",
                    "phrase_id", "device_id")


@dataclass
class AudioSignal:
    """Mono PCM samples in [-1.0, 1.0) at PIPELINE_SAMPLE_RATE."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        # Written so that NaN, for which every comparison is false, fails.
        if self.samples.size and not (np.min(self.samples) >= -1.0
                                      and np.max(self.samples) < 1.0):
            raise ValueError("samples must be finite and lie in [-1.0, 1.0)")

    @classmethod
    def from_pcm16(cls, pcm: np.ndarray) -> "AudioSignal":
        """The signal of 16-bit PCM samples, s mapped to s / 32768.

        Scaling by 2**-15 is exact, so this equals the division bit for
        bit. Every int16 value maps into [-1.0, 1.0), so the range check
        that every other way of making a signal runs is skipped."""
        if pcm.dtype.kind != "i" or pcm.dtype.itemsize != 2 or pcm.ndim != 1:
            raise ValueError("pcm must be a 1-D array of 16-bit integers")
        samples = pcm.astype(np.float64)
        samples *= 2.0 ** -15
        signal = cls.__new__(cls)
        signal.samples = samples
        return signal

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class UtteranceMeta:
    """One manifest row: identity, file location, label and factor values."""

    utt_id: str
    audio_path: str
    label: str
    speaker_id: str
    phrase_id: str
    device_id: str

    def __post_init__(self):
        if self.label not in (GENUINE_LABEL, REPLAY_LABEL):
            raise ManifestError(f"unknown label {self.label!r}")
        if self.label == GENUINE_LABEL and self.device_id != NO_DEVICE:
            raise ManifestError(
                f"genuine utterance {self.utt_id!r} must use device_id '-'")
        if self.label == REPLAY_LABEL and self.device_id == NO_DEVICE:
            raise ManifestError(
                f"replay utterance {self.utt_id!r} needs a device_id")

    @property
    def is_genuine(self) -> bool:
        return self.label == GENUINE_LABEL


@dataclass
class Manifest:
    """Ordered utterance records with unique ids."""

    records: list[UtteranceMeta]

    def __post_init__(self):
        if not self.records:
            raise ManifestError("manifest is empty")
        seen = set()
        for rec in self.records:
            if rec.utt_id in seen:
                raise ManifestError(f"duplicate utt_id {rec.utt_id!r}")
            seen.add(rec.utt_id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def filter(self, pred) -> "Manifest":
        return Manifest([r for r in self.records if pred(r)])

    def genuine_records(self) -> list[UtteranceMeta]:
        return [r for r in self.records if r.is_genuine]

    def replay_records(self) -> list[UtteranceMeta]:
        return [r for r in self.records if not r.is_genuine]

    def device_ids(self) -> list[str]:
        return sorted({r.device_id for r in self.replay_records()})


@dataclass(frozen=True)
class DeviceProfile:
    """Playback-and-recording channel: band-pass cutoffs, low/mid ripple,
    and the noise level of the recording side."""

    device_id: str
    low_cutoff_hz: float
    high_cutoff_hz: float
    ripple: tuple[tuple[float, float], ...]
    snr_db: float

    def __post_init__(self):
        object.__setattr__(self, "ripple",
                           tuple((float(c), float(g)) for c, g in self.ripple))
        if not 50.0 <= self.low_cutoff_hz <= 300.0:
            raise ValueError("low_cutoff_hz must be in [50, 300]")
        if not 6000.0 <= self.high_cutoff_hz <= 7500.0:
            raise ValueError("high_cutoff_hz must be in [6000, 7500]")
        if self.low_cutoff_hz >= self.high_cutoff_hz:
            raise ValueError("low_cutoff_hz must be below high_cutoff_hz")
        for center, gain in self.ripple:
            if center >= 4000.0:
                raise ValueError("ripple centers must be below 4000 Hz")
            if abs(gain) > 6.0:
                raise ValueError("ripple gain must satisfy |gain_db| <= 6")
        if not 20.0 <= self.snr_db <= 40.0:
            raise ValueError("snr_db must be in [20, 40]")


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------

# The canonical header `write_wav` writes: the RIFF header, a 16-byte
# `fmt ` chunk and the `data` chunk's header.
_WAV_HEADER = struct.Struct("<4sI4s4sIHHIIHH4sI")
_RIFF_HEADER = struct.Struct("<4sI4s")
_CHUNK_HEADER = struct.Struct("<4sI")
# Format tag, channels, sample rate, byte rate, block align, bits.
_FMT_PCM = struct.Struct("<HHIIHH")
_WAVE_FORMAT_PCM = 1


def read_wav(path) -> AudioSignal:
    """Read a mono 16-bit PCM WAV at 16 kHz; sample s maps to s / 32768.

    The accepted layout: a RIFF/WAVE header, then chunks of an id, a
    little-endian size and a body padded to an even length. The first
    `fmt ` chunk, of at least 16 bytes, must give format tag 1 (integer
    PCM), 1 channel, 16 bits and PIPELINE_SAMPLE_RATE; its byte rate and
    block align are not read. Other chunks, before or between these two,
    are skipped. The first `data` chunk, which must follow the `fmt `
    chunk, holds the samples, size // 2 of them; the file may go on after
    them. The RIFF
    size field is not read: the walk ends at the file's end. Every other
    file raises WavFormatError, or FileNotFoundError if there is none.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        raise no_such_file(path) from None
    if len(data) < _RIFF_HEADER.size:
        raise WavFormatError(f"{path}: truncated WAV header")
    riff, _, wave_id = _RIFF_HEADER.unpack_from(data)
    if riff != b"RIFF" or wave_id != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    pos = _RIFF_HEADER.size
    while True:
        if pos + _CHUNK_HEADER.size > len(data):
            raise WavFormatError(f"{path}: truncated WAV header")
        chunk_id, size = _CHUNK_HEADER.unpack_from(data, pos)
        pos += _CHUNK_HEADER.size
        if chunk_id == b"data":
            break
        if pos + size > len(data):
            raise WavFormatError(
                f"{path}: corrupt WAV header: chunk {chunk_id!r} declares "
                f"{size} bytes, {len(data) - pos} follow it")
        if chunk_id == b"fmt " and fmt is None:
            if size < _FMT_PCM.size:
                raise WavFormatError(
                    f"{path}: corrupt WAV header: fmt chunk of {size} bytes, "
                    f"PCM needs {_FMT_PCM.size}")
            fmt = _FMT_PCM.unpack_from(data, pos)
        pos += size + (size & 1)
    if fmt is None:
        raise WavFormatError(
            f"{path}: corrupt WAV header: data chunk before fmt chunk")
    tag, n_channels, rate, _, _, bits = fmt
    if tag != _WAVE_FORMAT_PCM:
        raise WavFormatError(f"{path}: not a supported PCM WAV (format tag "
                             f"{tag:#06x}; only 0x0001, integer PCM, is read)")
    if n_channels != 1:
        raise WavFormatError(f"{path}: expected mono, got {n_channels} channels")
    if bits != 16:
        raise WavFormatError(f"{path}: expected 16-bit PCM, got {bits}-bit")
    if rate != PIPELINE_SAMPLE_RATE:
        raise WavFormatError(f"{path}: expected sample rate "
                             f"{PIPELINE_SAMPLE_RATE}, got {rate}")
    n_samples = size // 2
    held = len(data) - pos
    if held < 2 * n_samples:
        raise WavFormatError(f"{path}: truncated: the header declares "
                             f"{n_samples} samples ({2 * n_samples} bytes), "
                             f"the data holds {held} bytes")
    return AudioSignal.from_pcm16(
        np.frombuffer(data, dtype="<i2", count=n_samples, offset=pos))


def write_wav(signal: AudioSignal, path) -> None:
    """Write the signal as read_wav's canonical layout: a 44-byte header
    (RIFF/WAVE, a 16-byte `fmt ` chunk of format tag 1, 1 channel, 16 bits
    and PIPELINE_SAMPLE_RATE, and the `data` chunk's header), then the
    16-bit samples, in one write. Sample x is stored as round(32768 x),
    clipped to the 16-bit range: the exact inverse of read_wav's mapping."""
    ints = signal.samples * 32768.0
    np.round(ints, out=ints)
    np.clip(ints, -32768, 32767, out=ints)
    n_bytes = 2 * ints.size
    buf = bytearray(_WAV_HEADER.size + n_bytes)
    _WAV_HEADER.pack_into(
        buf, 0, b"RIFF", _WAV_HEADER.size - 8 + n_bytes, b"WAVE", b"fmt ",
        _FMT_PCM.size, _WAVE_FORMAT_PCM, 1, PIPELINE_SAMPLE_RATE,
        2 * PIPELINE_SAMPLE_RATE, 2, 16, b"data", n_bytes)
    np.frombuffer(buf, dtype="<i2", offset=_WAV_HEADER.size)[:] = ints
    with output_file(path, "wb") as f:
        f.write(buf)


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------

def parse_manifest(path) -> Manifest:
    """Read a TSV manifest with the exact six-column header. A row that is
    refused, by these checks or `UtteranceMeta`'s, or that repeats an
    earlier utt_id, raises ManifestError naming the file and its line
    (`replaykit._files.read_table`)."""
    return Manifest(read_table(path, len(MANIFEST_COLUMNS), UtteranceMeta,
                               ManifestError, MANIFEST_COLUMNS))


def write_manifest(manifest: Manifest, path) -> None:
    write_table(path, ([getattr(r, c) for c in MANIFEST_COLUMNS]
                       for r in manifest), MANIFEST_COLUMNS)


def save_device_profiles(profiles: list[DeviceProfile], path) -> None:
    """Serialize profiles as a JSON array, field names as in DeviceProfile."""
    doc = [dataclasses.asdict(p) for p in profiles]
    with output_file(path) as f:
        f.write(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Replay channel
# ---------------------------------------------------------------------------

def _amplitude_response(profile: DeviceProfile, freqs: np.ndarray) -> np.ndarray:
    """Amplitude response of the full replay channel at `freqs`.

    Band edges follow a zero-phase 4th-order Butterworth magnitude applied
    forward and backward (so the amplitude response is the Butterworth
    magnitude squared), ripple entries are Gaussian gain bumps in dB, and
    the shared replay cue is a flat cut above REPLAY_SHELF_HZ.

    The high-pass is 1 / (1 + (low / f) ** 8) at every f >= 0: at 0 Hz
    low / f is inf and the response exactly 0. No finite ratio comes near
    overflow: the lowest nonzero bin of the at most 10 s a `SynthConfig`
    takes is 0.1 Hz, and a `DeviceProfile`'s low cutoff at most 300 Hz,
    so low / f is at most 3,000.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    amp = 1.0 / (1.0 + (freqs / profile.high_cutoff_hz) ** 8)
    with np.errstate(divide="ignore"):
        amp = amp * (1.0 / (1.0 + (profile.low_cutoff_hz / freqs) ** 8))
    gain_db = np.zeros_like(freqs)
    for center, gain in profile.ripple:
        gain_db += gain * np.exp(-0.5 * ((freqs - center) / RIPPLE_WIDTH_HZ) ** 2)
    gain_db += np.where(freqs >= REPLAY_SHELF_HZ, REPLAY_SHELF_DB, 0.0)
    return amp * 10.0 ** (gain_db / 20.0)


def _replay(spectrum: np.ndarray, in_rms: float, n: int,
            response: np.ndarray, profile: DeviceProfile,
            seed: int) -> AudioSignal:
    """Pass n > 0 samples through a playback-and-recording channel, given
    their rfft `spectrum`, their RMS and the channel's `response` at the
    rfft bins.

    Zero-phase spectral filtering (length-preserving), then additive white
    noise scaled to profile.snr_db against the input RMS; silence in means
    silence out. The result is rescaled only if its peak exceeds 0.99.
    """
    y = np.fft.irfft(spectrum * response, n=n)

    if in_rms > 0.0:
        rng = np.random.default_rng(seed)
        noise_rms = in_rms * 10.0 ** (-profile.snr_db / 20.0)
        # In place: a stream frees each replay's temporaries, and every
        # fresh one is faulted in again.
        noise = rng.standard_normal(n)
        noise *= noise_rms
        y += noise

    peak = float(np.max(np.abs(y)))
    if peak > 0.99:
        y *= 0.99 / peak
    return AudioSignal(y)


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Corpus size and duration knobs."""

    n_speakers: int = 6
    n_phrases: int = 4
    n_train_devices: int = 3
    n_heldout_devices: int = 3
    utt_seconds: float = 2.0
    reps: int = 2

    def __post_init__(self):
        for name in ("n_speakers", "n_phrases", "n_train_devices",
                     "n_heldout_devices", "reps"):
            if getattr(self, name) < 1:
                raise ValueError(f"invalid config: {name} must be >= 1")
        if not 0.5 <= self.utt_seconds <= 10.0:
            raise ValueError("invalid config: utt_seconds must be in [0.5, 10]")


@dataclass(frozen=True)
class _PhraseEnvelope:
    """Three Gaussian spectral peaks over a flat base."""

    centers: tuple[float, float, float]
    widths: tuple[float, float, float]
    amps: tuple[float, float, float]

    def __call__(self, freqs: np.ndarray, base: float,
                 peak_scales: np.ndarray) -> np.ndarray:
        # The base keeps harmonics alive up to Nyquist so genuine signals
        # carry real energy above the replay-cue shelf.
        env = np.full_like(freqs, base)
        for c, w, a, s in zip(self.centers, self.widths, self.amps,
                              peak_scales):
            env = env + a * s * np.exp(-0.5 * ((freqs - c) / w) ** 2)
        return env


def _harmonic_sum(amps: np.ndarray, freqs: np.ndarray, phases: np.ndarray,
                  n: int) -> np.ndarray:
    """sum_h amps[h] sin(2 pi freqs[h] t_k + phases[h]) at the first n
    sample times t_k = k / PIPELINE_SAMPLE_RATE.

    Angle addition over blocks of B = HARMONIC_BLOCK samples: sample
    k = j B + i has phase a_j + w i, with a_j the phase at the block start
    and w i the phase advance over the offset, and
    sin(a_j + w i) = sin(a_j) cos(w i) + cos(a_j) sin(w i). So the sum is
    two (n/B, H) @ (H, B) products over the sines and cosines of the block
    starts (amplitude-weighted) and of the offsets: about (n/B + B) H
    transcendentals instead of n H.
    """
    n_blocks = -(-n // HARMONIC_BLOCK)
    starts = np.arange(n_blocks) * HARMONIC_BLOCK / PIPELINE_SAMPLE_RATE
    offsets = np.arange(HARMONIC_BLOCK) / PIPELINE_SAMPLE_RATE
    start_phase = (2.0 * np.pi * starts[:, None] * freqs[None, :]
                   + phases[None, :])
    advance = 2.0 * np.pi * freqs[:, None] * offsets[None, :]
    blocks = ((np.sin(start_phase) * amps) @ np.cos(advance)
              + (np.cos(start_phase) * amps) @ np.sin(advance))
    return blocks.ravel()[:n]


def _synth_genuine(f0: float, envelope: _PhraseEnvelope, n_samples: int,
                   rng: np.random.Generator) -> AudioSignal:
    t = np.arange(n_samples) / PIPELINE_SAMPLE_RATE
    # Per-utterance delivery variation: pitch and spectral shape wander
    # around the speaker/phrase targets so classes form broad clusters
    # instead of points.
    f0 = f0 * rng.uniform(0.95, 1.05)
    base = 0.2 * rng.uniform(0.8, 1.25)
    peak_scales = rng.uniform(0.75, 1.25, size=3)
    harmonics = np.arange(1, int((PIPELINE_SAMPLE_RATE / 2 - 1.0) / f0) + 1)
    freqs = harmonics * f0
    amps = envelope(freqs, base, peak_scales)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=harmonics.size)
    x = _harmonic_sum(amps, freqs, phases, n_samples)
    # Slow amplitude modulation so frames differ beyond the noise floor.
    mod_hz = rng.uniform(2.0, 6.0)
    mod_phase = rng.uniform(0.0, 2.0 * np.pi)
    x = x * (0.7 + 0.3 * np.sin(2.0 * np.pi * mod_hz * t + mod_phase))
    x = x / np.sqrt(np.mean(x ** 2))
    x = x + rng.standard_normal(n_samples) * 10.0 ** (-30.0 / 20.0)
    x = x * (0.5 / np.max(np.abs(x)))
    return AudioSignal(x)


def derive_seed(*entropy: int) -> int:
    """One 32-bit seed from a tuple of integers, stable across runs."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _make_genuine(rec: UtteranceMeta, f0: float, envelope: _PhraseEnvelope,
                  entropy: tuple, n_samples: int,
                  source: Future) -> tuple[UtteranceMeta, AudioSignal]:
    """A genuine row's call: its row and signal. It also sets `source` to
    the signal's rfft spectrum and RMS, which its replays are made from,
    or to the error met making them, so that taking a replay's call
    (`CorpusSignals.makers`) never waits for ever."""
    try:
        sig = _synth_genuine(f0, envelope, n_samples,
                             np.random.default_rng(entropy))
        source.set_result((np.fft.rfft(sig.samples),
                           float(np.sqrt(np.mean(sig.samples ** 2)))))
    except BaseException as exc:
        source.set_exception(exc)
        raise
    return rec, sig


def _make_replay(rec: UtteranceMeta, source: Future, n_samples: int,
                 response: np.ndarray, profile: DeviceProfile,
                 seed: int) -> tuple[UtteranceMeta, AudioSignal]:
    """A replay row's call: its row and signal, made from its genuine
    row's spectrum and RMS; a genuine row that failed raises its error
    here too."""
    spectrum, in_rms = source.result()
    return rec, _replay(spectrum, in_rms, n_samples, response, profile, seed)


class CorpusSignals:
    """The signals of a synthetic corpus, made while they are iterated,
    as (manifest row, signal) pairs: every genuine signal in manifest
    order, then one device at a time, in `profiles` order (train devices
    first), each genuine signal's replay through that device.

    So a consumer can finish with the genuine and train-device signals
    before the first held-out replay is made. Only the stream is in this
    order; the manifest keeps its own, on which the CLI's frame pools, and
    so its k-means++ draws, depend (`synth_corpus`). `len()` is the
    manifest's length, and every pass makes the same bytes. The replay of
    genuine signal g through device d is seeded by (g, d), not by its
    place in the stream, so the calls may run on any thread.

    `makers()` gives the stream as calls, one per row in this order, each
    returning the row and its signal; iterating runs each as it is taken.
    A pass keeps each genuine signal's spectrum and RMS, not the signal,
    and one device's response at a time, which the calls in flight keep
    until they are done. Iterated, it holds each signal only until the
    next one is asked for; a consumer that runs the calls on a pool holds
    the signals of the calls it has submitted and not yet taken, too.
    """

    def __init__(self, manifest: Manifest,
                 sources: list[tuple[float, _PhraseEnvelope, tuple]],
                 profiles: list[DeviceProfile], n_samples: int, seed: int):
        # `synth_corpus`'s manifest: one row per source, then each
        # source's replay rows in `profiles` order. One (f0, envelope,
        # rng entropy) source per genuine utterance.
        self._manifest = manifest
        self._sources = sources
        self._profiles = profiles
        self._n_samples = n_samples
        self._seed = seed

    def __len__(self) -> int:
        return len(self._manifest)

    def __iter__(self) -> Iterator[tuple[UtteranceMeta, AudioSignal]]:
        for make in self.makers():
            yield make()

    def makers(self) -> Iterator[
            Callable[[], tuple[UtteranceMeta, AudioSignal]]]:
        """The stream's calls, in its order. Each must be run, or
        submitted to a pool, before the next is taken: a replay's call
        is given out only once its genuine row's call is done, and
        taking one waits for that."""
        records = self._manifest.records
        n_genuine, n_devices = len(self._sources), len(self._profiles)
        sources = [Future() for _ in self._sources]
        for rec, (f0, envelope, entropy), source in zip(
                records, self._sources, sources):
            yield functools.partial(_make_genuine, rec, f0, envelope, entropy,
                                    self._n_samples, source)
        # Every signal has n_samples samples: one response per device and
        # one spectrum per genuine signal serve all of its replays.
        freqs = np.fft.rfftfreq(self._n_samples,
                                d=1.0 / PIPELINE_SAMPLE_RATE)
        for d_idx, profile in enumerate(self._profiles):
            response = _amplitude_response(profile, freqs)
            for g_idx, source in enumerate(sources):
                rec = records[n_genuine + g_idx * n_devices + d_idx]
                wait([source])
                yield functools.partial(
                    _make_replay, rec, source, self._n_samples, response,
                    profile, derive_seed(self._seed, 2, g_idx, d_idx))


def synth_corpus(config: SynthConfig, seed: int
                 ) -> tuple[CorpusSignals, Manifest, list[DeviceProfile]]:
    """Generate a deterministic corpus of genuine and replayed utterances.

    The manifest lists every (speaker, phrase, rep) genuine utterance,
    then each one's replayed copy through each device; train devices are
    named D00.., held-out devices H00... The signals are made only as
    the stream's calls are run (`CorpusSignals`), each with its manifest
    row, in another order: the genuine signals, then the replays device by
    device. The manifest keeps its order because the CLI extracts, pools
    and trains in it, and k-means++ draws its centres by a frame's index
    in the pooled order, so the CLI's models depend on that order.
    """
    rng = np.random.default_rng([seed, 0])
    fundamentals = rng.uniform(100.0, 250.0, size=config.n_speakers)
    envelopes = []
    for _ in range(config.n_phrases):
        envelopes.append(_PhraseEnvelope(
            centers=tuple(rng.uniform(300.0, 3200.0, size=3)),
            widths=tuple(rng.uniform(150.0, 400.0, size=3)),
            amps=tuple(rng.uniform(1.0, 2.5, size=3)),
        ))

    profiles = []
    n_devices = config.n_train_devices + config.n_heldout_devices
    for d in range(n_devices):
        if d < config.n_train_devices:
            device_id = f"D{d:02d}"
        else:
            device_id = f"H{d - config.n_train_devices:02d}"
        n_bumps = int(rng.integers(5, 9))
        ripple = tuple(
            (float(rng.uniform(200.0, 3800.0)), float(rng.uniform(-6.0, 6.0)))
            for _ in range(n_bumps))
        # SNR kept at the quiet end of the allowed range so the high-shelf
        # cue stays measurable against the device noise floor on every pair.
        profiles.append(DeviceProfile(
            device_id=device_id,
            low_cutoff_hz=float(rng.uniform(60.0, 280.0)),
            high_cutoff_hz=float(rng.uniform(6200.0, 7400.0)),
            ripple=ripple,
            snr_db=float(rng.uniform(28.0, 40.0)),
        ))

    sources = []
    genuine_records: list[UtteranceMeta] = []
    replay_records: list[UtteranceMeta] = []
    for s in range(config.n_speakers):
        for p in range(config.n_phrases):
            for r in range(config.reps):
                stem = f"S{s:02d}-P{p:02d}-R{r}"
                spk, phr = f"S{s:02d}", f"P{p:02d}"
                sources.append((fundamentals[s], envelopes[p],
                                (seed, 1, s, p, r)))
                genuine_records.append(UtteranceMeta(
                    f"{stem}-live", f"audio/{stem}-live.wav", GENUINE_LABEL,
                    spk, phr, NO_DEVICE))
                replay_records += [UtteranceMeta(
                    f"{stem}-{profile.device_id}",
                    f"audio/{stem}-{profile.device_id}.wav", REPLAY_LABEL,
                    spk, phr, profile.device_id) for profile in profiles]

    n_samples = int(round(config.utt_seconds * PIPELINE_SAMPLE_RATE))
    manifest = Manifest(genuine_records + replay_records)
    return (CorpusSignals(manifest, sources, profiles, n_samples, seed),
            manifest, profiles)
