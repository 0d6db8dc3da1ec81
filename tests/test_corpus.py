import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from byte_edits import TEXT_TOKENS, edited, one_byte_edits

from replaykit.corpus import (
    HARMONIC_BLOCK,
    AudioSignal,
    DeviceProfile,
    Manifest,
    SynthConfig,
    UtteranceMeta,
    _amplitude_response,
    _harmonic_sum,
    derive_seed,
    parse_manifest,
    read_wav,
    save_device_profiles,
    synth_corpus,
    write_manifest,
    write_wav,
)
from replaykit.errors import ManifestError, WavFormatError
from replaykit.spectrum import SpectrumWorkspace, frame_signal, power_spectrum

SR = 16000


# Hand-rolled RIFF bytes, so the reader is tested against raw bytes.
def _chunk(chunk_id, body):
    """One RIFF chunk: id, little-endian size, body and its pad byte."""
    return (chunk_id + struct.pack("<I", len(body)) + body
            + b"\0" * (len(body) % 2))


def _fmt(tag=1, n_channels=1, rate=SR, bits=16):
    """A 16-byte `fmt ` chunk body."""
    block_align = n_channels * bits // 8
    return struct.pack("<HHIIHH", tag, n_channels, rate, rate * block_align,
                       block_align, bits)


def _riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _write_raw_wav(path, pcm_bytes, n_channels=1, sampwidth=2, rate=SR):
    path.write_bytes(_riff(
        _chunk(b"fmt ", _fmt(1, n_channels, rate, 8 * sampwidth)),
        _chunk(b"data", pcm_bytes)))


class TestReadWav:
    def test_single_sample_scaling(self, tmp_path):
        p = tmp_path / "one.wav"
        _write_raw_wav(p, struct.pack("<h", 16384))
        np.testing.assert_array_equal(read_wav(p).samples, [0.5])

    def test_endpoint_mapping(self, tmp_path):
        p = tmp_path / "ends.wav"
        _write_raw_wav(p, struct.pack("<hh", 0, -32768))
        np.testing.assert_array_equal(read_wav(p).samples, [0.0, -1.0])

    def test_wrong_sample_rate(self, tmp_path):
        p = tmp_path / "slow.wav"
        _write_raw_wav(p, struct.pack("<h", 100), rate=8000)
        with pytest.raises(WavFormatError, match="sample rate"):
            read_wav(p)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        _write_raw_wav(p, struct.pack("<hh", 1, 2), n_channels=2)
        with pytest.raises(WavFormatError, match="mono"):
            read_wav(p)

    def test_8bit_rejected(self, tmp_path):
        p = tmp_path / "b8.wav"
        _write_raw_wav(p, b"\x80\x90", sampwidth=1)
        with pytest.raises(WavFormatError, match="16-bit"):
            read_wav(p)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.wav"
        with pytest.raises(FileNotFoundError) as info:
            read_wav(path)
        assert str(info.value) == f"{path}: no such file"

    def test_sample_count_matches_data_length(self, tmp_path):
        p = tmp_path / "n.wav"
        _write_raw_wav(p, struct.pack("<4h", 1, 2, 3, 4))
        assert len(read_wav(p)) == 4

    @pytest.mark.parametrize("keep, message", [
        (0, "truncated WAV header"),
        (-1, "truncated: the header declares 3 samples (6 bytes), the data "
             "holds 5 bytes"),
        (-2, "truncated: the header declares 3 samples (6 bytes), the data "
             "holds 4 bytes"),
    ], ids=["empty", "cut-mid-sample", "cut-on-a-sample-boundary"])
    def test_truncated_file(self, tmp_path, keep, message):
        p = tmp_path / "cut.wav"
        _write_raw_wav(p, struct.pack("<3h", 1, 2, 3))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(WavFormatError) as info:
            read_wav(p)
        assert str(info.value) == f"{p}: {message}"

    @pytest.mark.filterwarnings("error")
    def test_a_byte_inserted_or_deleted_in_the_header(self, tmp_path):
        # Bytes 12-39 hold the fmt chunk and the data chunk's id. Shifting
        # them by one byte either gives a chunk a declared size that runs
        # past the file's end ("corrupt WAV header"), or garbles a field
        # that the reader checks; every case is a typed error.
        p = tmp_path / "w.wav"
        _write_raw_wav(p, struct.pack("<8h", *range(8)))
        data = p.read_bytes()
        corrupt = 0
        for offset in range(12, 40):
            for edited in (data[:offset] + b"\0" + data[offset:],
                           data[:offset] + data[offset + 1:]):
                p.write_bytes(edited)
                with pytest.raises(WavFormatError) as info:
                    read_wav(p)
                assert str(info.value).startswith(f"{p}: ")
                corrupt += str(info.value).startswith(
                    f"{p}: corrupt WAV header: ")
        assert corrupt > 0

    def test_every_16bit_value_reads_as_its_quotient_by_32768(self, tmp_path):
        # The reader scales by 2**-15 in one step; pin it bit for bit to
        # the float64 quotient s / 32768 over every 16-bit sample value.
        ints = np.arange(-32768, 32768).astype("<i2")
        p = tmp_path / "all.wav"
        _write_raw_wav(p, ints.tobytes())
        samples = read_wav(p).samples
        assert samples.dtype == np.float64
        want = ints.astype(np.float64) / 32768.0
        np.testing.assert_array_equal(samples.view(np.uint64),
                                      want.view(np.uint64))

    def test_roundtrip_every_16bit_value(self, tmp_path):
        ints = np.arange(-32768, 32768, dtype=np.int64)
        sig = AudioSignal(ints / 32768.0)
        p = tmp_path / "all.wav"
        write_wav(sig, p)
        back = read_wav(p)
        np.testing.assert_array_equal(back.samples, sig.samples)


PCM = struct.pack("<4h", -32768, -1, 0, 32767)
PCM_SAMPLES = [-1.0, -2.0 ** -15, 0.0, 32767 / 32768]


class TestWavLayouts:
    """What read_wav accepts beyond the 44-byte header write_wav writes,
    and what it refuses."""

    @pytest.mark.parametrize("chunks", [
        [_chunk(b"fmt ", _fmt()),
         _chunk(b"LIST", b"INFO" + _chunk(b"ISFT", b"x")),
         _chunk(b"data", PCM)],
        [_chunk(b"odd ", b"abc"), _chunk(b"fmt ", _fmt()),
         _chunk(b"data", PCM)],
        [_chunk(b"fmt ", _fmt() + b"\0\0"), _chunk(b"data", PCM)],
        [_chunk(b"fmt ", _fmt()), _chunk(b"fmt ", _fmt(n_channels=2)),
         _chunk(b"data", PCM), _chunk(b"data", b"\0\0")],
        [_chunk(b"fmt ", _fmt()), _chunk(b"data", PCM + b"\x01")],
    ], ids=["list-before-data", "odd-chunk-with-pad-byte",
            "18-byte-fmt", "first-fmt-and-data-taken",
            "odd-data-size"])
    def test_reads_back(self, tmp_path, chunks):
        p = tmp_path / "x.wav"
        p.write_bytes(_riff(*chunks))
        np.testing.assert_array_equal(read_wav(p).samples, PCM_SAMPLES)

    @pytest.mark.parametrize("data, message", [
        (_riff(_chunk(b"data", PCM), _chunk(b"fmt ", _fmt())),
         "corrupt WAV header: data chunk before fmt chunk"),
        # WAVE_FORMAT_EXTENSIBLE, even with the integer PCM subformat.
        (_riff(_chunk(b"fmt ", _fmt(tag=0xFFFE)
                      + struct.pack("<HHI", 22, 16, 4)
                      + bytes.fromhex("0100000000001000800000aa00389b71")),
               _chunk(b"data", PCM)),
         "not a supported PCM WAV (format tag 0xfffe; only 0x0001, "
         "integer PCM, is read)"),
        (_riff(_chunk(b"fmt ", _fmt()[:14]), _chunk(b"data", PCM)),
         "corrupt WAV header: fmt chunk of 14 bytes, PCM needs 16"),
        (_riff(_chunk(b"fmt ", _fmt())),
         "truncated WAV header"),
        (_riff(_chunk(b"fmt ", _fmt()))[:20],
         "corrupt WAV header: chunk b'fmt ' declares 16 bytes, 0 follow it"),
        (b"RIFX" + _riff(_chunk(b"fmt ", _fmt()))[4:],
         "not a RIFF/WAVE file"),
        (b"ID3\x04" + bytes(60), "not a RIFF/WAVE file"),
    ], ids=["data-before-fmt", "extensible", "short-fmt", "no-data-chunk",
            "cut-in-fmt", "big-endian-rifx", "not-riff"])
    def test_refused(self, tmp_path, data, message):
        p = tmp_path / "x.wav"
        p.write_bytes(data)
        with pytest.raises(WavFormatError) as info:
            read_wav(p)
        assert str(info.value) == f"{p}: {message}"

    def test_write_wav_golden_bytes(self, tmp_path):
        p = tmp_path / "g.wav"
        write_wav(AudioSignal(np.array([0.0, 0.5, -1.0, 32767 / 32768])), p)
        assert p.read_bytes() == bytes.fromhex(
            "52494646 2c000000 57415645"          # RIFF, 36 + 8, WAVE
            "666d7420 10000000 0100 0100"         # fmt , 16, PCM, mono
            "803e0000 007d0000 0200 1000"         # 16000 Hz, 32000 B/s, 2, 16
            "64617461 08000000"                   # data, 8 bytes
            "0000 0040 0080 ff7f")                # 0, 16384, -32768, 32767


@pytest.fixture(scope="module")
def edit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("byte_edits")


# A valid 8-sample WAV, and one edit of it.
VALID_WAV = _riff(_chunk(b"fmt ", _fmt()),
                  _chunk(b"data", struct.pack("<8h", *range(-4, 4))))
WAV_EDITS = one_byte_edits(VALID_WAV)


@pytest.mark.filterwarnings("error")
@given(edit=WAV_EDITS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_one_byte_edit_reads_back_or_raises_wav_format_error(edit_dir,
                                                                 edit):
    p = edit_dir / "edited.wav"
    p.write_bytes(edited(VALID_WAV, edit))
    try:
        signal = read_wav(p)
    except WavFormatError as exc:
        assert str(exc).startswith(f"{p}: ")
    else:
        assert signal.samples.dtype == np.float64
        assert np.all((signal.samples >= -1.0) & (signal.samples < 1.0))


class TestAudioSignal:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[-1.0, 1.0\)"):
            AudioSignal(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            AudioSignal(np.array([0.0, bad, 0.5]))


class TestManifest:
    HEADER = "utt_id\taudio_path\tlabel\tspeaker_id\tphrase_id\tdevice_id"

    def _write(self, tmp_path, lines):
        p = tmp_path / "m.tsv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def test_basic_fields(self, tmp_path):
        p = self._write(tmp_path, [self.HEADER,
                                   "u1\ta.wav\tgenuine\tS01\tP03\t-"])
        m = parse_manifest(p)
        rec = m.records[0]
        assert rec.label == "genuine"
        assert rec.device_id == "-"
        assert rec.speaker_id == "S01"
        assert rec.phrase_id == "P03"

    def test_duplicate_utt_id(self, tmp_path):
        p = self._write(tmp_path, [self.HEADER,
                                   "u1\ta.wav\tgenuine\tS01\tP03\t-",
                                   "u1\tb.wav\treplay\tS01\tP03\tD00"])
        with pytest.raises(ManifestError, match="duplicate"):
            parse_manifest(p)

    def test_case_sensitive_label(self, tmp_path):
        p = self._write(tmp_path, [self.HEADER,
                                   "u1\ta.wav\tGenuine\tS01\tP03\t-"])
        with pytest.raises(ManifestError, match="unknown label"):
            parse_manifest(p)

    def test_missing_column(self, tmp_path):
        p = self._write(tmp_path,
                        ["utt_id\taudio_path\tlabel\tspeaker_id\tphrase_id",
                         "u1\ta.wav\tgenuine\tS01\tP03"])
        with pytest.raises(ManifestError, match="header"):
            parse_manifest(p)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_bytes(self.HEADER.encode()
                      + b"\nu1\ta.wav\tgenuine\tS\xff\tP0\t-\n")
        with pytest.raises(ManifestError) as info:
            parse_manifest(p)
        assert str(info.value).startswith(f"{p}: not UTF-8 text (")

    def test_empty_manifest(self, tmp_path):
        p = self._write(tmp_path, [self.HEADER])
        with pytest.raises(ManifestError, match="no records"):
            parse_manifest(p)

    def test_genuine_with_device_rejected(self, tmp_path):
        p = self._write(tmp_path, [self.HEADER,
                                   "u1\ta.wav\tgenuine\tS01\tP03\tD00"])
        with pytest.raises(ManifestError, match="device_id '-'"):
            parse_manifest(p)

    def test_replay_without_device_rejected(self, tmp_path):
        p = self._write(tmp_path, [self.HEADER,
                                   "u1\ta.wav\treplay\tS01\tP03\t-"])
        with pytest.raises(ManifestError, match="needs a device_id"):
            parse_manifest(p)

    @pytest.mark.parametrize("rows, message", [
        (["u1\ta.wav\tGenuine\tS01\tP03\t-"], "2: unknown label 'Genuine'"),
        (["u1\ta.wav\tgenuine\tS01\tP03\t-",
          "u2\tb.wav\treplay\tS01\tP03\tD00",
          "u1\ta.wav\tgenuine\tS01\tP03\t-"],
         "4: duplicate utterance id 'u1', first on line 2"),
        (["u0\tz.wav\tgenuine\tS01\tP03\t-", "",
          "u1\ta.wav\tgenuine\tS01\tP03\tD00"],
         "4: genuine utterance 'u1' must use device_id '-'"),
    ])
    def test_a_refused_row_is_named_by_file_and_line(self, tmp_path, rows,
                                                      message):
        p = self._write(tmp_path, [self.HEADER] + rows)
        with pytest.raises(ManifestError) as info:
            parse_manifest(p)
        assert str(info.value) == f"{p}:{message}"

    def test_write_then_parse_is_identity(self, tmp_path):
        m = Manifest([
            UtteranceMeta("u1", "a.wav", "genuine", "S00", "P00", "-"),
            UtteranceMeta("u2", "b.wav", "replay", "S00", "P00", "D00"),
        ])
        p = tmp_path / "m.tsv"
        write_manifest(m, p)
        assert parse_manifest(p).records == m.records

    @pytest.mark.parametrize("cell", ["a\tb", "x\ny", "a\rb", "x\u2028y"])
    def test_a_cell_the_reader_would_split_is_not_written(self, tmp_path,
                                                          cell):
        # `parse_manifest` splits rows at tabs and its lines with
        # `str.splitlines`, so such a cell would not read back.
        m = Manifest([UtteranceMeta(cell, "a.wav", "genuine", "S00", "P00",
                                    "-")])
        p = tmp_path / "m.tsv"
        with pytest.raises(ValueError) as info:
            write_manifest(m, p)
        assert str(info.value) == (f"{p}: line 2: the cell {cell!r} holds a "
                                   f"tab or a line break")
        assert list(tmp_path.iterdir()) == []


# A valid two-row manifest, and one edit of it.
VALID_MANIFEST = (
    b"utt_id\taudio_path\tlabel\tspeaker_id\tphrase_id\tdevice_id\n"
    b"S00-P00-live\taudio/a.wav\tgenuine\tS00\tP00\t-\n"
    b"S00-P00-D01\taudio/b.wav\treplay\tS00\tP00\tD01\n")


def test_the_unedited_manifest_reads_back(edit_dir):
    p = edit_dir / "valid.tsv"
    p.write_bytes(VALID_MANIFEST)
    write_manifest(parse_manifest(p), p)
    assert p.read_bytes() == VALID_MANIFEST


@pytest.mark.filterwarnings("error")
@given(edit=one_byte_edits(VALID_MANIFEST, TEXT_TOKENS))
@settings(max_examples=250, deadline=None, derandomize=True)
def test_any_one_byte_edit_reads_back_or_raises_manifest_error(
        edit_dir, edit):
    p = edit_dir / "edited.tsv"
    p.write_bytes(edited(VALID_MANIFEST, edit))
    try:
        manifest = parse_manifest(p)
    except ManifestError:
        pass
    else:
        # What was accepted is a manifest that writes and reads back.
        q = edit_dir / "rewritten.tsv"
        write_manifest(manifest, q)
        assert parse_manifest(q).records == manifest.records


class TestDeviceProfile:
    def test_validates_cutoff_order(self):
        with pytest.raises(ValueError, match="low_cutoff_hz must be in"):
            DeviceProfile("D00", 40.0, 7000.0, (), 30.0)

    def test_validates_ripple_centers(self):
        with pytest.raises(ValueError, match="below 4000"):
            DeviceProfile("D00", 100.0, 7000.0, ((4500.0, 3.0),), 30.0)

    def test_json_roundtrip(self, tmp_path):
        profiles = [
            DeviceProfile("D00", 80.0, 7000.0, ((500.0, 3.0), (1500.0, -2.0)), 35.0),
            DeviceProfile("H00", 120.0, 6500.0, (), 28.0),
        ]
        p = tmp_path / "devices.json"
        save_device_profiles(profiles, p)
        # The fields of each profile in order; JSON turns ripple tuples
        # into lists.
        assert json.loads(p.read_text(encoding="utf-8")) == [
            {"device_id": "D00", "low_cutoff_hz": 80.0,
             "high_cutoff_hz": 7000.0,
             "ripple": [[500.0, 3.0], [1500.0, -2.0]], "snr_db": 35.0},
            {"device_id": "H00", "low_cutoff_hz": 120.0,
             "high_cutoff_hz": 6500.0, "ripple": [], "snr_db": 28.0},
        ]
        assert [list(d) for d in json.loads(p.read_text(encoding="utf-8"))] \
            == [[f.name for f in dataclasses.fields(DeviceProfile)]] * 2


def _tone(freq, seconds=0.5, amp=0.9):
    t = np.arange(int(seconds * SR)) / SR
    return AudioSignal(amp * np.sin(2 * np.pi * freq * t))


def _band_energy(signal, f_lo, f_hi):
    spec = power_spectrum(frame_signal(signal, 400, 160),
                          SpectrumWorkspace(400, 512))
    freqs = np.fft.rfftfreq(512, d=1.0 / SR)
    mask = (freqs >= f_lo) & (freqs < f_hi)
    return float(spec[:, mask].sum())


class TestReplayChannel:
    PROFILE = DeviceProfile("D00", 80.0, 6000.0, ((800.0, 3.0),), 40.0)

    def test_zero_in_zero_out(self):
        sig = AudioSignal(np.zeros(4000))
        out = oracles.apply_replay_channel(sig, self.PROFILE, seed=3)
        np.testing.assert_array_equal(out.samples, 0.0)

    def test_length_preserved(self):
        sig = _tone(440.0)
        out = oracles.apply_replay_channel(sig, self.PROFILE, seed=3)
        assert len(out) == len(sig)

    def test_seed_determinism(self):
        sig = _tone(440.0)
        a = oracles.apply_replay_channel(sig, self.PROFILE, seed=3)
        b = oracles.apply_replay_channel(sig, self.PROFILE, seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        sig = _tone(440.0)
        a = oracles.apply_replay_channel(sig, self.PROFILE, seed=3)
        b = oracles.apply_replay_channel(sig, self.PROFILE, seed=4)
        assert np.any(a.samples != b.samples)

    def test_high_tone_attenuated_at_least_20db(self):
        # 7 kHz tone against a 6 kHz high cutoff: band-pass roll-off plus
        # the shared high-shelf cut must remove >= 20 dB of band energy.
        sig = _tone(7000.0)
        out = oracles.apply_replay_channel(sig, self.PROFILE, seed=11)
        before = _band_energy(sig, 6800.0, 7200.0)
        after = _band_energy(out, 6800.0, 7200.0)
        assert 10.0 * np.log10(before / after) >= 20.0

    def test_peak_bounded(self):
        # Ripple gain can push a mid-band tone above the input peak.
        profile = DeviceProfile("D00", 80.0, 7400.0, ((1000.0, 6.0),), 40.0)
        sig = _tone(1000.0, amp=0.99)
        out = oracles.apply_replay_channel(sig, profile, seed=5)
        assert np.max(np.abs(out.samples)) <= 0.99

    @given(n=st.integers(min_value=0, max_value=2000),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_length_and_determinism_property(self, n, seed):
        rng = np.random.default_rng(n + 1)
        sig = AudioSignal(rng.uniform(-0.5, 0.5, size=n))
        a = oracles.apply_replay_channel(sig, self.PROFILE, seed)
        b = oracles.apply_replay_channel(sig, self.PROFILE, seed)
        assert len(a) == n
        np.testing.assert_array_equal(a.samples, b.samples)


class TestSynthCorpus:
    def test_counts(self):
        cfg = SynthConfig(n_speakers=2, n_phrases=2, n_train_devices=2,
                          n_heldout_devices=1, utt_seconds=0.5, reps=1)
        signals, manifest, profiles = synth_corpus(cfg, seed=1)
        assert len(manifest.genuine_records()) == 4
        assert len(manifest.replay_records()) == 12
        assert len(signals) == len(manifest)
        assert len(profiles) == 3

    def test_signals_are_sized_and_each_pass_gives_the_same_bytes(self):
        cfg = SynthConfig(n_speakers=2, n_phrases=1, n_train_devices=2,
                          n_heldout_devices=1, utt_seconds=0.5, reps=2)
        signals, manifest, _ = synth_corpus(cfg, seed=3)
        assert len(signals) == len(manifest) == 16
        first = [(rec, sig.samples.tobytes()) for rec, sig in signals]
        assert len(first) == 16
        assert [(rec, sig.samples.tobytes()) for rec, sig in signals] == first

    def test_stream_yields_every_manifest_row_once_genuine_then_by_device(
            self):
        cfg = SynthConfig(n_speakers=2, n_phrases=1, n_train_devices=2,
                          n_heldout_devices=3, utt_seconds=0.5, reps=2)
        signals, manifest, profiles = synth_corpus(cfg, seed=3)
        yielded = [rec for rec, _ in signals]
        # Every row once: the rows are unique, and as many as the manifest's.
        assert sorted(yielded, key=manifest.records.index) == manifest.records
        genuine = manifest.genuine_records()
        assert yielded[:len(genuine)] == genuine
        # Then one block per device, in profiles order, train devices
        # first, each block in genuine order.
        for d, profile in enumerate(profiles):
            block = yielded[len(genuine) * (1 + d):len(genuine) * (2 + d)]
            assert {rec.device_id for rec in block} == {profile.device_id}
            assert [rec.utt_id.rsplit("-", 1)[0] for rec in block] == \
                [rec.utt_id.rsplit("-", 1)[0] for rec in genuine]
        assert [p.device_id for p in profiles] == \
            ["D00", "D01", "H00", "H01", "H02"]

    def test_stream_holds_genuine_signals_and_one_replay(self):
        # A pass keeps each genuine signal's spectrum (as large as the
        # signal), one device response (half a signal) and one replay, so
        # its peak stays far below what an eager list of all signals
        # holds. 4 genuine utterances through 16 devices: 68 signals of
        # 64 kB. 1 genuine utterance through 16 devices: 17 signals, where
        # all 16 responses held at once would alone come to 47% of the
        # sum, and such a pass peaked at 87% of it; holding one at a time
        # peaks near 40%, mostly the synthesis's own temporaries.
        for n_speakers, n_phrases, share in ((2, 2, 1 / 3), (1, 1, 1 / 2)):
            cfg = SynthConfig(n_speakers=n_speakers, n_phrases=n_phrases,
                              n_train_devices=8, n_heldout_devices=8,
                              utt_seconds=0.5, reps=1)
            tracemalloc.start()
            try:
                signals, _, _ = synth_corpus(cfg, seed=1)
                total = 0
                for _, sig in signals:
                    total += sig.samples.nbytes
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert total == n_speakers * n_phrases * 17 * 8000 * 8
            assert peak < share * total, (n_speakers, n_phrases)

    def test_device_naming(self):
        cfg = SynthConfig(n_speakers=1, n_phrases=1, n_train_devices=1,
                          n_heldout_devices=1, utt_seconds=0.5, reps=1)
        _, manifest, profiles = synth_corpus(cfg, seed=1)
        assert manifest.device_ids() == ["D00", "H00"]
        assert [p.device_id for p in profiles] == ["D00", "H00"]

    def test_seed_determinism(self):
        cfg = SynthConfig(n_speakers=1, n_phrases=2, n_train_devices=1,
                          n_heldout_devices=1, utt_seconds=0.5, reps=1)
        sig_a, man_a, prof_a = synth_corpus(cfg, seed=9)
        sig_b, man_b, prof_b = synth_corpus(cfg, seed=9)
        assert man_a.records == man_b.records
        assert prof_a == prof_b
        for (rec_a, a), (rec_b, b) in zip(sig_a, sig_b, strict=True):
            assert rec_a == rec_b
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        cfg = SynthConfig(n_speakers=1, n_phrases=1, n_train_devices=1,
                          n_heldout_devices=1, utt_seconds=0.5, reps=1)
        sig_a, _, _ = synth_corpus(cfg, seed=9)
        sig_b, _, _ = synth_corpus(cfg, seed=10)
        assert np.any(next(iter(sig_a))[1].samples
                      != next(iter(sig_b))[1].samples)

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="invalid config"):
            SynthConfig(n_speakers=0)
        with pytest.raises(ValueError, match="utt_seconds"):
            SynthConfig(utt_seconds=0.1)

    @given(n_spk=st.integers(1, 3), n_phr=st.integers(1, 2),
           n_train=st.integers(1, 2), n_held=st.integers(1, 2),
           reps=st.integers(1, 2), seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_manifest_invariants_hold(self, n_spk, n_phr, n_train, n_held,
                                      reps, seed):
        cfg = SynthConfig(n_speakers=n_spk, n_phrases=n_phr,
                          n_train_devices=n_train, n_heldout_devices=n_held,
                          utt_seconds=0.5, reps=reps)
        signals, manifest, _ = synth_corpus(cfg, seed=seed)
        # Manifest/UtteranceMeta constructors enforce the invariants; the
        # counts confirm the generator's arithmetic.
        n_gen = n_spk * n_phr * reps
        assert len(manifest.genuine_records()) == n_gen
        assert len(manifest.replay_records()) == n_gen * (n_train + n_held)
        for _, sig in signals:
            assert np.max(np.abs(sig.samples)) < 1.0

    def test_replays_equal_the_public_channel(self):
        # synth_corpus shares one response per device and one spectrum per
        # genuine signal; each replay, found by the record it is yielded
        # with, must still be, bit for bit, what the per-signal channel
        # gives its genuine source through its device.
        cfg = SynthConfig(n_speakers=2, n_phrases=1, n_train_devices=1,
                          n_heldout_devices=2, utt_seconds=0.5, reps=1)
        seed = 4
        signals, manifest, profiles = synth_corpus(cfg, seed)
        by_id = {rec.utt_id: sig for rec, sig in signals}
        assert len(by_id) == len(manifest)
        checked = 0
        for g, source in enumerate(manifest.genuine_records()):
            for d, profile in enumerate(profiles):
                utt_id = f"{source.utt_id[:-len('-live')]}-{profile.device_id}"
                want = oracles.apply_replay_channel(
                    by_id[source.utt_id], profile, derive_seed(seed, 2, g, d))
                np.testing.assert_array_equal(by_id[utt_id].samples,
                                              want.samples)
                checked += 1
        assert checked == len(manifest.replay_records()) == 6

    def test_replay_cue_measurable_for_every_pair(self):
        cfg = SynthConfig(n_speakers=2, n_phrases=2, n_train_devices=2,
                          n_heldout_devices=2, utt_seconds=1.0, reps=1)
        signals, manifest, _ = synth_corpus(cfg, seed=123)
        by_id = {rec.utt_id: sig for rec, sig in signals}
        assert len(by_id) == len(manifest)
        for rec in manifest.replay_records():
            source_id = rec.utt_id.rsplit("-", 1)[0] + "-live"
            e_src = _band_energy(by_id[source_id], 6000.0, 8000.0)
            e_rep = _band_energy(by_id[rec.utt_id], 6000.0, 8000.0)
            assert e_rep < e_src, rec.utt_id


class TestHarmonicSum:
    @pytest.mark.parametrize("n", [1, HARMONIC_BLOCK - 1, HARMONIC_BLOCK + 1,
                                   8000, 160000])
    @pytest.mark.parametrize("f0", [95.0, 262.5])
    def test_matches_sine_table(self, f0, n):
        # Up to the 10 s SynthConfig maximum, at a low and a high pitch;
        # the error bound scales with the sum's largest possible value.
        rng = np.random.default_rng(3)
        freqs = np.arange(1, int((SR / 2 - 1.0) / f0) + 1) * f0
        amps = rng.uniform(0.05, 2.5, size=freqs.size)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=freqs.size)
        got = _harmonic_sum(amps, freqs, phases, n)
        want = oracles.harmonic_sum_table(amps, freqs, phases, n, SR)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-9 * np.abs(amps).sum())


class TestChannelGainLinkage:
    def test_power_gain_matches_measured_shift(self):
        # Broadband input: per-band output/input energy ratio should match
        # the channel's band-averaged power gain.
        rng = np.random.default_rng(5)
        sig = AudioSignal(rng.uniform(-0.5, 0.5, size=SR))
        profile = DeviceProfile("D00", 60.0, 7400.0, ((1200.0, 4.0),), 40.0)
        out = oracles.apply_replay_channel(sig, profile, seed=2)
        for f_lo, f_hi in [(1000.0, 1500.0), (3000.0, 4000.0),
                           (6200.0, 7000.0)]:
            ratio = _band_energy(out, f_lo, f_hi) / _band_energy(sig, f_lo, f_hi)
            centers = np.linspace(f_lo, f_hi, 200)
            predicted = float(np.mean(_amplitude_response(profile, centers) ** 2))
            assert abs(np.log(ratio) - np.log(predicted)) < 0.5
