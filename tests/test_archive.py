import gc
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from byte_edits import TEXT_TOKENS, edited, one_byte_edits

from replaykit.archive import (VERSION, ArchiveReader, ArchiveWriter,
                               FeatureArchive, read_archive, write_archive)
from replaykit.errors import ArchiveFormatError
from replaykit.filterbank import (ExtractionConfig, FeatureKind, FeatureMatrix,
                                  WarpKind)


def _fm(values, kind=FeatureKind.LOG_FBANK, warp=WarpKind.LINEAR):
    return FeatureMatrix(np.asarray(values, dtype=np.float64), kind, warp)


def _config(feature=FeatureKind.LOG_FBANK, bands=3, warp=WarpKind.LINEAR):
    return ExtractionConfig(warp, feature, bands)


def _archive(entries, feature=FeatureKind.LOG_FBANK, bands=3):
    return FeatureArchive(_config(feature, bands), entries)


def _header_only(header: bytes) -> bytes:
    """An archive of this version with these header bytes and no entry."""
    return b"RPFA" + struct.pack("<HI", VERSION, len(header)) + header


def _config_header(**changes) -> bytes:
    """The JSON header of `_config()`, with keys changed or, set to
    None, removed."""
    doc = {**_config().to_dict(), **changes}
    return json.dumps({k: v for k, v in doc.items()
                       if v is not None}).encode()


class TestRoundTrip:
    def test_empty_archive(self, tmp_path):
        p = tmp_path / "a.rpfa"
        write_archive(_archive({}), p)
        back = read_archive(p)
        assert back.entries == {}
        assert back.config == _config()

    def test_single_entry_exact_at_f32(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 26)).astype(np.float32).astype(np.float64)
        fm = FeatureMatrix(values, FeatureKind.CEPSTRA_DELTA, WarpKind.MEL)
        config = ExtractionConfig(WarpKind.MEL, FeatureKind.CEPSTRA_DELTA)
        p = tmp_path / "a.rpfa"
        write_archive(FeatureArchive(config, {"utt1": fm}), p)
        back = read_archive(p)
        assert list(back.entries) == ["utt1"]
        got = back.entries["utt1"]
        assert got.kind is FeatureKind.CEPSTRA_DELTA
        assert got.warp_kind is WarpKind.MEL
        np.testing.assert_array_equal(got.values, values)
        assert back.config == config

    def test_the_header_is_the_config_alone(self, tmp_path):
        # The config is the one description of the entries: no tag beside
        # it (such as IMFCC+D over Mel log-Fbank) can disagree with it.
        config = ExtractionConfig(WarpKind.MEL, FeatureKind.LOG_FBANK)
        p = tmp_path / "a.rpfa"
        write_archive(FeatureArchive(config, {"u": _fm(
            np.ones((1, 23)), warp=WarpKind.MEL)}), p)
        data = p.read_bytes()
        (length,) = struct.unpack("<I", data[6:10])
        assert data[:6] == b"RPFA" + struct.pack("<H", 2)
        assert data[10:10 + length] == json.dumps(
            config.to_dict(), sort_keys=True).encode()
        with ArchiveReader(p) as reader:
            assert reader.config == config
            assert reader.read("u").warp_kind is WarpKind.MEL

    def test_multiple_entries_preserve_order_and_shapes(self, tmp_path):
        rng = np.random.default_rng(1)
        entries = {f"u{i:02d}": _fm(rng.normal(size=(i + 1, 3)))
                   for i in range(5)}
        p = tmp_path / "a.rpfa"
        write_archive(_archive(entries), p)
        back = read_archive(p)
        assert list(back.entries) == list(entries)
        for utt_id, fm in entries.items():
            at_f32 = fm.values.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(back.entries[utt_id].values, at_f32)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        entries = {"a": _fm(rng.normal(size=(4, 3))),
                   "b": _fm(rng.normal(size=(2, 3)))}
        p1 = tmp_path / "a.rpfa"
        p2 = tmp_path / "b.rpfa"
        write_archive(_archive(entries), p1)
        write_archive(read_archive(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(shapes=st.lists(
        st.tuples(st.text(min_size=1, max_size=12),
                  st.integers(0, 6), st.integers(1, 5)),
        max_size=5, unique_by=lambda t: t[0]))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, shapes, tmp_path_factory):
        rng = np.random.default_rng(42)
        entries = {}
        dim = shapes[0][2] if shapes else 1
        for utt_id, n_frames, _ in shapes:
            entries[utt_id] = _fm(rng.normal(size=(n_frames, dim)))
        p = tmp_path_factory.mktemp("arch") / "a.rpfa"
        write_archive(_archive(entries, bands=dim), p)
        back = read_archive(p)
        assert list(back.entries) == list(entries)
        for utt_id, fm in entries.items():
            np.testing.assert_array_equal(
                back.entries[utt_id].values,
                fm.values.astype(np.float32).astype(np.float64))


class TestFormatGuards:
    def _valid_bytes(self, tmp_path):
        p = tmp_path / "a.rpfa"
        write_archive(_archive({"u": _fm(np.ones((2, 3)))}), p)
        return p.read_bytes()

    def test_bad_magic(self, tmp_path):
        data = self._valid_bytes(tmp_path)
        p = tmp_path / "bad.rpfa"
        p.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(ArchiveFormatError, match="magic"):
            read_archive(p)

    def test_unsupported_version(self, tmp_path):
        # Version 1 headers carried a tag beside the config.
        data = self._valid_bytes(tmp_path)
        p = tmp_path / "other.rpfa"
        for version in (1, VERSION + 1):
            p.write_bytes(data[:4] + struct.pack("<H", version) + data[6:])
            with pytest.raises(ArchiveFormatError) as info:
                read_archive(p)
            assert str(info.value) == f"{p}: unsupported version {version}"

    def test_truncated_body(self, tmp_path):
        data = self._valid_bytes(tmp_path)
        p = tmp_path / "cut.rpfa"
        p.write_bytes(data[:-5])
        with pytest.raises(ArchiveFormatError, match="truncated"):
            read_archive(p)

    def test_truncated_header(self, tmp_path):
        data = self._valid_bytes(tmp_path)
        p = tmp_path / "cut.rpfa"
        p.write_bytes(data[:8])
        with pytest.raises(ArchiveFormatError, match="truncated"):
            read_archive(p)

    def test_entries_need_feature_config(self, tmp_path):
        # A header without a config is refused at open, with no entry too.
        p = tmp_path / "a.rpfa"
        for body in (b"", self._entry("u1", 1, 2)):
            p.write_bytes(_header_only(b"{}") + body)
            with pytest.raises(ArchiveFormatError) as info:
                read_archive(p)
            assert str(info.value).startswith(
                f"{p}: bad header: expected an object with the keys ")

    def _entry(self, utt_id, n_frames, dim):
        id_bytes = utt_id.encode()
        return (struct.pack("<H", len(id_bytes)) + id_bytes
                + struct.pack("<II", n_frames, dim)
                + np.zeros(n_frames * dim, "<f4").tobytes())

    def test_duplicate_utterance_id(self, tmp_path):
        p = tmp_path / "a.rpfa"
        write_archive(_archive({}), p)
        p.write_bytes(p.read_bytes() + self._entry("u", 1, 3)
                      + self._entry("u", 2, 3))
        with pytest.raises(ArchiveFormatError, match="duplicate.*'u'"):
            read_archive(p)

    def test_entry_dim_contradicts_feature_kind(self, tmp_path):
        p = tmp_path / "a.rpfa"
        write_archive(_archive({}, feature=FeatureKind.CEPSTRA_DELTA,
                               bands=23), p)
        p.write_bytes(p.read_bytes() + self._entry("u", 2, 5))
        with pytest.raises(ArchiveFormatError) as info:
            read_archive(p)
        assert str(info.value) == (f"{p}: entry 'u' has dim 5, but the "
                                   f"config's features have dim 26")

    def test_entry_of_another_dim_than_the_bands_fails_at_open(
            self, tmp_path):
        # A 40-dim entry, such as 40-band inverted-Mel log-Fbank, in an
        # archive of 23-band Mel log-Fbank: refused, not read back as Mel.
        p = tmp_path / "a.rpfa"
        config = ExtractionConfig(WarpKind.MEL, FeatureKind.LOG_FBANK)
        write_archive(FeatureArchive(config, {}), p)
        p.write_bytes(p.read_bytes() + self._entry("u", 2, 40))
        with pytest.raises(ArchiveFormatError) as info:
            ArchiveReader(p)
        assert str(info.value) == (f"{p}: entry 'u' has dim 40, but the "
                                   f"config's features have dim 23")

    def test_unknown_feature_kind_with_entries(self, tmp_path):
        # A kind the reader does not know, such as cepstra without their
        # deltas, is refused at open, with or without entries.
        p = tmp_path / "a.rpfa"
        for body in (b"", self._entry("u", 2, 13)):
            p.write_bytes(_header_only(_config_header(feature="mfcc")) + body)
            with pytest.raises(ArchiveFormatError) as info:
                read_archive(p)
            assert str(info.value) == (f"{p}: bad header: 'mfcc' is not a "
                                       f"valid FeatureKind")

    def test_utterance_id_not_utf8(self, tmp_path):
        p = tmp_path / "a.rpfa"
        write_archive(_archive({}), p)
        entry = (struct.pack("<H", 2) + b"u\xff" + struct.pack("<II", 1, 3)
                 + np.zeros(3, "<f4").tobytes())
        p.write_bytes(p.read_bytes() + entry)
        with pytest.raises(ArchiveFormatError) as info:
            read_archive(p)
        assert str(info.value).startswith(f"{p}: utterance id is not UTF-8 (")

    @pytest.mark.parametrize("header, message", [
        pytest.param(json.dumps({"config": _config().to_dict(),
                                 "feature_kind": "L-Fbank"}).encode(),
                     "expected an object with the keys ", id="tag-and-config"),
        pytest.param(b"[]", "expected an object with the keys ",
                     id="not-an-object"),
        pytest.param(b'{"warp": "\xff"}', "utf-8", id="not-utf-8"),
        pytest.param(_config_header(warp="bogus"),
                     "unknown warp kind 'bogus'", id="unknown-warp"),
        pytest.param(_config_header(delta_window=None),
                     "expected an object with the keys ", id="missing-key"),
        pytest.param(_config_header(extra=1),
                     "expected an object with the keys ", id="extra-key"),
        pytest.param(_config_header(bands=23.0), "must be integers",
                     id="float-count"),
        pytest.param(_config_header(delta_window=True), "must be integers",
                     id="bool-count"),
        pytest.param(_config_header(hop=0, n_fft=300),
                     "invalid framing: need 0 < hop <= frame_len, got hop=0",
                     id="hop-0-n_fft-300"),
        pytest.param(_config_header(n_fft=768),
                     "n_fft must be a power of two, got 768", id="n_fft-768"),
        pytest.param(_config_header(feature="cepstra-delta", bands=12),
                     "need at least 13 bands, got 12", id="cepstra-12-bands"),
    ])
    def test_bad_header(self, tmp_path, header, message):
        # A header the extractor would refuse fails at open, with no entry.
        p = tmp_path / "a.rpfa"
        p.write_bytes(_header_only(header))
        with pytest.raises(ArchiveFormatError) as info:
            read_archive(p)
        assert str(info.value).startswith(f"{p}: bad header: ")
        assert message in str(info.value)

    def test_header_shorter_than_declared(self, tmp_path):
        p = tmp_path / "t.rpfa"
        p.write_bytes(b"RPFA" + struct.pack("<HI", VERSION, 50) + b"{}")
        with pytest.raises(ArchiveFormatError) as info:
            read_archive(p)
        assert str(info.value) == (f"{p}: truncated archive: needed 50 "
                                   f"bytes at offset 10, have 2")

    def test_mixed_dims_rejected(self, tmp_path):
        # An in-memory archive holds what it is given; writing it checks
        # each entry against its config, and leaves no file.
        archive = _archive({"a": _fm(np.ones((1, 3))),
                            "b": _fm(np.ones((1, 2)))})
        with pytest.raises(ValueError, match="'b'.*contradict"):
            write_archive(archive, tmp_path / "a.rpfa")
        assert list(tmp_path.iterdir()) == []


class TestArchiveReader:
    def _written(self, tmp_path):
        rng = np.random.default_rng(3)
        entries = {f"u{i}": _fm(rng.normal(size=(n, 3)))
                   for i, n in enumerate((4, 0, 2, 5))}
        p = tmp_path / "a.rpfa"
        write_archive(_archive(entries), p)
        return p, entries

    def test_reads_in_file_order_or_by_id(self, tmp_path):
        p, entries = self._written(tmp_path)
        whole = read_archive(p).entries
        with ArchiveReader(p) as reader:
            assert reader.config == _config()
            assert reader.frame_counts == {u: fm.n_frames
                                           for u, fm in entries.items()}
            assert [u for u, _ in reader] == list(entries)
            for utt_id in reversed(list(entries)):
                stored = reader.values(utt_id)
                assert stored.dtype == np.dtype("<f4")
                np.testing.assert_array_equal(
                    stored, entries[utt_id].values.astype(np.float32))
                fm = reader.read(utt_id)
                assert fm.kind is FeatureKind.LOG_FBANK
                assert fm.warp_kind is WarpKind.LINEAR
                np.testing.assert_array_equal(fm.values,
                                              whole[utt_id].values)
            with pytest.raises(KeyError):
                reader.read("nope")

    def test_mixed_dims_rejected_at_open(self, tmp_path):
        p = tmp_path / "a.rpfa"
        write_archive(_archive({"u0": _fm(np.ones((2, 3))),
                                "u1": _fm(np.ones((1, 3)))}), p)
        data = p.read_bytes()
        id_bytes = b"u2"
        p.write_bytes(data + struct.pack("<H", 2) + id_bytes
                      + struct.pack("<II", 1, 4)
                      + np.zeros(4, "<f4").tobytes())
        with pytest.raises(ArchiveFormatError) as info:
            ArchiveReader(p)
        assert str(info.value) == (f"{p}: entry 'u2' has dim 4, but the "
                                   f"config's features have dim 3")

    def test_failed_scan_closes_the_file(self, tmp_path):
        p, _ = self._written(tmp_path)
        p.write_bytes(p.read_bytes()[:-1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ArchiveFormatError, match="truncated"):
                ArchiveReader(p)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_file_cut_after_open(self, tmp_path):
        p, entries = self._written(tmp_path)
        data = p.read_bytes()
        with ArchiveReader(p) as reader:
            p.write_bytes(data[:-4])
            with pytest.raises(ArchiveFormatError) as info:
                reader.read("u3")
        assert str(info.value).startswith(f"{p}: truncated archive: needed "
                                          f"60 bytes at offset ")
        assert str(info.value).endswith(", have 56")


class TestArchiveWriter:
    def _writer(self, path):
        return ArchiveWriter(path, _config())

    def test_file_appears_at_path_only_on_clean_exit(self, tmp_path):
        p = tmp_path / "sub" / "a.rpfa"
        partial = tmp_path / "sub" / "a.rpfa.partial"
        entries = {"u0": _fm(np.ones((2, 3))), "u1": _fm(np.zeros((0, 3)))}
        with self._writer(p) as writer:
            for utt_id, fm in entries.items():
                writer.add(utt_id, fm)
            assert partial.is_file() and not p.exists()
        assert p.is_file() and not partial.exists()
        want = tmp_path / "want.rpfa"
        write_archive(_archive(entries), want)
        assert p.read_bytes() == want.read_bytes()

    def test_exception_removes_partial_and_keeps_old_file(self, tmp_path):
        p = tmp_path / "a.rpfa"
        p.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="mid-pass"):
            with self._writer(p) as writer:
                writer.add("u0", _fm(np.ones((2, 3))))
                raise RuntimeError("mid-pass")
        assert p.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [p]

    def test_entry_boundary_cut_reads_as_shorter_archive(self, tmp_path):
        # Why a partial file must never sit at the target path: nothing in
        # the layout marks the last entry, so a cut archive is still valid.
        p = tmp_path / "a.rpfa"
        write_archive(_archive({"u0": _fm(np.ones((2, 3))),
                                "u1": _fm(np.ones((4, 3)))}), p)
        p.write_bytes(p.read_bytes()[:-(2 + 2 + 8 + 4 * 4 * 3)])
        assert list(read_archive(p).entries) == ["u0"]

    @pytest.mark.parametrize("second", [
        _fm(np.ones((2, 4))),
        _fm(np.ones((2, 26)), kind=FeatureKind.CEPSTRA_DELTA),
    ])
    def test_entries_share_dim_and_kind(self, tmp_path, second):
        # Every entry is of the config's dim and kind, so all share them.
        with pytest.raises(ValueError, match="'u1'.*contradict"):
            with self._writer(tmp_path / "a.rpfa") as writer:
                writer.add("u0", _fm(np.ones((2, 3))))
                writer.add("u1", second)
        assert list(tmp_path.iterdir()) == []

    def test_refuses_an_entry_of_another_warp_and_dim(self, tmp_path):
        # 40-band inverted-Mel log-Fbank under a 23-band Mel config.
        config = ExtractionConfig(WarpKind.MEL, FeatureKind.LOG_FBANK)
        with pytest.raises(ValueError) as info:
            with ArchiveWriter(tmp_path / "a.rpfa", config) as writer:
                writer.add("u", _fm(np.ones((2, 40)),
                                    warp=WarpKind.INVERTED_MEL))
        assert str(info.value) == (
            "utterance 'u': FeatureKind.LOG_FBANK, WarpKind.INVERTED_MEL and "
            "dim 40 contradict the archive's FeatureKind.LOG_FBANK, "
            "WarpKind.MEL and dim 23")
        assert list(tmp_path.iterdir()) == []

    def test_refuses_an_fbank_entry_under_a_cepstra_config(self, tmp_path):
        # A 26-band log-Fbank entry has the dim of cepstra with deltas but
        # not their kind, which the reader could not tell from the bytes.
        config = ExtractionConfig(WarpKind.MEL, FeatureKind.CEPSTRA_DELTA)
        with pytest.raises(ValueError, match="'u': FeatureKind.LOG_FBANK"):
            with ArchiveWriter(tmp_path / "a.rpfa", config) as writer:
                writer.add("u", _fm(np.ones((2, 26)), warp=WarpKind.MEL))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("config", [
        _config(), ExtractionConfig(WarpKind.MEL, FeatureKind.CEPSTRA_DELTA),
    ], ids=["linear-fbank-3", "mel-cepstra-delta"])
    def test_what_it_writes_reads_back_as_written(self, tmp_path, config):
        # Every entry the writer takes reads back with its kind, warp and
        # values; the others are refused before a byte of them is written.
        p = tmp_path / "a.rpfa"
        written = {}
        with ArchiveWriter(p, config) as writer:
            for kind in FeatureKind:
                for warp in (*WarpKind, None):
                    for dim in (2, 3, 26):
                        if kind is FeatureKind.CEPSTRA_DELTA and dim != 26:
                            continue
                        utt_id = f"{kind.value}-{warp}-{dim}"
                        fm = _fm(np.full((2, dim), 0.5), kind, warp)
                        try:
                            writer.add(utt_id, fm)
                        except ValueError:
                            continue
                        written[utt_id] = fm
        assert len(written) == 1
        with ArchiveReader(p) as reader:
            back = dict(reader)
        assert list(back) == list(written)
        for utt_id, fm in written.items():
            assert (back[utt_id].kind, back[utt_id].warp_kind) == \
                (fm.kind, fm.warp_kind)
            np.testing.assert_array_equal(back[utt_id].values, fm.values)

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate utterance id 'u0'"):
            with self._writer(tmp_path / "a.rpfa") as writer:
                writer.add("u0", _fm(np.ones((2, 3))))
                writer.add("u0", _fm(np.ones((1, 3))))
        assert list(tmp_path.iterdir()) == []

    def test_id_longer_than_its_length_field_rejected(self, tmp_path):
        # An id's UTF-8 length is stored in a u16: 65,535 bytes fit, and
        # one more is refused before any byte of its entry is written, so
        # the writer goes on to a valid archive.
        p = tmp_path / "a.rpfa"
        longest = "a" * 0xFFFF
        too_long = "\u00e9" * 0x8000  # 32,768 characters, 65,536 bytes
        with self._writer(p) as writer:
            writer.add("u0", _fm(np.ones((2, 3))))
            with pytest.raises(ValueError) as info:
                writer.add(too_long, _fm(np.ones((1, 3))))
            writer.add(longest, _fm(np.full((1, 3), 2.0)))
        assert str(info.value) == (
            f"utterance id {too_long[:40]!r}... is 65536 bytes as UTF-8, "
            f"more than the 65535 its length field holds")
        back = read_archive(p)
        assert list(back.entries) == ["u0", longest]
        np.testing.assert_array_equal(back.entries[longest].values, 2.0)

    def test_writer_never_closed_warns(self, tmp_path):
        # The test configuration turns this warning into a failure, so a
        # writer used outside `with` and left open fails the suite.
        writer = self._writer(tmp_path / "a.rpfa")
        with pytest.warns(ResourceWarning):
            del writer
            gc.collect()

    def test_non_finite_matrix_refused_naming_the_utterance(self, tmp_path):
        # 1e39 is finite as float64 but beyond float32's range. A refused
        # matrix writes nothing.
        p = tmp_path / "a.rpfa"
        with self._writer(p) as writer:
            for bad in (np.nan, np.inf, -np.inf, 1e39):
                values = np.ones((2, 3))
                values[1, 2] = bad
                with pytest.raises(ValueError) as info:
                    writer.add("u0", _fm(values))
                assert str(info.value) == ("utterance 'u0': feature values "
                                           "must be finite as float32")
            writer.add("u0", _fm(np.ones((1, 3))))
        entries = read_archive(p).entries
        assert list(entries) == ["u0"]
        np.testing.assert_array_equal(entries["u0"].values, np.ones((1, 3)))


class TestNonFiniteStoredValues:
    """A stored NaN or ±inf fails the read of its entry with
    ArchiveFormatError, and no cast warns first: a signalling NaN warns
    `invalid value encountered in cast` when converted to float64."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7FA00000, 0x7F800000,
                                      0xFF800000],
                             ids=["quiet-nan", "signalling-nan", "inf",
                                  "minus-inf"])
    def test_read_raises_for_the_entry(self, tmp_path, bits):
        p = tmp_path / "a.rpfa"
        write_archive(_archive({"u0": _fm(np.ones((2, 3))),
                                "u1": _fm(np.ones((4, 3)))}), p)
        data = bytearray(p.read_bytes())
        # The last float32 of u1, the file's last entry.
        data[-4:] = struct.pack("<I", bits)
        p.write_bytes(bytes(data))
        with ArchiveReader(p) as reader:
            np.testing.assert_array_equal(reader.read("u0").values, 1.0)
            for read in (reader.values, reader.read):
                with pytest.raises(ArchiveFormatError) as info:
                    read("u1")
                assert str(info.value) == (f"{p}: entry 'u1' holds "
                                           f"non-finite values")


# A valid two-entry archive, laid out by hand, and one edit of it.
_EDIT_HEADER = (b'{"bands": 3, "delta_window": 2, "feature": "fbank", '
                b'"frame_len": 400, "hop": 160, "n_fft": 512, '
                b'"warp": "linear"}')
_EDIT_VALUES = {"a": np.arange(6, dtype="<f4").reshape(2, 3) / 4,
                "b": np.full((1, 3), -1.5, dtype="<f4")}
VALID_ARCHIVE = (b"RPFA" + struct.pack("<HI", 2, len(_EDIT_HEADER))
                 + _EDIT_HEADER
                 + b"".join(struct.pack("<H", len(u)) + u.encode()
                            + struct.pack("<II", *v.shape) + v.tobytes()
                            for u, v in _EDIT_VALUES.items()))


@pytest.fixture(scope="module")
def edit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("archive_edits")


def test_the_unedited_archive_is_what_the_writer_writes(edit_dir):
    p = edit_dir / "valid.rpfa"
    with ArchiveWriter(p, _config()) as writer:
        for utt_id, values in _EDIT_VALUES.items():
            writer.add(utt_id, _fm(values))
    assert p.read_bytes() == VALID_ARCHIVE


@pytest.mark.filterwarnings("error")
@given(edit=one_byte_edits(VALID_ARCHIVE, TEXT_TOKENS))
@settings(max_examples=250, deadline=None, derandomize=True)
def test_any_one_byte_edit_reads_back_or_raises_archive_format_error(
        edit_dir, edit):
    p = edit_dir / "edited.rpfa"
    p.write_bytes(edited(VALID_ARCHIVE, edit))
    try:
        with ArchiveReader(p) as reader:
            entries = list(reader)
    except ArchiveFormatError as exc:
        assert str(exc).startswith(f"{p}: ")
    else:
        assert [u for u, _ in entries] == list(reader.frame_counts)
        for utt_id, fm in entries:
            assert fm.n_frames == reader.frame_counts[utt_id]
            assert (fm.kind, fm.warp_kind, fm.dim) == (
                reader.config.feature, reader.config.warp, reader.config.dim)
            assert np.isfinite(fm.values).all()
