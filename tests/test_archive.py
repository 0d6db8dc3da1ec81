import gc
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from replaykit.archive import (ArchiveReader, ArchiveWriter, FeatureArchive,
                               read_archive, write_archive)
from replaykit.errors import ArchiveFormatError
from replaykit.filterbank import FeatureKind, FeatureMatrix, WarpKind


def _fm(values, kind=FeatureKind.LOG_FBANK, warp=WarpKind.LINEAR):
    return FeatureMatrix(np.asarray(values, dtype=np.float64), kind, warp)


def _archive(entries, feature="fbank", bands=3):
    config = {"warp": "linear", "feature": feature, "bands": bands,
              "frame_len": 400, "hop": 160, "n_fft": 512}
    return FeatureArchive("L-Fbank", config, entries)


class TestRoundTrip:
    def test_empty_archive(self, tmp_path):
        p = tmp_path / "a.rpfa"
        write_archive(_archive({}), p)
        back = read_archive(p)
        assert back.entries == {}
        assert back.feature_kind == "L-Fbank"
        assert back.config["bands"] == 3

    def test_single_entry_exact_at_f32(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 26)).astype(np.float32).astype(np.float64)
        fm = FeatureMatrix(values, FeatureKind.CEPSTRA_DELTA, WarpKind.MEL)
        config = {"warp": "mel", "feature": "cepstra-delta", "bands": 23,
                  "frame_len": 400, "hop": 160, "n_fft": 512}
        p = tmp_path / "a.rpfa"
        write_archive(FeatureArchive("MFCC+D", config, {"utt1": fm}), p)
        back = read_archive(p)
        assert list(back.entries) == ["utt1"]
        got = back.entries["utt1"]
        assert got.kind is FeatureKind.CEPSTRA_DELTA
        assert got.warp_kind is WarpKind.MEL
        np.testing.assert_array_equal(got.values, values)

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
        data = self._valid_bytes(tmp_path)
        p = tmp_path / "v2.rpfa"
        p.write_bytes(data[:4] + struct.pack("<H", 2) + data[6:])
        with pytest.raises(ArchiveFormatError, match="version"):
            read_archive(p)

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
        p = tmp_path / "a.rpfa"
        write_archive(FeatureArchive("tag", {}, {}), p)
        read_archive(p)  # empty body: fine
        data = p.read_bytes()
        id_bytes = b"u1"
        entry = struct.pack("<H", len(id_bytes)) + id_bytes
        entry += struct.pack("<II", 1, 2) + np.zeros(2, "<f4").tobytes()
        p.write_bytes(data + entry)
        with pytest.raises(ArchiveFormatError, match="feature"):
            read_archive(p)

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
        write_archive(_archive({}, feature="cepstra"), p)
        p.write_bytes(p.read_bytes() + self._entry("u", 2, 5))
        with pytest.raises(ArchiveFormatError, match="'u'.*dim 13"):
            read_archive(p)

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
        (b'{"config": {"warp": "bogus"}, "feature_kind": "tag"}',
         "unknown warp kind 'bogus'"),
        (b"[]", "list indices"),
        (b'{"config": {}, "feature_kind": "\xff"}', "utf-8"),
    ])
    def test_bad_header(self, tmp_path, header, message):
        p = tmp_path / "a.rpfa"
        p.write_bytes(b"RPFA" + struct.pack("<HI", 1, len(header)) + header)
        with pytest.raises(ArchiveFormatError) as info:
            read_archive(p)
        assert str(info.value).startswith(f"{p}: bad header: ")
        assert message in str(info.value)

    def test_header_shorter_than_declared(self, tmp_path):
        p = tmp_path / "t.rpfa"
        p.write_bytes(b"RPFA" + struct.pack("<HI", 1, 50) + b"{}")
        with pytest.raises(ArchiveFormatError) as info:
            read_archive(p)
        assert str(info.value) == (f"{p}: truncated archive: needed 50 "
                                   f"bytes at offset 10, have 2")

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError, match="share"):
            FeatureArchive("tag", {}, {"a": _fm(np.ones((1, 2))),
                                       "b": _fm(np.ones((1, 3)))})


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
            assert reader.feature_kind == "L-Fbank"
            assert reader.config == _archive({}).config
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
        assert str(info.value) == (f"{p}: entry 'u2': archive entries must "
                                   f"share dim and kind, got dim 4 after 3")

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
        return ArchiveWriter(path, "L-Fbank", _archive({}).config)

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
        _fm(np.ones((2, 13)), kind=FeatureKind.CEPSTRA),
    ])
    def test_entries_share_dim_and_kind(self, tmp_path, second):
        with pytest.raises(ValueError, match="share dim and kind"):
            with self._writer(tmp_path / "a.rpfa") as writer:
                writer.add("u0", _fm(np.ones((2, 3))))
                writer.add("u1", second)
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate utterance id 'u0'"):
            with self._writer(tmp_path / "a.rpfa") as writer:
                writer.add("u0", _fm(np.ones((2, 3))))
                writer.add("u0", _fm(np.ones((1, 3))))
        assert list(tmp_path.iterdir()) == []

    def test_writer_never_closed_warns(self, tmp_path):
        # The test configuration turns this warning into a failure, so a
        # writer used outside `with` and left open fails the suite.
        writer = self._writer(tmp_path / "a.rpfa")
        with pytest.warns(ResourceWarning):
            del writer
            gc.collect()
