"""Binary feature archive (RPFA v2).

Layout, little-endian throughout:

    magic  b"RPFA"
    u16    format version (2)
    u32    header length, then that many bytes of UTF-8 JSON: the
           `ExtractionConfig.to_dict()` of every entry, and nothing else
    per entry, until end of file:
        u16   utterance id length, then the id bytes (UTF-8)
        u32   n_frames
        u32   dim, the config's `dim`
        n_frames * dim IEEE-754 float32, row-major

Reading is one scan, then reads, as with Kaldi's table readers over
`ark` files (Povey et al., ASRU 2011). Opening an `ArchiveReader` parses
the header and walks every entry's header once, seeking past the frames,
to record each id's offset and frame count. Bytes this layout cannot
hold, such as a header that is not an `ExtractionConfig` the extractor
accepts, a size past the end, an id that is not UTF-8 or repeats, or a
dim other than the config's, raise ArchiveFormatError then, before any
frame is read.
After the scan the reader reads entries one at a time, in file order or
by id, so a consumer holds one entry at a time beyond what it makes of
it; `read_archive` collects them all into an in-memory `FeatureArchive`.
Each entry's values are checked as they are read, and a NaN or ±inf
raises ArchiveFormatError; `ArchiveWriter` refuses to write one. Since
the layout is checked at open, the values at each read, and every
command writes its output only after its last read, a command that
reads an archive stays all-or-nothing: a malformed archive fails it
before it writes anything.

Nothing in the layout marks the last entry, so an archive cut at an entry
boundary reads back as a valid, shorter one. Writes therefore go to the
archive's partial file, one entry at a time through `ArchiveWriter`, which
moves it to `path` only when the writer exits cleanly, as every output of
replaykit is moved (see `replaykit._files`): a file at an archive's path
is complete. `write_archive` writes an in-memory `FeatureArchive` the same
way; `run_study` and `replaykit extract` stream their archives through
writers and never hold a whole archive.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._files import existing_file, output_file
from .errors import ArchiveFormatError
from .filterbank import ExtractionConfig, FeatureMatrix

MAGIC = b"RPFA"
VERSION = 2
MAX_ID_BYTES = 0xFFFF  # the u16 id length field


@dataclass
class FeatureArchive:
    """Per-utterance feature matrices of one extraction config."""

    config: ExtractionConfig
    entries: dict[str, FeatureMatrix] = field(default_factory=dict)


class ArchiveWriter:
    """Writes an RPFA archive one entry at a time, as a context manager:
    through `output_file(path)`, so that a clean exit from the `with`
    block moves it to `path` and any failure deletes it.
    Each entry must be of the config's kind and dim, and an id may
    appear once, in at most MAX_ID_BYTES bytes of UTF-8."""

    def __init__(self, path, config: ExtractionConfig):
        self.path = Path(path)
        self.config = config
        header = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
        self._output = output_file(self.path, "wb")
        self._fh = self._output.__enter__()
        self._fh.write(MAGIC + struct.pack("<HI", VERSION, len(header))
                       + header)
        self._ids: set[str] = set()

    def add(self, utt_id: str, fm: FeatureMatrix) -> None:
        c = self.config
        if (fm.kind, fm.dim) != (c.feature, c.dim):
            raise ValueError(f"utterance {utt_id!r}: {fm.kind} and dim "
                             f"{fm.dim} contradict the archive's "
                             f"{c.feature} and dim {c.dim}")
        if utt_id in self._ids:
            raise ValueError(f"duplicate utterance id {utt_id!r}")
        id_bytes = utt_id.encode("utf-8")
        if len(id_bytes) > MAX_ID_BYTES:
            raise ValueError(f"utterance id {utt_id[:40]!r}... is "
                             f"{len(id_bytes)} bytes as UTF-8, more than the "
                             f"{MAX_ID_BYTES} its length field holds")
        # A value beyond float32's range becomes inf in the cast, and is
        # refused with NaN and inf.
        with np.errstate(over="ignore"):
            values = np.ascontiguousarray(fm.values, dtype="<f4")
        if not np.isfinite(values).all():
            raise ValueError(f"utterance {utt_id!r}: feature values must be "
                             f"finite as float32")
        self._ids.add(utt_id)
        self._fh.write(struct.pack("<H", len(id_bytes)) + id_bytes
                       + struct.pack("<II", fm.n_frames, fm.dim))
        self._fh.write(values)

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._output.__exit__(exc_type, exc, tb)


def write_archive(archive: FeatureArchive, path) -> None:
    with ArchiveWriter(path, archive.config) as writer:
        for utt_id, fm in archive.entries.items():
            writer.add(utt_id, fm)


class ArchiveReader:
    """Reads an RPFA archive one entry at a time, as a context manager (or
    call `close`); see the module docstring.

    Opening checks the whole file and records `config`, the header's
    `ExtractionConfig`, and `frame_counts`, each id's frame count in file
    order. Iterating yields (utt_id, FeatureMatrix) pairs in file order;
    `read` gives one
    entry by id and `values` its frames as stored, float32. Each call
    reads the file again, so nothing read is kept here.
    """

    def __init__(self, path):
        self.path = existing_file(path)
        self._fh = open(self.path, "rb")
        try:
            self._size = os.fstat(self._fh.fileno()).st_size
            self._scan()
        except BaseException:
            self._fh.close()
            raise

    def _scan(self) -> None:
        path = self.path
        magic = self._take(4)
        if magic != MAGIC:
            raise ArchiveFormatError(f"{path}: bad magic {magic!r}")
        (version,) = struct.unpack("<H", self._take(2))
        if version != VERSION:
            raise ArchiveFormatError(f"{path}: unsupported version {version}")
        (header_len,) = struct.unpack("<I", self._take(4))
        header_bytes = self._take(header_len)
        try:
            self.config = ExtractionConfig.from_dict(
                json.loads(header_bytes.decode("utf-8")))
        except ValueError as exc:
            raise ArchiveFormatError(f"{path}: bad header: {exc}") from exc

        self._offsets: dict[str, int] = {}  # of each id's frames
        self.frame_counts: dict[str, int] = {}
        while self._fh.tell() < self._size:
            (id_len,) = struct.unpack("<H", self._take(2))
            try:
                utt_id = self._take(id_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ArchiveFormatError(
                    f"{path}: utterance id is not UTF-8 ({exc})") from exc
            n_frames, dim = struct.unpack("<II", self._take(8))
            offset = self._need(4 * n_frames * dim)
            self._fh.seek(4 * n_frames * dim, os.SEEK_CUR)
            if utt_id in self._offsets:
                raise ArchiveFormatError(
                    f"{path}: duplicate utterance id {utt_id!r}")
            if dim != self.config.dim:
                raise ArchiveFormatError(
                    f"{path}: entry {utt_id!r} has dim {dim}, but the "
                    f"config's features have dim {self.config.dim}")
            self._offsets[utt_id] = offset
            self.frame_counts[utt_id] = n_frames

    def _need(self, count: int) -> int:
        """The file position, once it is known that `count` bytes follow
        it."""
        pos = self._fh.tell()
        if pos + count > self._size:
            raise ArchiveFormatError(
                f"{self.path}: truncated archive: needed {count} bytes at "
                f"offset {pos}, have {self._size - pos}")
        return pos

    def _take(self, count: int) -> bytes:
        self._need(count)
        return self._fh.read(count)

    def values(self, utt_id: str) -> np.ndarray:
        """The entry's (n_frames, dim) frames as stored, float32; KeyError
        if the archive has no such id, ArchiveFormatError if a stored
        value is NaN or ±inf (checked before any cast, which would warn on
        a signalling NaN)."""
        offset = self._offsets[utt_id]
        out = np.empty((self.frame_counts[utt_id], self.config.dim), "<f4")
        self._fh.seek(offset)
        got = self._fh.readinto(out.reshape(-1).view(np.uint8)) \
            if out.size else 0
        if got != out.nbytes:
            raise ArchiveFormatError(
                f"{self.path}: truncated archive: needed {out.nbytes} bytes "
                f"at offset {offset}, have {got}")
        if not np.isfinite(out).all():
            raise ArchiveFormatError(
                f"{self.path}: entry {utt_id!r} holds non-finite values")
        return out

    def read(self, utt_id: str) -> FeatureMatrix:
        """The entry as a float64 `FeatureMatrix`, exact to the stored
        float32 values."""
        return FeatureMatrix(self.values(utt_id).astype(np.float64),
                             self.config.feature)

    def __iter__(self) -> Iterator[tuple[str, FeatureMatrix]]:
        for utt_id in self._offsets:
            yield utt_id, self.read(utt_id)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ArchiveReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_archive(path) -> FeatureArchive:
    """Every entry of the archive at `path`, in file order, in memory as
    float64: an `ArchiveReader` collected."""
    with ArchiveReader(path) as reader:
        return FeatureArchive(reader.config, dict(reader))
