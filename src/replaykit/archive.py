"""Binary feature archive (RPFA v1).

Layout, little-endian throughout:

    magic  b"RPFA"
    u16    format version (1)
    u32    header length, then that many bytes of UTF-8 JSON carrying
           {"feature_kind": ..., "config": {...}}
    per entry, until end of file:
        u16   utterance id length, then the id bytes (UTF-8)
        u32   n_frames
        u32   dim
        n_frames * dim IEEE-754 float32, row-major

Reading is one scan, then reads, as with Kaldi's table readers over
`ark` files (Povey et al., ASRU 2011). Opening an `ArchiveReader` parses
the header and walks every entry's header once, seeking past the frames,
to record each id's offset and frame count. Bytes this layout cannot
hold, such as a size past the end, an id that is not UTF-8 or repeats,
or a dim that the header's feature kind forbids or the first entry
contradicts, raise ArchiveFormatError then, before any frame is read.
After the scan the reader reads entries one at a time, in file order or
by id, so a consumer holds one entry at a time beyond what it makes of
it; `read_archive` collects them all into an in-memory `FeatureArchive`.
Since every check runs at open, a command that reads an archive stays
all-or-nothing: a malformed archive fails it before it writes anything.

Nothing in the layout marks the last entry, so an archive cut at an entry
boundary reads back as a valid, shorter one. Writes therefore go to
`<path>.partial`, one entry at a time through `ArchiveWriter`, and the
file is renamed to `path` only when the writer exits cleanly: a file at an
archive's path is complete. `write_archive` writes an in-memory
`FeatureArchive` the same way; `run_study` and `replaykit extract` stream
their archives through writers and never hold a whole archive.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArchiveFormatError, existing_file
from .filterbank import FeatureKind, FeatureMatrix, WarpKind

MAGIC = b"RPFA"
VERSION = 1


@dataclass
class FeatureArchive:
    """Per-utterance feature matrices sharing one extraction config."""

    feature_kind: str
    config: dict
    entries: dict[str, FeatureMatrix] = field(default_factory=dict)

    def __post_init__(self):
        dims = {fm.dim for fm in self.entries.values()}
        kinds = {fm.kind for fm in self.entries.values()}
        if len(dims) > 1 or len(kinds) > 1:
            raise ValueError("archive entries must share dim and kind")


class ArchiveWriter:
    """Writes an RPFA archive one entry at a time, as a context manager:
    to `<path>.partial`, which a clean exit from the `with` block renames
    to `path` and any failure deletes (see the module docstring). Entries
    must share one dim and kind, as a `FeatureArchive`'s do, and an id may
    appear once."""

    def __init__(self, path, feature_kind: str, config: dict):
        self.path = Path(path)
        self._partial = self.path.with_name(self.path.name + ".partial")
        header = json.dumps({"feature_kind": feature_kind, "config": config},
                            sort_keys=True).encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self._partial, "wb")
        self._fh.write(MAGIC + struct.pack("<HI", VERSION, len(header))
                       + header)
        self._ids: set[str] = set()
        self._shape: tuple[int, FeatureKind] | None = None

    def add(self, utt_id: str, fm: FeatureMatrix) -> None:
        shape = (fm.dim, fm.kind)
        if self._shape is None:
            self._shape = shape
        elif shape != self._shape:
            raise ValueError("archive entries must share dim and kind")
        if utt_id in self._ids:
            raise ValueError(f"duplicate utterance id {utt_id!r}")
        self._ids.add(utt_id)
        id_bytes = utt_id.encode("utf-8")
        self._fh.write(struct.pack("<H", len(id_bytes)) + id_bytes
                       + struct.pack("<II", fm.n_frames, fm.dim))
        self._fh.write(np.ascontiguousarray(fm.values, dtype="<f4"))

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        committed = False
        try:
            self._fh.close()
            if exc_type is None:
                os.replace(self._partial, self.path)
                committed = True
        finally:
            if not committed:
                self._partial.unlink(missing_ok=True)


def write_archive(archive: FeatureArchive, path) -> None:
    with ArchiveWriter(path, archive.feature_kind, archive.config) as writer:
        for utt_id, fm in archive.entries.items():
            writer.add(utt_id, fm)


class ArchiveReader:
    """Reads an RPFA archive one entry at a time, as a context manager (or
    call `close`); see the module docstring.

    Opening checks the whole file and records `feature_kind`, `config`
    and `frame_counts`, each id's frame count in file order. Iterating
    yields (utt_id, FeatureMatrix) pairs in file order; `read` gives one
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
            header = json.loads(header_bytes.decode("utf-8"))
            self.feature_kind = header["feature_kind"]
            self.config = header["config"]
            self._warp = (WarpKind.from_name(self.config["warp"])
                          if isinstance(self.config, dict)
                          and "warp" in self.config else None)
        except (ValueError, KeyError, TypeError) as exc:
            raise ArchiveFormatError(f"{path}: bad header: {exc}") from exc

        # utt_id -> (offset of its frames, n_frames, dim), in file order.
        self._index: dict[str, tuple[int, int, int]] = {}
        self._kind: FeatureKind | None = None
        self._dim: int | None = None
        while self._fh.tell() < self._size:
            if self._kind is None:
                try:
                    self._kind = FeatureKind(self.config["feature"])
                except (TypeError, KeyError, ValueError) as exc:
                    raise ArchiveFormatError(
                        f"{path}: archive has entries but its config "
                        f"carries no valid 'feature' kind") from exc
            (id_len,) = struct.unpack("<H", self._take(2))
            try:
                utt_id = self._take(id_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ArchiveFormatError(
                    f"{path}: utterance id is not UTF-8 ({exc})") from exc
            n_frames, dim = struct.unpack("<II", self._take(8))
            offset = self._need(4 * n_frames * dim)
            self._fh.seek(4 * n_frames * dim, os.SEEK_CUR)
            if utt_id in self._index:
                raise ArchiveFormatError(
                    f"{path}: duplicate utterance id {utt_id!r}")
            self._check_dim(utt_id, dim)
            self._index[utt_id] = (offset, n_frames, dim)
        self.frame_counts = {u: n for u, (_, n, _) in self._index.items()}

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

    def _check_dim(self, utt_id: str, dim: int) -> None:
        """The first entry's dim must suit the feature kind, as a
        `FeatureMatrix` checks it; every later entry's must equal it."""
        if self._dim is None:
            try:
                FeatureMatrix(np.empty((0, dim)), self._kind, self._warp)
            except ValueError as exc:
                raise ArchiveFormatError(
                    f"{self.path}: entry {utt_id!r}: {exc}") from exc
            self._dim = dim
        elif dim != self._dim:
            raise ArchiveFormatError(
                f"{self.path}: entry {utt_id!r}: archive entries must share "
                f"dim and kind, got dim {dim} after {self._dim}")

    def values(self, utt_id: str) -> np.ndarray:
        """The entry's (n_frames, dim) frames as stored, float32; KeyError
        if the archive has no such id."""
        offset, n_frames, dim = self._index[utt_id]
        out = np.empty((n_frames, dim), dtype="<f4")
        self._fh.seek(offset)
        got = self._fh.readinto(out.reshape(-1).view(np.uint8)) \
            if out.size else 0
        if got != out.nbytes:
            raise ArchiveFormatError(
                f"{self.path}: truncated archive: needed {out.nbytes} bytes "
                f"at offset {offset}, have {got}")
        return out

    def read(self, utt_id: str) -> FeatureMatrix:
        """The entry as a float64 `FeatureMatrix`, exact to the stored
        float32 values."""
        return FeatureMatrix(self.values(utt_id).astype(np.float64),
                             self._kind, self._warp)

    def __iter__(self) -> Iterator[tuple[str, FeatureMatrix]]:
        for utt_id in self._index:
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
        return FeatureArchive(reader.feature_kind, reader.config,
                              dict(reader))
