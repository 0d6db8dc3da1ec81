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

Reads are all-or-nothing: bytes this layout cannot hold, such as a size
past the end, an id that is not UTF-8 or repeats, or a dim the header's
feature kind forbids, raise and return no partial archive.

Nothing in the layout marks the last entry, so an archive cut at an entry
boundary reads back as a valid, shorter one. Writes therefore go to
`<path>.partial`, one entry at a time through `ArchiveWriter`, and the
file is renamed to `path` only when the writer exits cleanly: a file at an
archive's path is complete. `write_archive` writes an in-memory
`FeatureArchive` the same way; `run_study` streams its archives through
writers and never holds a whole log-Fbank archive.
"""

from __future__ import annotations

import json
import os
import struct
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


class _Reader:
    def __init__(self, data: bytes, name: str):
        self.data = data
        self.pos = 0
        self.name = name

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise ArchiveFormatError(
                f"{self.name}: truncated archive: needed {count} bytes at "
                f"offset {self.pos}, have {len(self.data) - self.pos}")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def done(self) -> bool:
        return self.pos == len(self.data)


def read_archive(path) -> FeatureArchive:
    path = existing_file(path)
    reader = _Reader(path.read_bytes(), str(path))
    magic = reader.take(4)
    if magic != MAGIC:
        raise ArchiveFormatError(f"{path}: bad magic {magic!r}")
    (version,) = struct.unpack("<H", reader.take(2))
    if version != VERSION:
        raise ArchiveFormatError(f"{path}: unsupported version {version}")
    (header_len,) = struct.unpack("<I", reader.take(4))
    header_bytes = reader.take(header_len)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
        feature_kind = header["feature_kind"]
        config = header["config"]
        warp_kind = (WarpKind.from_name(config["warp"])
                     if isinstance(config, dict) and "warp" in config
                     else None)
    except (ValueError, KeyError, TypeError) as exc:
        raise ArchiveFormatError(f"{path}: bad header: {exc}") from exc

    entries: dict[str, FeatureMatrix] = {}
    matrix_kind = None
    while not reader.done():
        if matrix_kind is None:
            try:
                matrix_kind = FeatureKind(config["feature"])
            except (TypeError, KeyError, ValueError) as exc:
                raise ArchiveFormatError(
                    f"{path}: archive has entries but its config carries no "
                    f"valid 'feature' kind") from exc
        (id_len,) = struct.unpack("<H", reader.take(2))
        try:
            utt_id = reader.take(id_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveFormatError(
                f"{path}: utterance id is not UTF-8 ({exc})") from exc
        n_frames, dim = struct.unpack("<II", reader.take(8))
        raw = reader.take(4 * n_frames * dim)
        if utt_id in entries:
            raise ArchiveFormatError(
                f"{path}: duplicate utterance id {utt_id!r}")
        values = np.frombuffer(raw, dtype="<f4").reshape(n_frames, dim)
        try:
            entries[utt_id] = FeatureMatrix(values.astype(np.float64),
                                            matrix_kind, warp_kind)
        except ValueError as exc:
            raise ArchiveFormatError(f"{path}: entry {utt_id!r}: {exc}") \
                from exc
    return FeatureArchive(feature_kind, config, entries)
