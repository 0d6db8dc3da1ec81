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
"""

from __future__ import annotations

import json
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


def write_archive(archive: FeatureArchive, path) -> None:
    header = json.dumps({"feature_kind": archive.feature_kind,
                         "config": archive.config},
                        sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for utt_id, fm in archive.entries.items():
            id_bytes = utt_id.encode("utf-8")
            fh.write(struct.pack("<H", len(id_bytes)))
            fh.write(id_bytes)
            fh.write(struct.pack("<II", fm.n_frames, fm.dim))
            fh.write(np.ascontiguousarray(fm.values,
                                          dtype="<f4").tobytes())


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
