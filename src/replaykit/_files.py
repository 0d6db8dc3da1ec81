"""The files replaykit reads and writes: how an output reaches its path,
how a missing input is named, and the tab-separated tables.

Every output is written to `partial_path(path)`, `<path>.partial`, its
parent directories made first, through `output_file`. Only a clean exit
from its `with` block moves the partial onto `path`, with `os.replace`,
which replaces what was there, a symlink included, rather than writing
through it; any failure deletes the partial and leaves `path` as it was.
A move that fails raises an OSError of its own class, `<path>: <reason>`,
naming the output rather than its partial file.
So a file at an output's path is complete: a manifest, score file or
archive cut at a row or entry boundary would read back as a valid,
shorter one, and never appears there; and a write that fails leaves no
partial file behind.

A missing input is named by `no_such_file`, `<path>: no such file`: most
readers check first, with `existing_file`; `read_wav`, which reads each
file in one call, raises it when the open fails.

Manifests, score files and probe reports are tables: UTF-8 text, one row
per line, its cells split by tabs. `write_table` writes each row as one
line, and refuses a cell that `read_table` would split. `read_table`
splits the text with `str.splitlines`, skips blank lines, and hands each
row's cells to a per-row parser.
"""

from __future__ import annotations

import os
from pathlib import Path


def no_such_file(path) -> FileNotFoundError:
    """FileNotFoundError `<path>: no such file`, the one way every reader
    names a missing input."""
    return FileNotFoundError(f"{path}: no such file")


def existing_file(path) -> Path:
    """`path` as a Path; `no_such_file` if nothing is there."""
    path = Path(path)
    if not path.exists():
        raise no_such_file(path)
    return path


def partial_path(path) -> Path:
    """`<path>.partial`, where the output at `path` is written until it is
    complete."""
    path = Path(path)
    return path.with_name(path.name + ".partial")


class output_file:
    """The open partial file of the output at `path`, as a context
    manager: text as UTF-8 in mode "w", bytes in mode "wb". A clean exit
    moves it onto `path`, and any failure deletes it (see the module
    docstring). The file is opened when this is made, so one that is
    never exited is left open, and warns when it is collected."""

    def __init__(self, path, mode: str = "w"):
        self.path = Path(path)
        self._partial = partial_path(self.path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self._partial, mode,
                        encoding=None if "b" in mode else "utf-8")

    def __enter__(self):
        return self._fh

    def __exit__(self, exc_type, exc, tb) -> None:
        committed = False
        try:
            self._fh.close()
            if exc_type is None:
                try:
                    os.replace(self._partial, self.path)
                except OSError as error:
                    # Named by the output, not by its partial file.
                    raise type(error)(
                        f"{self.path}: {error.strerror}") from error
                committed = True
        finally:
            if not committed:
                self._partial.unlink(missing_ok=True)


def write_table(path, rows, header=None) -> None:
    """Write `header`, if given, and each row of string cells as a line of
    tab-separated cells. A cell holding a tab or a character at which
    `str.splitlines` breaks a line raises ValueError `<path>: ...`, naming
    it, before anything is written."""
    lines = [header] if header is not None else []
    lines += rows
    for lineno, cells in enumerate(lines, start=1):
        for cell in cells:
            # The appended character ends no line, so a cell that splits
            # gives more than one.
            if "\t" in cell or len((cell + ".").splitlines()) > 1:
                raise ValueError(f"{path}: line {lineno}: the cell {cell!r} "
                                 f"holds a tab or a line break")
    with output_file(path) as f:
        f.write("".join("\t".join(cells) + "\n" for cells in lines))


def read_table(path, n_fields: int, parse_row, error, header=None) -> list:
    """`parse_row(*cells)` of each row of the table at `path`, in order.

    The first line must be `header`, exactly, when one is given. Text that
    is not UTF-8, no row, a row of other than `n_fields` cells, a first
    cell (the row's utterance id) that an earlier row holds, and a
    ValueError from `parse_row` raise `error`: `<path>:<line>: ...` for a
    row, `<path>: ...` otherwise. A missing file raises `no_such_file`.
    """
    try:
        lines = existing_file(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc
    skip = 0
    if header is not None:
        if not lines or lines[0].split("\t") != list(header):
            raise error(f"{path}: bad header, missing column or wrong order; "
                        f"expected {list(header)}")
        skip = 1
    rows = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines[skip:], start=skip + 1):
        if not line:
            continue
        cells = line.split("\t")
        try:
            if len(cells) != n_fields:
                raise ValueError(f"expected {n_fields} fields, got "
                                 f"{len(cells)}")
            if cells[0] in first_line:
                raise ValueError(f"duplicate utterance id {cells[0]!r}, "
                                 f"first on line {first_line[cells[0]]}")
            first_line[cells[0]] = lineno
            rows.append(parse_row(*cells))
        except ValueError as exc:
            raise error(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise error(f"{path}: no records")
    return rows
