"""Library-specific exception types.

Most precondition violations raise plain ValueError; the classes here exist
for conditions a caller plausibly wants to catch on their own (file format
problems, degenerate statistics, training collapse). All of them remain
catchable as their builtin base. Every reader of an input file names a
missing one through `no_such_file`: most check first, with
`existing_file`; `read_wav`, which reads each file in one call, raises it
when the open fails.
"""

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


class ReplaykitError(Exception):
    """Base class for all replaykit errors."""


class WavFormatError(ReplaykitError, ValueError):
    """A WAV file `read_wav` cannot read:
    - shorter than a RIFF header, or cut before its data chunk's header
      ("truncated WAV header");
    - not a RIFF/WAVE file;
    - a chunk whose declared size runs past the file's end, a `fmt `
      chunk shorter than 16 bytes, or a data chunk before the `fmt `
      chunk ("corrupt WAV header: ...");
    - a format other than integer PCM (tag 1; extensible, 0xFFFE, too),
      more than one channel, other than 16 bits, or another sample rate
      than 16 kHz;
    - fewer data bytes than the data chunk declares ("truncated: ...")."""


class ManifestError(ReplaykitError, ValueError):
    """Manifest TSV is malformed: bad header, unknown label, duplicate
    utterance id, empty body, or inconsistent device field."""


class ArchiveFormatError(ReplaykitError, ValueError):
    """Feature archive bytes are not valid: bad magic, unsupported version,
    a header that is not an `ExtractionConfig` (`<path>: bad header:
    ...`), truncated body, repeated utterance id, a dim other than the
    config's, or a stored NaN or ±inf."""


class ModelFormatError(ReplaykitError, ValueError):
    """Model file is not JSON, has another format_version, lacks a key,
    holds an extraction_config that is not an `ExtractionConfig` or whose
    dim is not d (`<path>: extraction_config: ...`), parameters that are
    not base64, disagree with K and d or a mixture rejects, or a full
    covariance that is not positive-definite (`<path>: <genuine|replay>:
    component j ...`)."""


class ScoreFormatError(ReplaykitError, ValueError):
    """A score TSV line is malformed or its label cannot be resolved. A
    score must be written as `repr(float)` writes it, as `write_scores`
    does: `1.5`, `-0.25`, `1e-05`, never `1_5`, ` 2 ` or `1.50`."""


class EmptyUtteranceError(ReplaykitError, ValueError):
    """An utterance has no frames where a stage needs at least one: deltas
    of an utterance shorter than one frame, or a score of a 0-frame
    feature matrix."""


class DegenerateBandError(ReplaykitError, ValueError):
    """A band's within-class variance is numerically zero, so its
    discriminability ratio would be infinite."""


class SingularComponentError(ReplaykitError, RuntimeError):
    """A full-covariance mixture component lost positive-definiteness
    during training even after variance flooring."""


class FeatureMismatchError(ReplaykitError, ValueError):
    """Features do not match what they are used with: an archive handed
    to a model holds features of another `ExtractionConfig` than the one
    it was trained on; or an archive, or the moment table a probe reads,
    lacks features for an utterance its manifest names."""
