"""Library-specific exception types.

Most precondition violations raise plain ValueError; the classes here exist
for conditions a caller plausibly wants to catch on their own (file format
problems, degenerate statistics, training collapse). All of them remain
catchable as their builtin base. Every reader of an input file checks
that it exists through `existing_file`.
"""

from pathlib import Path


def existing_file(path) -> Path:
    """`path` as a Path; FileNotFoundError `<path>: no such file` if
    nothing is there, so a missing input is named the same way by every
    reader."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{path}: no such file")
    return path


class ReplaykitError(Exception):
    """Base class for all replaykit errors."""


class WavFormatError(ReplaykitError, ValueError):
    """WAV container or encoding not supported (stereo, non-16-bit,
    compressed, or wrong sample rate)."""


class ManifestError(ReplaykitError, ValueError):
    """Manifest TSV is malformed: bad header, unknown label, duplicate
    utterance id, empty body, or inconsistent device field."""


class ArchiveFormatError(ReplaykitError, ValueError):
    """Feature archive bytes are not valid: bad magic, unsupported version,
    truncated body, repeated utterance id, or a dim the kind forbids."""


class ModelFormatError(ReplaykitError, ValueError):
    """Model file is not JSON, has another format_version, lacks a key,
    holds parameters that are not base64 or disagree with its own K and d,
    or holds parameters a mixture rejects."""


class ScoreFormatError(ReplaykitError, ValueError):
    """A score TSV line is malformed or its label cannot be resolved."""


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
    """Features handed to a model are of another kind, or come from
    another extraction config, than the features it was trained on."""
