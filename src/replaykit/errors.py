"""Library-specific exception types.

Most precondition violations raise plain ValueError; the classes here exist
for conditions a caller plausibly wants to catch on their own (file format
problems, degenerate statistics, training collapse). All of them remain
catchable as their builtin base.
"""


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
    """Model JSON lacks a key or disagrees with its own K and d."""


class ScoreFormatError(ReplaykitError, ValueError):
    """A score TSV line is malformed or its label cannot be resolved."""


class DegenerateBandError(ReplaykitError, ValueError):
    """A band's within-class variance is numerically zero, so its
    discriminability ratio would be infinite."""


class SingularComponentError(ReplaykitError, RuntimeError):
    """A full-covariance mixture component lost positive-definiteness
    during training even after variance flooring."""
