"""Equal error rate over pooled utterance scores.

Genuine is the accept class. At threshold t the false-acceptance rate is
the fraction of replay scores >= t (ties accepted) and the false-rejection
rate is the fraction of genuine scores < t. Both are step functions of t;
the EER is their crossing, linearly interpolated between the adjacent
operating points where the sign of (FAR - FRR) flips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._files import read_table, write_table
from .corpus import GENUINE_LABEL, REPLAY_LABEL, Manifest
from .errors import ScoreFormatError

UNLABELLED = "-"  # label unknown to the scorer; read_scores fills it in


@dataclass(frozen=True)
class ScoreRecord:
    utt_id: str
    score: float
    label: str

    def __post_init__(self):
        # A numpy float's repr is `np.float64(1.5)`, which `read_scores`
        # refuses; the file holds the Python float's.
        object.__setattr__(self, "score", float(self.score))
        if self.label not in (GENUINE_LABEL, REPLAY_LABEL, UNLABELLED):
            raise ValueError(f"unknown label {self.label!r}")
        if not np.isfinite(self.score):
            raise ValueError(f"score for {self.utt_id!r} is not finite")


def compute_eer(records: list[ScoreRecord]) -> tuple[float, float]:
    """Return (eer, threshold) from labeled scores.

    Sweeps the sorted unique scores (every achievable operating point) plus
    a sentinel past the maximum, then interpolates at the sign change of
    FAR - FRR.
    """
    if any(r.label == UNLABELLED for r in records):
        raise ValueError("cannot compute an EER over unlabelled scores")
    genuine = np.array([r.score for r in records if r.label == GENUINE_LABEL])
    replay = np.array([r.score for r in records if r.label == REPLAY_LABEL])
    if genuine.size == 0 or replay.size == 0:
        raise ValueError("need at least one genuine and one replay score")

    thresholds = np.unique(np.concatenate([genuine, replay]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    # score >= t accepted: counts via searchsorted on sorted class scores
    genuine_sorted = np.sort(genuine)
    replay_sorted = np.sort(replay)
    far = 1.0 - np.searchsorted(replay_sorted, thresholds, side="left") / replay.size
    frr = np.searchsorted(genuine_sorted, thresholds, side="left") / genuine.size

    diff = far - frr
    exact = np.flatnonzero(diff == 0.0)
    if exact.size:
        i = exact[0]
        return float(far[i]), float(thresholds[i])
    # diff starts at +1 (everything accepted) and ends at -1; find the flip
    i = int(np.flatnonzero(diff[:-1] > 0)[-1])
    alpha = diff[i] / (diff[i] - diff[i + 1])
    eer = far[i] + alpha * (far[i + 1] - far[i])
    threshold = thresholds[i] + alpha * (thresholds[i + 1] - thresholds[i])
    return float(eer), float(threshold)


# ---------------------------------------------------------------------------
# Score file I/O: TSV utt_id <tab> score <tab> label (or '-')
# ---------------------------------------------------------------------------

def write_scores(records: list[ScoreRecord], path) -> None:
    """One line per record; ValueError `<path>: ...`, writing nothing, if
    there are none, since `read_scores` refuses a file without records."""
    if not records:
        raise ValueError(f"{path}: no score records to write")
    write_table(path, ([r.utt_id, repr(r.score), r.label] for r in records))


def read_scores(path, manifest: Manifest | None = None) -> list[ScoreRecord]:
    """Read a score TSV; '-' labels are filled from the manifest if given.
    A malformed line, a score not written as `write_scores` writes it, or
    a repeated utterance id raises ScoreFormatError naming the line, and
    a missing file FileNotFoundError `<path>: no such file`
    (`replaykit._files.read_table`)."""
    labels = {r.utt_id: r.label for r in manifest} if manifest else {}

    def record(utt_id, score, label):
        if label == UNLABELLED:
            if utt_id not in labels:
                raise ValueError(f"no label for {utt_id!r} and none "
                                 f"found in the manifest")
            label = labels[utt_id]
        elif utt_id in labels and labels[utt_id] != label:
            raise ValueError(f"label {label!r} disagrees with manifest "
                             f"{labels[utt_id]!r}")
        value = float(score)
        # float() also takes '1_5' and ' 2 ', which write_scores never
        # writes: a score must read back as its own repr.
        if repr(value) != score:
            raise ValueError(f"score {score!r} is not written as "
                             f"repr(float), which gives {value!r}")
        return ScoreRecord(utt_id, value, label)

    return read_table(path, 3, record, ScoreFormatError)
