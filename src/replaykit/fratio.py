"""Per-band discriminability ratios and variability-factor probing.

For a genuine/replay partition of frames, each band's ratio is the squared
distance between the class means over the sum of the population (1/N)
within-class variances. The vector across bands is a fingerprint of where
the two classes separate; probing recomputes the fingerprint once per
value of a chosen variability factor (speaker, phrase, device) and the
dispersion of the normalized fingerprints measures how much that factor
shifts the discriminative picture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Manifest
from .errors import DegenerateBandError
from .filterbank import FeatureKind, FeatureMatrix, WarpKind

DEGENERATE_DENOMINATOR = 1e-12

PROBE_FACTORS = ("speaker", "phrase", "device")


@dataclass
class FRatioPattern:
    """Band discriminability values [F_1..F_M] for one frame partition."""

    values: np.ndarray
    n_genuine_frames: int
    n_replay_frames: int
    band_kind: WarpKind | None = None
    condition: tuple[str, str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("pattern values must be finite and non-negative")
        if self.n_genuine_frames < 2 or self.n_replay_frames < 2:
            raise ValueError("each class needs at least 2 frames")

    @property
    def n_bands(self) -> int:
        return self.values.size


@dataclass
class ProbeReport:
    """One pattern per value of the probed factor, plus their dispersion."""

    factor: str
    patterns: list[FRatioPattern]
    dispersion: float

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("a probe report needs at least one pattern")
        n_bands = {p.n_bands for p in self.patterns}
        kinds = {p.band_kind for p in self.patterns}
        if len(n_bands) != 1 or len(kinds) != 1:
            raise ValueError("probe patterns must share band count and kind")

    @property
    def band_kind(self) -> WarpKind | None:
        return self.patterns[0].band_kind

    @property
    def n_bands(self) -> int:
        return self.patterns[0].n_bands


def pool_frames(features: dict[str, FeatureMatrix],
                utt_ids: list[str]) -> np.ndarray:
    """The utterances' feature frames stacked in the given order."""
    mats = [features[u].values for u in utt_ids]
    if not mats:
        return np.empty((0, 0))
    return np.concatenate(mats, axis=0)


def fratio_pattern(genuine: FeatureMatrix, replay: FeatureMatrix,
                   condition: tuple[str, str] | None = None) -> FRatioPattern:
    """Between-class distance over summed within-class variance, per band."""
    if genuine.kind is not FeatureKind.LOG_FBANK \
            or replay.kind is not FeatureKind.LOG_FBANK:
        raise ValueError("discriminability ratios are defined on log-Fbank "
                         "features")
    if genuine.dim != replay.dim:
        raise ValueError(f"band counts differ: {genuine.dim} vs {replay.dim}")
    return _fratio_from_arrays(genuine.values, replay.values,
                               genuine.warp_kind or replay.warp_kind,
                               condition)


def _fratio_from_arrays(g: np.ndarray, r: np.ndarray,
                        band_kind: WarpKind | None,
                        condition: tuple[str, str] | None) -> FRatioPattern:
    if g.shape[0] < 2 or r.shape[0] < 2:
        raise ValueError(f"too few frames: need >= 2 per class, got "
                         f"{g.shape[0]} genuine and {r.shape[0]} replay")
    mu_g = g.mean(axis=0)
    mu_r = r.mean(axis=0)
    denom = g.var(axis=0) + r.var(axis=0)
    bad = np.flatnonzero(denom < DEGENERATE_DENOMINATOR)
    if bad.size:
        raise DegenerateBandError(
            f"constant features in band(s) {bad.tolist()}: within-class "
            f"variance below {DEGENERATE_DENOMINATOR}")
    values = (mu_g - mu_r) ** 2 / denom
    return FRatioPattern(values, g.shape[0], r.shape[0], band_kind, condition)


def normalized_shapes(patterns: list[FRatioPattern]) -> np.ndarray:
    """Unit-L1 pattern shapes stacked row-wise."""
    if not patterns:
        raise ValueError("need at least one pattern")
    n_bands = patterns[0].n_bands
    rows = []
    for p in patterns:
        if p.n_bands != n_bands:
            raise ValueError(f"mismatched band counts: {p.n_bands} vs {n_bands}")
        mass = p.values.sum()
        if mass <= 0.0:
            raise ValueError("cannot normalize an all-zero pattern")
        rows.append(p.values / mass)
    return np.stack(rows)


def pattern_dispersion(patterns: list[FRatioPattern]) -> float:
    """Shape spread across patterns: the per-band population standard
    deviation of the normalized shapes, averaged over bands."""
    return float(normalized_shapes(patterns).std(axis=0).mean())


def probe_factor(features: dict[str, FeatureMatrix], manifest: Manifest,
                 factor: str) -> ProbeReport:
    """One discriminability pattern per value of the probed factor.

    For speaker and phrase, both frame pools are restricted to utterances
    carrying the value. Genuine utterances carry no device, so the device
    probe pools all genuine frames against each device's replay frames.
    """
    if factor not in PROBE_FACTORS:
        raise ValueError(f"unknown factor {factor!r}; expected one of "
                         f"{list(PROBE_FACTORS)}")
    missing = [r.utt_id for r in manifest if r.utt_id not in features]
    if missing:
        raise ValueError(f"features missing for utterance(s) {missing[:3]}")

    kinds = {features[r.utt_id].kind for r in manifest}
    if kinds != {FeatureKind.LOG_FBANK}:
        raise ValueError("probing requires log-Fbank features")
    band_kind = features[manifest.records[0].utt_id].warp_kind

    patterns = []
    if factor == "device":
        genuine_pool = pool_frames(
            features, [r.utt_id for r in manifest.genuine_records()])
        for device in manifest.device_ids():
            replay_ids = [r.utt_id for r in manifest.replay_records()
                          if r.device_id == device]
            patterns.append(_probe_pattern(features, genuine_pool, replay_ids,
                                           band_kind, ("device", device)))
    else:
        attr = "speaker_id" if factor == "speaker" else "phrase_id"
        values = sorted({getattr(r, attr) for r in manifest})
        for value in values:
            subset = [r for r in manifest if getattr(r, attr) == value]
            genuine_pool = pool_frames(
                features, [r.utt_id for r in subset if r.is_genuine])
            replay_ids = [r.utt_id for r in subset if not r.is_genuine]
            patterns.append(_probe_pattern(features, genuine_pool, replay_ids,
                                           band_kind, (factor, value)))
    return ProbeReport(factor, patterns, pattern_dispersion(patterns))


def _probe_pattern(features, genuine_pool, replay_ids, band_kind, condition):
    replay_pool = pool_frames(features, replay_ids)
    if genuine_pool.shape[0] < 2 or replay_pool.shape[0] < 2:
        raise ValueError(
            f"too few frames for {condition[0]}={condition[1]}: need >= 2 "
            f"per class, got {genuine_pool.shape[0]} genuine and "
            f"{replay_pool.shape[0]} replay")
    return _fratio_from_arrays(genuine_pool, replay_pool, band_kind, condition)


def compare_datasets(features_a: dict[str, FeatureMatrix], manifest_a: Manifest,
                     features_b: dict[str, FeatureMatrix], manifest_b: Manifest,
                     names: tuple[str, str] = ("train", "heldout")) -> ProbeReport:
    """Pool every genuine and replay frame within each dataset and compare
    the two resulting patterns (cross-dataset generalization probe)."""
    patterns = []
    for feats, man, name in ((features_a, manifest_a, names[0]),
                             (features_b, manifest_b, names[1])):
        genuine_pool = pool_frames(
            feats, [r.utt_id for r in man.genuine_records()])
        replay_ids = [r.utt_id for r in man.replay_records()]
        band_kind = feats[man.records[0].utt_id].warp_kind
        patterns.append(_probe_pattern(feats, genuine_pool, replay_ids,
                                       band_kind, ("dataset", name)))
    return ProbeReport("dataset", patterns, pattern_dispersion(patterns))
