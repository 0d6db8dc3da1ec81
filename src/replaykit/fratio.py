"""Per-band discriminability ratios and variability-factor probing.

`fratio` gives, per band, the squared distance between the genuine and
replay class means over the sum of their population (1/N) variances: a
fingerprint of where the two classes separate. `probe_factor` computes
one per value of a factor (speaker, phrase, device) and `compare_datasets`
one per dataset (train, heldout), each over one archive's features; the
dispersion of the normalized fingerprints measures how much the factor
shifts the discriminative picture. The probes take each pool's moments
from per-utterance sums and never stack a pool's frames.
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
    """Band discriminability values [F_1..F_M] for one value of a factor."""

    value: str
    values: np.ndarray
    n_genuine_frames: int
    n_replay_frames: int

    @property
    def n_bands(self) -> int:
        return self.values.size


@dataclass
class ProbeReport:
    """One pattern per value of the probed factor, the warp of the probed
    features (None if they name none), the patterns' dispersion and each
    pattern's contribution to it: the RMS deviation of its normalized
    shape from the mean shape."""

    factor: str
    warp: WarpKind | None
    patterns: list[FRatioPattern]
    dispersion: float
    contributions: np.ndarray

    @property
    def n_bands(self) -> int:
        return self.patterns[0].n_bands


def pool_frames(features: dict[str, FeatureMatrix],
                utt_ids: list[str]) -> np.ndarray:
    """The utterances' feature frames stacked in the given order, as
    mixture training takes them."""
    mats = [features[u].values for u in utt_ids]
    if not mats:
        return np.empty((0, 0))
    return np.concatenate(mats, axis=0)


def fratio(genuine, replay) -> np.ndarray:
    """Between-class distance over summed within-class variance, per band,
    of two frames-by-bands arrays."""
    g = [np.asarray(genuine, dtype=np.float64)]
    r = [np.asarray(replay, dtype=np.float64)]
    n_g, n_r = _pool_sizes(g, r)
    return _ratio(_moments(g, n_g), _moments(r, n_r))


def _moments(blocks: list[np.ndarray], n: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Per-band mean and population (1/n) variance of the n frames of
    `blocks` taken together, without stacking them: the variance is
    two-pass, centred on the pooled mean."""
    mean = sum(b.sum(axis=0) for b in blocks) / n
    var = sum(np.square(b - mean).sum(axis=0) for b in blocks) / n
    return mean, var


def _pool_sizes(genuine: list[np.ndarray],
                replay: list[np.ndarray]) -> tuple[int, int]:
    """Frame counts of two pools given as frames-by-bands blocks; raises
    unless each holds two frames and all blocks share one band count."""
    n_g = sum(b.shape[0] for b in genuine)
    n_r = sum(b.shape[0] for b in replay)
    if n_g < 2 or n_r < 2:
        raise ValueError(f"too few frames: need >= 2 per class, got "
                         f"{n_g} genuine and {n_r} replay")
    dims = list(dict.fromkeys(b.shape[1] for b in (*genuine, *replay)))
    if len(dims) > 1:
        raise ValueError(f"band counts differ: "
                         f"{' vs '.join(map(str, dims))}")
    return n_g, n_r


def _ratio(genuine_moments, replay_moments) -> np.ndarray:
    """`fratio` from each class's (mean, variance)."""
    (mean_g, var_g), (mean_r, var_r) = genuine_moments, replay_moments
    denom = var_g + var_r
    bad = np.flatnonzero(denom < DEGENERATE_DENOMINATOR)
    if bad.size:
        raise DegenerateBandError(
            f"constant features in band(s) {bad.tolist()}: within-class "
            f"variance below {DEGENERATE_DENOMINATOR}")
    values = (mean_g - mean_r) ** 2 / denom
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite ratios: features hold NaN or inf")
    return values


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
    return _spread(normalized_shapes(patterns))[0]


def _spread(shapes: np.ndarray) -> tuple[float, np.ndarray]:
    """The dispersion of stacked shapes and each row's RMS deviation from
    their mean."""
    contributions = ((shapes - shapes.mean(axis=0)) ** 2).mean(axis=1) ** 0.5
    return float(shapes.std(axis=0).mean()), contributions


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

    attr = f"{factor}_id"
    values = (manifest.device_ids() if factor == "device"
              else sorted({getattr(r, attr) for r in manifest}))
    pools = [(v, [r.utt_id for r in manifest.genuine_records()
                  if factor == "device" or getattr(r, attr) == v],
              [r.utt_id for r in manifest.replay_records()
               if getattr(r, attr) == v])
             for v in values]
    return _report(features, factor, pools)


def compare_datasets(features: dict[str, FeatureMatrix], train: Manifest,
                     heldout: Manifest) -> ProbeReport:
    """Pool every genuine and replay frame within each dataset and compare
    the two resulting patterns (cross-dataset generalization probe)."""
    pools = [(name, [r.utt_id for r in man.genuine_records()],
              [r.utt_id for r in man.replay_records()])
             for name, man in (("train", train), ("heldout", heldout))]
    return _report(features, "dataset", pools)


def _report(features, factor, pools) -> ProbeReport:
    """One pattern per (value, genuine ids, replay ids) pool, from the
    pooled utterances' moments; no pool's frames are stacked, and a list
    of ids that several pools share (the device probe's genuine pool) has
    its moments taken once. `fratio`'s messages read "problem: detail";
    the value goes after the problem."""
    moments = {}

    def pool_moments(ids, blocks, n):
        key = tuple(ids)
        if key not in moments:
            moments[key] = _moments(blocks, n)
        return moments[key]

    patterns = []
    for value, genuine_ids, replay_ids in pools:
        g = [features[u].values for u in genuine_ids]
        r = [features[u].values for u in replay_ids]
        try:
            n_g, n_r = _pool_sizes(g, r)
            values = _ratio(pool_moments(genuine_ids, g, n_g),
                            pool_moments(replay_ids, r, n_r))
        except ValueError as exc:
            problem, _, detail = str(exc).partition(": ")
            raise type(exc)(f"{problem} for {factor}={value}: {detail}") \
                from exc
        patterns.append(FRatioPattern(value, values, n_g, n_r))
    dispersion, contributions = _spread(normalized_shapes(patterns))
    warp = next(iter(features.values())).warp_kind
    return ProbeReport(factor, warp, patterns, dispersion, contributions)
