"""Per-band discriminability ratios and variability-factor probing.

`fratio` gives, per band, the squared distance between the genuine and
replay class means over the sum of their population (1/N) variances: a
fingerprint of where the two classes separate. `probe_factor` computes
one per value of a factor (speaker, phrase, device) and `compare_datasets`
one per dataset (train, heldout), each over one archive's features; the
dispersion of the normalized fingerprints measures how much the factor
shifts the discriminative picture.

The probes read no frames. They take an archive's `MomentTable`, to which
each utterance's log-Fbank frames are added as they are made or read
back; it keeps per utterance a frame count, column sums and squared
deviations, and drops the frames. Each pool's mean and variance are
merged from its utterances' rows, stacked in the pool's order.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .corpus import Manifest
from .errors import DegenerateBandError, FeatureMismatchError
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


def pool_frames(utt_ids: list[str], frame_counts: Mapping[str, int],
                values: Callable[[str], np.ndarray]) -> np.ndarray:
    """The utterances' feature frames stacked in the given order, as
    mixture training takes them: one float64 array, allocated once from
    `frame_counts` and filled with `values(utt_id)` one utterance at a
    time, so a caller reading each from disk (`ArchiveReader.values`)
    holds one utterance beyond the pool. float32 frames widen exactly."""
    pool = None
    start = 0
    for utt_id in utt_ids:
        block = values(utt_id)
        if pool is None:
            pool = np.empty((sum(frame_counts[u] for u in utt_ids),
                             block.shape[1]))
        pool[start:start + block.shape[0]] = block
        start += block.shape[0]
    return np.empty((0, 0)) if pool is None else pool


class MomentTable:
    """Per-utterance moments of one archive's log-Fbank features, enough
    to give any pool of its utterances the mean and variance of the
    pool's stacked frames (see `_moments`). `add` keeps an utterance's
    row and no frame: its frame count, its column sums, its mean's offset
    from the table's origin, and the squared deviations of its frames
    about that mean. The origin is the first frame of the first utterance
    that has frames; offsets from it keep the variance merge exact to
    rounding even for features far from 0.
    """

    def __init__(self):
        self.warp: WarpKind | None = None
        self._dim = 0
        self._origin: np.ndarray | None = None
        self._rows: dict[str, tuple] = {}

    def add(self, utt_id: str, fm: FeatureMatrix) -> None:
        """Keep one utterance's row; an id the table holds is refused."""
        if fm.kind is not FeatureKind.LOG_FBANK:
            raise ValueError("probing requires log-Fbank features")
        if not self._rows:
            self.warp, self._dim = fm.warp_kind, fm.dim
        elif fm.dim != self._dim:
            raise ValueError(f"band counts differ: {self._dim} vs {fm.dim}")
        if utt_id in self._rows:
            raise ValueError(f"duplicate utterance id {utt_id!r}")
        if self._origin is None and fm.n_frames:
            self._origin = fm.values[0].copy()
        self._rows[utt_id] = _utterance_moments(fm.values, self._origin)

    def stats(self, utt_ids) -> tuple[np.ndarray, ...]:
        """The (counts, sums, centres, m2) rows of `utt_ids`, stacked in
        the order given."""
        return _stack([self._rows[u] for u in utt_ids], self._dim)


def _utterance_moments(values: np.ndarray, origin) -> tuple:
    """(frame count, column sums, mean minus `origin`, squared deviations
    about the mean) of one frames-by-bands array."""
    n, dim = values.shape
    if n == 0:
        return 0, np.zeros(dim), np.zeros(dim), np.zeros(dim)
    shifted = values - origin
    centre = shifted.sum(axis=0) / n
    return (n, values.sum(axis=0), centre,
            np.square(shifted - centre).sum(axis=0))


def _stack(rows, dim: int) -> tuple[np.ndarray, ...]:
    """Per-utterance (count, sums, centre, m2) rows as stacked arrays."""
    counts, *columns = zip(*rows) if rows else ((),) * 4
    return (np.array(counts, dtype=np.int64),
            *(np.array(c, dtype=np.float64).reshape(-1, dim)
              for c in columns))


def fratio(genuine, replay) -> np.ndarray:
    """Between-class distance over summed within-class variance, per band,
    of two frames-by-bands arrays."""
    g = np.asarray(genuine, dtype=np.float64)
    r = np.asarray(replay, dtype=np.float64)
    _check_sizes(g.shape[0], r.shape[0])
    if g.shape[1] != r.shape[1]:
        raise ValueError(f"band counts differ: {g.shape[1]} vs {r.shape[1]}")
    return _ratio(*(_moments(_stack([_utterance_moments(x, 0.0)],
                                    x.shape[1]), x.shape[0])
                    for x in (g, r)))


def _moments(stats, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-band mean and population (1/n) variance of the n frames that
    per-utterance (count, sums, centre, m2) rows describe, without the
    frames: the sum of the sums over n, and
    sum_u [m2_u + n_u (centre_u - centre)^2] / n, the pairwise merge of
    Chan, Golub & LeVeque (1983), with the pool's centre the
    count-weighted mean of the utterances' centres."""
    counts, sums, centres, m2 = stats
    weights = counts[:, None]
    centre = (weights * centres).sum(axis=0) / n
    spread = (weights * np.square(centres - centre)).sum(axis=0)
    return sums.sum(axis=0) / n, (m2.sum(axis=0) + spread) / n


def _check_sizes(n_g: int, n_r: int) -> None:
    if n_g < 2 or n_r < 2:
        raise ValueError(f"too few frames: need >= 2 per class, got "
                         f"{n_g} genuine and {n_r} replay")


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


def pattern_dispersion(patterns: list[FRatioPattern]) -> float:
    """Shape spread across patterns: the per-band population standard
    deviation of their unit-L1 shapes, averaged over bands."""
    return _spread(patterns)[0]


def _spread(patterns: list[FRatioPattern]) -> tuple[float, np.ndarray]:
    """The patterns' dispersion and each one's RMS deviation of its
    unit-L1 shape from the mean shape."""
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
    shapes = np.stack(rows)
    contributions = ((shapes - shapes.mean(axis=0)) ** 2).mean(axis=1) ** 0.5
    return float(shapes.std(axis=0).mean()), contributions


def probe_factor(table: MomentTable, manifest: Manifest,
                 factor: str) -> ProbeReport:
    """One discriminability pattern per value of the probed factor, from
    an archive's `MomentTable`.

    For speaker and phrase, both frame pools are restricted to utterances
    carrying the value. Genuine utterances carry no device, so the device
    probe pools all genuine frames against each device's replay frames.
    """
    if factor not in PROBE_FACTORS:
        raise ValueError(f"unknown factor {factor!r}; expected one of "
                         f"{list(PROBE_FACTORS)}")
    _check_present(table, manifest)

    attr = f"{factor}_id"
    values = (manifest.device_ids() if factor == "device"
              else sorted({getattr(r, attr) for r in manifest}))
    pools = [(v, tuple(r.utt_id for r in manifest.genuine_records()
                       if factor == "device" or getattr(r, attr) == v),
              tuple(r.utt_id for r in manifest.replay_records()
                    if getattr(r, attr) == v))
             for v in values]
    return _report(table, factor, pools)


def compare_datasets(table: MomentTable, train: Manifest,
                     heldout: Manifest) -> ProbeReport:
    """Pool every genuine and replay frame within each dataset and compare
    the two resulting patterns (cross-dataset generalization probe)."""
    _check_present(table, train, heldout)
    pools = [(name, tuple(r.utt_id for r in man.genuine_records()),
              tuple(r.utt_id for r in man.replay_records()))
             for name, man in (("train", train), ("heldout", heldout))]
    return _report(table, "dataset", pools)


def _check_present(table: MomentTable, *manifests: Manifest) -> None:
    """Raise if the table lacks a row for an utterance the manifests name."""
    missing = list(dict.fromkeys(r.utt_id for manifest in manifests
                                 for r in manifest
                                 if r.utt_id not in table._rows))
    if missing:
        raise FeatureMismatchError(
            f"features missing for utterance(s) {missing[:3]}")


def _report(table: MomentTable, factor, pools) -> ProbeReport:
    """One pattern per (value, genuine ids, replay ids) pool, merged from
    the table's rows; a tuple of ids that several pools share (the device
    probe's genuine pool) is stacked and merged once. Both pools' sizes
    are checked before either is merged. `fratio`'s messages read
    "problem: detail"; the value goes after the problem."""

    @functools.cache
    def stacked(ids):
        stats = table.stats(ids)
        return stats, int(stats[0].sum())

    @functools.cache
    def merged(ids):
        return _moments(*stacked(ids))

    patterns = []
    for value, genuine_ids, replay_ids in pools:
        n_g, n_r = stacked(genuine_ids)[1], stacked(replay_ids)[1]
        try:
            _check_sizes(n_g, n_r)
            values = _ratio(merged(genuine_ids), merged(replay_ids))
        except ValueError as exc:
            problem, _, detail = str(exc).partition(": ")
            raise type(exc)(f"{problem} for {factor}={value}: {detail}") \
                from exc
        patterns.append(FRatioPattern(value, values, n_g, n_r))
    dispersion, contributions = _spread(patterns)
    return ProbeReport(factor, table.warp, patterns, dispersion, contributions)
