"""Per-band discriminability ratios and variability-factor probing.

`fratio` gives, per band, the squared distance between the genuine and
replay class means over the sum of their population (1/N) variances: a
fingerprint of where the two classes separate. `probe_factor` computes
one per value of a factor (speaker, phrase, device) and `compare_datasets`
one per dataset (train, heldout), each over one archive's features; the
dispersion of the normalized fingerprints measures how much the factor
shifts the discriminative picture.

The probes read no frames. They take an archive's `MomentTable`, which
holds per utterance a frame count, column sums and squared deviations;
`MomentAccumulator` builds one as the frames are made, or `MomentTable.of`
from an archive read back. Each pool's mean and variance are merged from
its utterances' rows.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
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
    pool's stacked frames (see `_moments`). Row `index[utt_id]` holds the
    utterance's frame count, its column sums, its mean's offset from the
    table's origin (`centres`), and the squared deviations of its frames
    about that mean (`m2`). The origin is the first frame the table was
    given; offsets from it keep the variance merge exact to rounding even
    for features far from 0.
    """

    def __init__(self, warp: WarpKind | None, index: dict[str, int],
                 counts: np.ndarray, sums: np.ndarray, centres: np.ndarray,
                 m2: np.ndarray):
        self.warp = warp
        self.index = index
        self.counts = counts
        self.sums = sums
        self.centres = centres
        self.m2 = m2

    @classmethod
    def of(cls, features: Mapping[str, FeatureMatrix]) -> MomentTable:
        moments = MomentAccumulator()
        for utt_id, fm in features.items():
            moments.add(utt_id, fm)
        return moments.table()

    def rows(self, utt_ids: list[str]) -> np.ndarray:
        return np.array([self.index[u] for u in utt_ids], dtype=np.intp)

    def stats(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        return (self.counts[rows], self.sums[rows], self.centres[rows],
                self.m2[rows])


class MomentAccumulator:
    """Builds a `MomentTable` one utterance at a time, so that no frame
    has to be kept once its moments are taken."""

    def __init__(self):
        self._ids: list[str] = []
        self._rows: list[tuple] = []
        self._warp: WarpKind | None = None
        self._origin: np.ndarray | None = None

    def add(self, utt_id: str, fm: FeatureMatrix) -> None:
        if fm.kind is not FeatureKind.LOG_FBANK:
            raise ValueError("probing requires log-Fbank features")
        if not self._rows:
            self._warp = fm.warp_kind
        elif fm.dim != self._rows[0][1].size:
            raise ValueError(f"band counts differ: "
                             f"{self._rows[0][1].size} vs {fm.dim}")
        if self._origin is None and fm.n_frames:
            self._origin = fm.values[0].copy()
        self._ids.append(utt_id)
        self._rows.append(_utterance_moments(fm.values, self._origin))

    def table(self) -> MomentTable:
        dim = self._rows[0][1].size if self._rows else 0
        return MomentTable(self._warp,
                           {u: i for i, u in enumerate(self._ids)},
                           *_stack(self._rows, dim))


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


def _table(moments) -> MomentTable:
    return (moments if isinstance(moments, MomentTable)
            else MomentTable.of(moments))


def probe_factor(moments: MomentTable | Mapping[str, FeatureMatrix],
                 manifest: Manifest, factor: str) -> ProbeReport:
    """One discriminability pattern per value of the probed factor, from
    an archive's `MomentTable` (or the utterance -> log-Fbank mapping it
    is built from).

    For speaker and phrase, both frame pools are restricted to utterances
    carrying the value. Genuine utterances carry no device, so the device
    probe pools all genuine frames against each device's replay frames.
    """
    if factor not in PROBE_FACTORS:
        raise ValueError(f"unknown factor {factor!r}; expected one of "
                         f"{list(PROBE_FACTORS)}")
    table = _table(moments)
    missing = [r.utt_id for r in manifest if r.utt_id not in table.index]
    if missing:
        raise ValueError(f"features missing for utterance(s) {missing[:3]}")

    attr = f"{factor}_id"
    values = (manifest.device_ids() if factor == "device"
              else sorted({getattr(r, attr) for r in manifest}))
    pools = [(v, [r.utt_id for r in manifest.genuine_records()
                  if factor == "device" or getattr(r, attr) == v],
              [r.utt_id for r in manifest.replay_records()
               if getattr(r, attr) == v])
             for v in values]
    return _report(table, factor, pools)


def compare_datasets(moments: MomentTable | Mapping[str, FeatureMatrix],
                     train: Manifest, heldout: Manifest) -> ProbeReport:
    """Pool every genuine and replay frame within each dataset and compare
    the two resulting patterns (cross-dataset generalization probe)."""
    pools = [(name, [r.utt_id for r in man.genuine_records()],
              [r.utt_id for r in man.replay_records()])
             for name, man in (("train", train), ("heldout", heldout))]
    return _report(_table(moments), "dataset", pools)


def _report(table: MomentTable, factor, pools) -> ProbeReport:
    """One pattern per (value, genuine ids, replay ids) pool, merged from
    the table's rows; a list of ids that several pools share (the device
    probe's genuine pool) is merged once. `fratio`'s messages read
    "problem: detail"; the value goes after the problem."""
    moments = {}

    def pool_moments(ids, rows, n):
        key = tuple(ids)
        if key not in moments:
            moments[key] = _moments(table.stats(rows), n)
        return moments[key]

    patterns = []
    for value, genuine_ids, replay_ids in pools:
        g, r = table.rows(genuine_ids), table.rows(replay_ids)
        n_g, n_r = int(table.counts[g].sum()), int(table.counts[r].sum())
        try:
            _check_sizes(n_g, n_r)
            values = _ratio(pool_moments(genuine_ids, g, n_g),
                            pool_moments(replay_ids, r, n_r))
        except ValueError as exc:
            problem, _, detail = str(exc).partition(": ")
            raise type(exc)(f"{problem} for {factor}={value}: {detail}") \
                from exc
        patterns.append(FRatioPattern(value, values, n_g, n_r))
    dispersion, contributions = _spread(normalized_shapes(patterns))
    return ProbeReport(factor, table.warp, patterns, dispersion, contributions)
