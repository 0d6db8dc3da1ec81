"""End-to-end experiment loop on the synthetic corpus.

One `run_study` call generates a corpus, extracts log-Fbank and
cepstra+delta features for all three warps, probes the speaker, phrase and
device factors (plus the train-vs-heldout dataset comparison), trains
diagonal and full-covariance mixture pairs per cepstral feature on the
train-device portion, scores the held-out-device portion, and aggregates
every dispersion and EER into a StudyReport. Everything is deterministic
under the seed, including the bytes of every file written.

The corpus passes through once (`iter_features`): each signal is written
as a WAV and framed as the stream from `synth_corpus` makes it, and its
six feature matrices are appended to their archives on disk at once.
Each archive appears at its path, complete, when the pass ends; a pass
that raises, in training too, leaves none (`ArchiveWriter`). A log-Fbank
matrix leaves only its per-utterance moments, added to its warp's
`MomentTable`, which is all the probes read.

The stream gives the genuine signals and the train devices' replays
before any held-out replay (`CorpusSignals`), so the pass stops at that
boundary to train. Up to it the study keeps the cepstra+delta frames,
which the six detection legs pool to train on; it then trains and saves
each leg's pair, scores the genuine utterances with it, and drops the
training frames. The rest of the pass scores each held-out replay with
its warp's two pairs as the replay is made, and keeps none of its
frames. So a study holds at once the genuine signals' spectra, the
pass's tables (a filterbank per warp, one DCT basis and one
`SpectrumWorkspace`, each built once per pass), one utterance's
features, the signal made ahead of it (below), three small moment tables
and, as training replaces the one with the other, the training
cepstra+delta frames and the six pairs.

One pool of two worker threads serves the pass; `run_study` makes one
per call. On it the corpus is made one signal ahead: `_look_ahead` runs
the stream's calls (`CorpusSignals.makers`) with one submitted beyond
the signal the calling thread holds, and `write_corpus` writes each WAV
on the calling thread, in the stream's order, before the signal is
extracted. This is `replaykit synth`'s path (`cli._cmd_synth`), at
depth 1. One is enough: making a signal takes less time than the
caller's work on one, so the next signal is nearly always ready when it
is wanted, and a deeper look-ahead would only hold more signals. The
stream keeps its one consumer and its order, so every file is
byte-identical to a pass on one thread. `_look_ahead` is the one ordered
look-ahead helper: `replaykit extract` runs its calls through it too,
each an inline `iter_features` pass over a chunk of contiguous manifest
rows (`cli._cmd_extract`).

A warp's four fits, diag and full for the genuine and the replay pool,
go to the same pool, full fits first, then the larger pool, so the two
costliest start first. At the start of training the first held-out
replay's call, submitted ahead, still takes one of the two workers until
its signal is made; its WAV is written when the stream reaches it, after
training. numpy releases the GIL in the GEMMs, FFTs, `eigh` and `exp`
that make up the work, so the threads overlap. Each fit gets the frames
and seed it would get in a loop, and the results are taken in leg order,
so every file is byte-identical to sequential training. Training holds
up to two fits' working sets at once (see `gmm.MOMENT_BLOCK`). The scope
is one warp, not all twelve fits: those would keep every warp's pools
alive at once, which raised peak RSS and shortened neither the
`study-frontend` nor the `study-em` benchmark.

When the pass ends or raises, in training too, the pool is shut down
before `run_study` returns or raises: calls and fits not yet started
are cancelled, the work in hand finishes, and the pool's threads are
joined. So no signal is made after, and no thread outlives the call.

The study and the CLI commands share their stage functions, not bits:
`run_study` probes and trains on float64 features of the in-memory float64
signals, while the CLI extracts from 16-bit WAVs and trains on float32
archive round-trips. On a 2-speaker, 2-phrase, 0.5 s corpus at seed 1 the
features differ by at most about 7e-3 (Mel log-Fbank) and 2.5e-3 (Mel
cepstra+delta); inverted-Mel, which weights the quiet top band, by 2e-2.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import itertools
import json
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

# `write_archive` only for perfbench/tracing.py, which wraps it at this
# import site; nothing here calls it, so its metrics read 0 (ROADMAP 8).
from .archive import ArchiveWriter, FeatureArchive, write_archive  # noqa: F401
from .corpus import (
    AudioSignal,
    SynthConfig,
    derive_seed,
    save_device_profiles,
    synth_corpus,
    write_manifest,
    write_wav,
)
from .errors import EmptyUtteranceError
from .filterbank import (
    NUM_CEPSTRA,
    ExtractionConfig,
    FeatureKind,
    FeatureMatrix,
    WarpKind,
    append_deltas,
    build_filterbank,
    cepstral_features,
    fbank_features,
)
from .fratio import (PROBE_FACTORS, MomentTable, ProbeReport,
                     compare_datasets, pool_frames, probe_factor)
from .gmm import (COVARIANCE_KINDS, GmmPairModel, TrainConfig,
                  save_pair_model, score_utterance, train_gmm)
from .metrics import ScoreRecord, compute_eer, write_scores
from .spectrum import SpectrumWorkspace, dct_basis, frame_signal, power_spectrum

WARP_INITIALS = {WarpKind.LINEAR: "L", WarpKind.MEL: "M",
                 WarpKind.INVERTED_MEL: "IM"}


def feature_tag(warp: WarpKind, feature: FeatureKind) -> str:
    """Display name of a feature stream, e.g. IM-Fbank or IMFCC+D, for
    report keys, file stems and printed lines; no file records it."""
    if feature is FeatureKind.LOG_FBANK:
        return f"{WARP_INITIALS[warp]}-Fbank"
    return f"{WARP_INITIALS[warp]}FCC+D"


def iter_features(utterances, *configs: ExtractionConfig
                  ) -> Iterator[tuple[str, list[FeatureMatrix]]]:
    """Run (utt_id, AudioSignal) pairs through framing, spectra and
    filterbank and, under a cepstra-delta config, the DCT and the deltas,
    which always come together; return an iterator of (utt_id, one feature
    matrix per config, in config order), one per pair, in input order. It
    takes the pairs one at a time, so a lazy generator holds one waveform
    at once, and nothing here keeps a yielded matrix.

    The configs must share one framing (frame_len, hop, n_fft), which is
    checked here; each utterance's spectrogram and each (warp, bands)
    log-Fbank is computed once. The pass's tables, one filterbank per
    (warp, bands) and one DCT basis per cepstra-delta band count, are
    built once, here, on the calling thread, not by the thread that takes
    the first item, and live as long as the pass; `replaykit extract`
    calls this once per chunk of rows, on the worker that computes it.

    An utterance shorter than one frame gets a 0-frame log-Fbank matrix;
    under a cepstra-delta config it raises EmptyUtteranceError naming it.

    The pass owns one `SpectrumWorkspace`, sized to its longest utterance,
    and computes its spectra in it. Each spectrum stays valid only until
    the next, so it is turned into filterbank energies at once and never
    kept.
    """
    framing = {(c.frame_len, c.hop, c.n_fft) for c in configs}
    if len(framing) != 1:
        raise ValueError(f"extraction configs must share one framing "
                         f"(frame_len, hop, n_fft), got {sorted(framing)}")
    frame_len, hop, n_fft = framing.pop()
    banks = {key: build_filterbank(*key, n_fft)
             for key in dict.fromkeys((c.warp, c.bands) for c in configs)}
    bases = {bands: dct_basis(bands, NUM_CEPSTRA)
             for bands in {c.bands for c in configs
                           if c.feature is FeatureKind.CEPSTRA_DELTA}}
    workspace = SpectrumWorkspace(frame_len, n_fft)

    def features():
        for utt_id, signal in utterances:
            spec = power_spectrum(frame_signal(signal, frame_len, hop),
                                  workspace)
            fbanks = {key: fbank_features(spec, fb)
                      for key, fb in banks.items()}
            feats = []
            for config in configs:
                fm = fbanks[config.warp, config.bands]
                if config.feature is FeatureKind.CEPSTRA_DELTA:
                    if fm.n_frames == 0:
                        raise EmptyUtteranceError(
                            f"utterance {utt_id} has 0 frames: its "
                            f"{signal.samples.size} samples are shorter "
                            f"than one {frame_len}-sample frame, and "
                            f"deltas need at least 1")
                    fm = FeatureMatrix(
                        append_deltas(cepstral_features(fm, bases[config.bands]),
                                      config.delta_window),
                        FeatureKind.CEPSTRA_DELTA, config.warp)
                feats.append(fm)
            # Dropped before the next pair is taken: a lazy source makes
            # the next signal then, and both would be held at once.
            del signal, spec, fbanks, fm
            yield utt_id, feats
            del feats

    return features()


def extract_features(utterances, *configs: ExtractionConfig
                     ) -> list[FeatureArchive]:
    """`iter_features` collected into one in-memory archive per config."""
    entries = [{} for _ in configs]
    for utt_id, feats in iter_features(utterances, *configs):
        for out, fm in zip(entries, feats):
            out[utt_id] = fm
    return [FeatureArchive(c, e) for c, e in zip(configs, entries)]


def write_corpus(signals, manifest, profiles, out_dir
                 ) -> Iterator[tuple[str, AudioSignal]]:
    """Write a corpus as `synth_corpus` returns it under out_dir:
    manifest.tsv and devices.json now, and each signal's WAV, at the path
    of the manifest row it comes with, as the returned iterator passes it
    on as (utt_id, signal) in the stream's order. Drain the iterator to
    write every WAV; it holds one signal at a time beyond what `signals`
    itself holds."""
    out_dir = Path(out_dir)
    write_manifest(manifest, out_dir / "manifest.tsv")
    save_device_profiles(profiles, out_dir / "devices.json")
    return _write_wavs(signals, out_dir)


def _write_wavs(signals, out_dir: Path) -> Iterator[tuple[str, AudioSignal]]:
    for rec, sig in signals:
        write_wav(sig, out_dir / rec.audio_path)
        yield rec.utt_id, sig
        # Dropped before the next signal is taken; under a look-ahead
        # that one is already being made.
        del sig


# ---------------------------------------------------------------------------
# Probe report serialization
# ---------------------------------------------------------------------------

def write_probe_report(report: ProbeReport, tsv_path) -> None:
    """TSV: a `value`, `F_1..F_M`, `dispersion_contribution` header, then
    one row per factor value: its band ratios and the RMS deviation of its
    normalized shape from the mean shape. Next to it, a JSON document with
    the factor, the warp (null if the features name none), the band count,
    the dispersion and each pattern's value, frame counts and ratios.
    A TSV path ending in .json, which the JSON document would overwrite,
    raises ValueError before anything is written."""
    tsv_path = Path(tsv_path)
    if tsv_path.suffix == ".json":
        raise ValueError(f"{tsv_path}: the probe report's TSV path must not "
                         f"end in .json, where its JSON document goes")
    header = ["value"] + [f"F_{i + 1}" for i in range(report.n_bands)]
    header.append("dispersion_contribution")
    lines = ["\t".join(header)]
    for pattern, contrib in zip(report.patterns, report.contributions):
        cells = [pattern.value] + [repr(v) for v in pattern.values.tolist()]
        cells.append(repr(float(contrib)))
        lines.append("\t".join(cells))
    tsv_path.parent.mkdir(parents=True, exist_ok=True)
    tsv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    doc = {
        "factor": report.factor,
        "warp": report.warp.value if report.warp else None,
        "bands": report.n_bands,
        "dispersion": report.dispersion,
        "patterns": [{
            "value": p.value,
            "n_genuine_frames": p.n_genuine_frames,
            "n_replay_frames": p.n_replay_frames,
            "values": p.values.tolist(),
        } for p in report.patterns],
    }
    tsv_path.with_suffix(".json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyConfig:
    corpus: SynthConfig = field(default_factory=SynthConfig)
    bands: int = 23
    frame_len: int = 400
    hop: int = 160
    n_fft: int = 512
    delta_window: int = 2
    n_comp: int = 64
    train: TrainConfig = field(default_factory=TrainConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class StudyReport:
    """Aggregated dispersions and detection results of one study run."""

    seed: int
    config: dict
    probe_dispersions: dict[str, dict[str, float]]
    dataset_dispersions: dict[str, float]
    eers: dict[str, dict[str, dict[str, float]]]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=1) + "\n"


def _look_ahead(calls, pool: ThreadPoolExecutor, depth: int) -> Iterator:
    """Run `calls` on `pool` and yield their results in order, with up to
    `depth` calls submitted beyond the result the caller holds. The first
    `depth` are submitted now, when the look-ahead is made; the next one
    each time a result is taken. An exception raised by a call is raised
    here when its place in the order comes, and the calls still queued
    are then cancelled."""
    calls = iter(calls)
    ahead = collections.deque(
        pool.submit(call) for call in itertools.islice(calls, depth))

    def results():
        try:
            while ahead:
                result = ahead.popleft().result()
                ahead.extend(pool.submit(call)
                             for call in itertools.islice(calls, 1))
                yield result
                del result  # the caller's now
        finally:
            for future in ahead:
                future.cancel()

    return results()


def _leg_stem(tag: str, cov: str) -> str:
    """File stem of a detection leg's model and scores, e.g. imfcc_full."""
    return f"{tag.split('+')[0].lower()}_{cov}"


def run_study(seed: int, out_dir, config: StudyConfig | None = None) -> StudyReport:
    """Run the full probing-and-detection loop; see the module docstring."""
    config = config or StudyConfig()
    out_dir = Path(out_dir)

    signals, manifest, profiles = synth_corpus(config.corpus, seed)
    train_devices = {p.device_id
                     for p in profiles[:config.corpus.n_train_devices]}
    man_train = manifest.filter(
        lambda r: r.is_genuine or r.device_id in train_devices)
    man_heldout = manifest.filter(
        lambda r: r.is_genuine or r.device_id not in train_devices)

    configs = [ExtractionConfig(kind, feature, config.bands, config.frame_len,
                                config.hop, config.n_fft, config.delta_window)
               for kind in WarpKind for feature in FeatureKind]
    # Detection legs: genuine model on all genuine frames, replay model on
    # train-device replay frames; score genuine plus held-out replays.
    leg_configs = {c.warp: c for c in configs
                   if c.feature is FeatureKind.CEPSTRA_DELTA}
    genuine_ids = [r.utt_id for r in manifest.genuine_records()]
    train_replay_ids = [r.utt_id for r in man_train.replay_records()]
    fbank_tables = {kind: MomentTable() for kind in WarpKind}
    pairs: dict[tuple[WarpKind, str], GmmPairModel] = {}
    scores: dict[tuple[WarpKind, str], dict[str, float]] = {}
    with contextlib.ExitStack() as stack:
        writers = [stack.enter_context(ArchiveWriter(
            out_dir / "features" / f"{c.warp.value}_{c.feature.value}.rpfa",
            c)) for c in configs]
        # Shut down first when the stack unwinds: queued calls are
        # cancelled, the work in hand finishes, and the threads are joined.
        pool = ThreadPoolExecutor(max_workers=2,
                                  thread_name_prefix="replaykit")
        stack.callback(pool.shutdown, cancel_futures=True)
        # The stream's calls run on the pool, one beyond the signal whose
        # WAV this thread writes, in the stream's order. Its first part is
        # exactly man_train's rows: the genuine signals, then the train
        # devices' replays.
        stream = write_corpus(_look_ahead(signals.makers(), pool, 1),
                              manifest, profiles, out_dir / "corpus")

        def extract(utterances):
            """Append each utterance's six matrices to the archives, keep
            the log-Fbank streams' moments, and yield (utt_id, the
            cepstra+delta matrix per warp)."""
            for utt_id, feats in iter_features(utterances, *configs):
                kept = {}
                for c, writer, fm in zip(configs, writers, feats):
                    writer.add(utt_id, fm)
                    if c.feature is FeatureKind.LOG_FBANK:
                        fbank_tables[c.warp].add(utt_id, fm)
                    else:
                        kept[c.warp] = fm
                yield utt_id, kept
                del feats, fm, kept  # before the next utterance is made

        cepstra = {kind: {} for kind in WarpKind}
        for utt_id, kept in extract(itertools.islice(stream, len(man_train))):
            for kind, fm in kept.items():
                cepstra[kind][utt_id] = fm

        for kind_idx, kind in enumerate(WarpKind):
            # Once pooled, a warp's train-device replays are dropped; its
            # genuine matrices go once its pairs have scored them.
            entries = cepstra.pop(kind)
            tag = feature_tag(kind, FeatureKind.CEPSTRA_DELTA)
            counts = {u: fm.n_frames for u, fm in entries.items()}
            pools = [pool_frames(ids, counts, lambda u: entries[u].values)
                     for ids in (genuine_ids, train_replay_ids)]
            genuine = [entries[u] for u in genuine_ids]
            del entries

            # The warp's four fits, (diag, full) × (genuine, replay), go to
            # the pool costliest first: full fits, then the larger pool,
            # ties in leg order. `train_gmm` is looked up by this module's
            # name as each is submitted, so a wrapper set on it sees them
            # all.
            legs = [(cov_idx, cov, cls)
                    for cov_idx, cov in enumerate(COVARIANCE_KINDS)
                    for cls in (0, 1)]
            fits = {}
            for cov_idx, cov, cls in sorted(
                    legs, key=lambda leg: (leg[1] == "full",
                                           len(pools[leg[2]])),
                    reverse=True):
                fits[cov_idx, cov, cls] = pool.submit(
                    train_gmm, pools[cls], config.n_comp, cov, config.train,
                    seed=derive_seed(seed, 3, kind_idx, cov_idx, cls))
            models = iter([fits[leg].result() for leg in legs])
            for cov in COVARIANCE_KINDS:
                pair = GmmPairModel(next(models), next(models),
                                    config.train, leg_configs[kind])
                save_pair_model(pair, out_dir / "models" /
                                f"{_leg_stem(tag, cov)}.json")
                pairs[kind, cov] = pair
                scores[kind, cov] = {
                    u: score_utterance(pair, fm)
                    for u, fm in zip(genuine_ids, genuine)}
            del genuine, pools, fits, models

        # The held-out replays: each is scored by its warp's pairs as it
        # is made, and none of its frames is kept.
        for utt_id, kept in extract(stream):
            for (kind, cov), pair in pairs.items():
                scores[kind, cov][utt_id] = score_utterance(pair, kept[kind])
            del kept

    # Probes on log-Fbank features, per factor and warp, plus the
    # train-vs-heldout dataset comparison.
    probes_dir = out_dir / "probes"
    probe_dispersions: dict[str, dict[str, float]] = {}
    dataset_dispersions: dict[str, float] = {}
    for kind, table in fbank_tables.items():
        per_factor = {}
        for factor in PROBE_FACTORS:
            report = probe_factor(table, manifest, factor)
            write_probe_report(report,
                               probes_dir / f"{factor}_{kind.value}.tsv")
            per_factor[factor] = report.dispersion
        probe_dispersions[kind.value] = per_factor
        ds_report = compare_datasets(table, man_train, man_heldout)
        write_probe_report(ds_report, probes_dir / f"dataset_{kind.value}.tsv")
        dataset_dispersions[kind.value] = ds_report.dispersion

    # Score files list the genuine utterances, then the held-out replays,
    # in manifest order.
    eval_records = (manifest.genuine_records() + man_heldout.replay_records())
    eers: dict[str, dict[str, dict[str, float]]] = {}
    for (kind, cov), by_utt in scores.items():
        tag = feature_tag(kind, FeatureKind.CEPSTRA_DELTA)
        records = [ScoreRecord(r.utt_id, by_utt[r.utt_id], r.label)
                   for r in eval_records]
        write_scores(records, out_dir / "scores" / f"{_leg_stem(tag, cov)}.tsv")
        eer, threshold = compute_eer(records)
        eers.setdefault(tag, {})[cov] = {"eer": eer, "threshold": threshold}

    report = StudyReport(seed=seed, config=config.to_dict(),
                         probe_dispersions=probe_dispersions,
                         dataset_dispersions=dataset_dispersions,
                         eers=eers)
    (out_dir / "study_report.json").write_text(report.to_json(),
                                               encoding="utf-8")
    return report
