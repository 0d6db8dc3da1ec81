"""End-to-end experiment loop on the synthetic corpus.

One `run_study` call generates a corpus, extracts log-Fbank and
cepstra+delta features for all three warps, probes the speaker, phrase and
device factors (plus the train-vs-heldout dataset comparison), trains
diagonal and full-covariance mixture pairs per cepstral feature on the
train-device portion, scores the held-out-device portion, and aggregates
every dispersion and EER into a StudyReport. Everything is deterministic
under the seed, including the bytes of every file written.

The corpus passes through once: each signal is written as a WAV and
framed as the stream from `synth_corpus` makes it, so a study holds at
once the genuine signals, one replay, and the feature archives. The
probes read per-utterance moments of the archives and stack no frames;
only the detection legs pool frames, to train on them.

The study and the CLI commands share their stage functions, not bits:
`run_study` probes and trains on float64 features of the in-memory float64
signals, while the CLI extracts from 16-bit WAVs and trains on float32
archive round-trips. On a 2-speaker, 2-phrase, 0.5 s corpus at seed 1 the
features differ by at most about 7e-3 (Mel log-Fbank) and 2.5e-3 (Mel
cepstra+delta); inverted-Mel, which weights the quiet top band, by 2e-2.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .archive import FeatureArchive, write_archive
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
    FeatureKind,
    WarpKind,
    append_deltas,
    build_filterbank,
    cepstral_features,
    fbank_features,
)
from .fratio import (PROBE_FACTORS, ProbeReport, compare_datasets,
                     pool_frames, probe_factor)
from .gmm import (COVARIANCE_KINDS, GmmPairModel, TrainConfig,
                  save_pair_model, score_utterance, train_gmm)
from .metrics import ScoreRecord, compute_eer, write_scores
from .spectrum import SpectrumWorkspace, frame_signal, power_spectrum

FBANK_TAGS = {WarpKind.LINEAR: "L-Fbank", WarpKind.MEL: "M-Fbank",
              WarpKind.INVERTED_MEL: "IM-Fbank"}
CEPSTRA_TAGS = {WarpKind.LINEAR: "LFCC", WarpKind.MEL: "MFCC",
                WarpKind.INVERTED_MEL: "IMFCC"}


def feature_tag(warp: WarpKind, feature: FeatureKind) -> str:
    """Conventional name of a feature stream, e.g. IM-Fbank or IMFCC+D."""
    if feature is FeatureKind.LOG_FBANK:
        return FBANK_TAGS[warp]
    tag = CEPSTRA_TAGS[warp]
    return tag + "+D" if feature is FeatureKind.CEPSTRA_DELTA else tag


@dataclass(frozen=True)
class ExtractionConfig:
    warp: WarpKind
    feature: FeatureKind
    bands: int = 23
    frame_len: int = 400
    hop: int = 160
    n_fft: int = 512
    delta_window: int = 2

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "warp": self.warp.value,
                "feature": self.feature.value}


def extract_features(utterances, *configs: ExtractionConfig
                     ) -> list[FeatureArchive]:
    """Run (utt_id, signal) pairs through framing, spectra, filterbank and,
    where a config asks, cepstra and deltas; one archive per config.

    The configs must share one framing (frame_len, hop, n_fft); each
    utterance's spectrogram and each (warp, bands) log-Fbank is computed
    once. Pairs are taken one at a time, so a lazy generator holds one
    waveform at once.

    An utterance shorter than one frame gets a 0-frame entry, except under
    a cepstra-with-deltas config, where it raises EmptyUtteranceError
    naming it.

    The call owns one `SpectrumWorkspace`, sized to its longest utterance,
    and computes every spectrum in it. Each spectrum stays valid only
    until the next utterance's, so it is turned into filterbank energies
    at once and never kept.
    """
    framing = {(c.frame_len, c.hop, c.n_fft) for c in configs}
    if len(framing) != 1:
        raise ValueError(f"extraction configs must share one framing "
                         f"(frame_len, hop, n_fft), got {sorted(framing)}")
    frame_len, hop, n_fft = framing.pop()
    banks = {(c.warp, c.bands): build_filterbank(c.warp, c.bands, n_fft)
             for c in configs}
    workspace = SpectrumWorkspace(frame_len, n_fft)
    entries = [{} for _ in configs]
    for utt_id, signal in utterances:
        spec = power_spectrum(frame_signal(signal, frame_len, hop), n_fft,
                              workspace)
        fbanks = {key: fbank_features(spec, fb) for key, fb in banks.items()}
        for config, out in zip(configs, entries):
            feats = fbanks[config.warp, config.bands]
            if config.feature is not FeatureKind.LOG_FBANK:
                feats = cepstral_features(feats)
            if config.feature is FeatureKind.CEPSTRA_DELTA:
                if feats.n_frames == 0:
                    raise EmptyUtteranceError(
                        f"utterance {utt_id} has 0 frames: its "
                        f"{signal.samples.size} samples are shorter than one "
                        f"{frame_len}-sample frame, and deltas need at least 1")
                feats = append_deltas(feats, config.delta_window)
            out[utt_id] = feats
    return [FeatureArchive(feature_tag(c.warp, c.feature), c.to_dict(), e)
            for c, e in zip(configs, entries)]


def write_corpus(signals, manifest, profiles, out_dir
                 ) -> Iterator[tuple[str, AudioSignal]]:
    """Write a corpus as `synth_corpus` returns it under out_dir:
    manifest.tsv and devices.json now, and one WAV per manifest row as the
    returned iterator passes it on as (utt_id, signal). Drain the iterator
    to write every WAV; it holds one signal at a time beyond what
    `signals` itself holds."""
    out_dir = Path(out_dir)
    write_manifest(manifest, out_dir / "manifest.tsv")
    save_device_profiles(profiles, out_dir / "devices.json")
    return _write_wavs(zip(manifest, signals, strict=True), out_dir)


def _write_wavs(rows, out_dir: Path) -> Iterator[tuple[str, AudioSignal]]:
    for rec, sig in rows:
        write_wav(sig, out_dir / rec.audio_path)
        yield rec.utt_id, sig


# ---------------------------------------------------------------------------
# Probe report serialization
# ---------------------------------------------------------------------------

def write_probe_report(report: ProbeReport, tsv_path) -> None:
    """TSV: a `value`, `F_1..F_M`, `dispersion_contribution` header, then
    one row per factor value: its band ratios and the RMS deviation of its
    normalized shape from the mean shape. Next to it, a JSON document with
    the factor, the warp (null if the features name none), the band count,
    the dispersion and each pattern's value, frame counts and ratios."""
    header = ["value"] + [f"F_{i + 1}" for i in range(report.n_bands)]
    header.append("dispersion_contribution")
    lines = ["\t".join(header)]
    for pattern, contrib in zip(report.patterns, report.contributions):
        cells = [pattern.value] + [repr(v) for v in pattern.values.tolist()]
        cells.append(repr(float(contrib)))
        lines.append("\t".join(cells))
    tsv_path = Path(tsv_path)
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


def run_study(seed: int, out_dir, config: StudyConfig | None = None) -> StudyReport:
    """Run the full probing-and-detection loop; see the module docstring."""
    config = config or StudyConfig()
    out_dir = Path(out_dir)

    signals, manifest, profiles = synth_corpus(config.corpus, seed)
    utterances = write_corpus(signals, manifest, profiles, out_dir / "corpus")

    configs = [ExtractionConfig(kind, feature, config.bands, config.frame_len,
                                config.hop, config.n_fft, config.delta_window)
               for kind in WarpKind
               for feature in (FeatureKind.LOG_FBANK,
                               FeatureKind.CEPSTRA_DELTA)]
    archives = dict(zip(
        ((c.warp, c.feature) for c in configs),
        extract_features(utterances, *configs)))
    for (kind, feature), archive in archives.items():
        write_archive(archive, out_dir / "features"
                      / f"{kind.value}_{feature.value}.rpfa")

    # Probes on log-Fbank features, per factor and warp, plus the
    # train-vs-heldout dataset comparison.
    train_devices = {p.device_id
                     for p in profiles[:config.corpus.n_train_devices]}
    man_train = manifest.filter(
        lambda r: r.is_genuine or r.device_id in train_devices)
    man_heldout = manifest.filter(
        lambda r: r.is_genuine or r.device_id not in train_devices)

    probes_dir = out_dir / "probes"
    probe_dispersions: dict[str, dict[str, float]] = {}
    dataset_dispersions: dict[str, float] = {}
    for kind in WarpKind:
        fbank_entries = archives[kind, FeatureKind.LOG_FBANK].entries
        per_factor = {}
        for factor in PROBE_FACTORS:
            report = probe_factor(fbank_entries, manifest, factor)
            write_probe_report(report,
                               probes_dir / f"{factor}_{kind.value}.tsv")
            per_factor[factor] = report.dispersion
        probe_dispersions[kind.value] = per_factor
        ds_report = compare_datasets(fbank_entries, man_train, man_heldout)
        write_probe_report(ds_report, probes_dir / f"dataset_{kind.value}.tsv")
        dataset_dispersions[kind.value] = ds_report.dispersion

    # Detection legs: genuine model on all genuine frames, replay model on
    # train-device replay frames; score genuine plus held-out replays.
    genuine_ids = [r.utt_id for r in manifest.genuine_records()]
    train_replay_ids = [r.utt_id for r in man_train.replay_records()]
    eval_records = (manifest.genuine_records() + man_heldout.replay_records())

    eers: dict[str, dict[str, dict[str, float]]] = {}
    for kind_idx, kind in enumerate(WarpKind):
        entries = archives[kind, FeatureKind.CEPSTRA_DELTA].entries
        tag = feature_tag(kind, FeatureKind.CEPSTRA_DELTA)
        genuine_frames = pool_frames(entries, genuine_ids)
        replay_frames = pool_frames(entries, train_replay_ids)
        eers[tag] = {}
        for cov_idx, cov in enumerate(COVARIANCE_KINDS):
            g_model = train_gmm(genuine_frames, config.n_comp, cov,
                                config.train,
                                seed=derive_seed(seed, 3, kind_idx, cov_idx, 0))
            r_model = train_gmm(replay_frames, config.n_comp, cov,
                                config.train,
                                seed=derive_seed(seed, 3, kind_idx, cov_idx, 1))
            pair = GmmPairModel(g_model, r_model, tag, config.train.to_dict())
            stem = f"{tag.split('+')[0].lower()}_{cov}"
            save_pair_model(pair, out_dir / "models" / f"{stem}.json")

            scores = [ScoreRecord(r.utt_id,
                                  score_utterance(pair, entries[r.utt_id]),
                                  r.label)
                      for r in eval_records]
            write_scores(scores, out_dir / "scores" / f"{stem}.tsv")
            eer, threshold = compute_eer(scores)
            eers[tag][cov] = {"eer": eer, "threshold": threshold}

    report = StudyReport(seed=seed, config=config.to_dict(),
                         probe_dispersions=probe_dispersions,
                         dataset_dispersions=dataset_dispersions,
                         eers=eers)
    (out_dir / "study_report.json").write_text(report.to_json(),
                                               encoding="utf-8")
    return report
