"""Command-line front end: synth, extract, probe, train, score, eval, study.

Every command exits 0 on success; any failure prints a single diagnostic
line on stderr and exits 1.

The commands share their stages with `run_study`, but extract from 16-bit
WAVs and train on float32 archive round-trips, so their results are close
to a study's but not bit-identical (`replaykit.study` gives the gap).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import archive as archive_mod
from . import corpus as corpus_mod
from .errors import EmptyUtteranceError
from .filterbank import FeatureKind, WarpKind
from .fratio import pool_frames, probe_factor
from .gmm import GmmPairModel, TrainConfig, load_pair_model, save_pair_model, score_utterance, train_gmm
from .metrics import UNLABELLED, ScoreRecord, compute_eer, read_scores, write_scores
from .study import (
    ExtractionConfig,
    StudyConfig,
    extract_features,
    run_study,
    write_corpus,
    write_probe_report,
)

SAMPLES_PER_MS = corpus_mod.PIPELINE_SAMPLE_RATE / 1000


def _cmd_synth(args) -> None:
    config = corpus_mod.SynthConfig(
        n_speakers=args.speakers, n_phrases=args.phrases,
        n_train_devices=args.train_devices,
        n_heldout_devices=args.heldout_devices,
        utt_seconds=args.utt_seconds, reps=args.reps)
    signals, manifest, profiles = corpus_mod.synth_corpus(config, args.seed)
    for _ in write_corpus(signals, manifest, profiles, args.out):
        pass
    print(f"wrote {len(manifest.genuine_records())} genuine and "
          f"{len(manifest.replay_records())} replay utterances to {args.out}")


def _cmd_extract(args) -> None:
    manifest_path = Path(args.manifest)
    manifest = corpus_mod.parse_manifest(manifest_path)
    config = ExtractionConfig(
        warp=WarpKind.from_name(args.warp),
        feature=FeatureKind(args.feature),
        bands=args.bands,
        frame_len=int(round(args.frame_ms * SAMPLES_PER_MS)),
        hop=int(round(args.hop_ms * SAMPLES_PER_MS)),
        n_fft=args.nfft,
        delta_window=args.delta_window)
    utterances = ((rec.utt_id,
                   corpus_mod.read_wav(manifest_path.parent / rec.audio_path))
                  for rec in manifest)
    (archive,) = extract_features(utterances, config)
    archive_mod.write_archive(archive, args.out)
    print(f"wrote {len(archive.entries)} {archive.feature_kind} entries to "
          f"{args.out}")


def _cmd_probe(args) -> None:
    archive = archive_mod.read_archive(args.archive)
    manifest = corpus_mod.parse_manifest(args.manifest)
    report = probe_factor(archive.entries, manifest, args.factor)
    write_probe_report(report, args.out)
    print(f"factor={args.factor} values={len(report.patterns)} "
          f"dispersion={report.dispersion:.6f} -> {args.out}")


def _cmd_train(args) -> None:
    archive = archive_mod.read_archive(args.archive)
    manifest = corpus_mod.parse_manifest(args.manifest)
    missing = [r.utt_id for r in manifest if r.utt_id not in archive.entries]
    if missing:
        raise ValueError(f"archive lacks features for {missing[:3]}")
    genuine = pool_frames(archive.entries,
                          [r.utt_id for r in manifest.genuine_records()])
    replay = pool_frames(archive.entries,
                         [r.utt_id for r in manifest.replay_records()])
    config = TrainConfig(max_iters=args.max_iters,
                         ll_tolerance=args.ll_tolerance)
    g_model = train_gmm(genuine, args.ncomp, args.cov, config, seed=args.seed)
    r_model = train_gmm(replay, args.ncomp, args.cov, config,
                        seed=args.seed + 1)
    pair = GmmPairModel(g_model, r_model, archive.feature_kind,
                        config.to_dict())
    save_pair_model(pair, args.out)
    print(f"trained {args.cov} pair (K={args.ncomp}) on "
          f"{genuine.shape[0]}+{replay.shape[0]} frames -> {args.out}")


def _cmd_score(args) -> None:
    archive = archive_mod.read_archive(args.archive)
    pair = load_pair_model(args.model)
    if pair.feature_kind != archive.feature_kind:
        raise ValueError(f"model {args.model} was trained on "
                         f"{pair.feature_kind} features, but archive "
                         f"{args.archive} holds {archive.feature_kind}")
    labels = {}
    if args.manifest:
        labels = {r.utt_id: r.label
                  for r in corpus_mod.parse_manifest(args.manifest)}
    # Labels the archive cannot know are written as '-'; `eval` fills them
    # back in from its manifest.
    records = []
    for utt_id, feats in archive.entries.items():
        if feats.n_frames == 0:
            raise EmptyUtteranceError(f"utterance {utt_id} has 0 frames in "
                                      f"{args.archive}; scoring needs at "
                                      f"least 1")
        records.append(ScoreRecord(utt_id, score_utterance(pair, feats),
                                   labels.get(utt_id, UNLABELLED)))
    write_scores(records, args.out)
    print(f"scored {len(records)} utterances -> {args.out}")


def _cmd_eval(args) -> None:
    manifest = corpus_mod.parse_manifest(args.manifest)
    records = read_scores(args.scores, manifest)
    eer, threshold = compute_eer(records)
    print(f"EER: {100.0 * eer:.2f}%  threshold: {threshold!r}")


def _cmd_study(args) -> None:
    report = run_study(args.seed, args.out, StudyConfig())
    print(f"study complete -> {args.out}")
    for tag, by_cov in report.eers.items():
        for cov, result in by_cov.items():
            print(f"  EER[{tag}][{cov}] = {100.0 * result['eer']:.2f}%")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replaykit",
        description="Replay detection pipeline: synthetic corpus, warped "
                    "filterbank features, band discriminability probes, "
                    "GMM scoring and EER evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--speakers", type=int, default=6)
    p.add_argument("--phrases", type=int, default=4)
    p.add_argument("--train-devices", type=int, default=3)
    p.add_argument("--heldout-devices", type=int, default=3)
    p.add_argument("--reps", type=int, default=2)
    p.add_argument("--utt-seconds", type=float, default=2.0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="extract features into an archive")
    p.add_argument("--manifest", required=True)
    p.add_argument("--warp", choices=[k.value for k in WarpKind],
                   required=True)
    p.add_argument("--feature", choices=[k.value for k in FeatureKind],
                   required=True)
    p.add_argument("--bands", type=int, default=23)
    p.add_argument("--frame-ms", type=float, default=25.0)
    p.add_argument("--hop-ms", type=float, default=10.0)
    p.add_argument("--nfft", type=int, default=512)
    p.add_argument("--delta-window", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("probe", help="per-factor discriminability patterns")
    p.add_argument("--archive", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--factor", choices=["speaker", "phrase", "device"],
                   required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("train", help="train a genuine/replay GMM pair")
    p.add_argument("--archive", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--ncomp", type=int, default=64)
    p.add_argument("--cov", choices=["diag", "full"], default="diag")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--ll-tolerance", type=float, default=1e-5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score archived utterances with a model")
    p.add_argument("--archive", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", help="fills the label column; '-' otherwise")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="equal error rate of a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("study", help="run the full experiment loop")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_study)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # single-line diagnostic, exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
