"""Command-line front end: synth, extract, probe, train, score, eval, study.

Every command exits 0 on success. A usage error, such as a missing or
unknown option, exits 2 with argparse's usage text on stderr; any other
failure prints a single diagnostic line on stderr and exits 1. No
command writes over one of its inputs: an `--out` that names an input
file is refused before the command reads it, and so is one whose
`.partial` file does, where the output is written first (see
`replaykit._files`), or, for `probe`, whose `.json` sibling or its
partial does.
Every command runs inside `pinned_blas()`, and `synth` and `extract` on
one pool of `workers()`; see `replaykit._threads`.

What each command holds in memory at once, beyond its own output:
- `synth`: the corpus stream's state (`corpus.CorpusSignals`) plus the
  signals in flight, at most WORKERS + 1: the stream's calls go through
  `look_ahead` at depth WORKERS, one call in flight per worker, and the
  calling thread writes each WAV in the stream's order;
- `extract`: at most WORKERS + 1 chunks' features, plus the WAVs the
  workers are reading. The manifest's rows are cut into contiguous
  chunks of EXTRACT_CHUNK rows, and each chunk is one call: an inline
  `iter_features` pass, with its own tables, that reads each WAV as it
  takes the row. The calls go through `look_ahead` at depth WORKERS,
  and the calling thread streams each chunk's features into the
  archive's writer in manifest order, so the earliest bad WAV in
  manifest order is the one named, even when a later chunk fails first.
  The writer renames the file into place only when every entry is in;
- `probe`: one archive entry, whose per-utterance moments it keeps;
- `train`: one archive entry and one pool. The genuine pool is allocated
  once from the frame counts the reader scanned, filled in manifest
  order and dropped once its mixture is trained; then the replay pool.
  The two mixtures are trained one after the other, not two at a time
  as in `run_study`, which would hold both pools at once;
- `score`: one archive entry. Scores are kept and the file is written at
  the end, once the archive's `ExtractionConfig` is found to equal the
  model's; an archive with no entries writes none and fails;
- `eval`: the score file; `study`: see `run_study`.
`probe`, `train` and `score` read archives through `ArchiveReader`,
which checks the whole file when it opens, so a malformed archive fails
them before they write anything. `probe` and `train` then check the
archive's config and index against the manifest, before they read an
entry (`_manifest_of_archive`).

The commands share their stages with `run_study`, but extract from 16-bit
WAVs and train on float32 archive round-trips, so their results are close
to a study's but not bit-identical.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import sys
from pathlib import Path

from . import archive as archive_mod
from . import corpus as corpus_mod
from . import study as study_mod
from ._files import partial_path
from ._threads import WORKERS, look_ahead, pinned_blas, workers
from .errors import EmptyUtteranceError, FeatureMismatchError
from .filterbank import ExtractionConfig, FeatureKind, WarpKind
from .fratio import PROBE_FACTORS, MomentTable, pool_frames, probe_factor
from .gmm import (COVARIANCE_KINDS, GmmPairModel, TrainConfig, load_pair_model,
                  save_pair_model, score_utterance, train_gmm)
from .metrics import UNLABELLED, ScoreRecord, compute_eer, read_scores, write_scores
# `extract_features` only for perfbench/tracing.py, which wraps it at this
# import site; nothing here calls it, so its metric reads 0 (ROADMAP 8).
from .study import (  # noqa: F401
    StudyConfig,
    extract_features,
    feature_tag,
    iter_features,
    run_study,
    write_corpus,
    write_probe_report,
)

SAMPLES_PER_MS = corpus_mod.PIPELINE_SAMPLE_RATE / 1000
# `extract` runs one inline pass per this many contiguous manifest rows.
EXTRACT_CHUNK = 32


def _refuse_overwriting_inputs(out, inputs, also_written=()) -> None:
    """Raise ValueError `<out>: ...` if `out`, another path the command
    writes for it, or the partial file of either names the same file as an
    input (the same path, a symlink or a hard link), so that a command
    never writes over what it reads. Commands call it before they read the
    inputs it is given."""
    for written in (out, *also_written):
        for target in (written, partial_path(written)):
            try:
                out_stat = os.stat(target)
            except OSError:
                continue  # nothing is there, so no input is either
            for path in inputs:
                try:
                    same = os.path.samestat(out_stat, os.stat(path))
                except OSError:
                    continue  # a missing input fails where it is read
                if same:
                    raise ValueError(f"{out}: the output would overwrite "
                                     f"the input {path}")


def _cmd_synth(args) -> None:
    config = corpus_mod.SynthConfig(
        n_speakers=args.speakers, n_phrases=args.phrases,
        n_train_devices=args.train_devices,
        n_heldout_devices=args.heldout_devices,
        utt_seconds=args.utt_seconds, reps=args.reps)
    signals, manifest, profiles = corpus_mod.synth_corpus(config, args.seed)
    with workers() as pool:
        wavs = write_corpus(look_ahead(signals.makers(), pool, WORKERS),
                            manifest, profiles, args.out)
        collections.deque(wavs, maxlen=0)  # drained, holding no signal
    print(f"wrote {len(manifest.genuine_records())} genuine and "
          f"{len(manifest.replay_records())} replay utterances to {args.out}")


def _cmd_extract(args) -> None:
    manifest_path = Path(args.manifest)
    _refuse_overwriting_inputs(args.out, [manifest_path])
    manifest = corpus_mod.parse_manifest(manifest_path)
    wav_paths = [manifest_path.parent / rec.audio_path for rec in manifest]
    _refuse_overwriting_inputs(args.out, wav_paths)
    config = ExtractionConfig(
        warp=WarpKind.from_name(args.warp),
        feature=FeatureKind(args.feature),
        bands=args.bands,
        frame_len=int(round(args.frame_ms * SAMPLES_PER_MS)),
        hop=int(round(args.hop_ms * SAMPLES_PER_MS)),
        n_fft=args.nfft,
        delta_window=args.delta_window)
    tag = feature_tag(config.warp, config.feature)

    def extract_chunk(rows):
        """One inline `iter_features` pass over `rows`, each WAV read as
        its row is taken, on the thread that runs the call: the rows'
        (utt_id, feature matrix) pairs, in order."""
        return [(utt_id, fm) for utt_id, (fm,) in iter_features(
            ((rec.utt_id, corpus_mod.read_wav(path)) for rec, path in rows),
            config)]

    rows = list(zip(manifest, wav_paths))
    chunks = (functools.partial(extract_chunk, rows[i:i + EXTRACT_CHUNK])
              for i in range(0, len(rows), EXTRACT_CHUNK))
    with (workers() as pool,
          archive_mod.ArchiveWriter(args.out, config) as writer):
        for chunk in look_ahead(chunks, pool, WORKERS):
            for utt_id, fm in chunk:
                writer.add(utt_id, fm)
    print(f"wrote {len(manifest)} {tag} entries to {args.out}")


def _manifest_of_archive(reader, args, feature=None):
    """Parse `args.manifest` and check the open archive against it from
    its header and index alone, before any entry is read: raise
    FeatureMismatchError `<archive>: ...` if the archive holds features
    of another kind than `feature` (when one is given) or lacks an
    utterance that the manifest lists."""
    manifest = corpus_mod.parse_manifest(args.manifest)
    if feature is not None and reader.config.feature is not feature:
        raise FeatureMismatchError(
            f"{args.archive}: holds {reader.config.feature.value} features, "
            f"but {args.command} needs {feature.value} features")
    counts = reader.frame_counts
    missing = [r.utt_id for r in manifest if r.utt_id not in counts]
    if missing:
        raise FeatureMismatchError(
            f"{args.archive}: lacks features for {len(missing)} utterance(s) "
            f"that {args.manifest} lists, {missing[:3]}")
    return manifest


def _cmd_probe(args) -> None:
    # The report's JSON document goes next to the TSV (`write_probe_report`).
    _refuse_overwriting_inputs(args.out, [args.archive, args.manifest],
                               [Path(args.out).with_suffix(".json")])
    with archive_mod.ArchiveReader(args.archive) as reader:
        manifest = _manifest_of_archive(reader, args, FeatureKind.LOG_FBANK)
        table = MomentTable(reader.config.warp)
        for utt_id, fm in reader:
            table.add(utt_id, fm)
    report = probe_factor(table, manifest, args.factor)
    write_probe_report(report, args.out)
    print(f"factor={args.factor} values={len(report.patterns)} "
          f"dispersion={report.dispersion:.6f} -> {args.out}")


def _cmd_train(args) -> None:
    _refuse_overwriting_inputs(args.out, [args.archive, args.manifest])
    with archive_mod.ArchiveReader(args.archive) as reader:
        manifest = _manifest_of_archive(reader, args)
        counts = reader.frame_counts
        config = TrainConfig(max_iters=args.max_iters,
                             ll_tolerance=args.ll_tolerance)
        genuine = [r.utt_id for r in manifest.genuine_records()]
        replay = [r.utt_id for r in manifest.replay_records()]
        # Each pool is an argument only, so it is dropped once its model
        # is trained, before the next is filled.
        g_model = train_gmm(pool_frames(genuine, counts, reader.values),
                            args.ncomp, args.cov, config, seed=args.seed)
        r_model = train_gmm(pool_frames(replay, counts, reader.values),
                            args.ncomp, args.cov, config, seed=args.seed + 1)
    pair = GmmPairModel(g_model, r_model, config, reader.config)
    save_pair_model(pair, args.out)
    print(f"trained {args.cov} pair (K={args.ncomp}) on "
          f"{sum(counts[u] for u in genuine)}+"
          f"{sum(counts[u] for u in replay)} frames -> {args.out}")


def _cmd_score(args) -> None:
    _refuse_overwriting_inputs(
        args.out, [p for p in (args.archive, args.model, args.manifest) if p])
    with archive_mod.ArchiveReader(args.archive) as reader:
        pair = load_pair_model(args.model)
        if pair.extraction_config != reader.config:
            trained, given = (json.dumps(c.to_dict(), sort_keys=True) for c
                              in (pair.extraction_config, reader.config))
            raise FeatureMismatchError(
                f"model {args.model} was trained on features extracted with "
                f"{trained}, but archive {args.archive} holds features "
                f"extracted with {given}")
        labels = {}
        if args.manifest:
            labels = {r.utt_id: r.label
                      for r in corpus_mod.parse_manifest(args.manifest)}
        # Labels the archive cannot know are written as '-'; `eval` fills
        # them back in from its manifest.
        records = []
        for utt_id, feats in reader:
            if feats.n_frames == 0:
                raise EmptyUtteranceError(
                    f"utterance {utt_id} has 0 frames in {args.archive}; "
                    f"scoring needs at least 1")
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
    p.add_argument("--factor", choices=PROBE_FACTORS, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("train", help="train a genuine/replay GMM pair")
    p.add_argument("--archive", required=True)
    p.add_argument("--manifest", required=True)
    # Read through its module: this module's `StudyConfig` name may be
    # bound to a factory that `study` calls.
    p.add_argument("--ncomp", type=int, default=study_mod.StudyConfig.n_comp)
    p.add_argument("--cov", choices=COVARIANCE_KINDS, default="diag")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=TrainConfig.max_iters)
    p.add_argument("--ll-tolerance", type=float,
                   default=TrainConfig.ll_tolerance)
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


@pinned_blas()
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
