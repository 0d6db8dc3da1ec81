import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from oracles import eer_brute_force
from replaykit import _threads, cli, corpus, study
from replaykit.archive import ArchiveReader, read_archive
from replaykit.corpus import (AudioSignal, SynthConfig, derive_seed,
                              synth_corpus)
from replaykit.errors import SingularComponentError
from replaykit.filterbank import (
    NUM_CEPSTRA,
    FeatureKind,
    WarpKind,
    append_deltas,
    build_filterbank,
    cepstral_features,
    fbank_features,
)
from replaykit.gmm import (TrainConfig, load_pair_model, score_utterance,
                           train_gmm)
from replaykit.metrics import compute_eer, read_scores
from replaykit.spectrum import (SpectrumWorkspace, dct_basis, frame_signal,
                                power_spectrum)
from replaykit.study import (
    ExtractionConfig,
    StudyConfig,
    extract_features,
    feature_tag,
    iter_features,
    run_study,
    write_corpus,
)

SEED = 1
TINY_CORPUS = SynthConfig(n_speakers=2, n_phrases=2, n_train_devices=1,
                          n_heldout_devices=1, utt_seconds=0.5, reps=1)
TINY = StudyConfig(corpus=TINY_CORPUS, n_comp=2,
                   train=TrainConfig(max_iters=2))
TINY_SYNTH_ARGV = ["--speakers", "2", "--phrases", "2", "--train-devices",
                   "1", "--heldout-devices", "1", "--reps", "1",
                   "--utt-seconds", "0.5"]


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def study_runs(tmp_path_factory):
    dirs = [tmp_path_factory.mktemp(f"study{i}") for i in range(2)]
    reports = [run_study(SEED, d, TINY) for d in dirs]
    return dirs, reports


class TestRunStudy:
    def test_two_runs_write_identical_trees(self, study_runs):
        (a, b), _ = study_runs
        tree_a, tree_b = _tree(a), _tree(b)
        assert sorted(tree_a) == sorted(tree_b)
        assert any(name.startswith("models/") for name in tree_a)
        for name in tree_a:
            assert tree_a[name] == tree_b[name], name

    def test_report_eers_match_score_files(self, study_runs):
        (out, _), (report, _) = study_runs
        legs = [(tag, cov) for tag, by_cov in report.eers.items()
                for cov in by_cov]
        assert len(legs) == 6
        for tag, cov in legs:
            stem = f"{tag.split('+')[0].lower()}_{cov}"
            records = read_scores(out / "scores" / f"{stem}.tsv")
            eer, threshold = compute_eer(records)
            assert report.eers[tag][cov] == {"eer": eer,
                                             "threshold": threshold}
            genuine = [r.score for r in records if r.label == "genuine"]
            replay = [r.score for r in records if r.label == "replay"]
            assert eer == pytest.approx(eer_brute_force(genuine, replay),
                                        abs=1e-12)

    def test_scores_equal_the_saved_pairs_over_extracted_features(
            self, study_runs):
        # Held-out replays are scored as they stream, genuine utterances
        # once their pair is trained. Every score must still be, bit for
        # bit, the saved pair's score of that utterance's features, and
        # each score file must list the genuine utterances, then the
        # held-out replays, in manifest order.
        (out, _), (report, _) = study_runs
        signals, manifest, profiles = synth_corpus(TINY_CORPUS, SEED)
        heldout = {p.device_id
                   for p in profiles[TINY_CORPUS.n_train_devices:]}
        eval_records = manifest.genuine_records() + [
            r for r in manifest.replay_records() if r.device_id in heldout]
        archives = extract_features(
            ((r.utt_id, s) for r, s in signals),
            *(ExtractionConfig(warp, FeatureKind.CEPSTRA_DELTA)
              for warp in WarpKind))
        features = {feature_tag(archive.config.warp, archive.config.feature):
                    archive.entries for archive in archives}
        pairs = {(tag, cov): load_pair_model(
                     out / "models" / f"{tag.split('+')[0].lower()}_{cov}.json")
                 for tag, by_cov in report.eers.items() for cov in by_cov}
        assert len(pairs) == 6
        for (tag, cov), pair in pairs.items():
            stem = f"{tag.split('+')[0].lower()}_{cov}"
            records = read_scores(out / "scores" / f"{stem}.tsv")
            assert [(r.utt_id, r.label) for r in records] == \
                [(r.utt_id, r.label) for r in eval_records]
            for rec in records:
                assert rec.score == score_utterance(
                    pair, features[tag][rec.utt_id]), (stem, rec.utt_id)
                # Another leg's pair gives another score, so a replay
                # scored by the wrong warp or covariance kind shows.
                for other, other_pair in pairs.items():
                    if other != (tag, cov):
                        assert rec.score != score_utterance(
                            other_pair, features[other[0]][rec.utt_id])

    def test_models_record_their_archives_extraction_config(
            self, study_runs, tmp_path):
        # So `replaykit score` accepts each leg's own archive with its
        # model, and refuses another warp's archive of the same kind.
        (out, _), _ = study_runs
        for warp in WarpKind:
            archive = out / "features" / f"{warp.value}_cepstra-delta.rpfa"
            header = read_archive(archive).config
            tag = feature_tag(warp, FeatureKind.CEPSTRA_DELTA)
            for cov in ("diag", "full"):
                stem = f"{tag.split('+')[0].lower()}_{cov}"
                model = out / "models" / f"{stem}.json"
                assert load_pair_model(model).extraction_config == header
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(["score", "--archive", str(archive),
                                     "--model", str(model), "--out",
                                     str(tmp_path / "s.tsv")]) == 0

    def test_corpus_matches_cli_synth(self, study_runs, tmp_path):
        (out, _), _ = study_runs
        argv = ["synth", "--out", str(tmp_path), "--seed", str(SEED)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + TINY_SYNTH_ARGV) == 0
        assert _tree(tmp_path) == _tree(out / "corpus")


def _recording_train_gmm(monkeypatch, before_fit=None):
    """Replace `study.train_gmm` with a wrapper that records each fit's
    frames, arguments, seed, thread and result, in the order the fits
    start, and calls `before_fit(seed)`, if given, before fitting."""
    fits = []
    lock = threading.Lock()

    def recording(frames, n_comp, covariance_kind, config, seed):
        record = {"frames": frames, "args": (n_comp, covariance_kind, config),
                  "seed": seed, "thread": threading.current_thread()}
        with lock:
            fits.append(record)
        if before_fit is not None:
            before_fit(seed)
        record["result"] = train_gmm(frames, n_comp, covariance_kind, config,
                                     seed=seed)
        return record["result"]

    monkeypatch.setattr(study, "train_gmm", recording)
    return fits


def _archive_files(root):
    """Feature archives under root, complete or partial."""
    return sorted(root.rglob("*.rpfa")) + sorted(root.rglob("*.partial"))


def _fit_seed(kind_idx, cov_idx, cls):
    """The seed `run_study` derives for one leg's fit at SEED."""
    return derive_seed(SEED, 3, kind_idx, cov_idx, cls)


class TestTwoAtATime:
    """`run_study` trains each warp's four fits two at a time on its pool;
    every result must be what training them one after another gives."""

    # The study's shape: d=26, K=64, diag and full. Two train devices make
    # the replay pool twice the genuine one, so the cost order (full fits
    # first, then the larger pool) is not leg order.
    FITS = StudyConfig(
        corpus=SynthConfig(n_speakers=2, n_phrases=2, n_train_devices=2,
                           n_heldout_devices=1, utt_seconds=2.0, reps=1),
        n_comp=64, train=TrainConfig(max_iters=2, ll_tolerance=0.0))

    def test_fits_equal_sequential_fits_in_task_order(
            self, tmp_path, monkeypatch):
        fits = _recording_train_gmm(monkeypatch)
        run_study(SEED, tmp_path, self.FITS)
        by_seed = {fit["seed"]: fit for fit in fits}
        assert len(fits) == len(by_seed) == 12
        for fit in fits:
            with _threads.pinned_blas():
                alone = train_gmm(fit["frames"], *fit["args"],
                                  seed=fit["seed"])
            for name in ("weights", "means", "covariances"):
                np.testing.assert_array_equal(getattr(fit["result"], name),
                                              getattr(alone, name))
            assert fit["result"].ll_curve == alone.ll_curve
        # Each saved pair holds its own leg's fits.
        for kind_idx, kind in enumerate(WarpKind):
            tag = feature_tag(kind, FeatureKind.CEPSTRA_DELTA)
            for cov_idx, cov in enumerate(("diag", "full")):
                pair = load_pair_model(
                    tmp_path / "models" / f"{study._leg_stem(tag, cov)}.json")
                for cls, gmm in enumerate((pair.genuine, pair.replay)):
                    fit = by_seed[_fit_seed(kind_idx, cov_idx, cls)]
                    assert fit["args"][1] == gmm.covariance_kind == cov
                    np.testing.assert_array_equal(gmm.means,
                                                  fit["result"].means)

    def test_two_runners_take_the_costliest_tasks_first(
            self, tmp_path, monkeypatch):
        # The first warp's two full fits wait for each other, so they must
        # run at once, on the pool's two threads, before either takes
        # another fit.
        barrier = threading.Barrier(2, timeout=10)
        full = {_fit_seed(0, 1, cls) for cls in (0, 1)}

        def before_fit(seed):
            if seed in full:
                barrier.wait()

        fits = _recording_train_gmm(monkeypatch, before_fit)
        run_study(SEED, tmp_path, TINY)
        assert {fit["seed"] for fit in fits[:2]} == full
        assert {fit["seed"] for fit in fits[2:4]} == {
            _fit_seed(0, 0, cls) for cls in (0, 1)}
        assert len({fit["thread"] for fit in fits[:2]}) == 2

    @pytest.mark.parametrize("failing", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("frames,kind,error", [
        (np.zeros((5, 2)), "diag", ValueError),
        # Squares of 1e160 overflow, so the first covariances are not
        # finite.
        (np.random.default_rng(41).normal(size=(40, 2)) * 1e160, "full",
         SingularComponentError),
    ], ids=["too-few-frames", "singular"])
    def test_a_failing_fit_raises_from_either_runner(
            self, frames, kind, error, failing, tmp_path, monkeypatch):
        # The first warp's two full fits run at once; the first or the
        # second submitted fails.
        barrier = threading.Barrier(2, timeout=10)
        full = [_fit_seed(0, 1, cls) for cls in (0, 1)]

        def fit(x):
            with np.errstate(over="ignore", invalid="ignore"):
                return train_gmm(x, 2, kind, seed=0)

        def failing_fit(x, n_comp, covariance_kind, config, seed):
            if seed not in full:
                return train_gmm(x, n_comp, covariance_kind, config,
                                 seed=seed)
            barrier.wait()
            return fit(frames if seed == full[failing]
                       else np.random.default_rng(42).normal(size=(200, 2)))

        with pytest.raises(error) as alone:
            fit(frames)
        monkeypatch.setattr(study, "train_gmm", failing_fit)
        with pytest.raises(error) as info:
            run_study(SEED, tmp_path, TINY)
        assert type(info.value) is error
        assert str(info.value) == str(alone.value)
        assert _archive_files(tmp_path) == []


class TestStudyPool:
    """What `run_study` leaves when a WAV write fails."""

    def test_a_failed_wav_write_raises_and_leaves_no_archive(
            self, tmp_path, monkeypatch):
        # The first held-out replay's WAV write fails on the calling
        # thread, when the stream reaches that replay after training.
        _, manifest, profiles = synth_corpus(TINY_CORPUS, SEED)
        heldout = {p.device_id
                   for p in profiles[TINY_CORPUS.n_train_devices:]}
        heldout_wavs = {str(tmp_path / "corpus" / r.audio_path)
                        for r in manifest.replay_records()
                        if r.device_id in heldout}
        write_wav = study.write_wav
        failed = []

        def failing_write_wav(signal, path):
            if str(path) in heldout_wavs:
                failed.append(path)
                raise OSError(28, "No space left on device", str(path))
            write_wav(signal, path)

        monkeypatch.setattr(study, "write_wav", failing_write_wav)
        with pytest.raises(OSError, match="No space left on device") as info:
            run_study(SEED, tmp_path, TINY)
        assert len(failed) == 1
        assert info.value.filename == str(failed[0])
        assert _archive_files(tmp_path) == []


class TestStudyProtocol:
    """What each leg trains on, scores and compares. One train device and
    two held-out devices make each pool's frame count its own, so a pool
    that gains or swaps a part shows in its size as well as its frames."""

    CORPUS = dataclasses.replace(TINY_CORPUS, n_heldout_devices=2)

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """A study run, with each fit's frames and seed."""
        out = tmp_path_factory.mktemp("protocol")
        with pytest.MonkeyPatch.context() as mp:
            fits = _recording_train_gmm(mp)
            run_study(SEED, out, dataclasses.replace(TINY,
                                                     corpus=self.CORPUS))
        _, manifest, profiles = synth_corpus(self.CORPUS, SEED)
        train = {p.device_id
                 for p in profiles[:self.CORPUS.n_train_devices]}
        ids = {"genuine": [r.utt_id for r in manifest.genuine_records()],
               "train": [r.utt_id for r in manifest.replay_records()
                         if r.device_id in train],
               "heldout": [r.utt_id for r in manifest.replay_records()
                           if r.device_id not in train]}
        return out, fits, ids

    def test_each_fit_trains_on_its_pool_in_manifest_order(self, run):
        out, fits, ids = run
        by_seed = {fit["seed"]: fit for fit in fits}
        assert len(fits) == len(by_seed) == 12
        for kind_idx, kind in enumerate(WarpKind):
            path = out / "features" / f"{kind.value}_cepstra-delta.rpfa"
            with ArchiveReader(path) as reader:
                for cls, pool in enumerate(("genuine", "train")):
                    want = np.concatenate([reader.values(u)
                                           for u in ids[pool]])
                    for cov_idx in range(2):
                        frames = by_seed[_fit_seed(kind_idx, cov_idx,
                                                   cls)]["frames"]
                        # The archive holds the study's float64 features
                        # rounded to float32.
                        assert frames.shape == want.shape, (kind, pool)
                        np.testing.assert_array_equal(
                            frames.astype("<f4"), want)

    def test_score_files_list_genuine_and_held_out_replays(self, run):
        out, _, ids = run
        paths = sorted((out / "scores").glob("*.tsv"))
        assert len(paths) == 6
        for path in paths:
            assert [r.utt_id for r in read_scores(path)] == \
                ids["genuine"] + ids["heldout"], path.name

    def test_dataset_probe_compares_train_with_held_out(self, run):
        out, _, ids = run
        with ArchiveReader(out / "features" / "mel_fbank.rpfa") as reader:
            counts = reader.frame_counts
        frames = {pool: sum(counts[u] for u in pool_ids)
                  for pool, pool_ids in ids.items()}
        assert frames["heldout"] == 2 * frames["train"]
        for kind in WarpKind:
            doc = json.loads((out / "probes" / f"dataset_{kind.value}.json")
                             .read_text())
            assert [(p["value"], p["n_genuine_frames"], p["n_replay_frames"])
                    for p in doc["patterns"]] == [
                ("train", frames["genuine"], frames["train"]),
                ("heldout", frames["genuine"], frames["heldout"])]


class TestExtractFeatures:
    @pytest.fixture(scope="class")
    def utterances(self):
        signals, _, _ = synth_corpus(TINY_CORPUS, SEED)
        return [(r.utt_id, s) for r, s in signals][:3]

    def test_shared_extraction_equals_layer_composition(self, utterances):
        configs = [ExtractionConfig(warp, feature) for warp in WarpKind
                   for feature in FeatureKind]
        archives = extract_features(iter(utterances), *configs)
        for config, archive in zip(configs, archives):
            assert list(archive.entries) == [u for u, _ in utterances]
            assert archive.config == config
            fb = build_filterbank(config.warp, config.bands, config.n_fft)
            for utt_id, signal in utterances:
                spec = power_spectrum(
                    frame_signal(signal, config.frame_len, config.hop),
                    SpectrumWorkspace(config.frame_len, config.n_fft))
                want = fbank_features(spec, fb).values
                if config.feature is FeatureKind.CEPSTRA_DELTA:
                    basis = dct_basis(config.bands, NUM_CEPSTRA)
                    want = append_deltas(
                        cepstral_features(fbank_features(spec, fb), basis),
                        config.delta_window)
                got = archive.entries[utt_id]
                assert got.kind is config.feature
                np.testing.assert_array_equal(got.values, want)

    def test_buffer_reuse_across_utterance_lengths(self):
        # One call computes every spectrum in one set of buffers. Lengths
        # long -> short -> shorter than a frame -> long make it reuse rows
        # a longer utterance wrote and grow the buffers mid-call; every
        # entry must equal its own single-utterance extraction bit for bit.
        rng = np.random.default_rng(SEED)
        utterances = [(f"u{i}", AudioSignal(rng.uniform(-0.9, 0.9, n)))
                      for i, n in enumerate((16000, 2000, 399, 24000))]
        # Cepstra come with deltas, which reject the zero-frame utterance,
        # and they read no spectrum that the log-Fbank does not.
        configs = [ExtractionConfig(warp, FeatureKind.LOG_FBANK)
                   for warp in WarpKind]
        archives = extract_features(iter(utterances), *configs)
        for utt_id, signal in utterances:
            alone = extract_features([(utt_id, signal)], *configs)
            for archive, single in zip(archives, alone):
                got = archive.entries[utt_id].values
                want = single.entries[utt_id].values
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        assert [fm.n_frames for fm in archives[0].entries.values()] == \
            [98, 11, 0, 148]

    def test_stream_holds_no_previous_utterance(self, tmp_path):
        # A lazy source makes the next signal while the WAV writer and the
        # extraction pass wait for it; neither may still hold the previous
        # utterance's signal or feature matrices then.
        signals, manifest, profiles = synth_corpus(TINY_CORPUS, SEED)
        alive = []

        def source():
            for rec, sig in signals:
                assert all(ref() is None for ref in alive), rec.utt_id
                fresh = AudioSignal(sig.samples.copy())
                alive.append(weakref.ref(fresh))
                yield rec, fresh
                del fresh

        configs = [ExtractionConfig(WarpKind.MEL, feature)
                   for feature in FeatureKind]
        stream = write_corpus(source(), manifest, profiles, tmp_path)
        for _, feats in iter_features(stream, *configs):
            alive.extend(weakref.ref(fm) for fm in feats)
            del feats
        assert len(alive) == (1 + len(configs)) * len(manifest)

    def test_each_table_is_built_once_per_pass(self, utterances,
                                               monkeypatch):
        # Six configs over three warps at one band count: one filterbank
        # per warp and one DCT basis, built when the pass is made, not
        # per utterance.
        built = []

        def recording(fn):
            def wrapper(*args):
                built.append((fn.__name__, args))
                return fn(*args)
            return wrapper

        for name in ("build_filterbank", "dct_basis"):
            monkeypatch.setattr(study, name, recording(getattr(study, name)))
        configs = [ExtractionConfig(warp, feature) for warp in WarpKind
                   for feature in FeatureKind]
        feats = iter_features(iter(utterances), *configs)
        want = [("build_filterbank", (warp, 23, 512)) for warp in WarpKind]
        want.append(("dct_basis", (23, NUM_CEPSTRA)))
        assert built == want
        assert len(list(feats)) == len(utterances)
        assert built == want

    def test_configs_must_share_framing(self, utterances):
        a = ExtractionConfig(WarpKind.MEL, FeatureKind.LOG_FBANK)
        b = ExtractionConfig(WarpKind.MEL, FeatureKind.LOG_FBANK, hop=80)
        with pytest.raises(ValueError, match="framing"):
            extract_features(utterances, a, b)
        with pytest.raises(ValueError, match="framing"):
            extract_features(utterances)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_study_holds_no_log_fbank_frames(tmp_path):
    # Long utterances make the log-Fbank frames a large share of what a
    # study holds. Extracting all six streams into memory, as a study did
    # before it streamed its archives, peaks at least as high as such a
    # study did; a study that keeps the log-Fbank streams' moments, not
    # their frames, must peak lower by at least half their float64 bytes.
    corpus = SynthConfig(n_speakers=2, n_phrases=2, n_train_devices=1,
                         n_heldout_devices=3, utt_seconds=5.0, reps=1)
    config = StudyConfig(corpus=corpus, n_comp=2,
                         train=TrainConfig(max_iters=1))
    study_peak, _ = _traced_peak(lambda: run_study(SEED, tmp_path, config))

    def extract_all():
        signals, _, _ = synth_corpus(corpus, SEED)
        configs = [ExtractionConfig(warp, feature) for warp in WarpKind
                   for feature in (FeatureKind.LOG_FBANK,
                                   FeatureKind.CEPSTRA_DELTA)]
        return extract_features(((r.utt_id, s) for r, s in signals),
                                *configs)

    extract_peak, archives = _traced_peak(extract_all)
    fbank_bytes = sum(fm.values.nbytes for archive in archives
                      if archive.config.feature is FeatureKind.LOG_FBANK
                      for fm in archive.entries.values())
    assert fbank_bytes > 5_000_000
    assert study_peak < extract_peak - fbank_bytes / 2


def test_study_holds_no_held_out_replay_frames(tmp_path):
    # A study that kept every utterance's cepstra+delta frames until its
    # corpus pass ended peaked at least as high as that pass alone: the
    # corpus written and framed, all six streams extracted, the
    # cepstra+delta frames kept. A study that trains before the held-out
    # replays are made, and scores each as it streams, must peak lower by
    # at least half the held-out replays' float64 cepstra+delta bytes.
    corpus = SynthConfig(n_speakers=2, n_phrases=2, n_train_devices=1,
                         n_heldout_devices=3, utt_seconds=5.0, reps=1)
    config = StudyConfig(corpus=corpus, n_comp=2,
                         train=TrainConfig(max_iters=1))
    study_peak, _ = _traced_peak(
        lambda: run_study(SEED, tmp_path / "study", config))

    configs = [ExtractionConfig(warp, feature) for warp in WarpKind
               for feature in (FeatureKind.LOG_FBANK,
                               FeatureKind.CEPSTRA_DELTA)]

    def pass_keeping_cepstra():
        signals, manifest, profiles = synth_corpus(corpus, SEED)
        utterances = write_corpus(signals, manifest, profiles,
                                  tmp_path / "pass")
        kept = {}
        for utt_id, feats in iter_features(utterances, *configs):
            kept[utt_id] = [fm for c, fm in zip(configs, feats)
                            if c.feature is FeatureKind.CEPSTRA_DELTA]
        return manifest, kept

    pass_peak, (manifest, kept) = _traced_peak(pass_keeping_cepstra)
    heldout_bytes = sum(fm.values.nbytes
                        for r in manifest.replay_records()
                        if r.device_id.startswith("H")
                        for fm in kept[r.utt_id])
    assert heldout_bytes > 3_000_000
    assert study_peak < pass_peak - heldout_bytes / 2


def test_benchmark_tracer_finds_its_import_sites():
    # perfbench/tracing.py wraps layer functions where replaykit.study and
    # replaykit.cli imported them; renaming or dropping one of those
    # imports breaks every traced benchmark run.
    root = Path(__file__).resolve().parents[1]
    if not (root / "perfbench" / "tracing.py").is_file():
        pytest.skip("perfbench/tracing.py is not beside tests/, as in a "
                    "copy of src/ and tests/ alone")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import tracing; from replaykit import cli, study; "
             "tracing.install(tracing.Tracer(), study, cli); print('ok')")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


# A tiny study, then `replaykit eval` on one of its score files; prints
# the modules that each call imported. numpy loads its fft and random
# subpackages on first use and argparse's messages import locale; a
# benchmark run has imported all three before its timed window, so they
# are imported first here too.
FIRST_CALL_IMPORTS = """
import contextlib, io, locale, sys, tempfile
import numpy.fft, numpy.random
import replaykit.cli
from replaykit import cli, study
from replaykit.corpus import SynthConfig
from replaykit.gmm import TrainConfig
corpus = SynthConfig(n_speakers=2, n_phrases=2, n_train_devices=1,
                     n_heldout_devices=1, utt_seconds=0.5, reps=1)
config = study.StudyConfig(corpus=corpus, n_comp=2,
                           train=TrainConfig(max_iters=2))
with tempfile.TemporaryDirectory() as out:
    before = set(sys.modules)
    study.run_study(1, out, config)
    after_study = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["eval", "--scores", f"{out}/scores/mfcc_diag.tsv",
                         "--manifest", f"{out}/corpus/manifest.tsv"])
    assert code == 0
print(sorted(after_study - before))
print(sorted(set(sys.modules) - after_study))
"""


def test_a_study_and_an_eval_import_no_module_on_their_first_call():
    # An import made on a first call (numpy's `unique` imported numpy.ma)
    # lands in a benchmark's timed window, so the library keeps its
    # imports at module level.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(study.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", FIRST_CALL_IMPORTS],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\n"
