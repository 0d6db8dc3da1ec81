import contextlib
import io
import itertools
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from oracles import eer_brute_force
from replaykit import cli, study
from replaykit.archive import read_archive
from replaykit.corpus import AudioSignal, SynthConfig, synth_corpus
from replaykit.errors import SingularComponentError
from replaykit.filterbank import (
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
from replaykit.spectrum import SpectrumWorkspace, frame_signal, power_spectrum
from replaykit.study import (
    ExtractionConfig,
    StudyConfig,
    extract_features,
    feature_tag,
    iter_features,
    _read_ahead,
    _two_at_a_time,
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
        features = {archive.feature_kind: archive.entries
                    for archive in archives}
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


class TestTwoAtATime:
    """`run_study` trains each warp's four fits on two threads; every
    result must be what training them one after another gives."""

    EM = TrainConfig(max_iters=2, ll_tolerance=0.0)

    def test_fits_equal_sequential_fits_in_task_order(self):
        # The study's shape: d=26, K=64, diag and full, two pools. The
        # costs put the full fits first, so the runners take the tasks
        # out of task order.
        rng = np.random.default_rng(40)
        pools = [rng.normal(size=(n, 26)) * rng.uniform(0.5, 2.0, 26)
                 for n in (700, 900)]
        specs = [(pools[0], "diag", 0), (pools[1], "diag", 1),
                 (pools[0], "full", 2), (pools[1], "full", 3)]
        before = threading.active_count()
        fits = _two_at_a_time(
            [lambda f=f, kind=kind, seed=seed: train_gmm(
                f, 64, kind, self.EM, seed=seed) for f, kind, seed in specs],
            [(kind == "full", len(f)) for f, kind, _ in specs])
        assert threading.active_count() == before
        for fit, (f, kind, seed) in zip(fits, specs):
            alone = train_gmm(f, 64, kind, self.EM, seed=seed)
            assert fit.covariance_kind == kind
            for name in ("weights", "means", "covariances"):
                np.testing.assert_array_equal(getattr(fit, name),
                                              getattr(alone, name))
            assert fit.ll_curve == alone.ll_curve

    def test_two_runners_take_the_costliest_tasks_first(self):
        # The two costliest tasks wait for each other, so they must run at
        # once, on two threads, before either runner takes another.
        barrier = threading.Barrier(2, timeout=10)
        started = []

        def task(i):
            def run():
                started.append(i)
                if i in (0, 2):
                    barrier.wait()
                return i, threading.current_thread()
            return run

        results = _two_at_a_time([task(i) for i in range(4)], [5, 1, 9, 3])
        assert [i for i, _ in results] == [0, 1, 2, 3]
        assert sorted(started[:2]) == [0, 2]
        assert results[0][1] is not results[2][1]

    def test_every_task_runs_once_under_fast_thread_switching(self):
        # Thread switches every microsecond between many short tasks: a
        # task taken twice, or skipped, by the two runners shows here.
        runs = [0] * 2000
        lock = threading.Lock()

        def task(i):
            def run():
                with lock:
                    runs[i] += 1
                return i
            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _two_at_a_time([task(i) for i in range(len(runs))],
                                     [i % 7 for i in range(len(runs))])
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(len(runs)))
        assert runs == [1] * len(runs)

    @pytest.mark.parametrize("on_worker", [False, True],
                             ids=["caller", "worker"])
    @pytest.mark.parametrize("frames,kind,error", [
        (np.zeros((5, 2)), "diag", ValueError),
        # Squares of 1e160 overflow, so the first covariances are not
        # finite.
        (np.random.default_rng(41).normal(size=(40, 2)) * 1e160, "full",
         SingularComponentError),
    ], ids=["too-few-frames", "singular"])
    def test_a_failing_fit_raises_from_either_runner(
            self, frames, kind, error, on_worker):
        good = np.random.default_rng(42).normal(size=(200, 2))
        caller = threading.current_thread()
        barrier = threading.Barrier(2, timeout=10)

        def fit(x):
            with np.errstate(over="ignore", invalid="ignore"):
                return train_gmm(x, 2, kind, seed=0)

        def task():
            # Each runner holds one of the two tasks when it gets here.
            barrier.wait()
            failing = (threading.current_thread() is not caller) == on_worker
            return fit(frames if failing else good)

        with pytest.raises(error) as alone:
            fit(frames)
        before = threading.active_count()
        with pytest.raises(error) as info:
            _two_at_a_time([task, task], [1, 1])
        assert type(info.value) is error
        assert str(info.value) == str(alone.value)
        assert threading.active_count() == before

    def test_study_writes_what_a_sequential_loop_writes(
            self, study_runs, tmp_path, monkeypatch):
        monkeypatch.setattr(study, "_two_at_a_time",
                            lambda tasks, costs: [task() for task in tasks])
        run_study(SEED, tmp_path, TINY)
        assert _tree(tmp_path) == _tree(study_runs[0][0])


class TestReadAhead:
    """`run_study` makes and writes its corpus on a producer thread, one
    signal ahead of the extraction that takes it."""

    @staticmethod
    def counting(made, n=None):
        for i in itertools.count() if n is None else range(n):
            made.append(i)
            yield i

    def test_items_come_out_in_order_at_most_one_ahead(self):
        made = []
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with contextlib.ExitStack() as stack:
                taken = []
                for item in _read_ahead(self.counting(made, 2000), stack):
                    assert len(made) <= item + 2
                    taken.append(item)
        finally:
            sys.setswitchinterval(interval)
        assert taken == list(range(2000))
        assert threading.active_count() == before

    def test_a_producer_exception_is_raised_in_its_place(self):
        def failing():
            yield from range(3)
            raise SingularComponentError("component 2 collapsed")

        before = threading.active_count()
        taken = []
        with pytest.raises(SingularComponentError) as info:
            with contextlib.ExitStack() as stack:
                for item in _read_ahead(failing(), stack):
                    taken.append(item)
        assert type(info.value) is SingularComponentError
        assert str(info.value) == "component 2 collapsed"
        assert taken == [0, 1, 2]
        assert threading.active_count() == before

    @pytest.mark.parametrize("how", ["raise", "close"])
    def test_a_stopped_consumer_stops_and_joins_the_producer(self, how):
        made = []
        before = threading.active_count()
        with contextlib.suppress(KeyError):
            with contextlib.ExitStack() as stack:
                items = _read_ahead(self.counting(made), stack)
                assert [next(items), next(items)] == [0, 1]
                if how == "raise":
                    raise KeyError("consumer failed")
        assert threading.active_count() == before
        assert len(made) <= 3
        count = len(made)
        time.sleep(0.05)
        assert len(made) == count
        # A closed stream ends: it neither waits nor makes more.
        assert len(list(items)) <= 1
        assert len(made) == count

    def test_study_raising_in_training_writes_no_wav_after(
            self, tmp_path, monkeypatch):
        # Each WAV write is slowed, so the producer is still writing the
        # first held-out replay when training raises, unless it is
        # stopped and joined before `run_study` raises.
        write_wav = study.write_wav

        def slow_write_wav(signal, path):
            time.sleep(0.02)
            write_wav(signal, path)

        def failing_fit(*args, **kwargs):
            raise SingularComponentError("fit failed")

        monkeypatch.setattr(study, "write_wav", slow_write_wav)
        monkeypatch.setattr(study, "train_gmm", failing_fit)
        before = threading.active_count()
        with pytest.raises(SingularComponentError, match="fit failed"):
            run_study(SEED, tmp_path, TINY)
        written = sorted(tmp_path.rglob("*"))
        assert threading.active_count() == before
        time.sleep(0.1)
        assert sorted(tmp_path.rglob("*")) == written

    def test_study_writes_what_an_unthreaded_stream_writes(
            self, study_runs, tmp_path, monkeypatch):
        monkeypatch.setattr(study, "_read_ahead",
                            lambda items, stack: iter(items))
        run_study(SEED, tmp_path, TINY)
        assert _tree(tmp_path) == _tree(study_runs[0][0])


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
            assert archive.config == config.to_dict()
            fb = build_filterbank(config.warp, config.bands, config.n_fft)
            for utt_id, signal in utterances:
                spec = power_spectrum(
                    frame_signal(signal, config.frame_len, config.hop),
                    SpectrumWorkspace(config.frame_len, config.n_fft))
                want = fbank_features(spec, fb)
                if config.feature is not FeatureKind.LOG_FBANK:
                    want = cepstral_features(want)
                if config.feature is FeatureKind.CEPSTRA_DELTA:
                    want = append_deltas(want, config.delta_window)
                got = archive.entries[utt_id]
                assert got.kind is config.feature
                assert got.warp_kind is config.warp
                np.testing.assert_array_equal(got.values, want.values)

    def test_buffer_reuse_across_utterance_lengths(self):
        # One call computes every spectrum in one set of buffers. Lengths
        # long -> short -> shorter than a frame -> long make it reuse rows
        # a longer utterance wrote and grow the buffers mid-call; every
        # entry must equal its own single-utterance extraction bit for bit.
        rng = np.random.default_rng(SEED)
        utterances = [(f"u{i}", AudioSignal(rng.uniform(-0.9, 0.9, n)))
                      for i, n in enumerate((16000, 2000, 399, 24000))]
        # Deltas reject the zero-frame utterance; they read no spectrum.
        configs = [ExtractionConfig(warp, feature) for warp in WarpKind
                   for feature in (FeatureKind.LOG_FBANK, FeatureKind.CEPSTRA)]
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
        assert len(alive) == 4 * len(manifest)

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
                      if archive.config["feature"] == "fbank"
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
