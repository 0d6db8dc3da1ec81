import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import eer_brute_force
from replaykit import cli
from replaykit.corpus import AudioSignal, SynthConfig, synth_corpus
from replaykit.filterbank import (
    FeatureKind,
    WarpKind,
    append_deltas,
    build_filterbank,
    cepstral_features,
    fbank_features,
)
from replaykit.gmm import TrainConfig
from replaykit.metrics import compute_eer, read_scores
from replaykit.spectrum import frame_signal, power_spectrum
from replaykit.study import ExtractionConfig, StudyConfig, extract_features, run_study

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

    def test_corpus_matches_cli_synth(self, study_runs, tmp_path):
        (out, _), _ = study_runs
        argv = ["synth", "--out", str(tmp_path), "--seed", str(SEED)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + TINY_SYNTH_ARGV) == 0
        assert _tree(tmp_path) == _tree(out / "corpus")


class TestExtractFeatures:
    @pytest.fixture(scope="class")
    def utterances(self):
        signals, manifest, _ = synth_corpus(TINY_CORPUS, SEED)
        return [(r.utt_id, s) for r, s in zip(manifest, signals)][:3]

    def test_shared_extraction_equals_layer_composition(self, utterances):
        configs = [ExtractionConfig(warp, feature) for warp in WarpKind
                   for feature in FeatureKind]
        archives = extract_features(iter(utterances), *configs)
        for config, archive in zip(configs, archives):
            assert list(archive.entries) == [u for u, _ in utterances]
            assert archive.config == config.to_dict()
            fb = build_filterbank(config.warp, config.bands, config.n_fft)
            for utt_id, signal in utterances:
                spec = power_spectrum(frame_signal(signal, config.frame_len,
                                                   config.hop), config.n_fft)
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
        signals, manifest, _ = synth_corpus(corpus, SEED)
        configs = [ExtractionConfig(warp, feature) for warp in WarpKind
                   for feature in (FeatureKind.LOG_FBANK,
                                   FeatureKind.CEPSTRA_DELTA)]
        return extract_features(zip((r.utt_id for r in manifest), signals),
                                *configs)

    extract_peak, archives = _traced_peak(extract_all)
    fbank_bytes = sum(fm.values.nbytes for archive in archives
                      if archive.config["feature"] == "fbank"
                      for fm in archive.entries.values())
    assert fbank_bytes > 5_000_000
    assert study_peak < extract_peak - fbank_bytes / 2


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
