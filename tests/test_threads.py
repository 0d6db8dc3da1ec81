"""`run_study` and every command compute at one BLAS thread and give the
caller's count back; so their outputs do not depend on it."""

import contextlib
import logging
from concurrent.futures import ThreadPoolExecutor

import pytest

from replaykit import _threads, cli, corpus, study
from replaykit.filterbank import ExtractionConfig, FeatureKind, WarpKind
from replaykit.study import run_study
import test_study
from test_cli import _ok, _run, work  # noqa: F401  (a fixture)
from test_study import SEED, TINY, TINY_SYNTH_ARGV, _tree

BLAS = _threads._openblas()
pytestmark = pytest.mark.skipif(BLAS is None,
                                reason="numpy bundles no OpenBLAS")


@pytest.fixture
def two_blas_threads():
    """The process's OpenBLAS set to two threads, as on a host whose
    default is two; the previous count is restored after the test."""
    get, set_ = BLAS
    before = get()
    set_(2)
    yield get
    set_(before)


def _reading(fn, counts, fail=False):
    """`fn`, wrapped to append the BLAS thread count to `counts` when
    called, then to raise if `fail`."""
    get, _ = BLAS

    def wrapper(*args, **kwargs):
        counts.append(get())
        if fail:
            raise RuntimeError("stage failed")
        return fn(*args, **kwargs)
    return wrapper


def _command_argv(name, work, out):
    manifest = work / "corpus" / "manifest.tsv"
    cepstra = work / "mel_cepstra-delta.rpfa"
    return {
        "synth": ["--out", out, "--seed", SEED, *TINY_SYNTH_ARGV],
        "extract": ["--manifest", manifest, "--warp", "mel", "--feature",
                    "fbank", "--out", out],
        "probe": ["--archive", work / "mel_fbank.rpfa", "--manifest",
                  manifest, "--factor", "device", "--out", out / "d.tsv"],
        "train": ["--archive", cepstra, "--manifest", manifest, "--ncomp",
                  2, "--seed", SEED, "--max-iters", 2, "--out", out],
        "score": ["--archive", cepstra, "--model", work / "model.json",
                  "--out", out],
        "eval": ["--scores", work / "labelled.tsv", "--manifest", manifest],
        "study": ["--seed", SEED, "--out", out],
    }[name]


# Per command, the module and name of the stage function read through,
# and the number of pools the command runs.
STAGES = {
    "synth": (corpus, "synth_corpus", 1),
    "extract": (cli, "iter_features", 1),
    "probe": (cli, "probe_factor", 0),
    "train": (cli, "train_gmm", 0),
    "score": (cli, "score_utterance", 0),
    "eval": (cli, "compute_eer", 0),
    "study": (study, "train_gmm", 1),
}


class TestPinnedBlas:
    @pytest.fixture
    def pool_shutdowns(self, monkeypatch):
        """The BLAS thread count each pool saw once it was shut down."""
        get, _ = BLAS
        counts = []

        class Recording(ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait, cancel_futures=cancel_futures)
                counts.append(get())

        monkeypatch.setattr(_threads, "ThreadPoolExecutor", Recording)
        return counts

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "error"])
    @pytest.mark.parametrize("command", list(STAGES))
    def test_each_command_runs_at_one_thread_and_restores_the_count(
            self, command, fail, work, tmp_path, two_blas_threads,
            pool_shutdowns, monkeypatch):
        module, name, pools = STAGES[command]
        counts = []
        monkeypatch.setattr(module, name,
                            _reading(getattr(module, name), counts, fail))
        monkeypatch.setattr(cli, "StudyConfig", lambda: TINY)
        code, _, err = _run(command,
                            *_command_argv(command, work, tmp_path / "out"))
        assert (code, err) == ((1, "error: stage failed\n") if fail
                               else (0, ""))
        assert counts and set(counts) == {1}
        assert set(pool_shutdowns) <= {1}
        if not fail:
            assert len(pool_shutdowns) == pools
        assert two_blas_threads() == 2

    def test_a_usage_error_restores_the_count(self, two_blas_threads):
        with pytest.raises(SystemExit):
            _run("extract", "--feature", "cepstra")
        assert two_blas_threads() == 2

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "error"])
    def test_run_study_runs_at_one_thread_and_restores_the_count(
            self, fail, tmp_path, two_blas_threads, pool_shutdowns,
            monkeypatch):
        counts = []
        monkeypatch.setattr(study, "train_gmm",
                            _reading(study.train_gmm, counts, fail))
        with (pytest.raises(RuntimeError, match="stage failed") if fail
              else contextlib.nullcontext()):
            run_study(SEED, tmp_path, TINY)
        assert counts and set(counts) == {1}
        assert pool_shutdowns == [1]
        assert two_blas_threads() == 2

    def test_a_stage_function_called_directly_is_left_alone(
            self, two_blas_threads, monkeypatch):
        counts = []
        monkeypatch.setattr(study, "build_filterbank",
                            _reading(study.build_filterbank, counts))
        signals, _, _ = corpus.synth_corpus(TINY.corpus, SEED)
        utterances = [(r.utt_id, s) for r, s in signals][:1]
        assert len(list(study.iter_features(
            utterances, ExtractionConfig(WarpKind.MEL, FeatureKind.LOG_FBANK)
        ))) == 1
        assert counts == [2]
        assert two_blas_threads() == 2


@pytest.fixture
def nothing_found(monkeypatch):
    """`_threads` as on a numpy without a bundled OpenBLAS."""
    monkeypatch.setattr(_threads, "_find_openblas", lambda: None)
    _threads._openblas.cache_clear()
    yield
    _threads._openblas.cache_clear()


def test_without_openblas_nothing_changes_and_one_line_is_logged(
        nothing_found, two_blas_threads, work, tmp_path, monkeypatch,
        caplog):
    counts = []
    monkeypatch.setattr(study, "train_gmm", _reading(study.train_gmm, counts))
    monkeypatch.setattr(cli, "train_gmm", _reading(cli.train_gmm, counts))
    with caplog.at_level(logging.INFO, logger="replaykit"):
        run_study(SEED, tmp_path / "study", TINY)
        _ok("train", *_command_argv("train", work, tmp_path / "model.json"))
    assert counts and set(counts) == {2}
    assert two_blas_threads() == 2
    assert [(r.name, r.levelname) for r in caplog.records] == [
        ("replaykit._threads", "INFO")]
    assert "no OpenBLAS" in caplog.records[0].getMessage()


def test_trees_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Unpinned, this study's fits and scores differ in their last bits
    # between one and two OpenBLAS threads.
    get, set_ = BLAS
    before = get()
    try:
        for count in (1, 2):
            set_(count)
            root = tmp_path / str(count)
            run_study(SEED, root / "study", test_study.TestTwoAtATime.FITS)
            _cli_sequence(root / "cli")
            assert get() == count
    finally:
        set_(before)
    for name in ("study", "cli"):
        assert _tree(tmp_path / "2" / name) == _tree(tmp_path / "1" / name)


def _cli_sequence(root):
    """synth, extract, probe, train, score and eval into root."""
    manifest = root / "corpus" / "manifest.tsv"
    _ok("synth", "--out", root / "corpus", "--seed", SEED, *TINY_SYNTH_ARGV)
    for feature in ("fbank", "cepstra-delta"):
        _ok("extract", "--manifest", manifest, "--warp", "mel", "--feature",
            feature, "--out", root / f"{feature}.rpfa")
    _ok("probe", "--archive", root / "fbank.rpfa", "--manifest", manifest,
        "--factor", "device", "--out", root / "device.tsv")
    for cov, k in (("diag", 2), ("full", 8)):
        _ok("train", "--archive", root / "cepstra-delta.rpfa", "--manifest",
            manifest, "--ncomp", k, "--cov", cov, "--seed", SEED,
            "--max-iters", 2, "--out", root / f"{cov}.json")
        _ok("score", "--archive", root / "cepstra-delta.rpfa", "--model",
            root / f"{cov}.json", "--manifest", manifest,
            "--out", root / f"{cov}.tsv")
        (root / f"{cov}_eer.txt").write_text(_ok(
            "eval", "--scores", root / f"{cov}.tsv", "--manifest", manifest))
