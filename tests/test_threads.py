"""replaykit's threads: `look_ahead` on the pool yields results in order,
raises an error at its place and cancels what is queued; and `run_study`
and every command compute at one BLAS thread and give the caller's count
back, so their outputs do not depend on it."""

import contextlib
import functools
import itertools
import logging
import sys
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor

import pytest

from replaykit import _threads, cli, corpus, study
from replaykit._threads import look_ahead
from replaykit.errors import SingularComponentError
from replaykit.filterbank import ExtractionConfig, FeatureKind, WarpKind
from replaykit.study import run_study
import test_study
from test_cli import _ok, _run, work  # noqa: F401  (a fixture)
from test_study import SEED, TINY, TINY_SYNTH_ARGV, _tree

BLAS = _threads._openblas()
needs_openblas = pytest.mark.skipif(BLAS is None,
                                    reason="numpy bundles no OpenBLAS")


class DeferredFuture(Future):
    """A future whose call runs when its result is first asked for, on the
    asking thread, unless it was cancelled before."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def result(self, timeout=None):
        if not self.done() and self.set_running_or_notify_cancel():
            try:
                self.set_result(self.fn())
            except Exception as exc:
                self.set_exception(exc)
        return super().result(timeout)


class DeferredPool:
    """A pool stand-in that runs no call until its result is asked for, so
    a call submitted ahead stays queued until its turn comes."""

    def __init__(self):
        self.futures = []

    def submit(self, fn):
        self.futures.append(DeferredFuture(fn))
        return self.futures[-1]


class TestLookAhead:
    """`look_ahead` runs calls on a pool a fixed number ahead of the
    result the caller holds, and yields their results in order."""

    @staticmethod
    def calls(given, ran, n=None, fail_at=None, error=None):
        """Calls returning 0, 1, ...; each is appended to `given` as it is
        taken and to `ran` as it runs. Call `fail_at` raises `error`."""
        def call(i):
            ran.append(i)
            if i == fail_at:
                raise error
            return i

        for i in itertools.count() if n is None else range(n):
            given.append(i)
            yield functools.partial(call, i)

    @pytest.mark.parametrize("n", [0, 1, 2000])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_results_come_out_in_order_depth_calls_ahead(self, depth, n):
        # 0 and 1 calls: fewer than depth.
        given, ran, taken = [], [], []
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                for result in look_ahead(self.calls(given, ran, n), pool,
                                         depth):
                    assert len(given) == min(result + 1 + depth, n)
                    taken.append(result)
        finally:
            sys.setswitchinterval(interval)
        assert taken == sorted(ran) == list(range(n))
        assert given == list(range(n))
        assert threading.active_count() == before

    @pytest.mark.parametrize("depth", [1, 2])
    def test_the_first_depth_calls_are_submitted_when_made(self, depth):
        # So a caller that sets up something else first does not wait for
        # result 0.
        started = [threading.Event() for _ in range(3)]

        def calls():
            for event in started:
                yield event.set

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = look_ahead(calls(), pool, depth)
            assert all(event.wait(timeout=10) for event in started[:depth])
            assert not started[depth].is_set()
            assert list(results) == [None] * 3

    @pytest.mark.parametrize("depth", [1, 2])
    def test_a_call_error_is_raised_in_its_place(self, depth):
        error = SingularComponentError("call 3 failed")
        given, ran, taken = [], [], []
        before = threading.active_count()
        with pytest.raises(SingularComponentError) as info:
            with ThreadPoolExecutor(max_workers=2) as pool:
                for result in look_ahead(
                        self.calls(given, ran, fail_at=3, error=error),
                        pool, depth):
                    taken.append(result)
        assert info.value is error
        assert taken == [0, 1, 2]
        assert threading.active_count() == before

    @pytest.mark.parametrize("depth", [1, 2])
    def test_the_queued_calls_are_cancelled_after_an_error(self, depth):
        error = KeyError("call 3 failed")
        given, ran = [], []
        pool = DeferredPool()
        results = look_ahead(self.calls(given, ran, fail_at=3, error=error),
                             pool, depth)
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(KeyError) as info:
            next(results)
        assert info.value is error
        # Calls 4 .. 2 + depth were submitted ahead of call 3's result.
        assert given == list(range(3 + depth))
        assert [f.cancelled() for f in pool.futures[4:]] == [True] * (depth - 1)
        with pytest.raises(StopIteration):
            next(results)
        assert ran == [0, 1, 2, 3]

    @pytest.mark.parametrize("how", ["raise", "close"])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_a_stopped_consumer_leaves_no_thread_and_no_call_runs(
            self, depth, how):
        # As in `run_study`: the pool's shutdown is on the stack.
        given, ran = [], []
        before = threading.active_count()
        with contextlib.suppress(KeyError):
            with contextlib.ExitStack() as stack:
                pool = ThreadPoolExecutor(max_workers=2)
                stack.callback(pool.shutdown, cancel_futures=True)
                results = look_ahead(self.calls(given, ran), pool, depth)
                assert [next(results), next(results)] == [0, 1]
                if how == "raise":
                    raise KeyError("consumer failed")
                results.close()
        assert threading.active_count() == before
        assert len(ran) <= len(given) == 2 + depth
        count = len(ran)
        time.sleep(0.05)
        assert len(ran) == count
        # A look-ahead whose pool is shut down neither waits nor runs
        # more: the call ahead was cancelled, or none can be submitted.
        with pytest.raises(StopIteration if how == "close"
                           else (CancelledError, RuntimeError)):
            next(results)
        assert len(ran) == count


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


@needs_openblas
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


@needs_openblas
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


@needs_openblas
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
