"""Every caller's pool contract, and the BLAS threads replaykit computes on.

`look_ahead` yields results in order, raises an error at its place and
cancels what is queued (`TestLookAhead`). `TestPool` checks each part of
the contract of `run_study`, `synth` and `extract` once, for all three;
their own classes keep their byte-equality and error-naming tests.
`run_study` and every command compute at one BLAS thread and give the
caller's count back, so their outputs do not depend on it."""

import collections
import contextlib
import dataclasses
import functools
import itertools
import logging
import sys
import threading
import time
import weakref
from collections.abc import Callable
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor

import pytest

from replaykit import _threads, cli, corpus, study
from replaykit._threads import WORKERS, look_ahead, workers
from replaykit.archive import ArchiveWriter
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
    """A pool stand-in on one thread: it runs no call until its result is
    asked for, so a call submitted ahead stays queued until its turn
    comes, and then runs on the asking thread."""

    def __init__(self, **kwargs):
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        self.futures.append(DeferredFuture(
            functools.partial(fn, *args, **kwargs)))
        return self.futures[-1]

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass  # a call whose result is not taken never runs


class RecordingPool(ThreadPoolExecutor):
    """replaykit's pool, noting in `made` how it was made, and how it was
    shut down with the BLAS thread count then."""

    def __init__(self, made, **kwargs):
        super().__init__(**kwargs)
        self.kwargs, self.shutdowns = kwargs, []
        made.append(self)

    def shutdown(self, wait=True, *, cancel_futures=False):
        super().shutdown(wait, cancel_futures=cancel_futures)
        self.shutdowns.append((wait, cancel_futures))
        self.blas = BLAS[0]() if BLAS else None


@pytest.fixture
def pools(monkeypatch):
    """The `RecordingPool`s made during the test."""
    made = []
    monkeypatch.setattr(_threads, "ThreadPoolExecutor",
                        functools.partial(RecordingPool, made))
    return made


@pytest.fixture
def fast_switching():
    """Thread switches every microsecond during the test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


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
    def test_results_come_out_in_order_depth_calls_ahead(
            self, depth, n, fast_switching):
        # 0 and 1 calls: fewer than depth.
        given, ran, taken = [], [], []
        with workers() as pool:
            for result in look_ahead(self.calls(given, ran, n), pool, depth):
                assert len(given) == min(result + 1 + depth, n)
                taken.append(result)
        assert taken == sorted(ran) == list(range(n))
        assert given == list(range(n))

    @pytest.mark.parametrize("depth", [1, 2])
    def test_the_first_depth_calls_are_submitted_when_made(self, depth):
        # So a caller that sets up something else first does not wait for
        # result 0.
        started = [threading.Event() for _ in range(3)]

        def calls():
            for event in started:
                yield event.set

        with workers() as pool:
            results = look_ahead(calls(), pool, depth)
            assert all(event.wait(timeout=10) for event in started[:depth])
            assert not started[depth].is_set()
            assert list(results) == [None] * 3

    @pytest.mark.parametrize("depth", [1, 2])
    def test_a_call_error_is_raised_in_its_place(self, depth):
        error = SingularComponentError("call 3 failed")
        given, ran, taken = [], [], []
        with pytest.raises(SingularComponentError) as info:
            with workers() as pool:
                for result in look_ahead(
                        self.calls(given, ran, fail_at=3, error=error),
                        pool, depth):
                    taken.append(result)
        assert info.value is error
        assert taken == [0, 1, 2]

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
                pool = stack.enter_context(workers())
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


class Watch:
    """What a caller's pool did: the thread each call ran on, each output
    the caller wrote, as (thread, key), after `delay` seconds, and the
    most calls whose results were alive at once, each result counted from
    when it is made until it is freed. Call number `fail_at` raises."""

    def __init__(self, delay=0, fail_at=None):
        self.lock = threading.RLock()  # a finalizer may run under it
        self.delay, self.fail_at = delay, fail_at
        self.threads, self.written = [], []
        self.alive, self.peak = collections.Counter(), 0

    def call(self):
        with self.lock:
            self.threads.append(threading.current_thread())
            number = len(self.threads) - 1
        if number == self.fail_at:
            raise RuntimeError("call failed")
        return number

    def made(self, number, result):
        with self.lock:
            self.alive[number] += 1
            self.peak = max(self.peak, len(self.alive))
        weakref.finalize(result, self._freed, number)

    def _freed(self, number):
        with self.lock:
            self.alive -= collections.Counter([number])  # drops a 0 count

    def wrote(self, key):
        time.sleep(self.delay)
        self.written.append((threading.current_thread(), key))


def _watch_signals(monkeypatch, watch):
    """Watch the corpus stream's signal makers and its WAV writes."""
    def maker(fn):
        def wrapper(*args):
            number = watch.call()
            sig = fn(*args)
            watch.made(number, sig)
            return sig
        return wrapper

    def write_wav(signal, path, write_wav=study.write_wav):
        watch.wrote(path.stem)  # the utterance id
        write_wav(signal, path)

    for name in ("_synth_genuine", "_replay"):
        monkeypatch.setattr(corpus, name, maker(getattr(corpus, name)))
    monkeypatch.setattr(study, "write_wav", write_wav)


def _watch_chunks(monkeypatch, watch):
    """Watch `extract`'s chunk passes and its archive's entries."""
    def chunk_pass(utterances, *configs, iter_features=cli.iter_features):
        number = watch.call()
        for utt_id, feats in iter_features(utterances, *configs):
            watch.made(number, feats[0])
            yield utt_id, feats

    def add(writer, utt_id, fm, add=ArchiveWriter.add):
        watch.wrote(utt_id)
        add(writer, utt_id, fm)

    monkeypatch.setattr(cli, "iter_features", chunk_pass)
    monkeypatch.setattr(ArchiveWriter, "add", add)


@dataclasses.dataclass
class Caller:
    """A caller of the pool, run as a command."""

    argv: Callable  # (out dir): its argv, writing its outputs there
    depth: int  # its look-ahead's
    watch: Callable  # (monkeypatch, Watch): watches its calls and outputs
    order: list  # the utterance ids of its outputs, in order


@pytest.fixture(params=["study", "synth", "extract"])
def caller(request, work, monkeypatch):
    monkeypatch.setattr(cli, "StudyConfig", lambda: TINY)
    # 3 rows per chunk: `work`'s 12-row corpus makes 4 extract calls.
    monkeypatch.setattr(cli, "EXTRACT_CHUNK", 3)
    name = request.param
    if name == "extract":
        order = [r.utt_id for r in
                 corpus.parse_manifest(work / "corpus" / "manifest.tsv")]
    else:  # the corpus stream's order
        signals, _, _ = corpus.synth_corpus(TINY.corpus, SEED)
        order = [r.utt_id for r, _ in signals]
    return Caller(lambda out: [name, *_command_argv(name, work, out)],
                  1 if name == "study" else WORKERS,
                  _watch_chunks if name == "extract" else _watch_signals,
                  order)


class TestPool:
    """The pool contract of `run_study` (through `replaykit study`),
    `synth` and `extract`: their calls make corpus signals or extract
    chunks of rows on `replaykit…` threads while the caller writes the
    outputs in order; at most depth + 1 results are alive; one pool per
    call, shut down and joined on success and on error; and the outputs
    are the bytes of a one-thread run."""

    def test_calls_run_on_workers_and_outputs_are_written_here(
            self, caller, tmp_path, monkeypatch):
        caller.watch(monkeypatch, watch := Watch())
        _ok(*caller.argv(tmp_path))
        assert watch.threads
        assert all(t.name.startswith("replaykit") for t in watch.threads)
        assert watch.written == [(threading.current_thread(), utt_id)
                                 for utt_id in caller.order]

    def test_at_most_depth_plus_one_results_are_alive(
            self, caller, tmp_path, monkeypatch):
        # Slow outputs let the pool run as far ahead as it may: depth
        # results made ahead and the one being written.
        caller.watch(monkeypatch, watch := Watch(delay=0.005))
        _ok(*caller.argv(tmp_path))
        assert not watch.alive
        assert watch.peak == caller.depth + 1

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "error"])
    def test_one_pool_per_call_shut_down_and_joined(
            self, caller, fail, pools, tmp_path, monkeypatch):
        caller.watch(monkeypatch, Watch(fail_at=2 if fail else None))
        before = threading.active_count()
        code, _, err = _run(*caller.argv(tmp_path))
        assert (code, err) == ((1, "error: call failed\n") if fail
                               else (0, ""))
        assert threading.active_count() == before
        assert [(p.kwargs, p.shutdowns) for p in pools] == [
            ({"max_workers": WORKERS, "thread_name_prefix": "replaykit"},
             [(True, True)])]

    @pytest.mark.parametrize("fast", [False, True], ids=["default", "1us"])
    def test_outputs_equal_a_one_thread_run(
            self, caller, fast, request, tmp_path, monkeypatch):
        with monkeypatch.context() as one_thread:
            one_thread.setattr(_threads, "ThreadPoolExecutor", DeferredPool)
            _ok(*caller.argv(tmp_path / "one"))
        if fast:
            request.getfixturevalue("fast_switching")
        _ok(*caller.argv(tmp_path / "pooled"))
        assert _tree(tmp_path / "pooled") == _tree(tmp_path / "one")


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
                    "fbank", "--out", out / "x.rpfa"],
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
    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "error"])
    @pytest.mark.parametrize("command", list(STAGES))
    def test_each_command_runs_at_one_thread_and_restores_the_count(
            self, command, fail, work, tmp_path, two_blas_threads,
            pools, monkeypatch):
        module, name, n_pools = STAGES[command]
        counts = []
        monkeypatch.setattr(module, name,
                            _reading(getattr(module, name), counts, fail))
        monkeypatch.setattr(cli, "StudyConfig", lambda: TINY)
        code, _, err = _run(command,
                            *_command_argv(command, work, tmp_path / "out"))
        assert (code, err) == ((1, "error: stage failed\n") if fail
                               else (0, ""))
        assert counts and set(counts) == {1}
        assert {pool.blas for pool in pools} <= {1}
        if not fail:
            assert len(pools) == n_pools
        assert two_blas_threads() == 2

    def test_a_usage_error_restores_the_count(self, two_blas_threads):
        with pytest.raises(SystemExit):
            _run("extract", "--feature", "cepstra")
        assert two_blas_threads() == 2

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "error"])
    def test_run_study_runs_at_one_thread_and_restores_the_count(
            self, fail, tmp_path, two_blas_threads, pools, monkeypatch):
        counts = []
        monkeypatch.setattr(study, "train_gmm",
                            _reading(study.train_gmm, counts, fail))
        with (pytest.raises(RuntimeError, match="stage failed") if fail
              else contextlib.nullcontext()):
            run_study(SEED, tmp_path, TINY)
        assert counts and set(counts) == {1}
        assert [(p.shutdowns, p.blas) for p in pools] == [([(True, True)], 1)]
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
