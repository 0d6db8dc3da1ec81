"""Spans and counters around replaykit's layer functions, for traced runs.

`install` replaces the public layer functions at their import sites in
`replaykit.study` and `replaykit.cli` with wrappers that record a span
(name, start, end, parent) and the counts of the work each call did. No
library code changes: the wrappers live here and call the originals.
Spans are kept in memory; the worker writes them out once the run ends.

Span names are the per-layer metric names they add up to, so the summary
is a sum of durations by name plus the counters.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
import types
from collections import defaultdict
from contextlib import contextmanager

GMM_SPAN_PREFIXES = ("gmm.train_s.", "gmm.score_s", "gmm.save_s",
                     "gmm.load_s")

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = {
    "corpus.synth_s": "s",
    "corpus.wav_write_s": "s",
    "corpus.wav_read_s": "s",
    "corpus.manifest_io_s": "s",
    "corpus.utts": "count",
    "spectrum.frame_s": "s",
    "spectrum.power_s": "s",
    "spectrum.frames": "count",
    "filterbank.build_s": "s",
    "filterbank.fbank_s": "s",
    "filterbank.cepstra_s": "s",
    "filterbank.deltas_s": "s",
    "study.extract_features_s": "s",
    "archive.write_s": "s",
    "archive.read_s": "s",
    "archive.bytes_written": "bytes",
    "archive.bytes_read": "bytes",
    "fratio.probe_s": "s",
    "fratio.probes": "count",
    "gmm.train_s.diag": "s",
    "gmm.train_s.full": "s",
    "gmm.em_iters.diag": "count",
    "gmm.em_iters.full": "count",
    "gmm.work.diag": "count",
    "gmm.work.full": "count",
    "gmm.ns_per_work.diag": "ns",
    "gmm.ns_per_work.full": "ns",
    "gmm.init_s.diag": "s",
    "gmm.init_s.full": "s",
    "gmm.estep_s.diag": "s",
    "gmm.estep_s.full": "s",
    "gmm.fits": "count",
    "gmm.fits_converged": "count",
    "gmm.score_s": "s",
    "gmm.score_calls": "count",
    "gmm.scored_frames": "count",
    "gmm.save_s": "s",
    "gmm.load_s": "s",
    "gmm.share_of_wall": "share",
    "metrics.eer_s": "s",
    "metrics.scores_io_s": "s",
    "study.self_s": "s",
    "cli.self_s": "s",
    "cli.synth_s": "s",
    "cli.extract_s": "s",
    "cli.probe_s": "s",
    "cli.train_s": "s",
    "cli.score_s": "s",
    "cli.eval_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclasses.dataclass
class _Fit:
    frames: object
    n_comp: int
    covariance_kind: str
    config: object
    seed: int
    model: object


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.fits: list[_Fit] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"id": index,
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, fn, name, count=None):
        """Wrap `fn` in a span called `name` (a string, or a function of
        the bound arguments); `count(bound_args, result)` adds counters."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if count is not None or callable(name):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            label = name(bound.arguments) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if count is not None:
                count(bound.arguments, result)
            return result
        return wrapper


def _archive_bytes(archive) -> int:
    return sum(4 * fm.values.size for fm in archive.entries.values())


def install(tracer: Tracer, study, cli) -> None:
    """Wrap the layer functions that `study` and `cli` imported."""
    counts = tracer.counts

    def count_probe(_args, _result):
        counts["fratio.probes"] += 1

    def count_utts(_args, result):
        counts["corpus.utts"] += len(result[0])

    def count_frames(_args, result):
        counts["spectrum.frames"] += result.n_frames

    def count_written(args, _result):
        counts["archive.bytes_written"] += _archive_bytes(args["archive"])

    def count_read(_args, result):
        counts["archive.bytes_read"] += _archive_bytes(result)

    def count_score(args, _result):
        counts["gmm.score_calls"] += 1
        counts["gmm.scored_frames"] += args["feats"].n_frames

    def count_fit(args, model):
        config = args["config"] or study.TrainConfig()
        frames = args["frames"]
        kind = args["covariance_kind"]
        iters = len(model.ll_curve)
        counts["gmm.fits"] += 1
        counts["gmm.fits_converged"] += iters < config.max_iters
        counts[f"gmm.em_iters.{kind}"] += iters
        counts[f"gmm.work.{kind}"] += len(frames) * args["n_comp"] * iters
        tracer.fits.append(_Fit(frames, args["n_comp"], kind, config,
                                args["seed"], model))

    def train_name(args):
        return f"gmm.train_s.{args['covariance_kind']}"

    # (function name, span name, counter) for each module's import site.
    shared = [
        ("probe_factor", "fratio.probe_s", count_probe),
        ("train_gmm", train_name, count_fit),
        ("save_pair_model", "gmm.save_s", None),
        ("score_utterance", "gmm.score_s", count_score),
        ("compute_eer", "metrics.eer_s", None),
    ]
    study_sites = shared + [
        ("synth_corpus", "corpus.synth_s", count_utts),
        ("write_manifest", "corpus.manifest_io_s", None),
        ("save_device_profiles", "corpus.manifest_io_s", None),
        ("write_wav", "corpus.wav_write_s", None),
        ("build_filterbank", "filterbank.build_s", None),
        ("frame_signal", "spectrum.frame_s", count_frames),
        ("power_spectrum", "spectrum.power_s", None),
        ("fbank_features", "filterbank.fbank_s", None),
        ("cepstral_features", "filterbank.cepstra_s", None),
        ("append_deltas", "filterbank.deltas_s", None),
        ("write_archive", "archive.write_s", count_written),
        ("compare_datasets", "fratio.probe_s", count_probe),
        ("write_scores", "metrics.scores_io_s", None),
    ]
    cli_sites = shared + [
        ("load_pair_model", "gmm.load_s", None),
        ("read_scores", "metrics.scores_io_s", None),
        ("extract_features", "study.extract_features_s", None),
    ]
    # The CLI reaches corpus and archive functions through module aliases;
    # give it wrapped copies of those namespaces.
    cli_corpus_sites = [
        ("synth_corpus", "corpus.synth_s", count_utts),
        ("write_manifest", "corpus.manifest_io_s", None),
        ("save_device_profiles", "corpus.manifest_io_s", None),
        ("parse_manifest", "corpus.manifest_io_s", None),
        ("write_wav", "corpus.wav_write_s", None),
        ("read_wav", "corpus.wav_read_s", None),
    ]
    cli_archive_sites = [
        ("write_archive", "archive.write_s", count_written),
        ("read_archive", "archive.read_s", count_read),
    ]

    def patch(target, sites):
        for attr, name, count in sites:
            setattr(target, attr, tracer.wrap(getattr(target, attr), name,
                                              count))

    patch(study, study_sites)
    patch(cli, cli_sites)
    for alias, sites in (("corpus_mod", cli_corpus_sites),
                         ("archive_mod", cli_archive_sites)):
        namespace = types.SimpleNamespace(**vars(getattr(cli, alias)))
        patch(namespace, sites)
        setattr(cli, alias, namespace)


def replay_fits(tracer: Tracer, replaykit) -> None:
    """Time k-means initialisation and one E-step of every traced fit.

    Runs after the timed pipeline with the original, unwrapped functions:
    `train_gmm` again with `max_iters=0` on the same frames and seed, and
    one `score_utterance` of the fitted model against itself over its
    training frames, halved, since scoring evaluates both mixtures.
    """
    for fit in tracer.fits:
        init_config = dataclasses.replace(fit.config, max_iters=0)
        start = time.perf_counter()
        replaykit.train_gmm(fit.frames, fit.n_comp, fit.covariance_kind,
                            init_config, seed=fit.seed)
        tracer.counts[f"gmm.init_s.{fit.covariance_kind}"] += \
            time.perf_counter() - start

        pair = replaykit.GmmPairModel(fit.model, fit.model, "estep-probe", {})
        feats = replaykit.FeatureMatrix(fit.frames,
                                        replaykit.FeatureKind.CEPSTRA_DELTA)
        start = time.perf_counter()
        replaykit.score_utterance(pair, feats)
        tracer.counts[f"gmm.estep_s.{fit.covariance_kind}"] += \
            (time.perf_counter() - start) / 2.0


def summarize(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics: summed span durations by name, the counters,
    and self time of the `study` and `cli.*` spans (duration minus the
    spans of the wrapped calls made directly inside them)."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    child_time: dict[int, float] = defaultdict(float)
    for s in tracer.spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for s in tracer.spans:
        duration = s["end"] - s["start"]
        name = s["name"]
        if name == "study" or name.startswith("cli."):
            scope = "study" if name == "study" else "cli"
            out[f"{scope}.self_s"] += duration - child_time[s["id"]]
        if name != "study":
            out[name] += duration
    out.update(tracer.counts)
    for kind in ("diag", "full"):
        work = out[f"gmm.work.{kind}"]
        out[f"gmm.ns_per_work.{kind}"] = \
            1e9 * out[f"gmm.train_s.{kind}"] / work if work else 0.0
    gmm_s = sum(v for k, v in out.items() if k.startswith(GMM_SPAN_PREFIXES))
    out["gmm.share_of_wall"] = gmm_s / traced_wall_s
    out["trace.wall_s"] = traced_wall_s
    return out
