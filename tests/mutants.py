"""Faults the tier-1 tests must catch, and the runner that proves they do.

Each fault is one text substitution in a file of `src/replaykit`, whose
old text must occur there exactly once, with the pytest node ids that
must catch it. The runner copies `src/`, `tests/` and `pyproject.toml`
to a temporary directory and first runs every catcher on the unmutated
copy: all must pass. It then runs each fault in a fresh copy, on that
fault's catchers only, and fails if the fault survives, if any of its
catchers passes, or if pytest exits with anything but 0 or 1: a catcher
it cannot collect (exit 4 or 5) or a copy that does not import its own
`replaykit` does not count as a catch.

    python tests/mutants.py

takes no flags and exits 0 only if every fault is caught.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Fault:
    what: str
    path: str  # under src/replaykit
    old: str
    new: str
    catchers: tuple[str, ...]


FAULTS = [
    # The front end.
    Fault("inverted-Mel equal to Mel", "filterbank.py",
          "out = _mel(NYQUIST_HZ) - _mel(NYQUIST_HZ - f)",
          "out = _mel(f)",
          ("tests/test_filterbank.py::TestWarp::test_inverted_mel_4000",)),
    Fault("filterbank edges spanning 95% of the warped band", "filterbank.py",
          "np.linspace(0.0, warp(kind, NYQUIST_HZ), M + 2)",
          "np.linspace(0.0, 0.95 * warp(kind, NYQUIST_HZ), M + 2)",
          ("tests/test_filterbank.py::TestBuildFilterbank::"
           "test_partition_of_unity_all_kinds",)),
    Fault("a filter's rising edge spanning its whole base", "filterbank.py",
          "rising = (coords - left) / (center - left)",
          "rising = (coords - left) / (right - left)",
          ("tests/test_filterbank.py::TestBuildFilterbank::"
           "test_exact_triangles_when_every_center_is_a_bin",)),
    Fault("the triangles not clipped at zero", "filterbank.py",
          "np.maximum(0.0, np.minimum(rising, falling))",
          "np.minimum(rising, falling)",
          ("tests/test_filterbank.py::TestBuildFilterbank::"
           "test_exact_triangles_when_every_center_is_a_bin",)),
    Fault("LOG_FLOOR at 1e-3", "filterbank.py",
          "LOG_FLOOR = 1e-10",
          "LOG_FLOOR = 1e-3",
          ("tests/test_filterbank.py::TestFbankFeatures::"
           "test_zero_spectrum_hits_floor",)),
    Fault("the delta denominator halved", "filterbank.py",
          "deltas = num / (2.0 * sum(",
          "deltas = num / (1.0 * sum(",
          ("tests/test_filterbank.py::TestAppendDeltas::"
           "test_ramp_interior_deltas_are_one",)),
    # The probes.
    Fault("an |Δμ| F-ratio numerator", "fratio.py",
          "values = (mean_g - mean_r) ** 2 / denom",
          "values = np.abs(mean_g - mean_r) / denom",
          ("tests/test_fratio.py::TestFRatioPattern::test_hand_example",)),
    Fault("an F-ratio denominator of var_g + var_g", "fratio.py",
          "denom = var_g + var_r",
          "denom = var_g + var_g",
          ("tests/test_fratio.py::TestFRatioPattern::"
           "test_class_swap_symmetry",)),
    Fault("the dispersion as a max over bands", "fratio.py",
          "return float(shapes.std(axis=0).mean()), contributions",
          "return float(shapes.std(axis=0).max()), contributions",
          ("tests/test_fratio.py::TestPatternDispersion::"
           "test_mean_over_bands_of_the_per_band_spread",)),
    # Mixtures and scores.
    Fault("the k-means seed plus one", "gmm.py",
          "_kmeans_init(frames, n_comp, np.random.default_rng(seed))",
          "_kmeans_init(frames, n_comp, np.random.default_rng(seed + 1))",
          ("tests/test_gmm.py::TestAgainstOracles::"
           "test_initialisation[diag-3]",)),
    Fault("model parameters written big-endian", "gmm.py",
          'getattr(model, name), "<f8")',
          'getattr(model, name), ">f8")',
          ("tests/test_gmm.py::TestModelPersistence::"
           "test_roundtrip_bit_exact[diag]",)),
    Fault("EM's gain as a sum of log-likelihoods", "gmm.py",
          "abs(total_ll - prev_ll)",
          "abs(total_ll + prev_ll)",
          ("tests/test_gmm.py::TestTrainGmm::"
           "test_em_stops_after_the_first_gain_below_the_tolerance",)),
    Fault("EM's gain times the frame count", "gmm.py",
          "prev_ll) / n < config.ll_tolerance",
          "prev_ll) * n < config.ll_tolerance",
          ("tests/test_gmm.py::TestTrainGmm::"
           "test_em_stops_after_the_first_gain_below_the_tolerance",)),
    Fault("EM stopping at a gain equal to the tolerance", "gmm.py",
          "/ n < config.ll_tolerance",
          "/ n <= config.ll_tolerance",
          ("tests/test_gmm.py::TestTrainGmm::"
           "test_em_stops_after_the_first_gain_below_the_tolerance",)),
    Fault("_estimates filling one triangle of a full stack", "gmm.py",
          "covariances = np.empty((counts.size, d, d))\n"
          "        covariances[:, rows, cols] = second\n"
          "        covariances[:, cols, rows] = second",
          "covariances = np.zeros((counts.size, d, d))\n"
          "        covariances[:, rows, cols] = second",
          ("tests/test_gmm.py::TestNumericsGuards::"
           "test_full_estimates_are_exactly_symmetric",)),
    Fault("a pair scored about its genuine mixture's mean", "gmm.py",
          "origin = np.mean([m.weights @ m.means for m in mixtures], axis=0)",
          "origin = mixtures[0].weights @ mixtures[0].means",
          ("tests/test_gmm.py::TestScoreUtterance::"
           "test_swapping_the_pair_negates_every_score[diag-64]",
           "tests/test_gmm.py::TestScoreUtterance::"
           "test_swapping_the_pair_negates_every_score[full-whitened]")),
    Fault("a score summed, not averaged", "gmm.py",
          "return float(np.mean(genuine - replay))",
          "return float(np.sum(genuine - replay))",
          ("tests/test_gmm.py::TestScoreUtterance::"
           "test_frame_duplication_invariance",)),
    Fault("a numpy score kept as it is given", "metrics.py",
          '        object.__setattr__(self, "score", float(self.score))\n',
          "",
          ("tests/test_metrics.py::TestScoreFiles::test_roundtrip[float64]",)),
    Fault("the EER without interpolation", "metrics.py",
          "eer = far[i] + alpha * (far[i + 1] - far[i])",
          "eer = far[i]",
          ("tests/test_metrics.py::TestComputeEer::"
           "test_matches_brute_force_oracle",)),
    Fault("the EER threshold interpolated backwards", "metrics.py",
          "thresholds[i] + alpha",
          "thresholds[i] - alpha",
          ("tests/test_metrics.py::TestComputeEer::"
           "test_threshold_interpolated_between_two_scores",)),
    Fault("the EER's tie side flipped", "metrics.py",
          'np.searchsorted(replay_sorted, thresholds, side="left")',
          'np.searchsorted(replay_sorted, thresholds, side="right")',
          ("tests/test_metrics.py::TestComputeEer::"
           "test_perfectly_separable",)),
    Fault("the EER's sentinel at max + 2", "metrics.py",
          "max(top + 1.0, np.nextafter(top, np.inf))",
          "max(top + 2.0, np.nextafter(top, np.inf))",
          ("tests/test_metrics.py::TestComputeEer::"
           "test_crossing_past_the_top_score_meets_the_sentinel",)),
    Fault("the EER's sentinel at max + 1 even where it rounds to max",
          "metrics.py",
          "max(top + 1.0, np.nextafter(top, np.inf))",
          "top + 1.0",
          ("tests/test_metrics.py::TestComputeEer::"
           "test_sentinel_above_a_top_score_that_absorbs_one[1e+16]",
           "tests/test_cli.py::TestRoundTrip::"
           "test_eval_of_scores_that_absorb_one")),
    Fault("the EER's thresholds through np.unique", "metrics.py",
          "pooled[np.append(True, pooled[1:] != pooled[:-1])]",
          "np.unique(pooled)",
          ("tests/test_study.py::"
           "test_a_study_and_an_eval_import_no_module_on_their_first_call",)),
    # The corpus.
    Fault("derive_seed reading only its first two integers", "corpus.py",
          "np.random.SeedSequence(list(entropy))",
          "np.random.SeedSequence(list(entropy[:2]))",
          ("tests/test_study.py::TestStudyProtocol::"
           "test_each_fit_trains_on_its_pool_in_manifest_order",)),
    Fault("the replay shelf at 0 dB", "corpus.py",
          "REPLAY_SHELF_DB = -10.0",
          "REPLAY_SHELF_DB = 0.0",
          ("tests/test_corpus.py::TestReplayChannel::"
           "test_high_tone_attenuated_at_least_20db",)),
    Fault("CorpusSignals.makers() hands out a replay call without waiting "
          "for its genuine row", "corpus.py",
          "                wait([source])\n",
          "",
          ("tests/test_cli.py::TestSynthPool::"
           "test_a_replay_call_starts_once_its_genuine_row_is_done",)),
    # The study's protocol.
    Fault("the genuine pool holding the train-device replays", "study.py",
          "for ids in (genuine_ids, train_replay_ids)]",
          "for ids in (list(train), train_replay_ids)]",
          ("tests/test_study.py::TestStudyProtocol::"
           "test_each_fit_trains_on_its_pool_in_manifest_order",)),
    Fault("the dataset probe comparing train with train", "study.py",
          "compare_datasets(table, man_train, man_heldout)",
          "compare_datasets(table, man_train, man_train)",
          ("tests/test_study.py::TestStudyProtocol::"
           "test_dataset_probe_compares_train_with_held_out",)),
    # The pool and its callers.
    Fault("look_ahead's finally cancels nothing", "_threads.py",
          "            for future in ahead:\n                future.cancel()",
          "            for future in ahead:\n                pass",
          ("tests/test_threads.py::TestLookAhead::"
           "test_the_queued_calls_are_cancelled_after_an_error[2]",)),
    Fault("look_ahead submits depth + 1 calls up front", "_threads.py",
          "for call in itertools.islice(calls, depth))",
          "for call in itertools.islice(calls, depth + 1))",
          ("tests/test_threads.py::TestLookAhead::"
           "test_results_come_out_in_order_depth_calls_ahead[1-2000]",
           "tests/test_threads.py::TestPool::"
           "test_at_most_depth_plus_one_results_are_alive[synth]")),
    Fault("workers() shuts down without cancel_futures", "_threads.py",
          "pool.shutdown(cancel_futures=True)",
          "pool.shutdown()",
          ("tests/test_threads.py::TestPool::"
           "test_one_pool_per_call_shut_down_and_joined[study-ok]",)),
    Fault("pinned_blas() does not restore the count", "_threads.py",
          "    finally:\n        set_(before)",
          "    finally:\n        set_(1)",
          ("tests/test_threads.py::TestPinnedBlas::"
           "test_a_usage_error_restores_the_count",)),
    Fault("_write_wavs keeps sig", "study.py",
          "        del sig\n",
          "",
          ("tests/test_study.py::TestExtractFeatures::"
           "test_stream_holds_no_previous_utterance",)),
    Fault("run_study submits fits in leg order", "study.py",
          'key=lambda fit: (fit[1] == "full",\n'
          "                                               len(pools[fit[2]])),",
          "key=lambda fit: 0,",
          ("tests/test_study.py::TestTwoAtATime::"
           "test_two_runners_take_the_costliest_tasks_first",)),
    Fault("run_study's corpus look-ahead at depth 2", "study.py",
          "look_ahead(signals.makers(), pool, 1)",
          "look_ahead(signals.makers(), pool, 2)",
          ("tests/test_threads.py::TestPool::"
           "test_at_most_depth_plus_one_results_are_alive[study]",)),
    Fault("synth at depth WORKERS + 1", "cli.py",
          "look_ahead(signals.makers(), pool, WORKERS)",
          "look_ahead(signals.makers(), pool, WORKERS + 1)",
          ("tests/test_threads.py::TestPool::"
           "test_at_most_depth_plus_one_results_are_alive[synth]",)),
    # `replaykit extract`.
    Fault("_cmd_extract's chunks drop a row", "cli.py",
          "rows[i:i + EXTRACT_CHUNK]",
          "rows[i:i + EXTRACT_CHUNK - 1]",
          ("tests/test_cli.py::TestTwoWayExtract::"
           "test_archive_equals_the_inline_pass[FeatureKind.LOG_FBANK]",
           "tests/test_cli.py::TestTwoWayExtract::"
           "test_each_chunk_is_one_pass_on_a_worker[3]")),
    Fault("_cmd_extract adds a chunk's rows in reverse", "cli.py",
          "for utt_id, fm in chunk:",
          "for utt_id, fm in reversed(chunk):",
          ("tests/test_cli.py::TestTwoWayExtract::"
           "test_archive_equals_the_inline_pass[FeatureKind.LOG_FBANK]",)),
    Fault("_cmd_extract reads every row of a chunk from its first WAV",
          "cli.py",
          "corpus_mod.read_wav(path)) for rec, path in rows)",
          "corpus_mod.read_wav(rows[0][1])) for rec, path in rows)",
          ("tests/test_cli.py::TestTwoWayExtract::"
           "test_archive_equals_the_inline_pass[FeatureKind.CEPSTRA_DELTA]",)),
    Fault("_cmd_extract may write over a WAV it reads", "cli.py",
          "_refuse_overwriting_inputs(args.out, wav_paths)",
          "_refuse_overwriting_inputs(args.out, [])",
          ("tests/test_cli.py::TestFailures::"
           "test_out_naming_an_input[extract-wav]",)),
    Fault("_cmd_extract runs its chunks on the calling thread", "cli.py",
          "for chunk in look_ahead(chunks, pool, WORKERS):",
          "for chunk in (call() for call in chunks):",
          ("tests/test_threads.py::TestPool::"
           "test_calls_run_on_workers_and_outputs_are_written_here[extract]",
           "tests/test_cli.py::TestTwoWayExtract::"
           "test_each_chunk_is_one_pass_on_a_worker[3]")),
    # The file layer.
    Fault("output_file writes straight to path", "_files.py",
          "self._partial = partial_path(self.path)",
          "self._partial = self.path",
          ("tests/test_files.py::"
           "test_an_error_leaves_the_old_file_and_no_partial",)),
    Fault("output_file keeps the partial on failure", "_files.py",
          "            if not committed:\n"
          "                self._partial.unlink(missing_ok=True)",
          "            if not committed:\n"
          "                pass",
          ("tests/test_files.py::"
           "test_an_error_leaves_the_old_file_and_no_partial",
           "tests/test_cli.py::TestFailures::"
           "test_probe_whose_json_document_cannot_be_written")),
    Fault("output_file names a failed move by its partial file",
          "_files.py",
          'raise type(error)(\n                        f"{self.path}: {error.strerror}") from error',
          "raise",
          ("tests/test_files.py::"
           "test_a_failed_move_names_the_output_and_leaves_no_partial",
           "tests/test_cli.py::TestFailures::"
           "test_probe_whose_tsv_cannot_be_written")),
    Fault("a probe report's TSV kept when its JSON document fails",
          "study.py",
          "undo.callback(tsv_path.unlink)",
          "pass",
          ("tests/test_cli.py::TestFailures::"
           "test_probe_whose_json_document_cannot_be_written",)),
    Fault("a probe report's JSON document written before its TSV", "study.py",
          "            write_table(tsv_path, rows, header)\n"
          "            undo.callback(tsv_path.unlink)  # if the JSON document fails\n"
          "        undo.pop_all()\n",
          "        undo.pop_all()\n"
          "    write_table(tsv_path, rows, header)\n",
          ("tests/test_cli.py::TestFailures::"
           "test_probe_whose_tsv_cannot_be_written",)),
    Fault("the overwrite guard skips partial paths", "cli.py",
          "for target in (written, partial_path(written)):",
          "for target in (written,):",
          ("tests/test_cli.py::TestFailures::"
           "test_out_naming_an_input[train-partial]",
           "tests/test_cli.py::TestFailures::"
           "test_out_naming_an_input[probe-json-partial]")),
    Fault("write_table drops its cell check", "_files.py",
          'if "\\t" in cell or len((cell + ".").splitlines()) > 1:',
          "if False:",
          ("tests/test_metrics.py::TestScoreFiles::"
           "test_a_cell_the_reader_would_split_is_not_written[a\\tb]",
           "tests/test_corpus.py::TestManifest::"
           "test_a_cell_the_reader_would_split_is_not_written[x\\u2028y]")),
    Fault("read_table drops its duplicate-id check", "_files.py",
          "if cells[0] in first_line:",
          "if False:",
          ("tests/test_metrics.py::TestScoreFiles::"
           "test_duplicate_utterance_id",)),
]

# Run in each copy: pytest on the given node ids, after checking that the
# `replaykit` imported is the copy's; the ids of failed tests are written
# to the JSON file named first.
PYTEST_IN_COPY = """
import json, sys
from pathlib import Path
import pytest
import replaykit
if Path(replaykit.__file__).resolve().parents[2] != Path.cwd().resolve():
    print(f"imported {replaykit.__file__}, not this copy's", file=sys.stderr)
    sys.exit(99)  # no exit code of pytest's
failed = []
class Failures:
    def pytest_runtest_logreport(self, report):
        if report.failed:
            failed.append(report.nodeid)
code = pytest.main(["-q", "--tb=short", "-p", "no:cacheprovider",
                    *sys.argv[2:]], plugins=[Failures()])
Path(sys.argv[1]).write_text(json.dumps(failed))
sys.exit(int(code))
"""


def _copy(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)
    return dest


def _pytest(tree: Path, node_ids) -> tuple[int, list[str], str]:
    """(pytest's exit code, the failed node ids, its output) in `tree`."""
    report = tree / "failed.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        ["src", *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run(
        [sys.executable, "-c", PYTEST_IN_COPY, report, *node_ids],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = json.loads(report.read_text()) if report.exists() else []
    return run.returncode, failed, run.stdout + run.stderr


def _caught_by(catcher: str, failed: list[str]) -> bool:
    return any(f == catcher or f.startswith((catcher + "::", catcher + "["))
               for f in failed)


def _problem(fault: Fault, tree: Path) -> str | None:
    """What is wrong with `fault` applied in `tree`, or None if its
    catchers all fail."""
    source = tree / "src" / "replaykit" / fault.path
    text = source.read_text(encoding="utf-8")
    if text.count(fault.old) != 1:
        return f"its text occurs {text.count(fault.old)} times in {fault.path}"
    source.write_text(text.replace(fault.old, fault.new), encoding="utf-8")
    code, failed, output = _pytest(tree, fault.catchers)
    missed = [c for c in fault.catchers if not _caught_by(c, failed)]
    if code not in (0, 1):
        problem = f"pytest exit {code}"
    elif not fault.catchers or code == 0:
        problem = "survives"
    elif missed:
        problem = f"not caught by {', '.join(missed)}"
    else:
        return None
    print(output)
    return problem


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="replaykit-mutants-") as tmp:
        catchers = sorted({c for fault in FAULTS for c in fault.catchers})
        code, _, output = _pytest(_copy(Path(tmp) / "clean"), catchers)
        if code != 0:
            print(output)
            print(f"the catchers do not pass unmutated (pytest exit {code})")
            return 1
        print(f"{len(catchers)} catchers pass unmutated")
        for i, fault in enumerate(FAULTS):
            tree = _copy(Path(tmp) / f"fault{i}")
            problem = _problem(fault, tree)
            print(f"{problem or 'caught'}: {fault.what}", flush=True)
            if problem is not None:
                problems.append(f"{fault.what}: {problem}")
            shutil.rmtree(tree)
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"{len(FAULTS) - len(problems)} of {len(FAULTS)} faults caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
