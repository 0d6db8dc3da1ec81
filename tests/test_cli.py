import base64
import collections
import contextlib
import dataclasses
import io
import itertools
import json
import shutil
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from replaykit import _threads, cli, corpus, study
from replaykit.archive import FeatureArchive, read_archive, write_archive
from replaykit.corpus import (AudioSignal, Manifest, SynthConfig,
                              UtteranceMeta, derive_seed, parse_manifest,
                              read_wav, synth_corpus, write_manifest,
                              write_wav)
from replaykit.errors import (ArchiveFormatError, FeatureMismatchError,
                              WavFormatError)
from replaykit.filterbank import FeatureKind, FeatureMatrix, WarpKind
from replaykit.fratio import MomentTable, probe_factor
from replaykit.gmm import (GmmPairModel, TrainConfig, load_pair_model,
                           save_pair_model, score_utterance, train_gmm)
from replaykit.metrics import (ScoreRecord, compute_eer, read_scores,
                               write_scores)
from replaykit.study import (ExtractionConfig, extract_features,
                             write_corpus, write_probe_report)
from test_study import (SEED, TINY_CORPUS, TINY_SYNTH_ARGV, _traced_peak,
                        _tree)


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _ok(*argv):
    code, out, err = _run(*argv)
    assert code == 0, err
    assert err == ""
    return out


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """synth -> extract -> probe -> train -> score (with and without
    labels) on a tiny corpus; every command must exit 0."""
    root = tmp_path_factory.mktemp("cli")
    manifest = root / "corpus" / "manifest.tsv"
    _ok("synth", "--out", root / "corpus", "--seed", SEED, *TINY_SYNTH_ARGV)
    for feature in ("fbank", "cepstra-delta"):
        _ok("extract", "--manifest", manifest, "--warp", "mel", "--feature",
            feature, "--out", root / f"mel_{feature}.rpfa")
    for factor in ("speaker", "phrase", "device"):
        _ok("probe", "--archive", root / "mel_fbank.rpfa", "--manifest",
            manifest, "--factor", factor, "--out", root / f"{factor}.tsv")
    archive = root / "mel_cepstra-delta.rpfa"
    _ok("train", "--archive", archive, "--manifest", manifest, "--ncomp", 2,
        "--cov", "diag", "--seed", SEED, "--max-iters", 2,
        "--out", root / "model.json")
    _ok("score", "--archive", archive, "--model", root / "model.json",
        "--manifest", manifest, "--out", root / "labelled.tsv")
    _ok("score", "--archive", archive, "--model", root / "model.json",
        "--out", root / "unlabelled.tsv")
    return root


class TestRoundTrip:
    def test_eval_prints_compute_eer_of_score_file(self, work):
        manifest = work / "corpus" / "manifest.tsv"
        out = _ok("eval", "--scores", work / "labelled.tsv", "--manifest",
                  manifest)
        eer, threshold = compute_eer(read_scores(work / "labelled.tsv"))
        assert out == f"EER: {100.0 * eer:.2f}%  threshold: {threshold!r}\n"

    def test_unlabelled_scores_filled_by_eval(self, work):
        manifest = work / "corpus" / "manifest.tsv"
        labelled = (work / "labelled.tsv").read_text().splitlines()
        unlabelled = (work / "unlabelled.tsv").read_text().splitlines()
        assert [line.split("\t")[2] for line in unlabelled] == \
            ["-"] * len(labelled)
        assert [line.rsplit("\t", 1)[0] for line in unlabelled] == \
            [line.rsplit("\t", 1)[0] for line in labelled]
        assert _ok("eval", "--scores", work / "unlabelled.tsv",
                   "--manifest", manifest) == \
            _ok("eval", "--scores", work / "labelled.tsv",
                "--manifest", manifest)

    def test_probe_reports_written(self, work):
        doc = json.loads((work / "device.json").read_text())
        assert doc["factor"] == "device" and doc["warp"] == "mel"
        assert len(doc["patterns"]) == 2

    def test_features_close_to_study_path_but_not_bitwise(self, work):
        """The documented contract: the CLI's features from 16-bit WAVs,
        stored as float32, stay within a small gap of the study's float64
        in-memory features."""
        signals, _, _ = synth_corpus(TINY_CORPUS, SEED)
        for feature, bound in ((FeatureKind.LOG_FBANK, 1e-2),
                               (FeatureKind.CEPSTRA_DELTA, 5e-3)):
            (in_memory,) = extract_features(
                ((r.utt_id, s) for r, s in signals),
                ExtractionConfig(WarpKind.MEL, feature))
            stored = read_archive(work / f"mel_{feature.value}.rpfa")
            assert stored.config == in_memory.config
            gap = max(np.abs(stored.entries[u].values - fm.values).max()
                      for u, fm in in_memory.entries.items())
            assert 0.0 < gap < bound


class TestFailures:
    def _single_error_line(self, argv):
        code, out, err = _run(*argv)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def test_missing_manifest(self, work, tmp_path):
        missing = tmp_path / "nope.tsv"
        line = self._single_error_line(
            ["eval", "--scores", work / "labelled.tsv", "--manifest",
             missing])
        assert line == f"error: {missing}: no such file"
        line = self._single_error_line(
            ["extract", "--manifest", missing, "--warp", "mel", "--feature",
             "fbank", "--out", tmp_path / "x.rpfa"])
        assert line == f"error: {missing}: no such file"

    def test_missing_wav(self, work, tmp_path):
        corpus = tmp_path / "corpus"
        _ok("synth", "--out", corpus, "--seed", SEED, *TINY_SYNTH_ARGV)
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        wav.unlink()
        line = self._single_error_line(
            ["extract", "--manifest", corpus / "manifest.tsv", "--warp", "mel",
             "--feature", "fbank", "--out", tmp_path / "x.rpfa"])
        assert line == f"error: {wav}: no such file"

    def test_wav_with_a_byte_inserted_into_its_header(self, work, tmp_path):
        # The inserted byte shifts the fmt chunk's id and size field, so
        # the chunk's declared size runs past the file's end; the command
        # must name the file.
        corpus = tmp_path / "corpus"
        _ok("synth", "--out", corpus, "--seed", SEED, *TINY_SYNTH_ARGV)
        wav = sorted((corpus / "audio").glob("*.wav"))[0]
        data = wav.read_bytes()
        wav.write_bytes(data[:12] + b"\0" + data[12:])
        out = tmp_path / "x.rpfa"
        line = self._single_error_line(
            ["extract", "--manifest", corpus / "manifest.tsv", "--warp", "mel",
             "--feature", "fbank", "--out", out])
        assert line.startswith(f"error: {wav}: corrupt WAV header")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("score", "--archive"), ("score", "--model"), ("eval", "--scores")])
    def test_missing_input_file(self, work, tmp_path, command, flag):
        args = {"score": {"--archive": work / "mel_cepstra-delta.rpfa",
                          "--model": work / "model.json",
                          "--out": tmp_path / "s.tsv"},
                "eval": {"--scores": work / "labelled.tsv",
                         "--manifest": work / "corpus" / "manifest.tsv"},
                }[command]
        missing = tmp_path / "nope"
        args[flag] = missing
        argv = [command] + [item for pair in args.items() for item in pair]
        assert self._single_error_line(argv) == \
            f"error: {missing}: no such file"

    @pytest.mark.parametrize("flag, value, message", [
        ("--ncomp", 0, "n_comp must be >= 1, got 0"),
        ("--max-iters", -1, "max_iters must be >= 0, got -1"),
        ("--ll-tolerance", "nan", "ll_tolerance must be a number, got nan"),
    ])
    def test_bad_training_size(self, work, tmp_path, flag, value, message):
        argv = ["train", "--archive", work / "mel_cepstra-delta.rpfa",
                "--manifest", work / "corpus" / "manifest.tsv", "--seed", SEED,
                "--out", tmp_path / "model.json", flag, value]
        assert self._single_error_line(argv) == f"error: {message}"
        assert not (tmp_path / "model.json").exists()

    def test_probe_out_ending_in_json(self, work, tmp_path):
        # The report's JSON document goes next to the TSV, at the same
        # path with .json, so it would overwrite a TSV named x.json.
        out = tmp_path / "device.json"
        line = self._single_error_line(
            ["probe", "--archive", work / "mel_fbank.rpfa", "--manifest",
             work / "corpus" / "manifest.tsv", "--factor", "device",
             "--out", out])
        assert line.startswith(f"error: {out}: ")
        assert list(tmp_path.iterdir()) == []

    def test_probe_whose_json_document_cannot_be_written(self, work,
                                                         tmp_path):
        # The JSON document is written first, and moving it onto a
        # directory fails, so neither the TSV nor a partial file is left.
        out = tmp_path / "device.tsv"
        (tmp_path / "device.json").mkdir()
        self._single_error_line(
            ["probe", "--archive", work / "mel_fbank.rpfa", "--manifest",
             work / "corpus" / "manifest.tsv", "--factor", "device",
             "--out", out])
        assert list(tmp_path.rglob("*")) == [tmp_path / "device.json"]

    def test_model_not_json(self, work, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        line = self._single_error_line(
            ["score", "--archive", work / "mel_cepstra-delta.rpfa",
             "--model", bad, "--out", tmp_path / "s.tsv"])
        assert line.startswith(f"error: {bad}: not valid JSON (")

    def test_model_missing_key(self, work, tmp_path):
        doc = json.loads((work / "model.json").read_text())
        del doc["genuine"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        line = self._single_error_line(
            ["score", "--archive", work / "mel_cepstra-delta.rpfa",
             "--model", bad, "--out", tmp_path / "s.tsv"])
        assert line == f"error: {bad}: missing key 'genuine'"

    def test_model_with_a_covariance_that_is_not_positive_definite(
            self, work, tmp_path):
        # The trained diagonal pair rewritten as a full one, one replay
        # covariance set to -I: score names the file and the mixture.
        doc = json.loads((work / "model.json").read_text())
        k, d = doc["K"], doc["d"]
        doc["covariance_kind"] = "full"
        for side in ("genuine", "replay"):
            diag = np.frombuffer(base64.b64decode(doc[side]["covariances"]),
                                 "<f8").reshape(k, d)
            full = diag[:, :, None] * np.eye(d)
            if side == "replay":
                full[1] = -np.eye(d)
            doc[side]["covariances"] = base64.b64encode(
                full.astype("<f8").tobytes()).decode("ascii")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        line = self._single_error_line(
            ["score", "--archive", work / "mel_cepstra-delta.rpfa",
             "--model", bad, "--out", tmp_path / "s.tsv"])
        assert line == (f"error: {bad}: replay: component 1 covariance is "
                        f"not positive-definite")
        assert not (tmp_path / "s.tsv").exists()

    def test_model_whose_training_config_is_not_one(self, work, tmp_path):
        doc = json.loads((work / "model.json").read_text())
        doc["training_config"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        line = self._single_error_line(
            ["score", "--archive", work / "mel_cepstra-delta.rpfa",
             "--model", bad, "--out", tmp_path / "s.tsv"])
        assert line.startswith(f"error: {bad}: training_config: expected an "
                               f"object with the keys ")
        assert not (tmp_path / "s.tsv").exists()

    def test_model_of_another_feature_kind(self, work, tmp_path):
        # Inverted-Mel and Mel cepstra with deltas share d, so only the
        # warp of the extraction config tells this model and archive apart.
        imel = tmp_path / "imel_cepstra-delta.rpfa"
        _ok("extract", "--manifest", work / "corpus" / "manifest.tsv",
            "--warp", "imel", "--feature", "cepstra-delta", "--out", imel)
        model = work / "model.json"
        line = self._single_error_line(
            ["score", "--archive", imel, "--model", model,
             "--out", tmp_path / "s.tsv"])
        trained, given = (json.dumps(ExtractionConfig(
            warp, FeatureKind.CEPSTRA_DELTA).to_dict(), sort_keys=True)
            for warp in (WarpKind.MEL, WarpKind.INVERTED_MEL))
        assert line == (f"error: model {model} was trained on features "
                        f"extracted with {trained}, but archive {imel} "
                        f"holds features extracted with {given}")
        assert not (tmp_path / "s.tsv").exists()

    def test_score_of_an_archive_without_entries(self, work, tmp_path):
        # `eval` refuses a score file without records, so `score` writes
        # none.
        empty = tmp_path / "empty.rpfa"
        write_archive(FeatureArchive(
            read_archive(work / "mel_cepstra-delta.rpfa").config), empty)
        out = tmp_path / "s.tsv"
        line = self._single_error_line(
            ["score", "--archive", empty, "--model", work / "model.json",
             "--out", out])
        assert line == f"error: {out}: no score records to write"
        assert not out.exists()

    # float() reads 1_5 as 15.0, but write_scores never writes it.
    @pytest.mark.parametrize("score", ["abc", "1_5"])
    def test_non_numeric_score(self, work, tmp_path, score):
        rows = (work / "labelled.tsv").read_text().splitlines()
        utt_id, _, label = rows[1].split("\t")
        rows[1] = f"{utt_id}\t{score}\t{label}"
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(rows) + "\n")
        line = self._single_error_line(
            ["eval", "--scores", bad, "--manifest",
             work / "corpus" / "manifest.tsv"])
        assert line.startswith(f"error: {bad}:2: ")

    def test_deltas_of_an_utterance_shorter_than_a_frame(self, work, tmp_path):
        # 399 samples are one short of a 25 ms frame: fbank writes a
        # 0-frame entry, cepstra+deltas name the utterance.
        corpus = tmp_path / "corpus"
        _ok("synth", "--out", corpus, "--seed", SEED, *TINY_SYNTH_ARGV)
        rec = parse_manifest(corpus / "manifest.tsv").records[1]
        write_wav(AudioSignal(np.zeros(399)), corpus / rec.audio_path)
        argv = ["extract", "--manifest", corpus / "manifest.tsv", "--warp",
                "mel", "--out", tmp_path / "x.rpfa", "--feature"]
        _ok(*argv, "fbank")
        assert read_archive(tmp_path / "x.rpfa").entries[rec.utt_id] \
            .n_frames == 0
        line = self._single_error_line(argv + ["cepstra-delta"])
        assert line == (f"error: utterance {rec.utt_id} has 0 frames: its "
                        f"399 samples are shorter than one 400-sample "
                        f"frame, and deltas need at least 1")

    def test_failed_extract_leaves_no_archive(self, work, tmp_path):
        # The short utterance is the manifest's last, so every other entry
        # is extracted before the failure; neither the archive nor its
        # partial file may be left behind.
        corpus = tmp_path / "corpus"
        _ok("synth", "--out", corpus, "--seed", SEED, *TINY_SYNTH_ARGV)
        rec = parse_manifest(corpus / "manifest.tsv").records[-1]
        write_wav(AudioSignal(np.zeros(399)), corpus / rec.audio_path)
        out = tmp_path / "features" / "x.rpfa"
        line = self._single_error_line(
            ["extract", "--manifest", corpus / "manifest.tsv", "--warp",
             "mel", "--feature", "cepstra-delta", "--out", out])
        assert line.startswith(f"error: utterance {rec.utt_id} has 0 frames")
        assert not out.exists()
        assert not out.with_name("x.rpfa.partial").exists()

    def test_extract_offers_fbank_and_cepstra_delta_only(self, work,
                                                         tmp_path):
        # Cepstra come with their deltas or not at all: `--feature
        # cepstra` is a usage error, exit 2, and writes no archive.
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                pytest.raises(SystemExit) as info:
            cli.main(["extract", "--help"])
        assert info.value.code == 0
        assert "--feature {fbank,cepstra-delta}" in out.getvalue()
        with pytest.raises(SystemExit) as info:
            _run("extract", "--manifest", work / "corpus" / "manifest.tsv",
                 "--warp", "imel", "--feature", "cepstra",
                 "--out", tmp_path / "x.rpfa")
        assert info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_utterance_id_too_long_for_an_archive(self, work, tmp_path):
        # parse_manifest takes any id; an archive stores its UTF-8 length
        # in 16 bits, and the writer names the id it cannot hold.
        corpus = tmp_path / "corpus"
        _ok("synth", "--out", corpus, "--seed", SEED, *TINY_SYNTH_ARGV)
        manifest = parse_manifest(corpus / "manifest.tsv")
        long_id = "u" * 0x10000
        records = list(manifest.records)
        records[1] = dataclasses.replace(records[1], utt_id=long_id)
        write_manifest(Manifest(records), corpus / "manifest.tsv")
        out = tmp_path / "x.rpfa"
        line = self._single_error_line(
            ["extract", "--manifest", corpus / "manifest.tsv", "--warp",
             "mel", "--feature", "fbank", "--out", out])
        assert line == (f"error: utterance id {long_id[:40]!r}... is 65536 "
                        f"bytes as UTF-8, more than the 65535 its length "
                        f"field holds")
        assert not out.exists()
        assert not out.with_name("x.rpfa.partial").exists()

    def test_score_with_a_negative_variance_model(self, work, tmp_path):
        # The model file is blamed, not the score that its log of a
        # negative variance would make.
        doc = json.loads((work / "model.json").read_text())
        variances = np.frombuffer(
            base64.b64decode(doc["replay"]["covariances"]), "<f8").copy()
        variances[3] = -1.0
        doc["replay"]["covariances"] = base64.b64encode(
            variances.tobytes()).decode()
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc) + "\n")
        out = tmp_path / "s.tsv"
        line = self._single_error_line(
            ["score", "--archive", work / "mel_cepstra-delta.rpfa",
             "--model", model, "--out", out])
        assert line == (f"error: {model}: replay: diagonal variances must "
                        f"be > 0")
        assert not out.exists()

    def test_score_of_a_zero_frame_entry(self, work, tmp_path):
        archive = read_archive(work / "mel_cepstra-delta.rpfa")
        utt_id = list(archive.entries)[2]
        archive.entries[utt_id] = FeatureMatrix(np.zeros((0, 26)),
                                                FeatureKind.CEPSTRA_DELTA)
        bad = tmp_path / "empty_entry.rpfa"
        write_archive(archive, bad)
        line = self._single_error_line(
            ["score", "--archive", bad, "--model", work / "model.json",
             "--out", tmp_path / "s.tsv"])
        assert line == (f"error: utterance {utt_id} has 0 frames in {bad}; "
                        f"scoring needs at least 1")
        assert not (tmp_path / "s.tsv").exists()

    def test_model_of_another_extraction_config(self, work, tmp_path):
        # 40 bands and 30 ms frames give MFCC+D of the same kind and dim
        # as the model's 23-band, 25 ms training features, so only the
        # extraction config the model records tells them apart.
        manifest = work / "corpus" / "manifest.tsv"
        wide = tmp_path / "mel40.rpfa"
        _ok("extract", "--manifest", manifest, "--warp", "mel", "--feature",
            "cepstra-delta", "--bands", 40, "--frame-ms", 30, "--out", wide)
        model = work / "model.json"
        out = tmp_path / "s.tsv"
        line = self._single_error_line(
            ["score", "--archive", wide, "--model", model, "--manifest",
             manifest, "--out", out])
        trained, given = (json.dumps(read_archive(p).config.to_dict(),
                                     sort_keys=True)
                          for p in (work / "mel_cepstra-delta.rpfa", wide))
        assert '"bands": 23' in trained and '"bands": 40' in given
        assert line == (f"error: model {model} was trained on features "
                        f"extracted with {trained}, but archive {wide} "
                        f"holds features extracted with {given}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["probe", "train", "score"])
    def test_truncated_archive(self, work, tmp_path, command):
        # The cut is in the last entry's frames, so every earlier entry
        # reads; the scan at open must still fail the command before it
        # writes anything.
        feature = "fbank" if command == "probe" else "cepstra-delta"
        bad = tmp_path / "cut.rpfa"
        bad.write_bytes((work / f"mel_{feature}.rpfa").read_bytes()[:-5])
        with pytest.raises(ArchiveFormatError) as info:
            read_archive(bad)
        assert "truncated archive" in str(info.value)
        out = tmp_path / "out"
        argv = {"probe": ["--factor", "device"],
                "train": ["--ncomp", 2, "--seed", SEED, "--max-iters", 2],
                "score": ["--model", work / "model.json"]}[command]
        line = self._single_error_line(
            [command, "--archive", bad, "--manifest",
             work / "corpus" / "manifest.tsv", "--out", out, *argv])
        assert line == f"error: {info.value}"
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("command, target", [
        ("extract", "manifest"), ("extract", "wav"), ("extract", "partial"),
        ("probe", "archive"), ("probe", "manifest"), ("probe", "json"),
        ("probe", "partial"), ("probe", "json-partial"),
        ("train", "archive"), ("train", "manifest"), ("train", "partial"),
        ("score", "archive"), ("score", "model"), ("score", "manifest"),
        ("score", "symlink"), ("score", "partial"),
    ])
    def test_out_naming_an_input(self, work, tmp_path, command, target):
        # Every input is a copy, so a command that writes over one harms
        # no other test. "json": probe's --out is x.tsv, its JSON document
        # goes to x.json, and the archive is x.json. "symlink": --out is
        # a link to the archive. "partial": every output is written to its
        # partial file first, so extract's --out is m.rpfa and the manifest
        # m.rpfa.partial, and another command's --out is x.tsv and the
        # archive x.tsv.partial. "json-partial": probe's --out is x.tsv,
        # and the archive is x.json.partial, where its JSON document is
        # written first.
        corpus = tmp_path / "corpus"
        shutil.copytree(work / "corpus", corpus)
        manifest = corpus / "manifest.tsv"
        if target == "partial" and command == "extract":
            manifest = manifest.rename(corpus / "m.rpfa.partial")
        feature = "fbank" if command == "probe" else "cepstra-delta"
        archive = tmp_path / {"json": "x.json", "partial": "x.tsv.partial",
                              "json-partial": "x.json.partial",
                              }.get(target, "x.rpfa")
        shutil.copy(work / f"mel_{feature}.rpfa", archive)
        model = tmp_path / "model.json"
        shutil.copy(work / "model.json", model)
        out = {"manifest": manifest, "archive": archive, "model": model,
               "wav": sorted((corpus / "audio").glob("*.wav"))[0],
               "json": tmp_path / "x.tsv",
               "json-partial": tmp_path / "x.tsv",
               "symlink": tmp_path / "link.tsv",
               "partial": (corpus / "m.rpfa" if command == "extract"
                           else tmp_path / "x.tsv")}[target]
        if target == "symlink":
            out.symlink_to(archive)
        argv = {"extract": ["--manifest", manifest, "--warp", "mel",
                            "--feature", feature],
                "probe": ["--archive", archive, "--manifest", manifest,
                          "--factor", "device"],
                "train": ["--archive", archive, "--manifest", manifest,
                          "--ncomp", 2, "--seed", SEED, "--max-iters", 2],
                "score": ["--archive", archive, "--model", model,
                          "--manifest", manifest]}[command]
        files = sorted(tmp_path.rglob("*"))
        before = {p: p.read_bytes() for p in files if p.is_file()}
        line = self._single_error_line([command, *argv, "--out", out])
        assert line.startswith(f"error: {out}: the output would overwrite "
                               f"the input ")
        assert sorted(tmp_path.rglob("*")) == files
        assert {p: p.read_bytes() for p in files if p.is_file()} == before

    def test_train_on_an_archive_lacking_a_manifest_utterance(self, work,
                                                             tmp_path):
        records = parse_manifest(work / "corpus" / "manifest.tsv").records
        extra = UtteranceMeta("S09-P00-R0-live", "audio/S09-P00-R0-live.wav",
                              "genuine", "S09", "P00", "-")
        write_manifest(Manifest(records + [extra]), tmp_path / "m.tsv")
        args = cli.build_parser().parse_args(
            ["train", "--archive", str(work / "mel_cepstra-delta.rpfa"),
             "--manifest", str(tmp_path / "m.tsv"), "--seed", str(SEED),
             "--out", str(tmp_path / "model.json")])
        with pytest.raises(FeatureMismatchError) as info:
            args.func(args)
        assert str(info.value) == (
            f"{work / 'mel_cepstra-delta.rpfa'}: lacks features for 1 "
            f"utterance(s) that {tmp_path / 'm.tsv'} lists, "
            f"['S09-P00-R0-live']")
        assert not (tmp_path / "model.json").exists()

    def test_probe_on_an_archive_lacking_a_manifest_utterance(self, work,
                                                             tmp_path):
        records = parse_manifest(work / "corpus" / "manifest.tsv").records
        extra = UtteranceMeta("S09-P00-R0-live", "audio/S09-P00-R0-live.wav",
                              "genuine", "S09", "P00", "-")
        manifest = tmp_path / "m.tsv"
        write_manifest(Manifest(records + [extra]), manifest)
        archive = work / "mel_fbank.rpfa"
        line = self._single_error_line(
            ["probe", "--archive", archive, "--manifest", manifest,
             "--factor", "device", "--out", tmp_path / "p.tsv"])
        assert line == (f"error: {archive}: lacks features for 1 "
                        f"utterance(s) that {manifest} lists, "
                        f"['S09-P00-R0-live']")
        assert list(tmp_path.iterdir()) == [manifest]

    def test_probe_on_a_cepstra_archive(self, work, tmp_path):
        archive = work / "mel_cepstra-delta.rpfa"
        line = self._single_error_line(
            ["probe", "--archive", archive, "--manifest",
             work / "corpus" / "manifest.tsv", "--factor", "device",
             "--out", tmp_path / "p.tsv"])
        assert line == (f"error: {archive}: holds cepstra-delta features, "
                        f"but probe needs fbank features")
        assert list(tmp_path.iterdir()) == []


class TestTwoWayExtract:
    """`replaykit extract` runs one inline pass per chunk of EXTRACT_CHUNK
    rows on its pool (`test_threads.TestPool`); its archive and the error
    it names must be one inline pass's. EXTRACT_CHUNK is 3 here: 4 chunks."""

    CHUNK = 3

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "EXTRACT_CHUNK", self.CHUNK)

    @pytest.fixture
    def corpus(self, work, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(work / "corpus", corpus)
        return corpus

    @staticmethod
    def _extract(manifest, out, *flags, feature="fbank"):
        return _run("extract", "--manifest", manifest, "--warp", "mel",
                    "--feature", feature, "--out", out, *flags)

    @pytest.mark.parametrize("feature", list(FeatureKind))
    def test_archive_equals_the_inline_pass(self, corpus, tmp_path,
                                            feature):
        # Manifests of 1 to 10 rows.
        manifest = corpus / "manifest.tsv"
        all_records = parse_manifest(manifest).records
        if feature is FeatureKind.LOG_FBANK:
            # 0-frame utterances on both sides of the first chunk boundary.
            for rec in all_records[self.CHUNK - 1:self.CHUNK + 1]:
                write_wav(AudioSignal(np.zeros(399)), corpus / rec.audio_path)
        config = ExtractionConfig(WarpKind.MEL, feature)
        for n_rows in [1, 2, 3, 4, 7, 10]:
            records = all_records[:n_rows]
            write_manifest(Manifest(records), manifest)
            with _threads.pinned_blas():
                (inline,) = extract_features(
                    ((r.utt_id, read_wav(corpus / r.audio_path))
                     for r in records), config)
            write_archive(inline, tmp_path / "inline.rpfa")
            if feature is FeatureKind.LOG_FBANK and n_rows >= self.CHUNK:
                assert 0 in [fm.n_frames for fm in inline.entries.values()]
            code, _, err = self._extract(manifest, tmp_path / "chunked.rpfa",
                                         feature=feature.value)
            assert code == 0, (n_rows, err)
            assert (tmp_path / "chunked.rpfa").read_bytes() == \
                (tmp_path / "inline.rpfa").read_bytes(), n_rows

    # The first row; the last row of chunk 0; the first row of chunk 1;
    # and both of those, chunk 0's read slowed so that chunk 1 fails first.
    @pytest.mark.parametrize("rows", [
        (0,), (CHUNK - 1,), (CHUNK,), (CHUNK - 1, CHUNK)])
    def test_the_earliest_corrupt_wav_is_named(
            self, corpus, tmp_path, monkeypatch, rows):
        slow = len(rows) > 1
        manifest = corpus / "manifest.tsv"
        records = parse_manifest(manifest).records
        bad = [corpus / records[row].audio_path for row in rows]
        for path in bad:
            path.write_bytes(b"not a RIFF file\n")
        failed = []
        real_read_wav = cli.corpus_mod.read_wav

        def read_wav_recording(path):
            if slow and Path(path) == bad[0]:
                time.sleep(0.2)  # chunk 1 fails first
            try:
                return real_read_wav(path)
            except WavFormatError:
                failed.append(Path(path))
                raise

        monkeypatch.setattr(cli.corpus_mod, "read_wav", read_wav_recording)
        out = tmp_path / "x.rpfa"
        assert self._extract(manifest, out) == \
            (1, "", f"error: {bad[0]}: not a RIFF/WAVE file\n")
        assert failed == (bad[::-1] if slow else bad)
        assert not out.exists()
        assert not out.with_name("x.rpfa.partial").exists()

    # A chunk is one call, on a worker: one `iter_features` pass, which
    # builds its DCT basis and then reads its rows' WAVs in order. The
    # main thread does neither. A manifest of one chunk is one call.
    @pytest.mark.parametrize("chunk", [CHUNK, 12])
    def test_each_chunk_is_one_pass_on_a_worker(
            self, corpus, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "EXTRACT_CHUNK", chunk)
        logs = collections.defaultdict(list)  # per thread

        def recording(fn, event):
            def wrapper(*args):
                logs[threading.current_thread()].append(event(*args))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(study, "dct_basis", recording(
            study.dct_basis, lambda *args: "dct_basis"))
        monkeypatch.setattr(cli.corpus_mod, "read_wav", recording(
            cli.corpus_mod.read_wav, lambda path: Path(path).name))
        _ok("extract", "--manifest", corpus / "manifest.tsv", "--warp", "mel",
            "--feature", "cepstra-delta", "--out", tmp_path / "x.rpfa")
        assert threading.main_thread() not in logs
        passes = []  # each thread's log, cut at its DCT basis builds
        for event in itertools.chain(*logs.values()):
            if event == "dct_basis":
                passes.append([])
            passes[-1].append(event)
        names = [Path(r.audio_path).name
                 for r in parse_manifest(corpus / "manifest.tsv")]
        assert sorted(passes) == sorted(
            ["dct_basis", *names[i:i + chunk]]
            for i in range(0, len(names), chunk))

    @pytest.mark.parametrize("flag, value, message", [
        ("--frame-ms", 0, "invalid framing: need 0 < hop <= frame_len, "
                          "got hop=160, frame_len=0"),
        ("--hop-ms", 0, "invalid framing: need 0 < hop <= frame_len, "
                        "got hop=0, frame_len=400"),
        ("--hop-ms", 30, "invalid framing: need 0 < hop <= frame_len, "
                         "got hop=480, frame_len=400"),
        ("--nfft", 256, "n_fft (256) smaller than frame length (400)"),
        ("--nfft", 768, "n_fft must be a power of two, got 768"),
        ("--bands", 0, "M must be >= 1"),
        ("--bands", 12, "need at least 13 bands, got 12"),
        ("--bands", 128, "too many filters: filter(s) [0] span zero FFT "
                         "bins at n_fft=512 (kind=mel, M=128)"),
        ("--delta-window", 0, "window must be >= 1"),
    ])
    def test_a_bad_flag_fails_before_any_wav_is_read(
            self, work, tmp_path, flag, value, message):
        # The manifest alone, without its WAVs: the flag must be refused
        # before the first of them is looked for.
        manifest = tmp_path / "manifest.tsv"
        shutil.copy(work / "corpus" / "manifest.tsv", manifest)
        out = tmp_path / "x.rpfa"
        assert self._extract(manifest, out, flag, value,
                             feature="cepstra-delta") == \
            (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [manifest]


class TestSynthPool:
    """`replaykit synth` runs the corpus stream's calls on its pool
    (`test_threads.TestPool`); its corpus must be the one the inline
    stream writes."""

    ONE_GENUINE_ROW = ["--speakers", "1", "--phrases", "1",
                       "--train-devices", "1", "--heldout-devices", "1",
                       "--reps", "1", "--utt-seconds", "0.5"]
    CLI_STAGES_SHAPE = ["--speakers", "6", "--phrases", "4",
                        "--train-devices", "3", "--heldout-devices", "3",
                        "--reps", "1", "--utt-seconds", "0.5"]

    @staticmethod
    def _config(argv):
        args = cli.build_parser().parse_args(
            ["synth", "--out", "-", "--seed", str(SEED), *argv])
        return SynthConfig(args.speakers, args.phrases, args.train_devices,
                           args.heldout_devices, args.utt_seconds, args.reps)

    @pytest.mark.parametrize("argv", [ONE_GENUINE_ROW, CLI_STAGES_SHAPE],
                             ids=["one-genuine-row", "cli-stages-shape"])
    def test_the_corpus_is_the_inline_streams(self, tmp_path, argv):
        # One genuine row is fewer than the calls in flight, so the first
        # replays are asked for while their genuine row is still made.
        signals, manifest, profiles = synth_corpus(self._config(argv), SEED)
        with _threads.pinned_blas():
            collections.deque(write_corpus(signals, manifest, profiles,
                                           tmp_path / "inline"), maxlen=0)
        _ok("synth", "--out", tmp_path / "pooled", "--seed", SEED, *argv)
        inline = _tree(tmp_path / "inline")
        assert len(inline) == len(manifest) + 2
        assert _tree(tmp_path / "pooled") == inline

    def test_a_replay_call_starts_once_its_genuine_row_is_done(
            self, tmp_path, monkeypatch):
        # One genuine row, made slowly: both its replays' calls are asked
        # for while it is still made.
        started_early = []
        make_replay, synth_genuine = corpus._make_replay, corpus._synth_genuine

        def recording(rec, source, *args):
            started_early.append(not source.done())
            return make_replay(rec, source, *args)

        def slow_synth_genuine(*args):
            time.sleep(0.05)
            return synth_genuine(*args)

        monkeypatch.setattr(corpus, "_make_replay", recording)
        monkeypatch.setattr(corpus, "_synth_genuine", slow_synth_genuine)
        _ok("synth", "--out", tmp_path, "--seed", SEED, *self.ONE_GENUINE_ROW)
        assert started_early == [False, False]

    @pytest.mark.parametrize("argv, row", [
        (TINY_SYNTH_ARGV, 0), (TINY_SYNTH_ARGV, 3), (TINY_SYNTH_ARGV, 4),
        (ONE_GENUINE_ROW, 0), (ONE_GENUINE_ROW, 1)],
        ids=["row-0", "last-genuine", "first-replay", "one-genuine-row-0",
             "one-genuine-row-first-replay"])
    def test_an_error_is_raised_after_the_wavs_before_it(
            self, tmp_path, monkeypatch, argv, row):
        # TINY_SYNTH_ARGV: 4 genuine rows, then 4 replays per device. With
        # one genuine row, its replay is asked for while it is made.
        config = self._config(argv)
        signals, _, _ = synth_corpus(config, SEED)
        order = [rec.audio_path for rec, _ in signals]
        n_genuine = config.n_speakers * config.n_phrases * config.reps
        genuine, replay = corpus._synth_genuine, corpus._replay
        last = (config.n_speakers - 1, config.n_phrases - 1, config.reps - 1)
        failing_entropy = {0: (SEED, 1, 0, 0, 0),
                           n_genuine - 1: (SEED, 1, *last)}

        def synth_genuine(f0, envelope, n_samples, rng):
            if tuple(rng.bit_generator.seed_seq.entropy) == \
                    failing_entropy.get(row):
                raise RuntimeError(f"row {row} failed")
            return genuine(f0, envelope, n_samples, rng)

        def replay_(spectrum, in_rms, n, response, profile, seed):
            if row == n_genuine and seed == derive_seed(SEED, 2, 0, 0):
                raise RuntimeError(f"row {row} failed")
            return replay(spectrum, in_rms, n, response, profile, seed)

        monkeypatch.setattr(corpus, "_synth_genuine", synth_genuine)
        monkeypatch.setattr(corpus, "_replay", replay_)
        assert _run("synth", "--out", tmp_path, "--seed", SEED, *argv) == \
            (1, "", f"error: row {row} failed\n")
        written = sorted(str(p.relative_to(tmp_path))
                         for p in tmp_path.rglob("*.wav"))
        assert written == sorted(order[:row])
        assert (tmp_path / "manifest.tsv").is_file()


class TestStreamsAsInMemory:
    """Each command reads its archive one entry at a time; its output must
    be byte-identical to the whole archive read into memory as float64,
    with every pool stacked at once."""

    def test_probe(self, work, tmp_path):
        archive = read_archive(work / "mel_fbank.rpfa")
        manifest = parse_manifest(work / "corpus" / "manifest.tsv")
        table = MomentTable(archive.config.warp)
        for utt_id, fm in archive.entries.items():
            table.add(utt_id, fm)
        for factor in ("speaker", "phrase", "device"):
            report = probe_factor(table, manifest, factor)
            write_probe_report(report, tmp_path / f"{factor}.tsv")
            for suffix in (".tsv", ".json"):
                name = factor + suffix
                assert (work / name).read_bytes() == \
                    (tmp_path / name).read_bytes(), name

    def test_score(self, work, tmp_path):
        archive = read_archive(work / "mel_cepstra-delta.rpfa")
        manifest = parse_manifest(work / "corpus" / "manifest.tsv")
        labels = {r.utt_id: r.label for r in manifest}
        pair = load_pair_model(work / "model.json")
        write_scores([ScoreRecord(u, score_utterance(pair, fm), labels[u])
                      for u, fm in archive.entries.items()],
                     tmp_path / "scores.tsv")
        assert (work / "labelled.tsv").read_bytes() == \
            (tmp_path / "scores.tsv").read_bytes()

    @pytest.mark.parametrize("cov", ["diag", "full"])
    def test_train(self, work, tmp_path, cov):
        # Pools follow the manifest, not the archive, so an archive with
        # its entries reversed must train the same model.
        path = work / "mel_cepstra-delta.rpfa"
        archive = read_archive(path)
        manifest = parse_manifest(work / "corpus" / "manifest.tsv")
        reversed_path = tmp_path / "reversed.rpfa"
        write_archive(FeatureArchive(archive.config,
                                     dict(reversed(archive.entries.items()))),
                      reversed_path)
        config = TrainConfig(max_iters=2)
        g, r = (train_gmm(np.concatenate(
                    [archive.entries[rec.utt_id].values for rec in records]),
                    2, cov, config, seed=SEED + offset)
                for offset, records in enumerate(
                    (manifest.genuine_records(), manifest.replay_records())))
        save_pair_model(GmmPairModel(g, r, config, archive.config),
                        tmp_path / "want.json")
        for source in (path, reversed_path):
            _ok("train", "--archive", source, "--manifest",
                work / "corpus" / "manifest.tsv", "--ncomp", 2, "--cov", cov,
                "--seed", SEED, "--max-iters", 2,
                "--out", tmp_path / "model.json")
            assert (tmp_path / "model.json").read_bytes() == \
                (tmp_path / "want.json").read_bytes()


class TestMemory:
    """Traced peaks of the archive-reading commands on 5 s utterances, 20
    of them, whose float64 features are about 2 MB per archive."""

    @pytest.fixture(scope="class")
    def long_work(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("long")
        manifest = root / "corpus" / "manifest.tsv"
        _ok("synth", "--out", root / "corpus", "--seed", SEED, "--speakers",
            2, "--phrases", 2, "--train-devices", 2, "--heldout-devices", 2,
            "--reps", 1, "--utt-seconds", 5.0)
        for feature in ("fbank", "cepstra-delta"):
            _ok("extract", "--manifest", manifest, "--warp", "mel",
                "--feature", feature, "--out", root / f"{feature}.rpfa")
        return root

    def _peak(self, *argv):
        return _traced_peak(lambda: _ok(*argv))[0]

    @staticmethod
    def _float64_bytes(path):
        return sum(fm.values.nbytes
                   for fm in read_archive(path).entries.values())

    def test_probe_holds_one_entry(self, long_work, tmp_path):
        # Reading the whole archive peaked at 1.55 times its float64
        # bytes; reading one entry at a time, at 0.25.
        fbank = long_work / "fbank.rpfa"
        archive_bytes = self._float64_bytes(fbank)
        assert archive_bytes > 1_500_000
        peak = self._peak("probe", "--archive", fbank, "--manifest",
                          long_work / "corpus" / "manifest.tsv", "--factor",
                          "device", "--out", tmp_path / "p.tsv")
        assert peak < archive_bytes / 2

    def test_score_holds_one_entry(self, long_work, tmp_path):
        # Reading the whole archive peaked at 1.55 times its float64
        # bytes; reading one entry at a time, at 0.38 with a full pair.
        cepstra = long_work / "cepstra-delta.rpfa"
        _ok("train", "--archive", cepstra, "--manifest",
            long_work / "corpus" / "manifest.tsv", "--ncomp", 2, "--cov",
            "full", "--seed", SEED, "--max-iters", 2,
            "--out", tmp_path / "model.json")
        peak = self._peak("score", "--archive", cepstra, "--model",
                          tmp_path / "model.json", "--out", tmp_path / "s.tsv")
        assert peak < self._float64_bytes(cepstra) / 2

    @pytest.mark.parametrize("cov", ["diag", "full"])
    def test_train_holds_one_pool(self, long_work, tmp_path, cov):
        # The reference peak is training the larger (replay) pool with
        # that pool stacked inside the trace: what `train` must hold at
        # least. Holding the whole archive and both pools as well put it
        # 1.2 times the archive's float64 bytes higher; filling one pool
        # at a time from the file must stay within a quarter of them.
        manifest = long_work / "corpus" / "manifest.tsv"
        cepstra = long_work / "cepstra-delta.rpfa"
        entries = read_archive(cepstra).entries
        replay = [r.utt_id for r in parse_manifest(manifest).replay_records()]
        config = TrainConfig(max_iters=2)
        reference, _ = _traced_peak(lambda: train_gmm(
            np.concatenate([entries[u].values for u in replay]), 2, cov,
            config, seed=SEED + 1))
        archive_bytes = self._float64_bytes(cepstra)
        del entries
        peak = self._peak("train", "--archive", cepstra, "--manifest",
                          manifest, "--ncomp", 2, "--cov", cov, "--seed",
                          SEED, "--max-iters", 2,
                          "--out", tmp_path / "model.json")
        assert peak < reference + archive_bytes / 4
