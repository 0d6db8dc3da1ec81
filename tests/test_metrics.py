import numpy as np
import pytest
from hypothesis import given, settings

from byte_edits import TEXT_TOKENS, edited, one_byte_edits
from oracles import eer_brute_force
from replaykit.corpus import Manifest, UtteranceMeta
from replaykit.errors import ScoreFormatError
from replaykit.metrics import ScoreRecord, compute_eer, read_scores, write_scores


def _records(genuine, replay):
    recs = [ScoreRecord(f"g{i}", s, "genuine") for i, s in enumerate(genuine)]
    recs += [ScoreRecord(f"r{i}", s, "replay") for i, s in enumerate(replay)]
    return recs


class TestComputeEer:
    def test_perfectly_separable(self):
        eer, threshold = compute_eer(_records([2.0, 3.0], [0.0, 1.0]))
        assert eer == 0.0
        assert 1.0 < threshold <= 2.0

    def test_interleaved_half(self):
        eer, _ = compute_eer(_records([0.0, 2.0], [1.0, 3.0]))
        assert eer == pytest.approx(0.5, abs=1e-12)

    def test_identical_multisets(self):
        scores = [0.3, 1.1, 2.2]
        eer, _ = compute_eer(_records(scores, scores))
        assert eer == pytest.approx(0.5, abs=1e-12)

    def test_one_class_only(self):
        with pytest.raises(ValueError, match="at least one"):
            compute_eer([ScoreRecord("g0", 1.0, "genuine")])

    def test_eer_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.normal(1, 1, size=rng.integers(1, 20)).tolist()
            r = rng.normal(0, 1, size=rng.integers(1, 20)).tolist()
            eer, _ = compute_eer(_records(g, r))
            assert 0.0 <= eer <= 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = rng.normal(1, 1, size=12).tolist()
            r = rng.normal(0, 1, size=9).tolist()
            base, _ = compute_eer(_records(g, r))
            for f in (lambda s: 3.0 * s + 7.0, np.tanh, lambda s: s ** 3):
                mapped, _ = compute_eer(_records([float(f(s)) for s in g],
                                                 [float(f(s)) for s in r]))
                assert mapped == pytest.approx(base, abs=1e-12)

    def test_label_swap_equals_score_negation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = rng.normal(0.5, 1, size=11).tolist()
            r = rng.normal(0.0, 1, size=14).tolist()
            swapped, _ = compute_eer(_records(r, g))
            negated, _ = compute_eer(_records([-s for s in g],
                                              [-s for s in r]))
            assert swapped == pytest.approx(negated, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(500):
            n_g = int(rng.integers(1, 26))
            n_r = int(rng.integers(1, 26))
            if trial % 3 == 0:
                # quantized scores force ties across and within classes
                g = rng.integers(0, 6, size=n_g).astype(float).tolist()
                r = rng.integers(0, 6, size=n_r).astype(float).tolist()
            else:
                g = rng.normal(0.5, 1, size=n_g).tolist()
                r = rng.normal(0.0, 1, size=n_r).tolist()
            eer, _ = compute_eer(_records(g, r))
            assert abs(eer - eer_brute_force(g, r)) <= 1e-9, (g, r)

    def test_threshold_is_operating_point(self):
        records = _records([0.1, 0.9, 1.4], [-0.3, 0.2, 0.8])
        eer, threshold = compute_eer(records)
        genuine = [r.score for r in records if r.label == "genuine"]
        replay = [r.score for r in records if r.label == "replay"]
        far = sum(1 for s in replay if s >= threshold) / len(replay)
        frr = sum(1 for s in genuine if s < threshold) / len(genuine)
        # at the interpolated threshold the two step rates bracket the EER
        assert min(far, frr) - 1e-12 <= eer <= max(far, frr) + 1e-12

    def test_threshold_interpolated_between_two_scores(self):
        # Over the thresholds 0, 1, 2, 2.5, 3 and the sentinel 4, FAR is
        # 1, 2/3, 2/3, 1/3, 0, 0 and FRR 0, 0, 1/2, 1/2, 1/2, 1, so FAR -
        # FRR changes sign halfway from 2 (1/6) to 2.5 (-1/6): the EER is
        # halfway from 2/3 to 1/3 and the threshold halfway from 2 to 2.5.
        eer, threshold = compute_eer(_records([1.0, 3.0], [0.0, 2.0, 2.5]))
        assert eer == pytest.approx(0.5, abs=1e-12)
        assert threshold == 2.25

    def test_rejects_nonfinite_score(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreRecord("u", float("nan"), "genuine")


class TestScoreFiles:
    @pytest.mark.parametrize("number", [float, np.float64, np.float32])
    def test_roundtrip(self, tmp_path, number):
        records = _records([number(0.25), number(-1.5)], [number(3.125)])
        p = tmp_path / "scores.tsv"
        write_scores(records, p)
        assert read_scores(p) == records

    @pytest.mark.parametrize("cell", ["a\tb", "x\ny", "a\rb", "x\u2028y"])
    def test_a_cell_the_reader_would_split_is_not_written(self, tmp_path,
                                                          cell):
        # `read_scores` splits rows at tabs and its lines with
        # `str.splitlines`, so such an id would not read back.
        p = tmp_path / "scores.tsv"
        with pytest.raises(ValueError) as info:
            write_scores([ScoreRecord("u0", 1.0, "replay"),
                          ScoreRecord(cell, 1.0, "genuine")], p)
        assert str(info.value) == (f"{p}: line 2: the cell {cell!r} holds a "
                                   f"tab or a line break")
        assert list(tmp_path.iterdir()) == []

    def test_no_records_are_refused_and_nothing_is_written(self, tmp_path):
        # `read_scores` refuses a file without records, so none is written.
        p = tmp_path / "scores" / "s.tsv"
        with pytest.raises(ValueError) as info:
            write_scores([], p)
        assert str(info.value) == f"{p}: no score records to write"
        assert list(tmp_path.iterdir()) == []

    def test_full_precision(self, tmp_path):
        records = [ScoreRecord("u0", 0.1 + 0.2, "genuine"),
                   ScoreRecord("u1", -1.0 / 3.0, "replay")]
        p = tmp_path / "scores.tsv"
        write_scores(records, p)
        back = read_scores(p)
        assert back[0].score == records[0].score
        assert back[1].score == records[1].score

    def test_labels_filled_from_manifest(self, tmp_path):
        manifest = Manifest([
            UtteranceMeta("u0", "a.wav", "genuine", "S00", "P00", "-"),
            UtteranceMeta("u1", "b.wav", "replay", "S00", "P00", "D00"),
        ])
        p = tmp_path / "scores.tsv"
        p.write_text("u0\t1.5\t-\nu1\t-0.5\t-\n")
        back = read_scores(p, manifest)
        assert [r.label for r in back] == ["genuine", "replay"]

    def test_unknown_utt_without_label(self, tmp_path):
        p = tmp_path / "scores.tsv"
        p.write_text("u9\t1.5\t-\n")
        with pytest.raises(ValueError, match="no label"):
            read_scores(p)

    def test_unlabelled_records_roundtrip_and_need_labels_for_eer(
            self, tmp_path):
        records = [ScoreRecord("u0", 1.5, "-"), ScoreRecord("u1", -0.5, "-")]
        p = tmp_path / "scores.tsv"
        write_scores(records, p)
        assert p.read_text() == "u0\t1.5\t-\nu1\t-0.5\t-\n"
        with pytest.raises(ValueError, match="unlabelled"):
            compute_eer(records + _records([0.0], [1.0]))

    @pytest.mark.parametrize("row, message", [
        ("u1\tabc\treplay", "could not convert"),
        ("u1\tnan\treplay", "not finite"),
        ("u1\t1.0\tspoof", "unknown label"),
        ("u1\t1.0", "expected 3 fields"),
        # float() reads these, but write_scores writes none of them.
        ("u1\t1_5\treplay", "score '1_5' is not written as repr(float)"),
        ("u1\t 2 \treplay", "score ' 2 ' is not written as repr(float)"),
        ("u1\t2 \treplay", "score '2 ' is not written as repr(float)"),
        ("u1\t1.50\treplay", "score '1.50' is not written as repr(float)"),
        ("u1\t+1.5\treplay", "score '+1.5' is not written as repr(float)"),
        ("u1\t2\treplay", "score '2' is not written as repr(float)"),
        ("u1\t1E-05\treplay", "score '1E-05' is not written as repr(float)"),
    ])
    def test_bad_line_reports_path_and_line(self, tmp_path, row, message):
        p = tmp_path / "scores.tsv"
        p.write_text(f"u0\t1.5\tgenuine\n{row}\n")
        with pytest.raises(ScoreFormatError) as info:
            read_scores(p)
        assert str(info.value).startswith(f"{p}:2: ")
        assert message in str(info.value)

    def test_duplicate_utterance_id(self, tmp_path):
        p = tmp_path / "scores.tsv"
        p.write_text("a\t1.5\tgenuine\nb\t0.5\treplay\na\t-1.0\tgenuine\n")
        with pytest.raises(ScoreFormatError) as info:
            read_scores(p)
        assert str(info.value) == (f"{p}:3: duplicate utterance id 'a', "
                                   f"first on line 1")

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "scores.tsv"
        p.write_bytes(b"u0\t1.5\tgenuine\nu\xff\t0.5\treplay\n")
        with pytest.raises(ScoreFormatError) as info:
            read_scores(p)
        assert str(info.value).startswith(f"{p}: not UTF-8 text (")

    def test_label_conflict_detected(self, tmp_path):
        manifest = Manifest([
            UtteranceMeta("u0", "a.wav", "genuine", "S00", "P00", "-"),
        ])
        p = tmp_path / "scores.tsv"
        p.write_text("u0\t1.5\treplay\n")
        with pytest.raises(ValueError, match="disagrees"):
            read_scores(p, manifest)


@pytest.fixture(scope="module")
def edit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("score_edits")


# A valid two-line score file, and one edit of it.
VALID_SCORES = b"S00-live\t1.5\tgenuine\nS00-D00\t-0.25\treplay\n"


def test_the_unedited_score_file_reads_back(edit_dir):
    p = edit_dir / "valid.tsv"
    p.write_bytes(VALID_SCORES)
    records = read_scores(p)
    write_scores(records, p)
    assert p.read_bytes() == VALID_SCORES


@pytest.mark.filterwarnings("error")
@given(edit=one_byte_edits(VALID_SCORES, TEXT_TOKENS + (b"_", b" ")))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_one_byte_edit_reads_back_or_raises_score_format_error(edit_dir,
                                                                   edit):
    p = edit_dir / "edited.tsv"
    p.write_bytes(edited(VALID_SCORES, edit))
    try:
        records = read_scores(p)
    except ScoreFormatError as exc:
        assert str(exc).startswith(f"{p}:")
    else:
        assert records
        assert len({r.utt_id for r in records}) == len(records)
        assert all(np.isfinite(r.score) and r.label in ("genuine", "replay")
                   for r in records)
