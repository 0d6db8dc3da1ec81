import pytest

from replaykit._files import output_file, partial_path


def test_an_error_leaves_the_old_file_and_no_partial(tmp_path):
    p = tmp_path / "out.tsv"
    p.write_text("old\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with output_file(p) as f:
            f.write("new\n")
            assert (tmp_path / "out.tsv.partial").is_file()
            raise RuntimeError("mid-write")
    assert p.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [p]


def test_a_clean_exit_replaces_a_symlink_not_its_target(tmp_path):
    target = tmp_path / "target.tsv"
    target.write_text("old\n")
    link = tmp_path / "sub" / "link.tsv"
    link.parent.mkdir()
    link.symlink_to(target)
    with output_file(link) as f:
        f.write("new\n")
    assert not link.is_symlink() and link.read_text() == "new\n"
    assert target.read_text() == "old\n"
    assert sorted(tmp_path.rglob("*")) == [link.parent, link, target]


def test_a_failed_move_names_the_output_and_leaves_no_partial(tmp_path):
    p = tmp_path / "out.tsv"
    p.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        with output_file(p) as f:
            f.write("new\n")
    moved = info.value.__cause__
    assert isinstance(moved, IsADirectoryError)
    assert moved.filename == str(partial_path(p))
    assert str(info.value) == f"{p}: {moved.strerror}"
    assert list(tmp_path.rglob("*")) == [p]
