import os
import stat

from capic.fileio import write_text_atomic


def test_written_file_mode_follows_umask(tmp_path):
    path = tmp_path / "out.txt"
    old = os.umask(0o022)
    try:
        write_text_atomic(path, "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
    assert path.read_text() == "x\n"
    assert os.listdir(tmp_path) == ["out.txt"]
