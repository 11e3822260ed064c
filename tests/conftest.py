"""Fixtures shared by the test files."""

import pytest

from melodygen import smallnet


class DiskFull:
    """A file on a disk with room for 20 bytes: the write that overflows it
    stores what fits, then fails."""

    def __init__(self, f):
        self.f, self.room = f, 20

    def write(self, data):
        if len(data) > self.room:
            self.f.write(data[:self.room])
            self.room = 0
            raise OSError(28, "No space left on device")
        self.room -= len(data)
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


@pytest.fixture
def disk_full(monkeypatch):
    """Every file ``smallnet.write_atomic`` writes fills the disk midway;
    reads are unaffected."""
    def open_disk_full(file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        return DiskFull(f) if "w" in mode else f

    monkeypatch.setattr(smallnet, "open", open_disk_full, raising=False)
