"""Helpers for tests of the one file writer behind `--out` and `export`."""

import errno
import os
import threading


def through_fifo(path, write):
    """Make path a FIFO, call write() while a thread reads the FIFO to its
    end, and return the bytes the thread read."""
    os.mkfifo(path)
    got = []

    def read():
        with open(path, "rb") as handle:
            got.append(handle.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    write()
    reader.join(timeout=10)
    assert got, "the FIFO was never written and closed"
    return got[0]


def fail_midway(monkeypatch):
    """From here on, os.write writes half of what it is given and then
    raises ENOSPC, as a write that runs out of disk would."""
    real = os.write

    def write(fd, data):
        real(fd, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", write)
