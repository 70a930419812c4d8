"""Fixtures shared by the test modules."""

from __future__ import annotations

import ast
import os

import pytest


class ForkedCalls:
    """The calls of patched functions made in this process or in a process
    forked from it, such as a sweep worker.  Each call appends one line to a
    file opened with O_APPEND, in one write, so that the lines of processes
    that log at once stay whole; one process's lines keep their order."""

    def __init__(self, path) -> None:
        self.path = path
        path.write_text("")

    def wrap(self, label: str, fn, key=lambda *args: args):
        """fn, logging key(*args) under label at each call."""
        path = str(self.path)

        def logged(*args):
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, f"{label} {key(*args)!r}\n".encode())
            finally:
                os.close(fd)
            return fn(*args)

        return logged

    def __call__(self, label: str) -> list:
        """The keys logged under label, in the order they were logged."""
        entries = (line.split(" ", 1) for line in self.path.read_text().splitlines())
        return [ast.literal_eval(key) for logged, key in entries if logged == label]

    def clear(self) -> None:
        self.path.write_text("")


@pytest.fixture
def forked_calls(tmp_path_factory) -> ForkedCalls:
    """A ForkedCalls logging to a file outside the test's own tmp_path."""
    return ForkedCalls(tmp_path_factory.mktemp("calls") / "calls.log")
