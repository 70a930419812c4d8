"""The forked workers of sweep-inequalities and the frames they send it.

The sweep splits its grid into blocks of at most SWEEP_BLOCK points.
sweep_blocks forks one worker per CPU the process may run on, never more
than there are blocks; with K workers, worker w evaluates blocks w, w + K,
..., renders each record with the record_to_line of cli and digests the
block in a fresh cli.RecordDigest, and writes the block to its pipe as one
frame.  The parent reads the blocks back in grid order, so what it writes
does not depend on K.  Only the sweep imports this module, so no other
command compiles it.

A frame is a header line, "<kind> <records> <bytes> <bytes>", then its two
parts of those sizes:

* "block": the block's record lines, then the state_lines of its digest;
* "error": the class name and the message of the CrossIntError that a
  point of the block raised, after a block frame of the block's records
  before that point, when there are any.
"""

from __future__ import annotations

import itertools
import os
import signal

from . import cli, errors
from .inequalities import _grid_points, evaluate_points

#: Points a sweep worker evaluates, renders and digests before it writes
#: them to the parent as one frame.  Larger blocks raise the parent's peak
#: resident set, which holds about one block at a time: on a 2-vCPU VM
#: with CPython 3.11.7, a fresh default sweep peaked at 17.1-17.2 MB with
#: 256, 17.7-17.9 MB with 512 and 24.4-24.5 MB with 4,096.  Smaller blocks
#: cost more frames.
SWEEP_BLOCK = 256


def _sweep_worker(fd: int, flags: tuple[int, int, int, int], blocks) -> None:
    """Write to fd, in order, one frame for each (lo, hi) of blocks, the
    grid's points lo + 1 to hi, under the grid flags (t_min, t_max,
    k_span, n_span).  At a point whose evaluation raises a CrossIntError,
    the records before it go out as a block frame, then the error frame,
    and the worker stops.  Each block's frames are one os.write, so the
    parent never waits on a frame held in a buffer."""

    def frame(kind: bytes, records: int, first: str, second: str) -> bytes:
        first, second = first.encode(), second.encode()
        return b"%s %d %d %d\n%s%s" % (kind, records, len(first), len(second), first, second)

    grid, walked = _grid_points(*flags), 0
    for lo, hi in blocks:
        digest, lines, error = cli.RecordDigest(), [], None
        try:
            for record in evaluate_points(itertools.islice(grid, lo - walked, hi - walked)):
                digest.absorb(record)
                lines.append(cli.record_to_line(record))
        except errors.CrossIntError as exc:
            error = exc
        walked = hi
        frames = b""
        if lines:
            state = "\n".join(digest.state_lines()) + "\n"
            frames = frame(b"block", len(lines), "\n".join(lines) + "\n", state)
        if error is not None:
            frames += frame(b"error", 0, type(error).__name__, str(error))
        view = memoryview(frames)
        while view:
            view = view[os.write(fd, view) :]
        if error is not None:
            return


def _read_frame(reader, worker: int, lineno: int) -> tuple[bytes, cli.RecordDigest]:
    """The record lines and digest of the next frame sweep worker worker
    wrote to reader, its first record at line lineno of the stream.  An
    error frame raises its error; a frame cut short, as by the worker's
    death, is an IntegrityError naming the worker."""
    kind, *sizes = reader.readline().split() or [b""]
    if kind in (b"block", b"error") and len(sizes) == 3 and all(map(bytes.isdigit, sizes)):
        records, first_size, second_size = map(int, sizes)
        first, second = reader.read(first_size), reader.read(second_size)
        if (len(first), len(second)) == (first_size, second_size):
            if kind == b"block":
                state = second.decode().split("\n")[:-1]
                return first, cli.RecordDigest.from_state_lines(records, state)
            raise getattr(errors, first.decode())(second.decode())
    raise errors.IntegrityError(
        f"sweep worker {worker} died or sent a short frame before line {lineno}"
    )


def sweep_blocks(flags: tuple[int, int, int, int], blocks: list[tuple[int, int]]):
    """The record lines and RecordDigest of each (lo, hi) of blocks, the
    grid's points lo + 1 to hi, in order, from the workers (_sweep_worker)
    that this generator forks when it starts.  A block comes as two frames
    when a worker stops at an error.  However the generator ends, each
    worker is killed and reaped."""
    workers = min(len(os.sched_getaffinity(0)), len(blocks))
    pids, readers = [], []
    try:
        for worker in range(workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read_end)
                    for reader in readers:  # a reader in a worker would keep
                        reader.close()  # another's pipe open past the parent
                    _sweep_worker(write_end, flags, blocks[worker::workers])
                    code = 0
                except Exception:
                    import traceback

                    traceback.print_exc()
                finally:
                    os._exit(code)
            pids.append(pid)
            # closed before the next fork, so that a worker's end of its pipe
            # is the only one left, and its death reads as the pipe's end
            os.close(write_end)
            readers.append(os.fdopen(read_end, "rb"))
        for index, (lo, hi) in enumerate(blocks):
            while lo < hi:
                data, block = _read_frame(readers[index % workers], index % workers, lo + 1)
                yield data, block
                lo += block.records
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()
