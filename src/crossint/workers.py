"""The sweep-inequalities command: its driver, checkpoint and resume, and
the forked workers that evaluate its grid and the frames they send it.

Only the sweep imports this module, and with it crossint.stream, the
record line's reader and writer and the digest, so no other command
compiles either.

The sweep splits its grid into blocks of at most SWEEP_BLOCK points.
sweep_blocks forks one worker per CPU the process may run on, never more
than there are blocks; with K workers, worker w evaluates blocks w, w + K,
..., renders each record with record_to_line and digests the block in a
fresh RecordDigest, and writes the block to its pipe as one frame.  The
parent reads the blocks back in grid order and adds each block's state
lines to its own digest (RecordDigest.add_state_lines), so what it writes
does not depend on K.

A frame is a header line, "<kind> <records> <bytes> <bytes>", then its two
parts of those sizes:

* "block": the block's record lines, then the state_lines of its digest;
* "error": the class name and the message of the CrossIntError that a
  point of the block raised, after a block frame of the block's records
  before that point, when there are any.

run_sweep takes the blocks in grid order and writes them to the stream,
checksummed, with a checkpoint (_checkpoint_text) after every
CHECKPOINT_EVERY records.  A resume restores the digest of the last
checkpoint it can verify (_read_checkpoint), compares each block with the
stream's next bytes, and settles the stream where they part (_settle).
In this process only _settle reads or renders a record line, for the lines
it compares.

record_to_line and parse_record_line belong to crossint.stream, but this
module looks both up in cli at each call, cli.record_to_line and
cli.parse_record_line: the benchmark's tracer wraps them there, and so do
tests that count their calls.  That ends when the tracer wraps each name
in its owner (ROADMAP item 2).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import signal
import sys
from math import gcd
from zlib import crc32

from . import __version__, cli, errors
from .cli import _json_text, _replace_file, _say, resolve_out
from .inequalities import _grid_points, _grid_size, evaluate_points
from .stream import RecordDigest

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
        digest, lines, error = RecordDigest(), [], None
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


def _read_frame(reader, worker: int, lineno: int) -> tuple[bytes, int, list[str]]:
    """The record lines, record count and digest state lines of the next
    frame sweep worker worker wrote to reader, its first record at line
    lineno of the stream.  An error frame raises its error; a frame cut
    short, as by the worker's death, is an IntegrityError naming the
    worker."""
    kind, *sizes = reader.readline().split() or [b""]
    if kind in (b"block", b"error") and len(sizes) == 3 and all(map(bytes.isdigit, sizes)):
        records, first_size, second_size = map(int, sizes)
        first, second = reader.read(first_size), reader.read(second_size)
        if (len(first), len(second)) == (first_size, second_size):
            if kind == b"block":
                return first, records, second.decode().split("\n")[:-1]
            raise getattr(errors, first.decode())(second.decode())
    raise errors.IntegrityError(
        f"sweep worker {worker} died or sent a short frame before line {lineno}"
    )


def sweep_blocks(flags: tuple[int, int, int, int], blocks: list[tuple[int, int]]):
    """The record lines, record count and digest state lines of each
    (lo, hi) of blocks, the grid's points lo + 1 to hi, in order, from the
    workers (_sweep_worker) that this generator forks when it starts.  A
    block comes as two frames when a worker stops at an error.  However the
    generator ends, each worker is killed and reaped."""
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
                frame = _read_frame(readers[index % workers], index % workers, lo + 1)
                yield frame
                lo += frame[1]
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


#: A sweep to a file replaces its checkpoint after every CHECKPOINT_EVERY
#: records, so that a resume reads back only the records after the last one.
CHECKPOINT_EVERY = 4096


def _checkpoint_text(
    flags: tuple[int, int, int, int], offset: int, crc: int, digest: RecordDigest
) -> str:
    """The checkpoint of a stream swept under the grid flags (t_min, t_max,
    k_span, n_span) whose first offset bytes, of zlib.crc32 crc, hold the
    records digest has absorbed: the version, the flags, then the record
    count, offset, crc and the zlib.crc32 of the state text on one line,
    then the state text, the digest's state_lines.  The one writer of the
    format _read_checkpoint reads."""
    state = "".join(line + "\n" for line in digest.state_lines())
    return (
        f"crossint sweep-inequalities checkpoint {__version__}\n"
        + "grid {} {} {} {}\n".format(*flags)
        + f"stream {digest.records} {offset} {crc} {crc32(state.encode())}\n"
        + state
    )


def _read_checkpoint(
    path: str, flags: tuple[int, int, int, int]
) -> tuple[RecordDigest, int, int]:
    """The digest, byte offset and crc32 of the checkpoint of the stream at
    path, when it holds exactly the text _checkpoint_text writes for this
    version and these grid flags, and the stream still begins with the
    offset bytes it checksummed; otherwise an empty digest at offset 0, so
    that the whole stream is read, as when there is no checkpoint.  The
    lines after the stream line are added to an empty digest, and the text
    is kept only when that digest writes it back whole, its state text's
    checksum included, so that an edited value is caught too."""
    try:
        with open(path + ".checkpoint", encoding="utf-8", newline="") as fh:
            text = fh.read()
        _, _, stream, *state = text.split("\n")[:-1]
        records, offset, crc, _ = map(int, stream.split(" ")[1:])
        digest = RecordDigest()
        digest.add_state_lines(records, state)
        if _checkpoint_text(flags, offset, crc, digest) != text:
            raise ValueError("not the checkpoint of this version and grid")
        # 64 KiB blocks: the prefix is most of the stream, and larger
        # blocks raise the resume's peak resident set
        left, prefix_crc = offset, 0
        with open(path, "rb") as fh:
            while left > 0 and (block := fh.read(min(left, 1 << 16))):
                left, prefix_crc = left - len(block), crc32(block, prefix_crc)
        if left or prefix_crc != crc:
            raise ValueError("the stream no longer begins with the checkpointed bytes")
    except (OSError, ValueError):
        return RecordDigest(), 0, 0
    return digest, offset, crc


def _settle(fh, path: str, digest: RecordDigest, data: bytes) -> int:
    """Settle a resumed stream read from fh after the records of digest
    against data, the fresh record lines that follow those records (b""
    past the grid's end).  The stream lines equal to data's are kept.  From
    the first other line on, a partial, blank or unreadable last line, or
    one whose record differs from the fresh one at its point (an
    interrupted write, an edit), is cut away; such damage before the last
    line, or a record out of order, is an integrity error, and a record at
    another point than the grid's a usage error naming the line, raised
    once the whole stream is read.  Lines count from the start of the file.
    No refusal writes; otherwise fh is cut after the kept lines, and the
    resume is said, or, with no record kept, the old stream's checkpoint
    removed.  The length of the kept lines."""
    lines = data.splitlines(keepends=True)
    start, at, raw = fh.tell(), 0, fh.readline()
    while at < len(lines) and raw == lines[at]:
        at, raw = at + 1, fh.readline()

    def point(index: int) -> tuple[int, int, int, int, int]:
        return cli.parse_record_line(digest.records + index + 1, lines[index][:-1].decode()).point

    kept, cut = digest.records + at, fh.tell() - len(raw)
    kept_last = last = point(at - 1) if at else digest.last_point
    fresh = point(at) if at < len(lines) else None
    damage: errors.IntegrityError | None = None
    refusal: errors.UsageError | None = None
    for lineno, raw in enumerate(itertools.chain((raw,) if raw else (), fh), start=kept + 1):
        if damage is not None:
            raise damage  # a bad line with more after it is no torn tail
        try:
            line = raw.decode("utf-8").removesuffix("\n")
            if not line:
                raise errors.IntegrityError(f"line {lineno}: blank line inside record stream")
            record = cli.parse_record_line(lineno, line)
        except UnicodeDecodeError as exc:
            damage = errors.IntegrityError(f"line {lineno}: not valid UTF-8: {exc.reason}")
        except errors.IntegrityError as exc:
            damage = exc
        else:
            if not raw.endswith(b"\n"):
                break  # complete-looking JSON but unterminated: treat as partial
            if last is not None and record.point <= last:
                raise errors.IntegrityError(
                    f"line {lineno}: record out of canonical order; stream corrupt"
                )
            last = record.point
            if refusal is None and record.point == fresh:
                damage = errors.IntegrityError(
                    f"line {lineno}: the record at (t,k,n,s,i) = {record.point} is "
                    "not the one sweep-inequalities computes there"
                )
            elif refusal is None:
                grid = (
                    f"the grid has only {lineno - 1} points"
                    if fresh is None
                    else f"the grid's point {lineno} is {fresh}"
                )
                refusal = errors.UsageError(
                    f"--resume refused, {path} left unchanged: line {lineno} "
                    f"holds {record.point}, but {grid}; were the grid flags "
                    "changed since the stream was written?"
                )
    if refusal is not None:
        raise refusal
    fh.seek(cut)
    fh.truncate()  # in place: the kept records stay as written
    if kept:
        _say(f"resuming after canonical point (t,k,n,s,i) = {kept_last}")
    else:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path + ".checkpoint")
    return cut - start


def run_sweep(args) -> int:
    """sweep-inequalities with the parsed args: the grid in blocks of
    records, each evaluated, serialized and digested once by a worker
    (sweep_blocks) and taken by this process in grid order: its digest's
    state lines added, its bytes checksummed once and written once.  A
    resume reads the stream on the handle it writes: a block that is the
    stream's next bytes is kept; at the first other one, or at the end of
    the grid, _settle keeps the lines the stream holds as the block does
    and refuses the stream or cuts it after them, and the sweep writes on.
    A fresh sweep has nothing to read.  The digest then renders the summary
    sidecars and the report said on standard error."""
    out = resolve_out(args.out, "sweep-records.jsonl")
    if args.resume and out == "-":
        raise errors.UsageError("--resume needs --out pointing at a file")
    flags = (args.t_min, args.t_max, args.k_span, args.n_span)
    # counting the grid raises what its flags violate, before any worker is
    # forked or --out opened
    size = _grid_size(*flags)
    digest, offset, crc = RecordDigest(), 0, 0
    reading = args.resume and os.path.exists(out)
    if reading:
        digest, offset, crc = _read_checkpoint(out, flags)
    # blocks end at the multiples of their size after the checkpoint's
    # records, and at the grid's end; every checkpoint falls at a block's end
    every = CHECKPOINT_EVERY
    step = gcd(SWEEP_BLOCK, every)
    ends = [*range(digest.records // step * step + step, size, step), size]
    blocks = [(lo, hi) for lo, hi in zip([digest.records, *ends], ends) if lo < hi]

    if out == "-":
        sys.stdout.flush()  # before the fork: no worker holds unwritten output
    with contextlib.closing(sweep_blocks(flags, blocks)) as frames:
        # the first block is taken before --out is opened, so that an error
        # at the grid's first point leaves an existing stream untouched
        first = next(frames, None)
        if reading:
            fh = open(out, "r+b")  # read, cut and written on: the kept records stay
            fh.seek(offset)
        elif out == "-":
            fh = sys.stdout.buffer
        else:
            # a new stream: no checkpoint of the old one may outlive it
            with contextlib.suppress(FileNotFoundError):
                os.remove(out + ".checkpoint")
            fh = open(out, "wb")
        try:
            for data, records, state in itertools.chain(() if first is None else (first,), frames):
                kept = 0
                if reading:
                    stream = fh.read(len(data))
                    reading = stream == data
                    if not reading:
                        fh.seek(-len(stream), os.SEEK_CUR)
                        kept = _settle(fh, out, digest, data)
                # the bytes checksummed are the bytes kept or written
                crc = crc32(data, crc)
                digest.add_state_lines(records, state)
                if reading:
                    continue
                fh.write(memoryview(data)[kept:])
                # only at multiples, so a stream cut after one resumes from it
                if not digest.records % every and out != "-":
                    fh.flush()
                    _replace_file(
                        out + ".checkpoint", _checkpoint_text(flags, fh.tell(), crc, digest)
                    )
            if reading:
                _settle(fh, out, digest, b"")
        finally:
            if out == "-":
                fh.flush()
            else:
                fh.close()

    csv_text = digest.to_csv()
    json_text = _json_text(digest.to_json_obj())
    if out != "-":
        _replace_file(out + ".summary.csv", csv_text)
        _replace_file(out + ".summary.json", json_text)
        _say(f"records: {out}")
        _say(f"summary: {out}.summary.csv, {out}.summary.json")
    _say(
        f"checked {digest.records} grid points "
        f"(t in [{args.t_min},{args.t_max}], k span {args.k_span}, n span {args.n_span})"
    )
    _say("\n".join(digest.report_lines()))
    return 2 if digest.violations else 0
