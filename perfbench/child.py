"""Run one `crossint` command in this fresh interpreter and report its cost.

    python3 perfbench/child.py REPORT TRACE CLI ARGS...

The command runs through the real entry point, `crossint.cli.main`, and this
process exits with its exit code.

REPORT receives one JSON object:

* `parser_built`: `time.monotonic()` when the CLI parser was built.  The
  clock is system-wide, so the parent subtracts its own spawn time.
* `peak_rss_kb`: VmHWM, this process's own peak resident set since exec.
  The rusage `ru_maxrss` of a child (from `wait4` or its own
  `RUSAGE_SELF`) also keeps the parent's resident set from before the exec
  and so overstates a small child spawned by a large parent.
* `rchar`, `wchar`: bytes read and written while the command ran, from
  /proc/self/io, less the bytes of the first read of /proc/self/io itself
  (its length varies with the digits of the counters it shows).
* `version`: `crossint.__version__`.
* with TRACE 1, the span totals, counters and samples of tracing.py.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _io_counters() -> tuple[int, int, int]:
    """rchar, wchar and the length of this read, which rchar counts afterwards."""
    with open("/proc/self/io", "rb") as fh:
        raw = fh.read()
    fields = dict(line.split(b": ") for line in raw.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(raw)


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, SRC)
    from crossint import __version__, cli

    parser_built = []
    build_parser = cli.build_parser

    def marked_build_parser():
        parser = build_parser()
        parser_built.append(time.monotonic())
        return parser

    cli.build_parser = marked_build_parser
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()

    read_before, written_before, own_read = _io_counters()
    rc = cli.main(argv)
    read_after, written_after, _ = _io_counters()

    report = {
        "rc": rc,
        "parser_built": parser_built[0],
        "peak_rss_kb": _peak_rss_kb(),
        "rchar": read_after - read_before - own_read,
        "wchar": written_after - written_before,
        "version": __version__,
    }
    if tracer is not None:
        report.update(tracer.report())
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
