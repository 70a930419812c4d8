"""End-to-end and per-layer benchmark of the `crossint` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The workloads are described in workloads.py.  Every `crossint` invocation
runs `crossint.cli.main` in a fresh child interpreter (child.py), one at a
time.  Passes of the workload repeat until the next one would overrun
--seconds, but an untraced run makes at least MIN_PASSES of them, so that
its medians never rest on fewer samples.

With --trace 0 the run reports the end-to-end metrics:

    scaled_wall_s  wall time of one pass's invocations, spawn to exit,
                   summed; median over the passes, scaled.  Input
                   generation and output checks are not timed.
    setup_s        fresh interpreter to `crossint.cli` imported and its
                   parser built; median over the untraced children, scaled.
    peak_rss_mb    the largest peak resident set among a pass's children;
                   median over the passes.

The speed of a shared host drifts by up to a factor of two over minutes,
for every process alike.  So between untraced invocations the run times
calibrate.py, a fixed task that does not use `crossint`, as often as it
takes to keep one calibration per CAL_EVERY_S of invocation time, and both
times are scaled by CAL_REFERENCE_S over the median of the run's
calibration times: they are seconds on a host where calibrate.py takes
CAL_REFERENCE_S.  A slower or faster `crossint` moves them in proportion;
the host's drift moves the calibration times with them and cancels.
Faster swings, within seconds and separate for each CPU, do not cancel;
the medians damp them.  The unscaled times and every calibration time are
in the info line.

Failed invocations (a wrong exit code or a failed output check) go into the
result's `failed` count out of `attempted`.  A failed invocation, or an
exact counter that differs between traced passes, makes the result read
`"correct": false` and the exit code 1.

With --trace 1 untraced and traced passes alternate and the run reports the
per-layer metrics of PER_LAYER from the traced passes (spans from
tracing.py, medians over the traced passes), plus `trace.overhead_s`, the
traced minus the untraced median pass time.  The counts in EXACT must repeat
exactly from pass to pass; --self-test also checks that they repeat from run
to run, on every workload.

Standard error gets a human summary; the last line of standard output is the
JSON result, preceded by one JSON line with the run's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
CALIBRATE = os.path.join(ROOT, "perfbench", "calibrate.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60
#: Untraced passes per run, whatever --seconds says.
MIN_PASSES = 3
MB = 1e6

END_TO_END = (("scaled_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Scaled times are in seconds of a host on which calibrate.py takes this long.
CAL_REFERENCE_S = 0.125
#: Before an untraced invocation, calibrate.py runs until it has run once per
#: this many seconds of untraced invocation time so far (and at least once).
CAL_EVERY_S = 1.0

#: Per-layer metrics: (name, unit, better).  Names ending in .self_s are span
#: self times; .calls are span counts.
PER_LAYER = (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.record_to_line.self_s", "s", "lower"),
    ("cli.record_to_line.calls", "count", "lower"),
    ("cli.parse_record_line.self_s", "s", "lower"),
    ("cli.parse_record_line.calls", "count", "lower"),
    ("cli.digest_absorb.self_s", "s", "lower"),
    ("cli.digest_absorb.calls", "count", "lower"),
    ("io.read_mb", "MB", "lower"),
    ("io.written_mb", "MB", "lower"),
    ("inequalities.evaluate_point.self_s", "s", "lower"),
    ("inequalities.evaluate_point.calls", "count", "lower"),
    ("inequalities.evaluate_point.p50_us", "us", "lower"),
    ("inequalities.evaluate_point.p99_us", "us", "lower"),
    ("inequalities.iter_grid.self_s", "s", "lower"),
    ("inequalities.iter_grid.points", "count", "lower"),
    ("inequalities.summary_absorb.self_s", "s", "lower"),
    ("inequalities.summary_absorb.calls", "count", "lower"),
    ("search.genset.self_s", "s", "lower"),
    ("search.genset.calls", "count", "lower"),
    ("search.genset.nodes", "count", "lower"),
    ("search.genset.nodes_10_5_3", "count", "lower"),
    ("search.genset.nodes_per_s", "1/s", "higher"),
    ("search.brute.self_s", "s", "lower"),
    ("search.brute.nodes", "count", "lower"),
    ("search.verify_main.self_s", "s", "lower"),
    ("gensets.minimal_genset.self_s", "s", "lower"),
    ("gensets.minimal_genset.calls", "count", "lower"),
    ("gensets.upset_k.self_s", "s", "lower"),
    ("gensets.upset_k.calls", "count", "lower"),
    ("gensets.size_from_genset.self_s", "s", "lower"),
    ("gensets.text_io.self_s", "s", "lower"),
    ("compression.left_compress.self_s", "s", "lower"),
    ("compression.left_compress.calls", "count", "lower"),
    ("compression.shift_family.self_s", "s", "lower"),
    ("compression.shift_family.calls", "count", "lower"),
    ("compression.is_left_compressed.self_s", "s", "lower"),
    ("families.text_io.self_s", "s", "lower"),
    ("families.is_cross_t_intersecting.self_s", "s", "lower"),
    ("families.is_cross_t_intersecting.calls", "count", "lower"),
    ("frankl.frankl_size.calls", "count", "lower"),
)
#: Per-layer metrics read from the tracer's counters rather than its spans.
COUNTED = frozenset({
    "inequalities.iter_grid.points",
    "search.genset.nodes",
    "search.genset.nodes_10_5_3",
    "search.brute.nodes",
})
#: Per-layer metrics that count work and so must repeat exactly.
EXACT = frozenset(
    name for name, unit, _ in PER_LAYER if unit == "count" or name.startswith("io.")
)


@dataclass
class Invocation:
    argv: list[str]
    wall_s: float = 0.0
    setup_s: float | None = None
    report: dict | None = None
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.errors.append(message)

    @property
    def ok(self) -> bool:
        return not self.errors


class Session:
    """Child processes of one run, their set-up times and their outcomes."""

    def __init__(self) -> None:
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=WORK_ROOT)
        self.calibration_s: list[float] = []
        self.measured_s = 0.0  # untraced invocation time so far
        self.invocations: list[Invocation] = []
        self.version = None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's directory is still there

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def spawn(self, command: list[str]) -> tuple[int | None, float, float]:
        """Run COMMAND to its end: exit code (None if killed), spawn time, duration."""
        with open(self.path("child.err"), "wb") as err:
            spawned = time.monotonic()
            child = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=err)
            # A blocking wait returns as the child exits; wait(timeout) would
            # poll and add up to 50 ms to the measured time.
            killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            killer.start()
            try:
                rc = child.wait()
            finally:
                killer.cancel()
                if child.poll() is None:  # unwinding from a signal
                    child.kill()
                    child.wait()
            took = time.monotonic() - spawned
        return (None if took >= CHILD_TIMEOUT_S else rc), spawned, took

    def calibrate(self) -> None:
        """Time calibrate.py until there is one run per CAL_EVERY_S measured."""
        while not self.calibration_s or len(self.calibration_s) * CAL_EVERY_S < self.measured_s:
            rc, _, took = self.spawn([sys.executable, CALIBRATE])
            if rc != 0:
                sys.exit(f"error: calibrate.py exited with {rc}")
            self.calibration_s.append(took)

    def cli(self, argv: list[str], expected_rc: int, traced: bool) -> Invocation:
        """Run `crossint ARGV` in a fresh child; a wrong exit code is a failure.

        An untraced invocation may be preceded by calibrate.py runs.
        """
        if not traced:
            self.calibrate()
        report_path = self.path("child-report.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        command = [sys.executable, CHILD, report_path, "1" if traced else "0", *argv]
        rc, spawned, took = self.spawn(command)
        if not traced:
            self.measured_s += took
        inv = Invocation(argv, took)
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as fh:
                inv.report = json.load(fh)
            inv.setup_s = inv.report["parser_built"] - spawned
            self.version = inv.report["version"]
        if rc is None:
            inv.fail(f"killed after {CHILD_TIMEOUT_S} s")
        elif rc != expected_rc or inv.report is None:
            with open(self.path("child.err"), encoding="utf-8", errors="replace") as fh:
                stderr_tail = fh.read()[-400:].strip()
            inv.fail(f"exit code {rc}, expected {expected_rc}: {stderr_tail}")
        self.invocations.append(inv)
        return inv


def pass_wall(invocations: list[Invocation]) -> float:
    return sum(inv.wall_s for inv in invocations)


def pass_layers(invocations: list[Invocation]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its children."""
    spans: dict[str, list] = {}
    counters: dict[str, int] = {}
    samples: dict[str, list[float]] = {}
    read = written = 0
    for inv in invocations:
        report = inv.report or {}
        for name, (calls, total_s, self_s) in report.get("spans", {}).items():
            span = spans.setdefault(name, [0, 0.0, 0.0])
            span[0] += calls
            span[1] += total_s
            span[2] += self_s
        for name, value in report.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, values in report.get("samples", {}).items():
            samples.setdefault(name, []).extend(values)
        read += report.get("rchar", 0)
        written += report.get("wchar", 0)

    values: dict[str, float] = {"io.read_mb": read / MB, "io.written_mb": written / MB}
    for name, _, _ in PER_LAYER:
        span_name, _, kind = name.rpartition(".")
        span = spans.get(span_name, [0, 0.0, 0.0])
        if kind == "self_s":
            values[name] = span[2]
        elif kind == "calls":
            values[name] = span[0]
        elif name in COUNTED:
            values[name] = counters.get(name, 0)
    genset_self = values["search.genset.self_s"]
    values["search.genset.nodes_per_s"] = (
        values["search.genset.nodes"] / genset_self if genset_self else 0.0
    )
    latencies = samples.get("inequalities.evaluate_point", [])
    if len(latencies) >= 2:
        cuts = statistics.quantiles(latencies, n=100)
        p50, p99 = cuts[49], cuts[98]
    else:
        p50 = p99 = latencies[0] if latencies else 0.0
    values["inequalities.evaluate_point.p50_us"] = p50 * 1e6
    values["inequalities.evaluate_point.p99_us"] = p99 * 1e6
    return values


def measure(workload_class, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: inputs, then timed passes."""
    workload = workload_class()
    session = Session()
    try:
        workload.prepare(session, seed)
        passes: dict[bool, list[list[Invocation]]] = {False: [], True: []}
        longest = {False: 0.0, True: 0.0}
        started = time.monotonic()
        while True:
            traced = trace and len(passes[True]) < len(passes[False])
            if trace:
                enough = passes[False] and passes[True]
            else:
                enough = len(passes[False]) >= MIN_PASSES
            if enough and time.monotonic() - started + longest[traced] > seconds:
                break
            pass_started = time.monotonic()
            passes[traced].append(workload.run_pass(session, traced))
            longest[traced] = max(longest[traced], time.monotonic() - pass_started)
        return summarize(workload, session, passes, trace, time.monotonic() - started)
    finally:
        session.close()


def summarize(workload, session: Session, passes, trace: bool, elapsed: float) -> dict:
    plain = passes[False]
    walls = [pass_wall(p) for p in plain]
    setups = [inv.setup_s for p in plain for inv in p if inv.setup_s is not None]
    failed = [inv for inv in session.invocations if not inv.ok]
    problems = [f"crossint {' '.join(inv.argv)}: {'; '.join(inv.errors)}" for inv in failed]
    if not setups:
        sys.exit("error: no crossint child got as far as building its parser\n"
                 + "\n".join(problems[:3]))
    by_invocation = []
    if trace:
        for inv in passes[True][0]:
            label = " ".join(os.path.basename(a) if os.sep in a else a for a in inv.argv)
            counts = pass_layers([inv])
            by_invocation.append((label, {m: counts[m] for m in sorted(EXACT) if counts[m]}))
        layers = [pass_layers(p) for p in passes[True]]
        traced_wall = statistics.median(pass_wall(p) for p in passes[True])
        overall = {
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - statistics.median(walls),
        }
        metrics = {}
        for name, unit, _ in PER_LAYER:
            if name in overall:
                metrics[name] = (overall[name], unit)
                continue
            values = [layer[name] for layer in layers]
            if name in EXACT and len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = (values[0] if name in EXACT else statistics.median(values), unit)
    else:
        peaks = [
            max((inv.report or {}).get("peak_rss_kb", 0) for inv in p) * 1024 / MB for p in plain
        ]
        scale = CAL_REFERENCE_S / statistics.median(session.calibration_s)
        metrics = {
            "scaled_wall_s": (statistics.median(walls) * scale, "s"),
            "setup_s": (statistics.median(setups) * scale, "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
        }
    return {
        "workload": workload.name,
        "passes": len(plain) + len(passes[True]),
        "elapsed_s": elapsed,
        "work": workload.work,
        "pass_walls": walls,
        "setup_samples": len(setups),
        "raw_setup_s": statistics.median(setups),
        "calibration_s": session.calibration_s,
        "version": session.version,
        "attempted": len(session.invocations),
        "failed": len(failed),
        "problems": problems,
        "metrics": metrics,
        "by_invocation": by_invocation,
    }


def commit_of_checkout() -> str | None:
    """The checked-out commit; None outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:  # no git
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def show(value: float) -> str:
    return f"{value:,}" if isinstance(value, int) else f"{value:.6g}"


def report(result: dict, seed: int) -> None:
    """The human summary to standard error, then the info and result lines."""

    def say(text: str) -> None:
        print(text, file=sys.stderr)

    work = ", ".join(f"{count:,} {unit}" for unit, count in result["work"].items())
    say(f"{result['workload']} seed {seed}: {result['passes']} pass(es) in "
        f"{result['elapsed_s']:.1f} s, {work} per pass")
    for name, (value, unit) in result["metrics"].items():
        say(f"  {name:42s} {show(value):>14s} {unit}")
    metrics = result["metrics"]
    if "scaled_wall_s" in metrics:
        calibration = result["calibration_s"]
        say(f"  scaled_wall_s is the median of {len(result['pass_walls'])} pass(es) of {work}, "
            f"{statistics.median(result['pass_walls']):.6g} s unscaled; setup_s is the median "
            f"of {result['setup_samples']} children, {result['raw_setup_s']:.6g} s unscaled; "
            f"both scaled by {CAL_REFERENCE_S} s over {statistics.median(calibration):.6g} s, "
            f"the median of {len(calibration)} calibrate.py runs")
    rate = result["failed"] / result["attempted"]
    say(f"  error_rate {rate:g} ({result['failed']} failed of {result['attempted']} invocations)")
    for problem in result["problems"]:
        say(f"  FAILED {problem}")
    info = {
        "workload": result["workload"],
        "seed": seed,
        "passes": result["passes"],
        "work": result["work"],
        "pass_walls_s": result["pass_walls"],
        "setup_s": result["raw_setup_s"],
        "calibration_s": result["calibration_s"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "crossint": result["version"],
        "commit": commit_of_checkout(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))


def self_test() -> int:
    """BENCHMARK.json matches the metric tables; exact counters repeat across runs."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        print(f"end_to_end in BENCHMARK.json {declared} != {list(END_TO_END)}")
        ok = False
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != list(PER_LAYER):
        print("per_layer in BENCHMARK.json differs from PER_LAYER")
        ok = False
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("workloads in BENCHMARK.json differ from workloads.py")
        ok = False
    for name, workload in WORKLOADS.items():
        runs = [measure(workload, seed=1, seconds=1, trace=True) for _ in range(2)]
        counts = [{m: r["metrics"][m][0] for m in sorted(EXACT)} for r in runs]
        problems = runs[0]["problems"] + runs[1]["problems"]
        same = counts[0] == counts[1]
        print(f"{name}: counters {'repeat' if same else 'DIFFER'}"
              + "".join(f"; {p}" for p in problems))
        for metric, value in counts[0].items():
            if value:
                again = "" if counts[1][metric] == value else f" then {counts[1][metric]}"
                print(f"  {metric:42s} {show(value):>14s}{again}")
        for label, invocation_counts in runs[0]["by_invocation"]:
            print(f"  crossint {label}")
            for metric, value in invocation_counts.items():
                print(f"    {metric:40s} {show(value):>14s}")
        ok = ok and same and not problems
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    # On SIGTERM, unwind as on an error: Session.spawn kills and reaps the
    # running child and the session removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "crossint", "cli.py")):
        print("error: no crossint sources under src/ in this checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report(result, args.seed)
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
