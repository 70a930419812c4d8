"""Command-line driver: sweeps, searches, family utilities, reports.

Subcommands
-----------
sweep-inequalities   evaluate the inequality grid, streaming one JSON record
                     per point to --out, with a CSV/JSON summary and
                     crash-safe --resume
search               exact product/sum optimum at one (n, k, t), by brute
                     force or the generating-set scan, witnesses included
frankl               r-window family sizes at one (n, k, t) as CSV, with the
                     maximizer, ties, and the threshold regime
compress             left-compress a family file by simultaneous shifts
genset               minimal generating set of a family file, or expand a
                     generating set back to its k-uniform family
verify-case4         explicit-construction checks at one (n, k)
verify-main-small    search-based confirmation of the product bound

Exit codes: 0 when every executed check passes, 1 on usage errors, 2 on any
violation, integrity failure, or capacity refusal.  Machine output goes to
--out ("-" means standard output; with CROSSINT_OUT_DIR set, bare subcommands
default to files under that directory); the human summary goes to standard
error.  Record streams are deterministic: the same flags always produce
byte-identical output, and a resumed sweep reproduces the fresh stream.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterator, TextIO

from .compression import is_left_compressed, left_compress
from .errors import (
    CapacityError,
    CrossIntError,
    DomainError,
    IntegrityError,
    UsageError,
)
from .families import (
    WORD_CAP,
    elements_of,
    family_to_text,
    read_family,
    write_family,
)
from .frankl import FranklParams, ak_regime, frankl_max, frankl_size, valid_r_range
from .gensets import (
    EXPAND_CAP,
    GenSet,
    genset_to_text,
    minimal_genset,
    read_genset,
    size_from_genset,
    upset_k,
    write_genset,
)
from .inequalities import (
    CHECK_ORDER,
    STATUSES,
    VALUE_NAMES,
    VerificationRecord,
    _check_statuses,
    _grid_points,
    sweep,
)
from .search import (
    MainTheoremReport,
    SearchResult,
    Section4Report,
    brute_force_best,
    genset_search_best_product,
    verify_main_theorem_small,
    verify_section4_constructions,
)

#: Environment variable naming the default output directory for --out.
OUT_DIR_ENV = "CROSSINT_OUT_DIR"

_LEMMAS = ("lemma_f", "lemma_g", "lemma_h", "lemma_phi")

#: The string escaping json.dumps applies with its default ensure_ascii.
_encode_str = json.encoder.encode_basestring_ascii


# ---------------------------------------------------------------------------
# Record-stream digestion and summary emission


@dataclass
class RecordDigest:
    """Running totals over a stream of verification records.

    Records share a handful of check-status tuples, so the status counts are
    kept per tuple, next to what the tuple implies: its violated check names,
    the lemmas whose slack enters the minima, and whether the key ratio
    does."""

    records: int = 0
    min_slack: dict[str, int] = field(default_factory=dict)
    min_ratio: Fraction | None = None
    violations: list[tuple[int, int, int, int, int, str]] = field(default_factory=list)
    last_point: tuple[int, int, int, int, int] | None = None
    # checks items -> [records, violated names, (lemma, slack key) pairs, ranked]
    _by_checks: dict[tuple, list] = field(default_factory=dict, init=False, repr=False)

    VIOLATION_CAP = 1000

    def absorb(self, record: VerificationRecord) -> None:
        self.records += 1
        self.last_point = record.point
        checks = record.checks
        key = tuple(checks.items())
        entry = self._by_checks.get(key)
        if entry is None:
            entry = self._by_checks[key] = [
                0,
                ",".join(name for name, status in key if status == "violated"),
                tuple(
                    (name, name + "_slack")
                    for name in _LEMMAS
                    if checks.get(name) != "excluded"
                ),
                checks.get("thm32") != "excluded",
            ]
        entry[0] += 1
        _, violated, lemmas, ranked = entry
        if ranked:
            low = self.min_ratio
            # ratio denominators are positive, so cross-multiplying compares
            if low is None or record.t_num * low.denominator < low.numerator * record.t_den:
                self.min_ratio = Fraction(record.t_num, record.t_den)
        for name, slack_key in lemmas:
            try:
                slack = int(record.values[slack_key])
            except KeyError:
                raise IntegrityError(
                    f"{slack_key} is missing, and {name} is not excluded"
                ) from None
            except ValueError:
                raise IntegrityError(
                    f"{slack_key} must be an integer, got {record.values[slack_key]!r}"
                ) from None
            if name not in self.min_slack or slack < self.min_slack[name]:
                self.min_slack[name] = slack
        if violated and len(self.violations) < self.VIOLATION_CAP:
            self.violations.append(
                (record.n, record.k, record.s, record.i, record.t, violated)
            )

    @property
    def status_counts(self) -> dict[str, dict[str, int]]:
        """check name -> status -> records, in first-seen order."""
        counts: dict[str, dict[str, int]] = {}
        for key, (records, *_) in self._by_checks.items():
            for name, status in key:
                bucket = counts.setdefault(name, {})
                bucket[status] = bucket.get(status, 0) + records
        return counts

    @property
    def violation_count(self) -> int:
        counts = 0
        for bucket in self.status_counts.values():
            counts += bucket.get("violated", 0)
        return counts

    def min_value_text(self, name: str) -> str:
        if name == "thm32":
            return "" if self.min_ratio is None else str(self.min_ratio)
        if name in _LEMMAS and name in self.min_slack:
            return str(Fraction(self.min_slack[name]))
        return ""

    def to_csv(self) -> str:
        lines = ["check,holds,excluded,violated,skipped,min_value"]
        lines.append(f"records,{self.records},,,,")
        counts = self.status_counts
        for name in CHECK_ORDER:
            bucket = counts.get(name, {})
            cells = ",".join(str(bucket.get(status, 0)) for status in STATUSES)
            lines.append(f"{name},{cells},{self.min_value_text(name)}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        counts = self.status_counts
        return {
            "records": self.records,
            "checks": {
                name: {status: counts.get(name, {}).get(status, 0) for status in STATUSES}
                for name in CHECK_ORDER
            },
            "min_slack": {
                name: str(Fraction(value)) for name, value in sorted(self.min_slack.items())
            },
            "thm32_min_ratio": None if self.min_ratio is None else str(self.min_ratio),
            "violations": [list(v) for v in self.violations],
            "last_point": list(self.last_point) if self.last_point else None,
        }


def parse_record_line(lineno: int, line: str) -> VerificationRecord:
    """One JSON record line to a verification record, or integrity error.

    Two routes give the same record.  A line in the exact canonical form
    record_to_line writes is read by one match of _CANONICAL_LINE, with the
    checks object parsed and validated once per distinct text.  Every other
    line goes through json.loads and VerificationRecord.from_json_obj: that
    general route accepts the parseable lines that are not canonical (key
    order, spacing, escapes), which a resume keeps as they stand, and it
    words every IntegrityError."""
    match = _CANONICAL_LINE.fullmatch(line)
    if match is not None:
        t_den, t_num, checks_text, i, k, n, s, t = match.group(1, 2, 3, 4, 5, 6, 7, 8)
        checks = _canonical_checks(checks_text)
        if checks is not None:
            return VerificationRecord(
                int(n), int(k), int(s), int(i), int(t), int(t_num), int(t_den),
                dict(checks), match.groupdict(),
            )
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"line {lineno}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise IntegrityError(f"line {lineno}: record must be a JSON object")
    try:
        return VerificationRecord.from_json_obj(obj)
    except IntegrityError as exc:
        raise IntegrityError(f"line {lineno}: {exc}") from None


def _json_object(table: dict[str, str]) -> str:
    return "{" + ",".join(
        [f"{_encode_str(key)}:{_encode_str(value)}" for key, value in sorted(table.items())]
    ) + "}"


@functools.lru_cache(maxsize=1024)
def _checks_json(items: tuple[tuple[str, str], ...]) -> str:
    # a sweep's records share a handful of check-status tuples
    return _json_object(dict(items))


def record_to_line(record: VerificationRecord) -> str:
    """The canonical one-line serialization of a record (deterministic):
    the bytes of json.dumps(record.to_json_obj(), sort_keys=True,
    separators=(",", ":")), built directly in that sorted key order."""
    return (
        f'{{"T_den":"{record.t_den}","T_num":"{record.t_num}",'
        f'"checks":{_checks_json(tuple(record.checks.items()))},"i":{record.i},"k":{record.k},'
        f'"n":{record.n},"s":{record.s},"t":{record.t},'
        f'"values":{_json_object(record.values)}}}'
    )


#: record_to_line's bytes for a record with every canonical value name: the
#: keys in sorted order, the grid coordinates as JSON integers, T_num and
#: T_den as the decimal strings str() writes (T_den positive), the checks
#: object captured whole (up to its first "}") and each value a decimal
#: string, in a group named after the value.
_CANONICAL_LINE = re.compile(
    r'\{"T_den":"([1-9][0-9]*)","T_num":"(0|-?[1-9][0-9]*)","checks":(\{[^}]*\}),'
    + ",".join(f'"{name}":(-?(?:0|[1-9][0-9]*))' for name in "iknst")
    + r',"values":\{'
    + ",".join(f'"{name}":"(?P<{name}>-?[0-9]+)"' for name in sorted(VALUE_NAMES))
    + r"\}\}"
)


@functools.lru_cache(maxsize=1024)
def _canonical_checks(text: str) -> dict[str, str] | None:
    """The checks object a canonical line holds, or None when it is not an
    object of canonical check names to known statuses.  Cached, since a
    stream's records share a handful of them: callers copy the result."""
    try:
        checks = json.loads(text)
        _check_statuses(tuple(checks.items()))
    except (ValueError, TypeError, IntegrityError):
        return None
    return checks


# ---------------------------------------------------------------------------
# Output plumbing


def resolve_out(out: str | None, default_name: str) -> str:
    """--out value, or a file under the default output directory, or "-"."""
    if out:
        return out
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, default_name)
    return "-"


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        _replace_file(path, text)


def _replace_file(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory and
    os.replace: a reader sees the old file or the new one, and a failed
    write leaves the old one whole and no temporary file behind."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _say(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# sweep-inequalities


def _trim_to_last_record(
    path: str, digest: RecordDigest, points: Iterator[tuple[int, int, int, int, int]]
) -> int:
    """Check an existing record stream against the grid, in one pass.

    Complete leading records are digested and kept; a partial, blank or
    unparsable final line (an interrupted write) is to be trimmed away.
    Damage anywhere else, or a record that does not come after the one
    before it, is an integrity error: silently resuming over it would
    corrupt the stream.  Each kept record must equal the next of points, the
    canonical (t, k, n, s, i) tuples the grid flags give; a stream that
    parts from them is a usage error naming the line, raised once the whole
    stream has been read, so that damage further on is still reported as
    such.  Returns the byte length of the kept records, which is where the
    file is to be cut.  The file itself is left alone, so that a resume
    refused later leaves it untouched.

    Each line goes through parse_record_line: the lines this program wrote
    take its canonical-pattern route, and any other line its general
    json.loads route, which keeps a parseable non-canonical record as it
    stands and words the error for a damaged one."""
    marker: tuple | None = None
    kept = 0
    damage: IntegrityError | None = None
    refusal: UsageError | None = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if damage is not None:
                raise damage  # a bad line with more after it is no torn tail
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                damage = IntegrityError(f"line {lineno}: not valid UTF-8: {exc.reason}")
                continue
            if not line:
                damage = IntegrityError(f"line {lineno}: blank line inside record stream")
                continue
            try:
                record = parse_record_line(lineno, line)
            except IntegrityError as exc:
                damage = exc
                continue
            if not raw.endswith(b"\n"):
                break  # complete-looking JSON but unterminated: treat as partial
            point = record.point
            if marker is not None and point <= marker:
                raise IntegrityError(
                    f"line {lineno}: record out of canonical order; stream corrupt"
                )
            if refusal is None:
                expected = next(points, None)
                if point != expected:
                    grid = (
                        f"the grid has only {lineno - 1} points"
                        if expected is None
                        else f"the grid's point {lineno} is {expected}"
                    )
                    refusal = UsageError(
                        f"--resume refused, {path} left unchanged: line {lineno} "
                        f"holds {point}, but {grid}; were the grid flags changed "
                        "since the stream was written?"
                    )
            try:
                digest.absorb(record)
            except IntegrityError as exc:
                raise IntegrityError(f"line {lineno}: {exc}") from None
            marker = point
            kept += len(raw)
    if refusal is not None:
        raise refusal
    return kept


def _cmd_sweep(args: argparse.Namespace) -> int:
    out = resolve_out(args.out, "sweep-records.jsonl")
    if args.resume and out == "-":
        raise UsageError("--resume needs --out pointing at a file")
    grid = (args.t_min, args.t_max, args.k_span, args.n_span)
    digest = RecordDigest()
    kept = 0
    if args.resume and os.path.exists(out):
        kept = _trim_to_last_record(out, digest, _grid_points(*grid))
    resumed = digest.records > 0
    if resumed:
        _say(f"resuming after canonical point (t,k,n,s,i) = {digest.last_point}")

    records = sweep(*grid, skip=digest.records)
    # the first record is pulled before --out is opened, so that grid flags
    # sweep() refuses leave an existing stream untouched
    first = next(records, None)
    if out == "-":
        fh: TextIO = sys.stdout
    else:
        if resumed:
            os.truncate(out, kept)  # in place: the intact records stay as written
        fh = open(out, "a" if resumed else "w", encoding="utf-8")
    try:
        if first is not None:
            for record in itertools.chain((first,), records):
                digest.absorb(record)
                fh.write(record_to_line(record) + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()

    csv_text = digest.to_csv()
    json_text = json.dumps(digest.to_json_obj(), sort_keys=True, indent=2) + "\n"
    if out != "-":
        _replace_file(out + ".summary.csv", csv_text)
        _replace_file(out + ".summary.json", json_text)
        _say(f"records: {out}")
        _say(f"summary: {out}.summary.csv, {out}.summary.json")
    _say(
        f"checked {digest.records} grid points "
        f"(t in [{args.t_min},{args.t_max}], k span {args.k_span}, n span {args.n_span})"
    )
    status_counts = digest.status_counts
    for name in CHECK_ORDER:
        bucket = status_counts.get(name, {})
        if not bucket:
            continue
        counts = " ".join(
            f"{status}={bucket.get(status, 0)}"
            for status in STATUSES
            if bucket.get(status, 0)
        )
        extra = digest.min_value_text(name)
        tail = f" min={extra}" if extra else ""
        _say(f"  {name}: {counts}{tail}")
    if digest.violations:
        _say(f"violations ({digest.violation_count} check(s)):")
        for n, k, s, i, t, names in digest.violations[:50]:
            _say(f"  (n,k,s,i,t)=({n},{k},{s},{i},{t}): {names}")
        return 2
    _say("no violations")
    return 0


# ---------------------------------------------------------------------------
# search


def _expandable(n: int, k: int) -> bool:
    return n <= WORD_CAP and comb(n, k) <= EXPAND_CAP


def _side_obj(side, n: int, k: int) -> dict:
    if isinstance(side, GenSet):
        obj: dict = {
            "kind": "genset",
            "elements": [list(elements_of(m)) for m in side.elements],
            "genset": genset_to_text(side),
        }
        if _expandable(n, k):
            obj["family"] = family_to_text(upset_k(side))
        return obj
    return {"kind": "family", "family": family_to_text(side)}


def _witnesses_obj(witnesses, n: int, k: int) -> list[dict]:
    return [{"a": _side_obj(a, n, k), "b": _side_obj(b, n, k)} for a, b in witnesses]


def _search_json_obj(result: SearchResult) -> dict:
    return {
        "n": result.n,
        "k": result.k,
        "t": result.t,
        "objective": result.objective,
        "method": result.method,
        "value": str(result.value),
        "witnesses": _witnesses_obj(result.witnesses, result.n, result.k),
        "stats": dict(result.stats),
    }


def _cmd_search(args: argparse.Namespace) -> int:
    if args.method == "brute":
        result = brute_force_best(args.n, args.k, args.t, args.objective)
    else:
        if args.objective != "product":
            raise UsageError(
                "the genset method maximizes the product only; "
                "use --method brute for the sum objective"
            )
        result = genset_search_best_product(args.n, args.k, args.t, s_max=args.s_max)
    out = resolve_out(args.out, f"search-{args.n}-{args.k}-{args.t}.json")
    _write_out(out, json.dumps(_search_json_obj(result), sort_keys=True, indent=2) + "\n")
    _say(
        f"{result.objective} optimum at (n,k,t)=({args.n},{args.k},{args.t}) "
        f"by {result.method}: {result.value} with {len(result.witnesses)} witness pair(s)"
    )
    return 0


# ---------------------------------------------------------------------------
# frankl


def _cmd_frankl(args: argparse.Namespace) -> int:
    best = frankl_max(args.n, args.k, args.t)
    lines = ["r,size,max,tie"]
    for r in valid_r_range(args.n, args.k, args.t):
        size = frankl_size(FranklParams(args.n, args.k, args.t, r))
        is_max = int(r in best.best_r)
        tie = int(is_max and len(best.best_r) > 1)
        lines.append(f"{r},{size},{is_max},{tie}")
    out = resolve_out(args.out, f"frankl-{args.n}-{args.k}-{args.t}.csv")
    _write_out(out, "\n".join(lines) + "\n")
    _say(
        f"max window size at (n,k,t)=({args.n},{args.k},{args.t}): "
        f"{best.size} at r in {best.best_r}"
    )
    try:
        regime = ak_regime(args.n, args.k, args.t)
    except CrossIntError:
        _say("regime: out of scope (every pair of k-sets already meets in >= t points)")
    else:
        thr = Fraction(regime.threshold_num, regime.threshold_den)
        _say(f"regime: {regime.kind} r={regime.r} tied={regime.tied} threshold={thr}")
    return 0


# ---------------------------------------------------------------------------
# compress / genset file utilities


def _rendered(write, obj) -> str:
    """What write(obj, target) writes, as one string for _write_out.  The
    commands call write_family and write_genset through this module, not
    family_to_text, so that perfbench's tracer still times the writes."""
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


def _cmd_compress(args: argparse.Namespace) -> int:
    family = read_family(sys.stdin.buffer if args.infile == "-" else args.infile)
    already = is_left_compressed(family)
    compressed = left_compress(family)
    if len(compressed) != len(family):
        raise IntegrityError(
            f"compression changed the family size: {len(family)} -> {len(compressed)}"
        )
    out = resolve_out(args.out, "compressed-family.txt")
    _write_out(out, _rendered(write_family, compressed))
    _say(
        f"family n={family.n} k={family.k} members={len(family)}: "
        + ("already left-compressed" if already else "compressed")
    )
    return 0


def _cmd_genset(args: argparse.Namespace) -> int:
    out = resolve_out(args.out, "genset.txt")
    if args.expand:
        genset = read_genset(sys.stdin.buffer if args.infile == "-" else args.infile)
        family = upset_k(genset)
        _write_out(out, _rendered(write_family, family))
        _say(
            f"expanded {len(genset)} generator(s) on n={genset.n}, k={genset.k} "
            f"to {len(family)} member(s)"
        )
        return 0
    family = read_family(sys.stdin.buffer if args.infile == "-" else args.infile)
    genset = minimal_genset(family)
    counted = size_from_genset(genset)
    if counted != len(family):
        raise IntegrityError(
            f"cell count {counted} disagrees with family size {len(family)}"
        )
    _write_out(out, _rendered(write_genset, genset))
    _say(
        f"minimal generating set of n={family.n} k={family.k} "
        f"members={len(family)}: {len(genset)} element(s)"
    )
    return 0


# ---------------------------------------------------------------------------
# verify-case4


def _section4_json_obj(report: Section4Report) -> dict:
    return {
        "n": report.n,
        "k": report.k,
        "t": report.t,
        "checks": [
            {
                "name": check.name,
                "params": dict(check.params),
                "skipped": check.skipped,
                "skip_reason": check.skip_reason,
                "expanded": check.expanded,
                "sizes": {label: str(v) for label, v in check.sizes.items()},
                "rows": [
                    {
                        "label": row.label,
                        "lhs": str(row.lhs),
                        "relation": row.relation,
                        "rhs": str(row.rhs),
                        "guard": row.guard,
                        "guard_met": row.guard_met,
                        "holds": row.holds,
                    }
                    for row in check.rows
                ],
            }
            for check in report.checks
        ],
    }


def _cmd_verify_case4(args: argparse.Namespace) -> int:
    report = verify_section4_constructions(args.n, args.k, args.t)
    out = resolve_out(args.out, f"case4-{args.n}-{args.k}-{args.t}.json")
    _write_out(out, json.dumps(_section4_json_obj(report), sort_keys=True, indent=2) + "\n")
    for check in report.checks:
        if check.skipped:
            _say(f"  {check.name}: skipped ({check.skip_reason})")
            continue
        ok = sum(1 for row in check.rows if row.holds)
        info = sum(1 for row in check.rows if not row.holds and not row.guard_met)
        tag = f" ({info} outside printed hypotheses)" if info else ""
        _say(f"  {check.name}: {ok}/{len(check.rows)} rows hold{tag}")
    # verify_section4_constructions raises IntegrityError (exit 2) on a failed
    # row whose hypothesis holds, so every such row held.
    _say(
        f"all printed comparisons hold under their hypotheses at "
        f"(n,k,t)=({args.n},{args.k},{args.t})"
    )
    return 0


# ---------------------------------------------------------------------------
# verify-main-small


def _main_small_json_obj(report: MainTheoremReport) -> dict:
    return {
        "n": report.n,
        "k": report.k,
        "t": report.t,
        "threshold": report.threshold,
        "star_value": str(report.star_value),
        "value": str(report.value),
        "methods": list(report.methods),
        "witnesses": _witnesses_obj(report.witnesses, report.n, report.k),
        "structures": list(report.structures),
        "bound_confirmed": report.bound_confirmed,
        "all_star": report.all_star,
        "shift_trials": report.shift_trials,
        "shift_ok": report.shift_ok,
        "stats": dict(report.stats),
    }


def _cmd_verify_main_small(args: argparse.Namespace) -> int:
    report = verify_main_theorem_small(
        args.n, args.k, args.t, shift_trials=args.shift_trials, seed=args.seed
    )
    out = resolve_out(args.out, f"main-small-{args.n}-{args.k}-{args.t}.json")
    _write_out(out, json.dumps(_main_small_json_obj(report), sort_keys=True, indent=2) + "\n")
    _say(
        f"optimum {report.value} vs star product {report.star_value} "
        f"(threshold n >= {report.threshold}); structures: {', '.join(report.structures)}"
    )
    failed = report.bound_confirmed is False or report.shift_ok is False
    if report.bound_confirmed is None:
        _say("n below the threshold: the star product is not claimed to be optimal")
    else:
        _say(f"bound confirmed: {report.bound_confirmed}")
    if report.shift_trials:
        _say(f"shift stress ({report.shift_trials} trials): ok={report.shift_ok}")
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# Parser assembly


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures raise instead of exiting 2."""

    def error(self, message: str):  # noqa: D401 - argparse contract
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crossint", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-inequalities", help="evaluate the inequality grid")
    p.add_argument("--t-min", type=int, default=3)
    p.add_argument("--t-max", type=int, default=8)
    p.add_argument("--k-span", type=int, default=12)
    p.add_argument("--n-span", type=int, default=40)
    p.add_argument("--out", help="record stream path ('-' = stdout)")
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted stream at --out, trimming a partial tail",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("search", help="exact optimum at one (n, k, t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--objective", choices=("product", "sum"), default="product")
    p.add_argument("--method", choices=("brute", "genset"), default="genset")
    p.add_argument("--s-max", type=int, default=None, help="generator window cap")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("frankl", help="r-window family sizes as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_frankl)

    p = sub.add_parser("compress", help="left-compress a family file")
    p.add_argument("--in", dest="infile", required=True, help="family file ('-' = stdin)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("genset", help="minimal generating set of a family file")
    p.add_argument("--in", dest="infile", required=True, help="input file ('-' = stdin)")
    p.add_argument(
        "--expand",
        action="store_true",
        help="treat the input as a generating set and write its k-uniform family",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_genset)

    p = sub.add_parser("verify-case4", help="explicit-construction checks at (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_case4)

    p = sub.add_parser(
        "verify-main-small", help="confirm the product bound by exhaustive search"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--shift-trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="shift-trial randomness only")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_main_small)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial_best", None)
        if partial is not None:
            print(
                f"partial best before the cap: {partial.value} "
                f"(stats: {dict(partial.stats)})",
                file=sys.stderr,
            )
        return 2
    except IntegrityError as exc:
        print(f"integrity: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
