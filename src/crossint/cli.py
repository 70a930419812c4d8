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
import itertools
import json
import os
import re
import sys
from fractions import Fraction
from math import comb
from typing import Iterator

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
    read_family,
    write_family,
)
from .frankl import FranklParams, ak_regime, frankl_max, frankl_size, valid_r_range
from .gensets import (
    EXPAND_CAP,
    GenSet,
    minimal_genset,
    read_genset,
    size_from_genset,
    upset_k,
    write_genset,
)
from .records import CHECK_ORDER, STATUSES, VALUE_NAMES, Checks, Values, VerificationRecord
from .search import (
    MainTheoremReport,
    SearchResult,
    brute_force_best,
    genset_search_best_product,
    verify_main_theorem_small,
)

#: Environment variable naming the default output directory for --out.
OUT_DIR_ENV = "CROSSINT_OUT_DIR"

_LEMMAS = ("lemma_f", "lemma_g", "lemma_h", "lemma_phi")


# ---------------------------------------------------------------------------
# Record-stream digestion and summary emission


class RecordDigest:
    """Running totals over a stream of verification records.

    Records share a handful of Checks, so the status counts are kept per
    Checks, next to what it implies: its violated check names, the lemmas
    whose slack enters the minima with the positions of those slacks, and
    whether the key ratio does.  The least key ratio is kept as its two
    ints and the last point as the last record, so absorbing a record
    builds no object."""

    VIOLATION_CAP = 1000

    def __init__(self) -> None:
        self.records = 0
        self.violations: list[tuple[int, int, int, int, int, str]] = []
        # the least key ratio so far as (numerator, denominator); 1/0 stands
        # above every ratio until a ranked record comes
        self._ratio_num, self._ratio_den = 1, 0
        # each lemma's least slack so far, by _LEMMAS position; None until a
        # record that ranks the lemma comes
        self._slack_min: list[int | None] = [None] * len(_LEMMAS)
        self._last: VerificationRecord | None = None
        # Checks -> [records, violated names, (lemma position, slack position)
        # pairs, ranked]
        self._by_checks: dict[Checks, list] = {}

    def absorb(self, record: VerificationRecord) -> None:
        self.records += 1
        self._last = record
        checks = record.checks
        entry = self._by_checks.get(checks)
        if entry is None:
            entry = self._by_checks[checks] = [
                0,
                ",".join(
                    name for name, status in zip(CHECK_ORDER, checks) if status == "violated"
                ),
                tuple(
                    (lemma, VALUE_NAMES.index(name + "_slack"))
                    for lemma, name in enumerate(_LEMMAS)
                    if getattr(checks, name) != "excluded"
                ),
                checks.thm32 != "excluded",
            ]
        entry[0] += 1
        _, violated, lemmas, ranked = entry
        # ratio denominators are positive, so cross-multiplying compares
        if ranked and record.t_num * self._ratio_den < self._ratio_num * record.t_den:
            self._ratio_num, self._ratio_den = record.t_num, record.t_den
        values, slack_min = record.values, self._slack_min
        for lemma, slack_at in lemmas:
            low = slack_min[lemma]
            if low is None or values[slack_at] < low:
                slack_min[lemma] = values[slack_at]
        if violated and len(self.violations) < self.VIOLATION_CAP:
            self.violations.append(
                (record.n, record.k, record.s, record.i, record.t, violated)
            )

    @property
    def min_ratio(self) -> Fraction | None:
        """The least key ratio of a record whose thm32 is not excluded."""
        if not self._ratio_den:
            return None
        return Fraction(self._ratio_num, self._ratio_den)

    @property
    def min_slack(self) -> dict[str, int]:
        """lemma name -> least slack over the records that rank it."""
        return {
            name: low for name, low in zip(_LEMMAS, self._slack_min) if low is not None
        }

    @property
    def last_point(self) -> tuple[int, int, int, int, int] | None:
        return None if self._last is None else self._last.point

    @property
    def status_counts(self) -> dict[str, dict[str, int]]:
        """check name -> status -> records, in first-seen order."""
        counts: dict[str, dict[str, int]] = {}
        for checks, (records, *_) in self._by_checks.items():
            for name, status in zip(CHECK_ORDER, checks):
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
            return str(self.min_slack[name])
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
                name: str(value) for name, value in sorted(self.min_slack.items())
            },
            "thm32_min_ratio": None if self.min_ratio is None else str(self.min_ratio),
            "violations": [list(v) for v in self.violations],
            "last_point": list(self.last_point) if self.last_point else None,
        }


def parse_record_line(lineno: int, line: str) -> VerificationRecord:
    """The record on a line in exactly the bytes record_to_line writes: one
    match of _CANONICAL_LINE, its groups unpacked once in the pattern's
    order and turned into ints, with the Checks looked up once per distinct
    text.  Any other line, even one a JSON reader would take for the same
    record, is an IntegrityError naming the line."""
    match = _CANONICAL_LINE.fullmatch(line)
    if match is not None:
        (
            T_den, T_num, checks, i, k, n, s, t,
            S1, S2, T1, T2, equa3,
            lemma_f_slack, lemma_g_slack, lemma_h_slack, lemma_phi_slack,
        ) = match.groups()
        checks = _canonical_checks(checks)
        if checks is not None:
            return VerificationRecord(
                int(n), int(k), int(s), int(i), int(t), int(T_num), int(T_den),
                checks,
                Values(
                    int(S1), int(S2), int(T1), int(T2),
                    int(lemma_f_slack), int(lemma_g_slack),
                    int(lemma_h_slack), int(lemma_phi_slack), int(equa3),
                ),
            )
    raise IntegrityError(f"line {lineno}: not a record line as sweep-inequalities writes it")


#: record_to_line's checks and values objects, their keys in sorted order,
#: as templates over the fields of Checks and Values.
_CHECKS_TEMPLATE, _VALUES_TEMPLATE = (
    "{{" + ",".join(f'"{name}":"{{{fields.index(name)}}}"' for name in sorted(fields)) + "}}"
    for fields in (CHECK_ORDER, VALUE_NAMES)
)


@functools.lru_cache(maxsize=1024)
def _checks_json(checks: Checks) -> str:
    # a sweep's records share a handful of Checks
    return _CHECKS_TEMPLATE.format(*checks)


def record_to_line(record: VerificationRecord) -> str:
    """The canonical one-line serialization of a record (deterministic):
    the bytes json.dumps(..., sort_keys=True, separators=(",", ":")) writes
    for the record's fields as one object, under the keys n, k, s, i, t,
    T_num, T_den, checks and values, with T_num, T_den and every value as
    the decimal string str() writes; built directly in that sorted key
    order from the templates of the checks and values objects."""
    return (
        f'{{"T_den":"{record.t_den}","T_num":"{record.t_num}",'
        f'"checks":{_checks_json(record.checks)},"i":{record.i},"k":{record.k},'
        f'"n":{record.n},"s":{record.s},"t":{record.t},'
        f'"values":{_VALUES_TEMPLATE.format(*record.values)}}}'
    )


#: The integers str() writes, and the positive ones.
_INT = "0|-?[1-9][0-9]*"
_POSITIVE = "[1-9][0-9]*"

#: record_to_line's bytes for a record of canonical check and value names:
#: the keys in sorted order, the grid coordinates as positive JSON integers,
#: T_num and T_den as the decimal strings str() writes (T_den positive), the
#: checks object captured whole (up to its first "}") and each value as the
#: decimal string str() writes, in sorted name order.  Each group is named
#: by its key.
_CANONICAL_LINE = re.compile(
    rf'\{{"T_den":"(?P<T_den>{_POSITIVE})","T_num":"(?P<T_num>{_INT})",'
    r'"checks":(?P<checks>\{[^}]*\}),'
    + ",".join(f'"{name}":(?P<{name}>{_POSITIVE})' for name in "iknst")
    + r',"values":\{'
    + ",".join(f'"{name}":"(?P<{name}>{_INT})"' for name in sorted(VALUE_NAMES))
    + r"\}\}"
)

#: The checks object record_to_line writes: every check name, in sorted
#: order, each with one of the statuses, in a group named by the check.
_CANONICAL_CHECKS = re.compile(
    r"\{"
    + ",".join(f'"{name}":"(?P<{name}>{"|".join(STATUSES)})"' for name in sorted(CHECK_ORDER))
    + r"\}"
)


@functools.lru_cache(maxsize=1024)
def _canonical_checks(text: str) -> Checks | None:
    """The Checks of a canonical line's checks object, or None when text is
    not one.  Cached, since a stream's records share a handful of them; the
    tuple is immutable, so every record of one text shares one Checks."""
    match = _CANONICAL_CHECKS.fullmatch(text)
    return None if match is None else Checks._make(match.group(*CHECK_ORDER))


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
    unreadable final line (an interrupted write) is to be trimmed away.
    Damage anywhere else, or a record that does not come after the one
    before it, is an integrity error: silently resuming over it would
    corrupt the stream.  Each kept record must equal the next of points, the
    canonical (t, k, n, s, i) tuples the grid flags give; a stream that
    parts from them is a usage error naming the line, raised once the whole
    stream has been read, so that damage further on is still reported as
    such.  Returns the byte length of the kept records, which is where the
    file is to be cut, and leaves points at the first point after them,
    where the sweep goes on.  The file itself is left alone, so that a
    resume refused later leaves it untouched.

    Each line goes through parse_record_line, which reads only the bytes
    record_to_line writes: a line in any other form is damage like a torn
    one, trimmed when it is the last line and an integrity error before
    that.  So every kept record is in the canonical form, and the resumed
    stream is byte for byte the fresh one."""
    marker: tuple | None = None
    kept = 0
    damage: IntegrityError | None = None
    refusal: UsageError | None = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if damage is not None:
                raise damage  # a bad line with more after it is no torn tail
            try:
                line = raw.decode("utf-8").removesuffix("\n")
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
            digest.absorb(record)
            marker = point
            kept += len(raw)
    if refusal is not None:
        raise refusal
    return kept


def _cmd_sweep(args: argparse.Namespace) -> int:
    # the one command that runs the inequality engine, so the one that imports it
    from .inequalities import _grid_points, evaluate_points

    out = resolve_out(args.out, "sweep-records.jsonl")
    if args.resume and out == "-":
        raise UsageError("--resume needs --out pointing at a file")
    points = _grid_points(args.t_min, args.t_max, args.k_span, args.n_span)
    digest = RecordDigest()
    kept = 0
    if args.resume and os.path.exists(out):
        kept = _trim_to_last_record(out, digest, points)
    resumed = digest.records > 0
    if resumed:
        _say(f"resuming after canonical point (t,k,n,s,i) = {digest.last_point}")

    # points stands after the kept records, so the walk goes on from there
    records = evaluate_points(points)
    # the first record is pulled before --out is opened, so that grid flags
    # the grid walk refuses leave an existing stream untouched
    first = next(records, None)
    if resumed:
        os.truncate(out, kept)  # in place: the intact records stay as written
    fh = sys.stdout if out == "-" else open(out, "a" if resumed else "w", encoding="utf-8")
    try:
        if first is not None:
            absorb, write = digest.absorb, fh.write
            for record in itertools.chain((first,), records):
                absorb(record)
                write(record_to_line(record) + "\n")
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
            "genset": write_genset(side),
        }
        if _expandable(n, k):
            obj["family"] = write_family(upset_k(side))
        return obj
    return {"kind": "family", "family": write_family(side)}


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
        result = genset_search_best_product(args.n, args.k, args.t)
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


def _cmd_compress(args: argparse.Namespace) -> int:
    family = read_family(sys.stdin.buffer if args.infile == "-" else args.infile)
    already = is_left_compressed(family)
    compressed = left_compress(family)
    if len(compressed) != len(family):
        raise IntegrityError(
            f"compression changed the family size: {len(family)} -> {len(compressed)}"
        )
    out = resolve_out(args.out, "compressed-family.txt")
    _write_out(out, write_family(compressed))
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
        _write_out(out, write_family(family))
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
    _write_out(out, write_genset(genset))
    _say(
        f"minimal generating set of n={family.n} k={family.k} "
        f"members={len(family)}: {len(genset)} element(s)"
    )
    return 0


# ---------------------------------------------------------------------------
# verify-case4


def _section4_json_obj(report) -> dict:
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
    # the one command that runs the construction checks, so the one that imports them
    from .constructions import verify_section4_constructions

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
