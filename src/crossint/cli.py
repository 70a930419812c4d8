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

Exit codes: 0 when every executed check passes, 1 on usage errors and on
operating-system errors on a path (one "error:" line naming it), 2 on any
violation, integrity failure, or capacity refusal.  Machine output goes to
--out ("-" means standard output; with CROSSINT_OUT_DIR set, bare subcommands
default to files under that directory); the human summary goes to standard
error.  Record streams are deterministic: the same flags always produce
byte-identical output, and a resumed sweep reproduces the fresh stream,
re-reading only the records after its last checkpoint.  A sweep forks one
worker per CPU it may run on, and its stream, sidecars, checkpoints, standard
error and exit code do not depend on how many there are.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from math import gcd
from operator import itemgetter

from .compression import is_left_compressed, left_compress
from .errors import (
    CapacityError,
    CrossIntError,
    DomainError,
    IntegrityError,
    UsageError,
)
from .families import elements_of, read_family, write_family
from .frankl import FranklParams, ak_regime, frankl_max, frankl_size, valid_r_range
from .gensets import (
    GenSet,
    expandable,
    minimal_genset,
    read_genset,
    size_from_genset,
    upset_k,
    upset_size,
    write_genset,
)
from .records import CHECK_ORDER, STATUSES, VALUE_NAMES, Checks, Values, VerificationRecord
from .search import (
    _TIE_SOFT_CAP,
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
    """Running totals over a stream of verification records.  Only this
    class knows its state: it writes and adds back its half of a checkpoint
    or a frame, in numbers and status words, and renders one per-check
    table as each of its summaries.

    Records share a handful of Checks, so the status counts are kept per
    Checks, next to what it implies: its violated check names, the lemmas
    whose slack enters the minima with the positions of those slacks, and
    whether the key ratio does.  The least key ratio is kept as its two
    ints and the last record as its point."""

    VIOLATION_CAP = 1000

    def __init__(self) -> None:
        self.records = 0
        self.violations: list[tuple[int, int, int, int, int, str]] = []
        self.last_point: tuple[int, int, int, int, int] | None = None
        # the least key ratio so far as (numerator, denominator); 1/0 stands
        # above every ratio until a ranked record comes
        self._ratio_num, self._ratio_den = 1, 0
        # each lemma's least slack so far, by _LEMMAS position; None until a
        # record that ranks the lemma comes
        self._slack_min: list[int | None] = [None] * len(_LEMMAS)
        # Checks -> [records, violated names, (lemma position, slack position)
        # pairs, ranked]
        self._by_checks: dict[Checks, list] = {}

    def _entry(self, checks: Checks) -> list:
        """The new entry of checks, with no records counted yet."""
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
        return entry

    def absorb(self, record: VerificationRecord) -> None:
        self.records += 1
        self.last_point = record.point
        checks = record.checks
        entry = self._by_checks.get(checks)
        if entry is None:
            entry = self._entry(checks)
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

    def state_lines(self) -> list[str]:
        """The digest's half of a checkpoint or a frame: one line each for
        the least ratio, the slack minima (- for none), each Checks entry's
        count and statuses in CHECK_ORDER, each violation and the last point."""
        return [
            f"ratio {self._ratio_num} {self._ratio_den}",
            "slack " + " ".join("-" if low is None else str(low) for low in self._slack_min),
            *(
                f"checks {entry[0]} {' '.join(checks)}"
                for checks, entry in self._by_checks.items()
            ),
            *("violation {} {} {} {} {} {}".format(*v) for v in self.violations),
            "last {} {} {} {} {}".format(*self.last_point),
        ]

    def add_state_lines(self, records: int, lines: list[str]) -> None:
        """Add the digest of the records records that follow this digest's,
        written as state_lines, as if each were absorbed here in turn.  Every
        line is read before the digest changes; one out of form, or Checks
        counts that do not add up to records, is a ValueError."""

        def words(line: str, key: str, count: int) -> list[str]:
            first, *rest = line.split(" ")
            if first != key or len(rest) != count:
                raise ValueError(f"not a {key} line: {line!r}")
            return rest

        ratio, slack, *entries, last = lines
        ratio_num, ratio_den = map(int, words(ratio, "ratio", 2))
        lows = [None if low == "-" else int(low) for low in words(slack, "slack", len(_LEMMAS))]
        counts, violations = {}, []
        for line in entries:
            if line.startswith("checks "):
                count, *statuses = words(line, "checks", 1 + len(CHECK_ORDER))
                counts[_checks_of(tuple(statuses))] = int(count)
            else:
                *point, names = words(line, "violation", 6)
                violations.append((*map(int, point), names))
        last_point = tuple(map(int, words(last, "last", 5)))
        if sum(counts.values()) != records:
            raise ValueError("the Checks counts do not add up to the records")
        self.records += records
        for checks, count in counts.items():
            (self._by_checks.get(checks) or self._entry(checks))[0] += count
        # denominators are positive, or 0 for no ranked record yet, so
        # cross-multiplying compares, and an equal ratio keeps the earlier one
        if ratio_num * self._ratio_den < self._ratio_num * ratio_den:
            self._ratio_num, self._ratio_den = ratio_num, ratio_den
        slack_min = self._slack_min
        for lemma, low in enumerate(lows):
            if low is not None and (slack_min[lemma] is None or low < slack_min[lemma]):
                slack_min[lemma] = low
        self.violations += violations[: self.VIOLATION_CAP - len(self.violations)]
        self.last_point = last_point

    def _check_table(self) -> list[tuple[str, list[int], str]]:
        """(check name, its records per status in STATUSES order, its least
        value as text, "" for none) for each check, in CHECK_ORDER."""
        counts = {name: [0] * len(STATUSES) for name in CHECK_ORDER}
        for checks, (records, *_) in self._by_checks.items():
            for name, status in zip(CHECK_ORDER, checks):
                counts[name][STATUSES.index(status)] += records
        least = {name: str(low) for name, low in zip(_LEMMAS, self._slack_min) if low is not None}
        if self._ratio_den:
            # the text str(Fraction(num, den)) writes, without importing
            # fractions: lowest terms, and no denominator when it is 1
            g = gcd(self._ratio_num, self._ratio_den)
            num, den = self._ratio_num // g, self._ratio_den // g
            least["thm32"] = f"{num}/{den}" if den != 1 else str(num)
        return [(name, counts[name], least.get(name, "")) for name in CHECK_ORDER]

    def to_csv(self) -> str:
        rows = [["check", *STATUSES, "min_value"], ["records", self.records, "", "", "", ""]]
        rows += ([name, *counts, least] for name, counts, least in self._check_table())
        return "".join(",".join(map(str, row)) + "\n" for row in rows)

    def to_json_obj(self) -> dict:
        table = self._check_table()
        least = {name: text for name, _, text in table if text}
        return {
            "records": self.records,
            "checks": {name: dict(zip(STATUSES, counts)) for name, counts, _ in table},
            "min_slack": {name: least[name] for name in _LEMMAS if name in least},
            "thm32_min_ratio": least.get("thm32"),
            "violations": [list(v) for v in self.violations],
            "last_point": list(self.last_point) if self.last_point else None,
        }

    def report_lines(self) -> list[str]:
        """The summary a sweep says on standard error: each check that has
        records with its nonzero status counts and its least value, then the
        violated checks and the first 50 violations, or "no violations"."""
        table = self._check_table()
        lines = [
            f"  {name}: "
            + " ".join(f"{status}={count}" for status, count in zip(STATUSES, counts) if count)
            + (f" min={least}" if least else "")
            for name, counts, least in table
            if any(counts)
        ]
        if not self.violations:
            return lines + ["no violations"]
        violated = sum(counts[STATUSES.index("violated")] for _, counts, _ in table)
        lines.append(f"violations ({violated} check(s)):")
        lines += ("  (n,k,s,i,t)=({},{},{},{},{}): {}".format(*v) for v in self.violations[:50])
        return lines


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


#: JSON's punctuation, each mapped to a space: what is left of a line
#: record_to_line writes is its keys and field texts, one word each.
_PUNCTUATION = str.maketrans('{}":,', "     ")

#: A record whose every field is its own name in angle brackets, so that
#: where record_to_line writes it, each name stands where its field goes.
_NAMED = VerificationRecord(
    *(f"<{name}>" for name in VerificationRecord._fields[:7]),
    Checks._make(f"<{name}>" for name in CHECK_ORDER),
    Values._make(f"<{name}>" for name in VALUE_NAMES),
)


#: Where the words of a record line hold its ints (n, k, s, i, t, T_num,
#: T_den, then the values in Values order) and its statuses (in
#: CHECK_ORDER).
_LINE_INTS, _LINE_STATUSES = (
    itemgetter(*map(record_to_line(_NAMED).translate(_PUNCTUATION).split().index, fields))
    for fields in (_NAMED[:7] + _NAMED.values, _NAMED.checks)
)


@functools.lru_cache(maxsize=1024)
def _checks_of(statuses: tuple[str, ...]) -> Checks:
    """The Checks of statuses, one per check; a ValueError when one is not in
    STATUSES.  Cached, since a stream's records share a handful of them; the
    tuple is immutable, so every record of one checks text shares one
    Checks."""
    if not all(status in STATUSES for status in statuses):
        raise ValueError(f"not a status in {statuses}")
    return Checks._make(statuses)


def parse_record_line(lineno: int, line: str) -> VerificationRecord:
    """The record on a line in exactly the bytes record_to_line writes: each
    field read from the word where record_to_line puts it, and the record
    returned only if record_to_line writes it back as line, byte for byte.
    What writing back cannot see is checked here: every status is one of
    STATUSES, T_den > 0, and n, k, s, i and t are positive.  Any other line,
    even one a JSON reader would take for the same record, is an
    IntegrityError naming the line."""
    words = line.translate(_PUNCTUATION).split()
    try:
        n, k, s, i, t, t_num, t_den, *values = map(int, _LINE_INTS(words))
        checks = _checks_of(_LINE_STATUSES(words))
    except (IndexError, ValueError):
        checks = None
    if checks is not None and t_den > 0 and min(n, k, s, i, t) > 0:
        record = VerificationRecord(n, k, s, i, t, t_num, t_den, checks, Values._make(values))
        if record_to_line(record) == line:
            return record
    raise IntegrityError(f"line {lineno}: not a record line as sweep-inequalities writes it")


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


def _write_out(path: str, text) -> None:
    if path != "-":
        _replace_file(path, text)
    elif isinstance(text, str):
        sys.stdout.write(text)
    else:
        sys.stdout.writelines(text)


def _replace_file(path: str, text) -> None:
    """Write text, a str or an iterable of str pieces, to path through a
    temporary file in the same directory and os.replace: a reader sees the
    old file or the new one, and a failed write leaves the old one whole
    and no temporary file behind.  An OSError on the temporary file is
    raised again naming path, with the same errno and text."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _json_text(obj) -> str:
    """The JSON text of an --out report or a summary sidecar: keys sorted,
    two-space indents, a final newline."""
    # imported here, so that the commands that write no JSON do not load it
    import json

    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# sweep-inequalities


def _cmd_sweep(args: argparse.Namespace) -> int:
    # the one command that runs the inequality engine, the workers and the
    # checkpoint, so the one that imports them
    from .workers import run_sweep

    return run_sweep(args)


# ---------------------------------------------------------------------------
# search


def _side_obj(side, n: int, k: int) -> dict:
    if isinstance(side, GenSet):
        obj: dict = {
            "kind": "genset",
            "elements": [list(elements_of(m)) for m in side.elements],
            "genset": "".join(write_genset(side)),
        }
        if expandable(n, k):
            obj["family"] = "".join(write_family(upset_k(side)))
        return obj
    return {"kind": "family", "family": "".join(write_family(side))}


def _witnesses_obj(report: SearchResult | MainTheoremReport) -> list[dict]:
    """The witness pairs of a search result or report, as set-list texts."""
    n, k = report.n, report.k
    return [{"a": _side_obj(a, n, k), "b": _side_obj(b, n, k)} for a, b in report.witnesses]


def _say_witness_cut(report: SearchResult | MainTheoremReport) -> None:
    """Say so when the witnesses are fewer than the optimal pairs the search
    counted, a count that stops at _TIE_SOFT_CAP."""
    kept, ties = len(report.witnesses), report.stats.get("ties", 0)
    if ties > kept:
        least = "at least " if ties >= _TIE_SOFT_CAP else ""
        _say(f"witness list cut: kept {kept} of {least}{ties} optimal pairs")


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
    # the fields are the JSON keys; the exact value is a decimal string
    obj = dict(result._asdict(), value=str(result.value), witnesses=_witnesses_obj(result))
    _write_out(out, _json_text(obj))
    _say(
        f"{result.objective} optimum at (n,k,t)=({args.n},{args.k},{args.t}) "
        f"by {result.method}: {result.value} with {len(result.witnesses)} witness pair(s)"
    )
    _say_witness_cut(result)
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
        from fractions import Fraction

        thr = Fraction(regime.threshold_num, regime.threshold_den)
        _say(f"regime: {regime.kind} r={regime.r} tied={regime.tied} threshold={thr}")
    return 0


# ---------------------------------------------------------------------------
# compress / genset file utilities


def _cmd_compress(args: argparse.Namespace) -> int:
    family = read_family(sys.stdin.buffer if args.infile == "-" else args.infile)
    compressed = left_compress(family)
    if len(compressed) != len(family):
        raise IntegrityError(
            f"compression changed the family size: {len(family)} -> {len(compressed)}"
        )
    # the sweep moves nothing exactly when the family is left-compressed
    already = compressed.members == family.members
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
    try:
        counted = upset_size(genset)
    except CapacityError:
        # generators past PROFILE_CAP: the cell count, exact when left-compressed
        counted = size_from_genset(genset)
        if counted != len(family) and not is_left_compressed(family):
            raise UsageError(
                "generators past the profile cap are counted by cells, which needs "
                "a left-compressed family: run compress first"
            )
    if counted != len(family):
        raise IntegrityError(
            f"generated family size {counted} disagrees with family size {len(family)}"
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
    """The report, its checks and their rows as JSON objects of their fields,
    with the exact integers (sizes, lhs, rhs) as decimal strings."""
    return dict(
        report._asdict(),
        checks=[
            dict(
                check._asdict(),
                sizes={label: str(size) for label, size in check.sizes.items()},
                rows=[
                    dict(row._asdict(), lhs=str(row.lhs), rhs=str(row.rhs))
                    for row in check.rows
                ],
            )
            for check in report.checks
        ],
    )


def _cmd_verify_case4(args: argparse.Namespace) -> int:
    # the one command that runs the construction checks, so the one that imports them
    from .constructions import verify_section4_constructions

    report = verify_section4_constructions(args.n, args.k, args.t)
    out = resolve_out(args.out, f"case4-{args.n}-{args.k}-{args.t}.json")
    _write_out(out, _json_text(_section4_json_obj(report)))
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


def _cmd_verify_main_small(args: argparse.Namespace) -> int:
    report = verify_main_theorem_small(
        args.n, args.k, args.t, shift_trials=args.shift_trials, seed=args.seed
    )
    out = resolve_out(args.out, f"main-small-{args.n}-{args.k}-{args.t}.json")
    # the fields are the JSON keys; the exact values are decimal strings
    obj = dict(
        report._asdict(),
        value=str(report.value),
        star_value=str(report.star_value),
        witnesses=_witnesses_obj(report),
    )
    _write_out(out, _json_text(obj))
    _say(
        f"optimum {report.value} vs star product {report.star_value} "
        f"(threshold n >= {report.threshold}); structures: {', '.join(report.structures)}"
    )
    _say_witness_cut(report)
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
    except (UsageError, DomainError, OSError) as exc:
        # an OSError's text names the path it failed on
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
    # the sweep's workers module imports this one as crossint.cli: it must
    # find this module there, not compile and run a second copy
    sys.modules.setdefault("crossint.cli", sys.modules[__name__])
    sys.exit(main())
