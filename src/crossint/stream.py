"""The sweep's record stream: the one-line form of a record, its reader, and
the running digest of the records that the summaries are rendered from.

Only crossint.workers imports this module, so only the sweep compiles it.
cli lends its three public names to the benchmark's tracer, which wraps
them there (cli._OWNERS).  parse_record_line keeps a line only when
record_to_line writes the record read from it back as the same bytes, and
it writes back through cli.record_to_line, so that a wrapper set there
counts those calls too.  That ends when the tracer wraps each name in its
owner (ROADMAP item 2).
"""

from __future__ import annotations

import functools
from math import gcd
from operator import itemgetter

from . import cli
from .errors import IntegrityError
from .records import CHECK_ORDER, STATUSES, VALUE_NAMES, Checks, Values, VerificationRecord

_LEMMAS = ("lemma_f", "lemma_g", "lemma_h", "lemma_phi")


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
        if cli.record_to_line(record) == line:
            return record
    raise IntegrityError(f"line {lineno}: not a record line as sweep-inequalities writes it")
