"""Exact big-integer engine for the product-bound inequality apparatus.

Everything here happens on the five-parameter grid

    (t+1)(k-t+1) <= n,   t+3 <= s <= 2k-t,
    max(t+1, s+t-k) <= i <= min(k, floor((s+t)/2)),   t >= 3,

with four core quantities

    S1 = i(n-k-s+i+1) + (s-i)(n-s+1)        = s(n-s+1) - i(k-i)
    S2 = (s+t-i)(n-k-i+t+1) + (i-t)(n-s+1)  = s(n-s+1) - (s+t-i)(k+i-s-t)
    T1 = i(n-k-s+i+1) + (s-i)(k-i+1)
    T2 = (s+t-i)(n-k-i+t+1) + (i-t)(k-s-t+i+1)

The key claim is the strict ratio bound

    (n+i-k-s)(n+t-k-i) S1 S2  >  (n-s+1)^2 T1 T2        (*)

for every grid point with (s,i,t) != (6,4,3), equivalent via a binomial
reduction identity to the comparison of C(n-s, .) ratio products that drives
the product-maximality argument.  Supporting margin lemmas (f, g, h, phi), a
chain of intermediate inequalities, and per-triple specialized polynomial
forms for the small (s,i,t) cases are all checked by pure integer arithmetic:
comparisons are cross-multiplied, never divided, and both algebraic forms of
every displayed quantity are computed and must agree.  Nothing here is
floating point, and no ratio here is a Fraction.

Each point can be checked along two routes.  This module is the sweep
engine: evaluate_point, which evaluate_points calls once per grid point for
the sweep-inequalities command and for sweep(), is a single flat pass over
the five integers: an inline domain test, then every quantity, both of its
algebraic forms and every status, written straight into the
VerificationRecord.  The second route, the per-point reference API of one
result object per check (SectionParams ... basefact), lives in reference,
which no command imports: evaluate_point imports SectionParams from it only
to word the DomainError of a point off the grid, and iter_grid to build its
points.  The tests hold the two routes to the same values.

The record schema (Checks, Values, VerificationRecord) lives in records, so
that only the sweep command imports this engine.
"""

from __future__ import annotations

from math import comb, gcd
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .errors import DomainError, IntegrityError, UsageError
from .records import CHECK_ORDER, Checks, Values, VerificationRecord

if TYPE_CHECKING:
    from .reference import SectionParams

EXCLUDED_TRIPLE = (6, 4, 3)

# margin lemma f fails (or is unproven) exactly on these triples
F_LEMMA_EXCLUSIONS = frozenset(
    {(8, 6, 5), (7, 5, 4), (8, 5, 3), (8, 4, 3), (7, 5, 3), (7, 4, 3), (6, 4, 3)}
)
# margin lemma g fails (or is unproven) exactly on these
G_LEMMA_EXCLUSIONS = frozenset({(7, 5, 3), (7, 4, 3), (6, 4, 3)})


# ---------------------------------------------------------------------------
# Specialized polynomial forms for the small (s,i,t) triples.  Each entry maps
# the triple to (k floor, numerator factors, denominator factors); the factors
# must reproduce the generic ratio exactly, which is enforced on every call.
# ---------------------------------------------------------------------------

_SPECIAL_FORMS: dict[
    tuple[int, int, int],
    tuple[int, Callable[[int, int], list[int]], Callable[[int, int], list[int]]],
] = {
    (8, 5, 3): (
        6,
        lambda n, k: [n - k - 3, n - k - 2, 8 * n - 5 * k - 31, 8 * n - 6 * k - 20],
        lambda n, k: [(n - 7) ** 2, 5 * n - 2 * k - 22, 6 * n - 4 * k - 16],
    ),
    (8, 4, 3): (
        7,
        lambda n, k: [n - k - 4, n - k - 1, 8 * n - 4 * k - 40, 8 * n - 7 * k - 7],
        lambda n, k: [(n - 7) ** 2, 4 * n - 24, 7 * n - 6 * k - 6],
    ),
    (7, 5, 4): (
        6,
        lambda n, k: [n - k - 2, n - k - 1, 7 * n - 5 * k - 17, 7 * n - 6 * k - 6],
        lambda n, k: [(n - 6) ** 2, 5 * n - 3 * k - 13, 6 * n - 5 * k - 5],
    ),
    (7, 5, 3): (
        5,
        lambda n, k: [(n - k - 2) ** 2, (7 * n - 5 * k - 17) ** 2],
        lambda n, k: [(n - 6) ** 2, (5 * n - 3 * k - 13) ** 2],
    ),
    (7, 4, 3): (
        6,
        lambda n, k: [n - k - 3, n - k - 1, 7 * n - 4 * k - 26, 7 * n - 6 * k - 6],
        lambda n, k: [(n - 6) ** 2, 4 * n - k - 17, 6 * n - 5 * k - 5],
    ),
    (8, 6, 5): (
        7,
        lambda n, k: [n - k - 2, n - k - 1, 8 * n - 6 * k - 20, 8 * n - 7 * k - 7],
        lambda n, k: [(n - 7) ** 2, 6 * n - 4 * k - 16, 7 * n - 6 * k - 6],
    ),
}

SPECIAL_TRIPLES = frozenset(_SPECIAL_FORMS)


# ---------------------------------------------------------------------------
# Per-point records and grid sweeps
# ---------------------------------------------------------------------------


def evaluate_point(n: int, k: int, s: int, i: int, t: int) -> VerificationRecord:
    """Every applicable check at one grid point, statuses plus exact values.

    One flat pass over the integers: the core quantities, the key ratio (*),
    the binomial ratio identity, the four lemma slacks, the reduction chain
    and the specialized form, the same values as the per-point reference
    API (reference.eval_core, check_key_inequality, ..., appendix_case)
    gives, which this function does not call.  Both algebraic forms of S1, S2 and of every
    lemma slack are computed and compared, S1, S2, T1, T2 must be positive
    and the specialized form must reproduce the generic ratio; any
    disagreement is an IntegrityError.  A point off the grid is a
    DomainError, worded by SectionParams."""
    if not (
        t >= 3
        and n >= (t + 1) * (k - t + 1)
        and t + 3 <= s <= 2 * k - t
        and t + 1 <= i <= k
        and s + t - k <= i
        and 2 * i <= s + t
    ):
        from .reference import SectionParams

        SectionParams(n, k, s, i, t)  # raises the DomainError naming the constraint
    triple = (s, i, t)
    # shorthands for the factors of the module docstring's formulas
    m = n - s + 1
    a = n + i - k - s
    b = n + t - k - i
    u = s + t - i
    v = k + i - s - t
    x = s * (v + 1)
    y = s * (k - i + 1)

    # core quantities, both forms of S1 and S2
    S1 = i * (a + 1) + (s - i) * m
    S2 = u * (b + 1) + (i - t) * m
    if S1 != s * m - i * (k - i) or S2 != s * m - u * v:
        raise IntegrityError(
            f"algebraic forms disagree at (n,k,s,i,t) = {(n, k, s, i, t)}: "
            f"S1 {S1}/{s * m - i * (k - i)}, S2 {S2}/{s * m - u * v}"
        )
    T1 = i * (a + 1) + (s - i) * (k - i + 1)
    T2 = u * (b + 1) + (i - t) * (v + 1)
    if S1 <= 0 or S2 <= 0 or T1 <= 0 or T2 <= 0:
        raise IntegrityError(
            f"core quantity not positive at (n,k,s,i,t) = {(n, k, s, i, t)}: "
            f"S1={S1}, S2={S2}, T1={T1}, T2={T2}"
        )

    # the key ratio (*) and the binomial identity behind it
    num = a * b * S1 * S2
    den = m * m * T1 * T2
    if triple == EXCLUDED_TRIPLE:
        thm32 = "excluded"
    else:
        thm32 = "holds" if num > den else "violated"
    r = n - s
    identity = (
        comb(r, k - i) * comb(r, v) * a * b
        == comb(r, k - i + 1) * comb(r, v + 1) * (k - i + 1) * (v + 1)
    )
    ratio_identity = "holds" if identity else "violated"

    # the four margin lemmas, each slack by both forms
    slacks = (
        S1 + S2 - T1 - T2 - s * (2 * k - s - t + 2),
        S1 - T1 - y,
        2 * S2 - T1 - T2 - x,
        s * m - T2 - x,
    )
    reduced = (
        (s - i) * a + (i - t) * b - s * (2 * k - s - t + 2),
        (s - i) * a - y,
        s * s + s * (n + 3 * t - 3 * k - i - 1) + i * (2 * k - 2 * i) - t * n,
        (i - t) * (n - 2 * k + s + 2 * t - 2 * i) - s,
    )
    if slacks != reduced:
        raise IntegrityError(
            f"lemma slack forms disagree at (n,k,s,i,t) = {(n, k, s, i, t)}: "
            f"f, g, h, phi {slacks} vs {reduced}"
        )
    lemma_f_slack, lemma_g_slack, lemma_h_slack, lemma_phi_slack = slacks
    f_excluded = triple in F_LEMMA_EXCLUSIONS
    if f_excluded:
        lemma_f = "excluded"
    else:
        lemma_f = "holds" if lemma_f_slack >= 0 else "violated"
    if triple in G_LEMMA_EXCLUSIONS:
        lemma_g = "excluded"
    else:
        lemma_g = "holds" if lemma_g_slack > 0 else "violated"
    lemma_h = "holds" if lemma_h_slack > 0 else "violated"
    lemma_phi = "holds" if lemma_phi_slack >= 0 else "violated"

    # the reduction chain, behind its entry gate
    entry = S2 - T2 < x
    equa3 = int(entry)
    if not entry or f_excluded:
        equa1 = equac2 = st = equac1 = equac3 = "skipped"
    else:
        mid = T1 + x - (S2 - T2)
        equa1 = "holds" if a * S1 > m * (S1 - y) else "violated"
        equac2 = "holds" if S1 - y >= mid else "violated"
        st = "holds" if mid < S2 < T2 + x else "violated"
        equac1 = "holds" if mid * S2 > T1 * (T2 + x) else "violated"
        equac3 = "holds" if b * (T2 + x) >= m * T2 else "violated"

    # the specialized form of the small triples, against the generic ratio
    appendix = "skipped"
    form = _SPECIAL_FORMS.get(triple)
    if form is not None and k >= form[0]:
        form_num = 1
        for factor in form[1](n, k):
            form_num *= factor
        form_den = 1
        for factor in form[2](n, k):
            form_den *= factor
        if form_num * den != num * form_den:
            raise IntegrityError(
                f"specialized form for {triple} at (n,k)=({n},{k}) gives "
                f"{form_num}/{form_den}, generic gives {num}/{den}"
            )
        appendix = "holds" if form_num > form_den else "violated"

    g = gcd(num, den)
    # positional, from locals named after the fields: a keyword build costs
    # more than twice as much, and a test holds each name to its field
    return VerificationRecord(
        n, k, s, i, t, num // g, den // g,
        Checks(
            thm32, ratio_identity, lemma_f, lemma_g, lemma_h, lemma_phi,
            equa1, equac2, st, equac1, equac3, appendix,
        ),
        Values(
            S1, S2, T1, T2,
            lemma_f_slack, lemma_g_slack, lemma_h_slack, lemma_phi_slack, equa3,
        ),
    )


def _grid_rows(
    t_lo: int, t_hi: int, k_span: int, n_span: int
) -> Iterator[tuple[int, int, range, list[tuple[int, int]]]]:
    """The grid by (t, k), in canonical order: t, k, the range of n and the
    (s, i) pairs, in order, each n of the range taking every pair."""
    if t_lo < 3:
        raise DomainError(f"t = {t_lo} < 3: engine restricted to t >= 3")
    if t_hi < t_lo or k_span < 0 or n_span < 0:
        raise UsageError("empty sweep ranges")
    for t in range(t_lo, t_hi + 1):
        for k in range(t, t + k_span + 1):
            n_base = (t + 1) * (k - t + 1)
            pairs = [
                (s, i)
                for s in range(t + 3, 2 * k - t + 1)
                for i in range(max(t + 1, s + t - k), min(k, (s + t) // 2) + 1)
            ]
            yield t, k, range(n_base, n_base + n_span + 1), pairs


def _grid_size(t_lo: int, t_hi: int, k_span: int, n_span: int) -> int:
    """The number of points of the grid, counted without a walk over them."""
    return sum(len(ns) * len(pairs) for _, _, ns, pairs in _grid_rows(t_lo, t_hi, k_span, n_span))


def _grid_points(
    t_lo: int, t_hi: int, k_span: int, n_span: int
) -> Iterator[tuple[int, int, int, int, int]]:
    """The canonical (t, k, n, s, i) tuples of the grid, in order."""
    for t, k, ns, pairs in _grid_rows(t_lo, t_hi, k_span, n_span):
        for n in ns:
            for s, i in pairs:
                yield (t, k, n, s, i)


def iter_grid(
    t_lo: int, t_hi: int, k_span: int, n_span: int
) -> Iterator[SectionParams]:
    """Grid points in canonical (t, k, n, s, i) order: k in [t, t+k_span],
    n in [(t+1)(k-t+1), (t+1)(k-t+1)+n_span], then all valid (s, i)."""
    from .reference import SectionParams

    for t, k, n, s, i in _grid_points(t_lo, t_hi, k_span, n_span):
        yield SectionParams(n, k, s, i, t)


class SweepSummary:
    """Running totals over sweep records: status counts per check, the
    lemma slack minima and the violated points."""

    VIOLATION_CAP = 1000

    def __init__(self) -> None:
        self.checked = 0
        self.clean = 0  # every evaluated check holds
        self.with_exclusion = 0  # at least one excluded status, none violated
        self.with_violation = 0
        self.violations: list[tuple[int, int, int, int, int, str]] = []
        self.status_counts: dict[str, dict[str, int]] = {}
        self.min_slack: dict[str, int] = {}
        self.last_point: tuple[int, int, int, int, int] | None = None

    def absorb(self, record: VerificationRecord) -> None:
        self.checked += 1
        self.last_point = record.point
        violated_here = []
        excluded_here = False
        for name, status in zip(CHECK_ORDER, record.checks):
            bucket = self.status_counts.setdefault(name, {})
            bucket[status] = bucket.get(status, 0) + 1
            if status == "violated":
                violated_here.append(name)
            elif status == "excluded":
                excluded_here = True
        for name in ("lemma_f", "lemma_g", "lemma_h", "lemma_phi"):
            slack = getattr(record.values, name + "_slack")
            if getattr(record.checks, name) != "excluded":
                if name not in self.min_slack or slack < self.min_slack[name]:
                    self.min_slack[name] = slack
        if violated_here:
            self.with_violation += 1
            if len(self.violations) < self.VIOLATION_CAP:
                self.violations.append(
                    (record.n, record.k, record.s, record.i, record.t, ",".join(violated_here))
                )
        elif excluded_here:
            self.with_exclusion += 1
        else:
            self.clean += 1

    def to_json_obj(self) -> dict:
        return {
            "checked": self.checked,
            "clean": self.clean,
            "with_exclusion": self.with_exclusion,
            "with_violation": self.with_violation,
            "violations": [list(v) for v in self.violations],
            "status_counts": self.status_counts,
            "min_slack": self.min_slack,
            "last_point": list(self.last_point) if self.last_point else None,
        }


def sweep(
    t_lo: int = 3,
    t_hi: int = 8,
    k_span: int = 12,
    n_span: int = 40,
) -> Iterator[VerificationRecord]:
    """Evaluate every grid point in canonical order, yielding its record."""
    return evaluate_points(_grid_points(t_lo, t_hi, k_span, n_span))


def evaluate_points(
    points: Iterable[tuple[int, int, int, int, int]]
) -> Iterator[VerificationRecord]:
    """The record of each canonical (t, k, n, s, i) point, in order.  A
    sweep worker passes the points of each of its blocks in turn, so that
    each point is evaluated once, by one worker."""
    for t, k, n, s, i in points:
        yield evaluate_point(n, k, s, i, t)
